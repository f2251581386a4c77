#!/usr/bin/env python3
"""Gate a BENCH_results.json: Table III golden diff plus every section's rules.

The Table III rows are compared against the checked-in golden. Only
*simulated* quantities are compared (latency rows, trap counts, hit rates):
these are deterministic across hosts — any drift means a change altered
simulated behaviour, violating the bit-identical invariant (DESIGN.md §10).
Host-side numbers (wall clock, ns/op, speedups) are machine-dependent and
ignored, except for the mt speedup floor.

Integers must match exactly. Floats are compared with a tiny relative
tolerance that only absorbs printf round-tripping, not behavioural drift.

The density, smp, mt, prr_sched and claims sections are checked against
their rules; a missing section fails. Every failing section is reported
before the script exits 1.

Usage: check_table3.py BENCH_results.json [golden_table3.json]
"""
import json
import math
import pathlib
import statistics
import sys

REL_TOL = 1e-9
# Density acceptance: per-switch cost flat within 10% across 8 -> 1024 VMs.
DENSITY_SPREAD_MAX = 0.10
# PRR scheduler acceptance: the 4-entry cache must hold the sweep's hot
# task set (ISSUE gate: >= 50% hit rate with the scheduler features on).
PRR_HIT_RATE_MIN = 0.50
# The uncached scheduler leg's grant latency, as a multiple of the legacy
# leg's: preempt+park must cost no more than 1.5x a blind reclaim.
PRR_PARK_LATENCY_MAX = 1.5


# The claims section's fixed seeds and windows (run_all's claims.hpp).
CLAIM_SEEDS = [42, 1, 2, 3]
CLAIM_WINDOWS = {"fig9": 2000, "quantum": 1500, "lazy": 1000, "asid": 1000,
                 "pcap": 1000, "policies": 1000, "floorplan": 1000}
# The seedless sweeps: every library task, and three FFT sizes.
PCAP_TASKS = 9
HW_VS_SW_POINTS = [1024, 4096, 8192]
# PCAP throughput must be constant: max/min KiB/ms over the tasks.
PCAP_RATE_SPREAD_MAX = 1.05
# Claims whose rule fails on this model: their statistic is printed and they
# do not gate. EXPERIMENTS.md reports each as "not reproduced". A listed
# claim whose rule starts to hold fails, so the list and EXPERIMENTS.md stay
# true.
DEVIATIONS = {"fig9-deceleration", "quantum-33ms", "floorplan"}


class Failed(Exception):
    pass


def fail(msg: str) -> None:
    raise Failed(msg)


def check_density(density: dict) -> None:
    """Validate the VM-density section: O(1) switch cost and leak-free churn.

    These are acceptance thresholds rather than golden values: the curve
    shape is the claim, exact cycle counts may legitimately shift when the
    switch path itself changes (the Table III golden catches that).
    """
    vms = density.get("vms", [])
    cyc = density.get("sim_cycles_per_switch", [])
    if len(vms) < 2 or len(cyc) != len(vms):
        fail("density section malformed (need matched vms/cycles arrays)")
    lo, hi = min(cyc), max(cyc)
    if lo <= 0:
        fail("density sweep measured no switches")
    spread = hi / lo - 1.0
    if spread >= DENSITY_SPREAD_MAX:
        fail(f"switch cost not flat: {spread:.2%} spread across "
             f"{vms[0]} -> {vms[-1]} VMs (max {DENSITY_SPREAD_MAX:.0%})")
    churn = density.get("churn", {})
    if churn.get("heap_flat") is not True:
        fail(f"churn cycles grew the kernel heap: {churn}")
    print(f"check_table3: density OK — {spread:.2%} switch-cost spread over "
          f"{vms[0]}..{vms[-1]} VMs, churn heap flat "
          f"({churn.get('vms_destroyed')} VMs destroyed)")


def check_prr_sched(ps: dict) -> None:
    """Validate the PRR-scheduler contention sweep (DESIGN.md §15).

    Acceptance thresholds, not golden values: the legacy leg proves the
    default-off config stays priority-blind with zero cache traffic, the
    scheduler legs prove preempt/park/resume fires every round, the
    uncached scheduler leg proves the cache is really off and that
    preempt+park stays within PRR_PARK_LATENCY_MAX of blind reclaim, and
    the cached leg proves the bitstream cache earns its keep (>= 50% hit
    rate and a lower high-priority grant latency than the uncached leg).
    """
    configs = ps.get("configs", [])
    iters = int(ps.get("iterations", 0))
    if configs[:1] != ["legacy"] or len(configs) < 3 or iters <= 0:
        fail(f"prr_sched section malformed: configs={configs}, "
             f"iterations={iters}")

    def col(name: str, i: int):
        vals = ps.get(name, [])
        if i >= len(vals):
            fail(f"prr_sched row '{name}' missing config index {i}")
        return vals[i]

    bad = 0
    # Legacy: priority-blind reclaim, no scheduler machinery.
    if col("preemptions", 0) != 0 or col("resumes", 0) != 0:
        print("  prr_sched legacy leg ran the preemption path")
        bad += 1
    if col("cache_hits", 0) + col("cache_misses", 0) != 0:
        print("  prr_sched legacy leg generated cache traffic")
        bad += 1
    if col("reclaims", 0) != iters:
        print(f"  prr_sched legacy reclaims {col('reclaims', 0)} != "
              f"{iters} rounds")
        bad += 1
    # Scheduler legs: one preempt -> park -> resume cycle per round.
    for i, name in enumerate(configs[1:], start=1):
        for row in ("preemptions", "resumes", "wait_grants"):
            if col(row, i) != iters:
                print(f"  prr_sched {name} '{row}' {col(row, i)} != {iters}")
                bad += 1
        # `reclaims` counts every takeover, `preemptions` the
        # priority-checked subset: equal means no blind takeover happened.
        if col("reclaims", i) != col("preemptions", i):
            print(f"  prr_sched {name} fell back to blind reclaim")
            bad += 1
    # Uncached scheduler leg (the one before the cached leg).
    last = len(configs) - 1
    if col("cache_hits", last - 1) + col("cache_misses", last - 1) != 0:
        print(f"  prr_sched {configs[last - 1]} (cache off) generated cache "
              f"traffic")
        bad += 1
    park_us = float(col("avg_grant_us", last - 1))
    blind_us = float(col("avg_grant_us", 0))
    if park_us >= blind_us * PRR_PARK_LATENCY_MAX:
        print(f"  prr_sched {configs[last - 1]} grant latency {park_us:.2f} "
              f"us not below {PRR_PARK_LATENCY_MAX}x legacy {blind_us:.2f} us")
        bad += 1
    # Cached leg (last config): hit rate and latency win.
    hit_rate = float(col("hit_rate", last))
    if hit_rate < PRR_HIT_RATE_MIN:
        print(f"  prr_sched {configs[last]} hit rate {hit_rate:.1%} below "
              f"{PRR_HIT_RATE_MIN:.0%}")
        bad += 1
    lookups = col("cache_hits", last) + col("cache_misses", last)
    if lookups != col("grants_with_reconfig", last):
        print(f"  prr_sched {configs[last]} cache lookups {lookups} != "
              f"reconfig grants {col('grants_with_reconfig', last)}")
        bad += 1
    if float(col("avg_grant_us", last)) >= float(col("avg_grant_us",
                                                     last - 1)):
        print(f"  prr_sched cache did not cut grant latency: "
              f"{col('avg_grant_us', last)} vs {col('avg_grant_us', last-1)}")
        bad += 1
    if bad:
        fail(f"{bad} PRR-scheduler value(s) violated the acceptance gates")
    print(f"check_table3: prr_sched OK — {iters} preempt/resume rounds, "
          f"{hit_rate:.1%} cache hit rate, grant latency "
          f"{float(col('avg_grant_us', last)):.2f} us (cached) vs "
          f"{float(col('avg_grant_us', last - 1)):.2f} us (uncached)")


def check_smp(smp: dict, t3: dict) -> None:
    """Validate the SMP section against the unicore Table III results.

    The cores=1 point runs the exact Table III 4-guest configuration on a
    one-core kernel, so every latency and trap-count row must be
    bit-identical to the table3 section's last column, and it must take no
    SMP path — the SMP refactor's no-regression gate. Every multi-core
    point, up to cores=8, must show live protocol machinery (IPIs,
    shootdowns).
    """
    cores = smp.get("cores", [])
    if not cores or cores[0] != 1 or max(cores) < 8:
        fail(f"smp section must sweep from cores=1 to cores=8: {cores}")
    rows = t3.get("sim_rows", {})
    bad = 0
    for name in ("entry", "exit", "irq_entry", "exec", "total", "samples",
                 "hypercalls", "irq_traps"):
        got = smp.get(name, [None])[0]
        want = rows.get(name, [None])[-1]  # table3's 4-guest column
        if got is None or want is None:
            print(f"  smp row '{name}' missing")
            bad += 1
            continue
        if not math.isclose(float(got), float(want), rel_tol=REL_TOL,
                            abs_tol=1e-12):
            print(f"  smp cores=1 '{name}': got {got}, table3 4-guest {want}")
            bad += 1
    for name in ("ipis_sent", "shootdowns_sent", "steals"):
        if smp.get(name, [None])[0] != 0:
            print(f"  smp cores=1 '{name}' nonzero: unicore ran SMP paths")
            bad += 1
    for i, n in enumerate(cores[1:], start=1):
        for name in ("ipis_sent", "shootdowns_sent", "shootdown_acks"):
            vals = smp.get(name, [])
            if i >= len(vals) or vals[i] == 0:
                print(f"  smp cores={n} '{name}' is zero: protocol dead")
                bad += 1
    if bad:
        fail(f"{bad} SMP value(s) violated the scaling gates")
    print(f"check_table3: smp OK — cores=1 bit-identical to the 4-guest "
          f"row; protocol live at cores={cores[1:]}")


def check_mt(mt: dict, gates: dict) -> None:
    """Validate the host-parallel section (DESIGN.md §14).

    sim_digest is simulated and must be identical at every thread count —
    any divergence means the host-thread engine leaked into simulated
    state, which fails the build unconditionally. Throughput (host_speedup
    at the highest thread count) is a machine number: it is gated against
    the golden floor only when the host has at least that many CPUs,
    otherwise skipped with a note.
    """
    threads = mt.get("threads", [])
    digests = mt.get("sim_digest", [])
    if not threads or threads[0] != 1 or len(digests) != len(threads):
        fail("mt section must lead with a threads=1 point and carry one "
             "digest per point")
    bad = 0
    for t, d in zip(threads[1:], digests[1:]):
        if d != digests[0]:
            print(f"  mt threads={t} digest {d} != threads=1 {digests[0]}")
            bad += 1
    if bad:
        fail(f"{bad} host-thread digest(s) diverged — simulated state "
             "depends on the thread count")

    floor = float(gates.get("mt_min_speedup_top", 0.0))
    rate_floor = float(gates.get("mt_min_sim_us_per_host_s", 0.0))
    top_t = threads[-1]
    speedup = float(mt.get("host_speedup", [0.0])[-1])
    host_cpus = int(mt.get("host_cpus", 0))
    if rate_floor > 0:
        rate = float(mt.get("sim_us_per_host_s", [0.0])[0])
        if rate < rate_floor:
            fail(f"mt threads=1 simulation rate {rate:.0f} us/s below "
                 f"floor {rate_floor:.0f}")
    if floor > 0:
        if host_cpus >= top_t:
            if speedup < floor:
                fail(f"mt threads={top_t} host speedup {speedup:.2f}x below "
                     f"golden floor {floor:.2f}x")
            print(f"check_table3: mt OK — digests thread-invariant, "
                  f"{speedup:.2f}x at {top_t} threads (floor {floor:.2f}x)")
            return
        print(f"check_table3: mt digests thread-invariant; speedup gate "
              f"SKIPPED (host has {host_cpus} CPUs < {top_t})")
        return
    print("check_table3: mt OK — digests thread-invariant (no speedup gate)")


def spread(xs) -> str:
    """Mean and min–max of one statistic over the seeds."""
    return (f"mean {statistics.fmean(xs):.4g} "
            f"[{min(xs):.4g}–{max(xs):.4g}]")


def claim_rules(c: dict) -> dict:
    """Each claim's rule: name -> (holds, statistic over the seeds).

    Seeded metrics are [seed][config] arrays in the order of the group's
    `configs`; the seedless sweeps are flat [config] arrays.
    """
    def grid(group, metric):
        cfgs = c[group]["configs"]
        return [dict(zip(cfgs, r)) for r in c[group][metric]]

    rules = {}
    vfp, entry = grid("lazy", "vfp_transfers"), grid("lazy", "entry_us")
    rules["lazy-vfp"] = (
        all(v["lazy"] < v["active"] for v in vfp) and
        all(e["lazy"] < e["active"] for e in entry),
        "VFP transfers active/lazy "
        f"{spread([v['active'] / max(v['lazy'], 1) for v in vfp])}, "
        "entry active-lazy "
        f"{spread([e['active'] - e['lazy'] for e in entry])} us")

    fl, mr = grid("asid", "tlb_flushes"), grid("asid", "tlb_miss_rate")
    rules["asid"] = (
        all(f[f"{g} ASID"] == 0 and m[f"{g} ASID"] < m[f"{g} flush"]
            for f, m in zip(fl, mr) for g in (2, 4)),
        "ASID-mode flushes max "
        f"{max(f[f'{g} ASID'] for f in fl for g in (2, 4))}, "
        "flush/ASID TLB miss rate at 4 guests "
        f"{spread([m['4 flush'] / m['4 ASID'] for m in mr])}")

    resp, ticks = grid("pcap", "total_us"), grid("pcap", "guest_ticks")
    qam4_us = min(c["pcap_size"]["measured_us"])
    rules["pcap-overlap"] = (
        all(r["overlapped"] < qam4_us < r["blocking"] for r in resp) and
        all(t["blocking"] < t["overlapped"] for t in ticks),
        f"response overlapped {spread([r['overlapped'] for r in resp])} us, "
        f"blocking {spread([r['blocking'] for r in resp])} us, smallest PCAP "
        f"{qam4_us:.1f} us; guest ticks blocking/overlapped "
        f"{spread([t['blocking'] / t['overlapped'] for t in ticks])}")

    sw = grid("quantum", "vm_switches")
    rules["quantum-33ms"] = (
        all(s["8 ms"] >= 2 * s["33 ms"] for s in sw),
        "VM switches 8 ms/33 ms "
        f"{spread([s['8 ms'] / s['33 ms'] for s in sw])}")

    nr, pc = grid("policies", "no_reconfig_grants"), grid("policies", "pcaps")
    others = ("first-fit", "LRU region")
    lead = [n["resident-first"] - max(n[o] for o in others) for n in nr]
    pcap_lead = [min(p[o] for o in others) - p["resident-first"] for p in pc]
    rules["resident-first"] = (
        min(lead) > 0 and min(pcap_lead) > 0,
        f"no-reconfig grant lead {spread(lead)}, "
        f"PCAP lead {spread(pcap_lead)}")

    def worst_rise(rows):  # largest step-to-step increase over the sweep
        return [max(b - a for a, b in zip(r, r[1:])) for r in rows]
    busy, recl = c["floorplan"]["busy"], c["floorplan"]["reclaims"]
    rules["floorplan"] = (
        max(worst_rise(busy) + worst_rise(recl)) <= 0,
        f"largest rise in busy rejections {spread(worst_rise(busy))}, "
        f"in reclaims {spread(worst_rise(recl))} "
        f"({' / '.join(c['floorplan']['configs'])})")

    rate = c["pcap_size"]["kib_per_ms"]
    rules["pcap-size"] = (
        max(rate) / min(rate) <= PCAP_RATE_SPREAD_MAX,
        f"KiB/ms {min(rate):.1f}–{max(rate):.1f} over {len(rate)} tasks, "
        f"max/min {max(rate) / min(rate):.4f}")

    hs = c["hw_vs_sw"]
    rules["hw-vs-sw"] = (
        all(w < s for w, s in zip(hs["hw_warm_us"], hs["sw_us"])),
        "software/warm-HW " + ", ".join(
            f"FFT-{n} {s / w:.1f}x" for n, s, w in
            zip(hs["fft_points"], hs["sw_us"], hs["hw_warm_us"])))

    total = c["fig9"]["total"]
    d12 = [t[2] - t[1] for t in total]
    d34 = [t[4] - t[3] for t in total]
    rules["fig9-deceleration"] = (
        statistics.fmean(d34) < statistics.fmean(d12),
        f"total increment 1->2 OS {spread(d12)} us, 3->4 OS {spread(d34)} us")
    return rules


def check_claims(c: dict) -> None:
    """Check the paper's design claims (EXPERIMENTS.md "Ablations").

    Each rule below was fixed before its results were seen. The seeded
    claims must hold on every seed, except Fig. 9, whose rule is on the mean
    increment over the seeds. No claim has a slack constant.
    """
    if c.get("seeds") != CLAIM_SEEDS:
        fail(f"claims seeds {c.get('seeds')} != {CLAIM_SEEDS}")
    for group, ms in CLAIM_WINDOWS.items():
        g = c.get(group, {})
        if g.get("sim_ms") != ms:
            fail(f"claims window '{group}' is {g.get('sim_ms')} ms, not {ms}")
        width = len(g.get("configs", []))
        for metric, rows in g.items():
            if metric in ("sim_ms", "configs"):
                continue
            if len(rows) != len(CLAIM_SEEDS) or any(
                    len(r) != width for r in rows):
                fail(f"claims '{group}.{metric}' is not one row of {width} "
                     f"per seed")
    if len(c.get("pcap_size", {}).get("kib_per_ms", [])) != PCAP_TASKS:
        fail(f"claims 'pcap_size' does not cover the {PCAP_TASKS} tasks")
    if c.get("hw_vs_sw", {}).get("fft_points") != HW_VS_SW_POINTS:
        fail(f"claims 'hw_vs_sw' does not cover FFT sizes {HW_VS_SW_POINTS}")
    try:
        rules = claim_rules(c)
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            statistics.StatisticsError) as e:
        fail(f"claims section malformed: {e!r}")
    problems = []
    for name, (holds, stat) in rules.items():
        if name in DEVIATIONS:
            if holds:
                problems.append(f"claim '{name}' now holds but is listed as a "
                                f"deviation ({stat})")
            else:
                print(f"check_table3: deviation '{name}' (not reproduced): "
                      f"{stat}")
        elif not holds:
            problems.append(f"claim '{name}' violated ({stat})")
        else:
            print(f"check_table3: claim '{name}' OK: {stat}")
    if problems:
        fail("; ".join(problems))


def check_table3(t3: dict, golden: dict, golden_path: pathlib.Path) -> None:
    if t3.get("sim_ms") != golden["sim_ms"]:
        fail(f"sim_ms mismatch: results ran {t3.get('sim_ms')} ms/config, "
             f"golden expects {golden['sim_ms']}")
    if t3.get("configs") != golden["configs"]:
        fail(f"config list mismatch: {t3.get('configs')}")

    rows = t3.get("sim_rows", {})
    bad = 0
    for name, want in golden["sim_rows"].items():
        got = rows.get(name)
        if got is None:
            print(f"  missing row: {name}")
            bad += 1
            continue
        if len(got) != len(want):
            fail(f"row '{name}' has {len(got)} values, golden has "
                 f"{len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, int) and isinstance(g, int):
                ok = g == w
            else:
                ok = math.isclose(float(g), float(w), rel_tol=REL_TOL,
                                  abs_tol=1e-12)
            if not ok:
                print(f"  row '{name}' config {golden['configs'][i]}: "
                      f"got {g}, golden {w}")
                bad += 1
    extra = set(rows) - set(golden["sim_rows"])
    if extra:
        print(f"  note: rows not in golden (ignored): {sorted(extra)}")
    if bad:
        fail(f"{bad} simulated value(s) diverged from golden")
    print(f"check_table3: OK — {len(golden['sim_rows'])} rows bit-identical "
          f"to {golden_path.name}")


def main() -> None:
    if len(sys.argv) < 2:
        print("usage: check_table3.py BENCH_results.json [golden.json]")
        sys.exit(1)
    results_path = pathlib.Path(sys.argv[1])
    golden_path = (pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else
                   pathlib.Path(__file__).parent / "golden_table3.json")

    results = json.loads(results_path.read_text())
    golden = json.loads(golden_path.read_text())

    t3 = results.get("table3", {})
    sections = {
        "table3": lambda s: check_table3(s, golden, golden_path),
        "density": check_density,
        "smp": lambda s: check_smp(s, t3),
        "mt": lambda s: check_mt(s, golden.get("host_gates", {})),
        "prr_sched": check_prr_sched,
        "claims": check_claims,
    }
    failures = []
    for name, check in sections.items():
        try:
            if name not in results:
                fail(f"missing section '{name}'")
            check(results[name])
        except Failed as e:
            failures.append(f"{name}: {e}")
    for f in failures:
        print(f"check_table3: FAIL: {f}")
    if failures:
        print(f"check_table3: {len(failures)} section(s) failed")
        sys.exit(1)


if __name__ == "__main__":
    main()
