#!/usr/bin/env python3
"""Self-test for bench/check_table3.py: each rule trips on a mutated copy.

Every mutant is a copy of a run_all result with one edit. check_table3.py
must exit 1 on it and name the mutant's rule on a FAIL line. The rule must
not be named on any FAIL line for the unmutated file, so the edit is what
tripped it.

Usage: check_table3_test.py CHECK_TABLE3_PY BENCH_results.json
"""
import copy
import json
import os
import subprocess
import sys
import tempfile


def claims(d, group):
    return d["claims"][group]


def every_seed(rows, edit):
    for r in rows:
        edit(r)


def set_item(row, i, v):
    row[i] = v


# (names that must appear on the FAIL lines, edit of the parsed JSON)
MUTANTS = [
    # A missing section fails instead of being skipped.
    (["missing section 'density'"], lambda d: d.pop("density")),
    (["missing section 'smp'"], lambda d: d.pop("smp")),
    (["missing section 'mt'"], lambda d: d.pop("mt")),
    (["missing section 'prr_sched'"], lambda d: d.pop("prr_sched")),
    (["missing section 'claims'"], lambda d: d.pop("claims")),
    # A result row shorter than its golden row fails.
    (["row 'entry'"], lambda d: d["table3"]["sim_rows"]["entry"].pop()),
    # Every failing section is reported, not only the first.
    (["missing section 'density'", "missing section 'prr_sched'"],
     lambda d: (d.pop("density"), d.pop("prr_sched"))),
    # The claims run at fixed seeds and windows.
    (["claims seeds"], lambda d: d["claims"]["seeds"].pop()),
    (["claims window 'quantum'"],
     lambda d: claims(d, "quantum").update(sim_ms=1000)),
    (["claims 'asid.jobs'"], lambda d: claims(d, "asid")["jobs"].pop()),
    (["claims 'pcap_size'"],
     lambda d: claims(d, "pcap_size")["kib_per_ms"].pop()),
    (["claims 'hw_vs_sw'"],
     lambda d: [claims(d, "hw_vs_sw")[k].pop() for k in
                ("fft_points", "sw_us", "hw_cold_us", "hw_warm_us")]),
    # One mutant per claim rule.
    (["claim 'lazy-vfp'"],
     lambda d: set_item(claims(d, "lazy")["entry_us"][3], 0,
                        claims(d, "lazy")["entry_us"][3][1])),
    (["claim 'asid'"],
     lambda d: set_item(claims(d, "asid")["tlb_flushes"][1], 2, 1)),
    (["claim 'pcap-overlap'"],
     lambda d: set_item(claims(d, "pcap")["guest_ticks"][2], 1,
                        claims(d, "pcap")["guest_ticks"][2][0])),
    (["claim 'resident-first'"],
     lambda d: set_item(claims(d, "policies")["no_reconfig_grants"][0], 1,
                        claims(d, "policies")["no_reconfig_grants"][0][0])),
    (["claim 'pcap-size'"],
     lambda d: set_item(claims(d, "pcap_size")["kib_per_ms"], 0,
                        claims(d, "pcap_size")["kib_per_ms"][0] * 1.1)),
    (["claim 'hw-vs-sw'"],
     lambda d: set_item(claims(d, "hw_vs_sw")["hw_warm_us"], 2,
                        claims(d, "hw_vs_sw")["sw_us"][2])),
    # A deviation whose rule starts to hold fails until it is taken off the
    # list of deviations.
    (["claim 'quantum-33ms'"],
     lambda d: every_seed(claims(d, "quantum")["vm_switches"],
                          lambda r: set_item(r, 0, 4 * r[1]))),
    (["claim 'floorplan'"],
     lambda d: [every_seed(claims(d, "floorplan")[m],
                           lambda r: r.sort(reverse=True))
                for m in ("busy", "reclaims")]),
    (["claim 'fig9-deceleration'"],
     lambda d: every_seed(claims(d, "fig9")["total"],
                          lambda r: set_item(r, 4, r[3]))),
    # The existing sections' gates.
    (["digest(s) diverged"],
     lambda d: set_item(d["mt"]["sim_digest"], 1, "0" * 16)),
    (["switch cost not flat"],
     lambda d: set_item(d["density"]["sim_cycles_per_switch"], 0, 150)),
]


def fail_lines(checker, data, tmp):
    path = os.path.join(tmp, "results.json")
    with open(path, "w") as f:
        json.dump(data, f)
    r = subprocess.run([sys.executable, checker, path], capture_output=True,
                       text=True, timeout=60)
    lines = [l for l in r.stdout.splitlines()
             if l.startswith("check_table3: FAIL")]
    return r.returncode, "\n".join(lines), r.stdout


def main():
    checker, results = sys.argv[1], sys.argv[2]
    base = json.load(open(results))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        _, base_fails, _ = fail_lines(checker, base, tmp)
        for names, edit in MUTANTS:
            data = copy.deepcopy(base)
            edit(data)
            rc, fails, out = fail_lines(checker, data, tmp)
            missing = [n for n in names if n not in fails]
            already = [n for n in names if n in base_fails]
            if rc != 1 or missing or already:
                print(f"FAIL mutant {names}: rc={rc}, not named: {missing}, "
                      f"named without the edit: {already}\n{out}")
                bad += 1
            else:
                print(f"ok   mutant {names}")
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants tripped their rule")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
