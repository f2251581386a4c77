#!/usr/bin/env python3
"""Print a BENCH_results.json (written by run_all) as markdown tables.

Table III and Fig. 9 print with the paper's values beside ours. The claim
tables show seed 42, the first of the claims section's seeds;
check_table3.py prints each claim's statistic over all the seeds.

Usage: render.py BENCH_results.json
"""
import json
import sys

TABLE3_ROWS = [("entry", "HW Manager entry"), ("exit", "HW Manager exit"),
               ("irq_entry", "PL IRQ entry"),
               ("exec", "HW Manager execution"), ("total", "Total overhead")]
TABLE3_PAPER = {
    "entry": [0, 0.87, 1.11, 1.26, 1.29],
    "exit": [0, 0.72, 0.91, 0.96, 0.99],
    "irq_entry": [0, 0.23, 0.46, 0.50, 0.51],
    "exec": [15.01, 15.46, 15.83, 16.11, 16.31],
    "total": [15.01, 17.06, 17.84, 18.33, 18.57],
}
# Fig. 9: entry, exit and IRQ entry relative to 1 OS (they are zero
# natively), execution and total relative to native; columns 1..4 OS.
FIG9_PAPER = {
    "entry": [1.000, 1.270, 1.443, 1.655],
    "exit": [1.000, 1.255, 1.328, 1.366],
    "irq_entry": [1.000, 1.981, 2.115, 2.221],
    "exec": [1.032, 1.056, 1.075, 1.085],
    "total": [1.138, 1.191, 1.223, 1.227],
}
# The metrics each claim table shows, as (JSON name, label).
CLAIM_METRICS = {
    "lazy": [("vm_switches", "VM switches"),
             ("vfp_transfers", "VFP context transfers"),
             ("entry_us", "HW manager entry (us)"),
             ("total_us", "HW request total (us)"),
             ("guest_ticks", "guest ticks")],
    "asid": [("tlb_miss_rate", "TLB miss rate"),
             ("tlb_flushes", "TLB flushes"),
             ("entry_us", "HW entry (us)"), ("total_us", "HW total (us)"),
             ("jobs", "jobs")],
    "pcap": [("exec_us", "HW manager execution (us)"),
             ("total_us", "HW request response (us)"),
             ("jobs", "hardware jobs completed"),
             ("guest_ticks", "guest ticks")],
    "quantum": [("vm_switches", "VM switches"), ("entry_us", "HW entry (us)"),
                ("total_us", "HW total (us)"),
                ("l1i_miss_rate", "L1I miss rate"), ("jobs", "jobs")],
    "policies": [("grants", "grants"),
                 ("no_reconfig_grants", "no-reconfig grants"),
                 ("pcaps", "PCAPs"), ("reclaims", "reclaims"),
                 ("jobs", "jobs done"), ("total_us", "HW total (us)")],
    "floorplan": [("requests", "requests"), ("grants", "grants"),
                  ("busy", "busy"), ("reclaims", "reclaims"),
                  ("pcaps", "PCAPs"), ("jobs", "jobs done"),
                  ("total_us", "HW total (us)")],
}


def fmt(v, digits=2):
    return str(v) if isinstance(v, int) else f"{v:.{digits}f}"


def table(title, header, rows):
    print(f"\n### {title}\n")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for r in rows:
        print("| " + " | ".join(r) + " |")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: render.py BENCH_results.json")
    d = json.loads(open(sys.argv[1]).read())
    t3 = d["table3"]
    cols = ["Native", "1 OS", "2 OS", "3 OS", "4 OS"]
    rows = []
    for key, label in TABLE3_ROWS:
        rows.append([label, "paper"] + [fmt(v) for v in TABLE3_PAPER[key]])
        rows.append(["", "**ours**"] +
                    [fmt(v) for v in t3["sim_rows"][key]])
    table(f"Table III: overhead of hardware task management (us), "
          f"{fmt(t3['sim_ms'])} ms per configuration, seed 42",
          ["metric", "source"] + cols, rows)

    c = d["claims"]
    f9 = c["fig9"]
    rows = []
    for key, label in TABLE3_ROWS:
        ours = f9[key][0]
        base = ours[1] if key in ("entry", "exit", "irq_entry") else ours[0]
        vs = "1 OS" if key in ("entry", "exit", "irq_entry") else "native"
        rows.append([f"{label} (vs {vs})", "paper"] +
                    [fmt(v, 3) for v in FIG9_PAPER[key]])
        rows.append(["", "**ours**"] + [fmt(v / base, 3) for v in ours[1:]])
    table(f"Fig. 9: degradation ratio R_D, {fmt(f9['sim_ms'])} ms per "
          f"configuration, seed {c['seeds'][0]}",
          ["ratio", "source"] + cols[1:], rows)

    for name, metrics in CLAIM_METRICS.items():
        g = c[name]
        table(f"{name}: {fmt(g['sim_ms'])} ms per configuration, "
              f"seed {c['seeds'][0]}", ["metric"] + g["configs"],
              [[label] + [fmt(v, 4 if key.endswith("rate") else 2)
                          for v in g[key][0]] for key, label in metrics])

    p = c["pcap_size"]
    table("PCAP reconfiguration latency vs bitstream size",
          ["task", ".bit size (KiB)", "model (us)", "measured (us)", "KiB/ms"],
          [[t, fmt(k), fmt(mo, 1), fmt(me, 1), fmt(r, 1)]
           for t, k, mo, me, r in zip(p["tasks"], p["kib"], p["model_us"],
                                      p["measured_us"], p["kib_per_ms"])])
    h = c["hw_vs_sw"]
    table("Software DSP vs DPR hardware task",
          ["FFT size", "software (us)", "hw cold (us, +PCAP)", "hw warm (us)",
           "speedup (warm)"],
          [[f"FFT-{n}", fmt(s, 1), fmt(hc, 1), fmt(hw, 1), f"{s / hw:.1f}x"]
           for n, s, hc, hw in zip(h["fft_points"], h["sw_us"],
                                   h["hw_cold_us"], h["hw_warm_us"])])

    smp = d["smp"]
    table("SMP scaling: Table III workload, 4 guests (us)",
          ["cores"] + [str(n) for n in smp["cores"]],
          [[key] + [fmt(v) for v in smp[key]]
           for key in ("entry", "exit", "irq_entry", "exec", "total",
                       "vm_switches", "ipis_sent", "steals",
                       "shootdowns_sent", "cross_core_irqs")])
    mt = d["mt"]
    table(f"Host-parallel: {mt['cores']} cores, {mt['host_cpus']} host CPUs",
          ["threads", "host s", "speedup", "sim digest"],
          [[str(t), fmt(s, 3), fmt(float(x)), dg] for t, s, x, dg in
           zip(mt["threads"], mt["host_seconds"], mt["host_speedup"],
               mt["sim_digest"])])
    den = d["density"]
    table("VM density", ["VMs", "switches", "sim cycles/switch", "heap B/VM",
                         "ASID gen", "host ns/switch"],
          [[str(n), str(s), fmt(cy, 1), fmt(hb, 0), str(a), fmt(ns, 0)]
           for n, s, cy, hb, a, ns in
           zip(den["vms"], den["switches"], den["sim_cycles_per_switch"],
               den["heap_bytes_per_vm"], den["asid_generation"],
               den["host_ns_per_switch"])])
    ps = d["prr_sched"]
    table(f"PRR scheduler contention, {ps['iterations']} rounds",
          ["config", "preempt", "resume", "reclaim", "wait-grant",
           "reconfig", "cache hit %", "grant us"],
          [[ps["configs"][i]] +
           [str(ps[k][i]) for k in ("preemptions", "resumes", "reclaims",
                                    "wait_grants", "grants_with_reconfig")] +
           [fmt(float(ps["hit_rate"][i]) * 100, 1), fmt(ps["avg_grant_us"][i])]
           for i in range(len(ps["configs"]))])


if __name__ == "__main__":
    main()
