#!/usr/bin/env python3
"""Self-test of the benchmark: a short pass over every workload.

Run from the repository root:  python3 perfbench/selftest.py

Asserts that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with its
    unit, and nothing else, and passes its correctness gate;
  * a traced run does the same for every per-layer metric;
  * a deliberately wrong pinned digest trips the gate: the run reports
    correct=false, counts the failure and exits non-zero.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig8_4vm", "smp_compute", "density_churn", "prr_contention"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok:   " + what)


def check_metrics(result, expected, what):
    got = result["metrics"]
    check(set(got) == set(expected),
          "%s prints exactly the BENCHMARK.json metrics (missing %s, extra %s)"
          % (what, sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    bad = [n for n, unit in expected.items() if got[n].get("unit") != unit]
    check(not bad, "%s prints each metric with its unit %s" % (what, bad or ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in WORKLOADS:
        code, res = run(w, 0)
        check(code == 0 and res and res["correct"] and res["failed"] == 0,
              "%s untraced run is correct" % w)
        check_metrics(res, e2e, "%s untraced run" % w)
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              "%s end-to-end metrics are non-zero" % w)

        code, res = run(w, 1)
        check(code == 0 and res and res["correct"], "%s traced run is correct" % w)
        check_metrics(res, layer, "%s traced run" % w)

        code, res = run(w, 0, ["--expect-digest", "0123456789abcdef"])
        check(code != 0 and res and not res["correct"] and res["failed"] >= 1,
              "%s wrong pinned digest trips the gate" % w)
    print("selftest passed")


if __name__ == "__main__":
    main()
