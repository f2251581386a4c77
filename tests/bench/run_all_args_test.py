#!/usr/bin/env python3
"""run_all rejects a window that is not a positive number.

Each bad argument list must make run_all print its usage line and exit 2
at once, before it simulates anything.

Usage: run_all_args_test.py RUN_ALL
"""
import subprocess
import sys

BAD_ARGS = [["abc"], ["-5"], ["0"], ["nan"], ["inf"], ["1e400"], ["5x"],
            [""], ["50", "out.json", "extra"]]


def main():
    run_all = sys.argv[1]
    bad = 0
    for args in BAD_ARGS:
        try:
            r = subprocess.run([run_all] + args, capture_output=True,
                               text=True, timeout=10)
            ok = r.returncode == 2 and "usage: run_all" in r.stderr
            got = f"rc={r.returncode} stderr={r.stderr.strip()!r}"
        except subprocess.TimeoutExpired:
            ok, got = False, "no exit within 10 s"
        print(f"{'ok  ' if ok else 'FAIL'} run_all {args}: {got}")
        bad += not ok
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
