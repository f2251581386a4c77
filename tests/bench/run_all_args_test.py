#!/usr/bin/env python3
"""A driver rejects a malformed command line before it simulates anything.

Each bad argument list of the program's table must make it print its usage
line on stderr, nothing on stdout, and exit 2 at once.

Usage: run_all_args_test.py PROGRAM   (run_all or mininova_fuzz)
"""
import os
import subprocess
import sys

BAD_ARGS = {
    # The window must be a positive number of milliseconds.
    "run_all": [["abc"], ["-5"], ["0"], ["nan"], ["inf"], ["1e400"], ["5x"],
                [""], ["50", "out.json", "extra"]],
    # Every numeric flag takes a whole non-negative integer that fits its
    # field; a flag without its value is an error, not a no-op.
    "mininova_fuzz": [["--seeds", "abc"], ["--steps", "x"], ["--seeds"],
                      ["--seeds", "-5"], ["--steps", "5x"],
                      ["--seed-base", ""], ["--seed", "1.5"],
                      ["--cores", "1e3"], ["--threads", " 2"],
                      ["--seeds", "4294967296"],
                      ["--seed-base", "18446744073709551616"],
                      ["--steps", "--verbose"], ["--out"],
                      ["--sabotage-oracle", "nope"], ["--bogus"]],
}


def main():
    program = sys.argv[1]
    name = os.path.basename(program)
    bad = 0
    for args in BAD_ARGS[name]:
        try:
            r = subprocess.run([program] + args, capture_output=True,
                               text=True, timeout=10)
            ok = (r.returncode == 2 and f"usage: {name}" in r.stderr
                  and r.stdout == "")
            got = (f"rc={r.returncode} stdout={r.stdout.strip()!r} "
                   f"stderr={r.stderr.strip()!r}")
        except subprocess.TimeoutExpired:
            ok, got = False, "no exit within 10 s"
        print(f"{'ok  ' if ok else 'FAIL'} {name} {args}: {got}")
        bad += not ok
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
