#!/usr/bin/env python3
"""Summarise a SIGPROF sampler profile as per-function shares.

    python3 tools/sigprof/report.py sigprof.<pid>.txt [--top 15]

Reads the samples and the memory map that tools/sigprof/sampler.c wrote,
names every address with `addr2line -f -i -C -a` (inlined scopes included)
and prints the sample count, then the functions with the largest inclusive
share (the function or anything it called was running) next to their self
share (the function itself was running).
"""
import argparse
import collections
import subprocess
import sys


def parse(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if line in ("maps", "samples"):
                section = line
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def is_fixed_address(path):
    """True for a non-PIE executable (ELF type ET_EXEC)."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
        return len(header) == 18 and header[16] == 2
    except OSError:
        return False


def symbolize(maps, addrs):
    """Map each address to its inline chain of names, innermost first."""
    by_file = collections.defaultdict(dict)  # path -> {file address: addr}
    for addr in addrs:
        for lo, hi, off, path in maps:
            if lo <= addr < hi:
                key = addr if is_fixed_address(path) else addr - lo + off
                by_file[path][key] = addr
                break
    names = {}
    for path, keys in by_file.items():
        query = "\n".join("%x" % k for k in keys) + "\n"
        out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path],
                             input=query, capture_output=True, text=True).stdout
        current = None
        lines = out.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                current = keys.get(int(lines[i], 16))
                names[current] = []
                i += 1
            else:
                fn = lines[i]
                if fn == "??":
                    fn = "?? (%s)" % path.rsplit("/", 1)[-1]
                names[current].append(fn)
                i += 2  # skip the file:line line
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args()

    maps, samples = parse(args.profile)
    print("samples: %d" % len(samples))
    if not samples:
        return 1
    # Return addresses point after the call; look one byte back so the
    # caller's line (and its inline chain) is the call site's.
    addrs = set()
    for s in samples:
        addrs.add(s[0])
        addrs.update(a - 1 for a in s[1:])
    names = symbolize(maps, addrs)

    def chain(addr):
        return names.get(addr) or ["?? %#x" % addr]

    self_count, incl_count = collections.Counter(), collections.Counter()
    for s in samples:
        self_count[chain(s[0])[0]] += 1
        seen = set(chain(s[0]))
        for a in s[1:]:
            seen.update(chain(a - 1))
        incl_count.update(seen)

    n = len(samples)
    print("%8s %8s  function" % ("incl%", "self%"))
    for fn, c in incl_count.most_common(args.top):
        print("%7.1f%% %7.1f%%  %s" % (100.0 * c / n, 100.0 * self_count[fn] / n,
                                       fn[:110]))
    print("top self:")
    for fn, c in self_count.most_common(args.top):
        print("%7.1f%% %7.1f%%  %s" % (100.0 * incl_count[fn] / n, 100.0 * c / n,
                                       fn[:110]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
