#!/usr/bin/env python3
"""Summarise a SIGPROF sampler profile as per-function shares.

    python3 tools/sigprof/report.py sigprof.<pid>.txt [--top 15]
        [--under Kernel::vm_switch]

Reads the samples and the memory map that tools/sigprof/sampler.c wrote,
names every address with `addr2line -f -i -C -a` (inlined scopes included)
and prints the sample count, then the functions with the largest inclusive
share (the function or anything it called was running) next to their self
share (the function itself was running).

With --under FUNC it then prints the same two shares for the frames below
FUNC (its callees, inlined ones included), as shares of all samples. FUNC
names a frame by its qualified name without arguments or by any `::`
suffix of it.
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


def is_frame(name, func):
    """True when `name` (as addr2line prints it) is the function `func`."""
    bare = name.split("(", 1)[0]
    return bare == func or bare.endswith("::" + func)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--under", metavar="FUNC",
                    help="also break down the frames below FUNC")
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

    # Each sample's frames, innermost first.
    stacks = []
    for s in samples:
        frames = list(chain(s[0]))
        for a in s[1:]:
            frames.extend(chain(a - 1))
        stacks.append(frames)

    def shares(stacks):
        self_count, incl_count = collections.Counter(), collections.Counter()
        for frames in stacks:
            if frames:
                self_count[frames[0]] += 1
            incl_count.update(set(frames))
        return self_count, incl_count

    n = len(samples)

    def table(self_count, incl_count):
        print("%8s %8s  function" % ("incl%", "self%"))
        def row(incl, own, fn):
            print("%7.1f%% %7.1f%%  %s" % (100.0 * incl / n, 100.0 * own / n,
                                           fn[:110]))
        for fn, c in incl_count.most_common(args.top):
            row(c, self_count[fn], fn)
        print("top self:")
        for fn, c in self_count.most_common(args.top):
            row(incl_count[fn], c, fn)

    table(*shares(stacks))
    if args.under:
        # Cut each stack at its outermost FUNC frame, so recursion counts
        # once; a sample whose innermost frame is FUNC itself is FUNC's self
        # time and has no frame below it.
        below = []
        for frames in stacks:
            at = [i for i, fn in enumerate(frames) if is_frame(fn, args.under)]
            if at:
                below.append(frames[:at[-1]])
        print("under %s: %d samples (%.1f%%), %d in it itself" % (
            args.under, len(below), 100.0 * len(below) / n,
            sum(1 for b in below if not b)))
        if below:
            table(*shares(below))
    return 0


if __name__ == "__main__":
    sys.exit(main())
