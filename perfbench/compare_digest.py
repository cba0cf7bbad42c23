#!/usr/bin/env python3
"""Compares simulation digests written by perfbench/run.py.

    python3 perfbench/compare_digest.py A B

A and B are digest files (<workload>.seed<N>.digest.json) or directories of
them, matched by file name. Prints every device image hash and simulated
metric that differs and exits 1 if any does, 0 if the simulated machines
are identical. A change meant to speed up only the simulator itself should
compare identical; a change to the model is expected to differ, so this is
a report, not a gate.
"""
import json
import os
import sys


def load(path):
    if os.path.isdir(path):
        return {f: os.path.join(path, f) for f in sorted(os.listdir(path))
                if f.endswith(".digest.json")}
    return {os.path.basename(path): path}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    if len(a) == 1 and len(b) == 1:
        pairs = [(next(iter(a.values())), next(iter(b.values())))]
    else:
        pairs = [(a[k], b[k]) for k in sorted(a) if k in b]
        for k in sorted(set(a) ^ set(b)):
            print("only on one side: " + k)
    differ = 0
    for pa, pb in pairs:
        with open(pa) as f:
            da = json.load(f)
        with open(pb) as f:
            db = json.load(f)
        name = "%s seed %s" % (da["workload"], da["seed"])
        if da["images"] != db["images"]:
            print("%s: device images differ" % name)
            differ += 1
        for k in sorted(set(da["metrics"]) | set(db["metrics"])):
            va, vb = da["metrics"].get(k), db["metrics"].get(k)
            if va != vb:
                print("%s: %s %s -> %s" % (name, k, va, vb))
                differ += 1
        if da["digest"] == db["digest"]:
            print("%s: identical (%s)" % (name, da["digest"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
