"""Determinism self-check of the benchmark's work counts.

For every workload, runs its first operations twice with one seed and once
with the next seed, and requires identical counts (levels, steps, bits,
comparisons, run tallies, exact counts) for the same seed and different
counts for the other seed. Takes about a minute; exits 1 on a mismatch.

    python3 perfbench/selfcheck.py [--seed 7]
"""

from __future__ import annotations

import argparse
import sys

from run import import_linext

# Operations per workload: one estimate is ~10 s; one count-wide cycle is 7 ops.
OPS = {"draw-free": 2, "estimate-grid": 1, "count-wide": 7}


def counts(lx, cls, seed: int, ops: int) -> tuple[list, bool]:
    wl = cls(lx, seed)
    try:
        wl.prepare()
        records = [wl.op(i) for i in range(ops)]
    finally:
        wl.close()
    return [r["counts"] for r in records], all(r["ok"] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    lx = import_linext()
    from workloads import WORKLOADS

    passed = True
    for name, cls in WORKLOADS.items():
        first, ok1 = counts(lx, cls, args.seed, OPS[name])
        again, ok2 = counts(lx, cls, args.seed, OPS[name])
        other, ok3 = counts(lx, cls, args.seed + 1, OPS[name])
        good = ok1 and ok2 and ok3 and first == again and first != other
        passed &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: same seed identical={first == again}, "
              f"next seed differs={first != other}, results correct={ok1 and ok2 and ok3}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
