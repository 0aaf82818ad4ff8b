"""Time the three baseline operations that ROADMAP.md quotes, with the same
fresh import of ``src/ebrmaps`` as the benchmark.

    python3 perfbench/baseline.py [--repeats N]

Prints, per operation, the median and the quartiles of N repeats in seconds:
``torus_rect(8, 8)`` with its invariants, ``coset_enumerate`` of
``dihedral_presentation(2000)`` (order 4000), and ``enumerate_ebr`` with
``require_proper=True`` over all 39 catalog groups.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import SRC, import_ebrmaps


def torus_8_8(ebr):
    ebr.torus_rect(8, 8).invariants()


def dihedral_2000(ebr):
    ebr.coset_enumerate(ebr.dihedral_presentation(2000), max_cosets=10**6)


def proper_sweep(ebr):
    for name in ebr.catalog_names():
        ebr.enumerate_ebr(ebr.catalog_group(name), require_proper=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    ebr = import_ebrmaps()
    for op in (torus_8_8, dihedral_2000, proper_sweep):
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            op(ebr)
            times.append(time.perf_counter() - start)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(json.dumps({"op": op.__name__, "repeats": len(times),
                          "median_s": round(statistics.median(times), 3),
                          "q1_s": round(q1, 3), "q3_s": round(q3, 3)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
