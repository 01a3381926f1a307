#!/usr/bin/env python3
"""Compare the orbit-count formula against brute-force enumeration on a grid.

Enumerates, for each cell (D, m, n), the c = 0 slice of integer cubes with
bounded entries whose invariants match, counts the connected components of
their move graph by union-find (orbit_count_oracle), and compares the stable
count against B(D, m, n).  Prints each mismatch and a one-line summary with
the number of cubes enumerated; exit 1 on mismatch, and exit 2 with the
oracle's estimate when a cell's box is above its work cap.
"""

from __future__ import annotations

import argparse
import sys
import time

from cubezeta.congruence import RangeError, is_discriminant
from cubezeta.cube import orbit_count_oracle
from cubezeta.orbits import B


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Dmax", type=int, default=30)
    parser.add_argument("--Mmax", type=int, default=3, help="bound on m and n")
    parser.add_argument("--entry-bound", type=int, default=None)
    parser.add_argument("--slack", type=int, default=5)
    args = parser.parse_args()
    if args.Dmax < 0:
        parser.error("--Dmax must be nonnegative")
    if args.Mmax < 1:
        parser.error("--Mmax must be at least 1")
    if args.entry_bound is not None and args.entry_bound < 0:
        parser.error("--entry-bound must be nonnegative")
    if args.slack < 0:
        parser.error("--slack must be nonnegative")

    t0 = time.perf_counter()
    cells = mismatches = unstable = enumerated = 0
    for D in range(-args.Dmax, args.Dmax + 1):
        if not is_discriminant(D):
            continue
        for m in range(1, args.Mmax + 1):
            for n in range(m, args.Mmax + 1):
                cells += 1
                try:
                    result = orbit_count_oracle(
                        D, m, n, entry_bound=args.entry_bound, slack=args.slack
                    )
                except RangeError as exc:
                    print(f"error: D={D} m={m} n={n}: {exc}", file=sys.stderr)
                    return 2
                enumerated += result.cubes_enumerated
                want = B(D, m, n)
                if not result.stable:
                    unstable += 1
                    print(f"UNSTABLE D={D} m={m} n={n} (bound {result.entry_bound})")
                if result.count != want:
                    mismatches += 1
                    print(f"MISMATCH D={D} m={m} n={n}: oracle {result.count}, formula {want}")
    elapsed = time.perf_counter() - t0
    print(
        f"{cells} cells, {mismatches} mismatches, {unstable} unstable, "
        f"{enumerated} cubes enumerated, {elapsed:.1f}s"
    )
    return 1 if mismatches or unstable else 0


if __name__ == "__main__":
    sys.exit(main())
