"""``cubezeta table B|a3``: CSV tables over a (D, m, n) box, one discriminant at a time."""

from __future__ import annotations

import importlib
import itertools

from . import _box, _discriminants, _map_ordered, _write

# The fewest table rows that repay a process pool (see ``_workers``).
_TABLE_CROSSOVER = 300_000


def _workers(threads: int, rows: int) -> int:
    """Worker processes for a table of ``rows``: threads, or 1 below the crossover.

    Measured for two workers on a 2-core host under Python 3.11, as
    whole-process wall time, median of 15 alternating runs, one process
    (which never imports the pool) against a pool of two: table B 270 k rows
    0.13 s vs 0.17 s, 450 k 0.23 vs 0.22, 960 k 0.32 vs 0.29, 1.6 M 0.47 vs
    0.40; table a3, about three times the cost per row, 134 k rows 0.22 vs
    0.21, 270 k 0.44 vs 0.33.  300 k lies between the two break-even points.
    The host is noisy: at 960 k, sets of 9 runs gave 0.23 vs 0.23 s and
    0.25 vs 0.26 s.  Other worker counts and hosts were not measured.
    """
    return threads if rows >= _TABLE_CROSSOVER else 1


# Row workers sit at module level so that they pickle into worker processes.


def _row_chunk_B(D: int, Mmax: int) -> str:
    """The table rows of D; the cells "n,B\\n" of equal grid rows are built once."""
    from ..orbits import b_grid

    cells = {}
    rows = []
    for m, row in enumerate(b_grid(D, Mmax)[1:], 1):
        key = tuple(row)
        if key not in cells:
            cells[key] = [f"{n},{row[n]}\n" for n in range(1, Mmax + 1)]
        pre = f"{D},{m},"
        rows.append(pre + pre.join(cells[key]))
    return "".join(rows)


def _row_chunk_a3(D: int, Mmax: int) -> str:
    from ..wmds import a3_grid, twisted_series

    chis = twisted_series(D, Mmax, coefficient=False)
    grid = a3_grid(D, Mmax)
    return "".join(
        f"{D},{m},{n},{grid[m][n]},{chis[m]},{chis[n]}\n"
        for m in range(1, Mmax + 1)
        for n in range(1, Mmax + 1)
    )


def run(args) -> int:
    Dmax, Mmax = _box(args)
    worker, module = (_row_chunk_B, "orbits") if args.what == "B" else (_row_chunk_a3, "wmds")
    header = "D,m,n,B" if args.what == "B" else "D,m,n,a,chi_m,chi_n"
    # run the worker's module before a pool forks, so that no worker compiles it again
    importlib.import_module(f"cubezeta.{module}")
    items = [(D, Mmax) for D in _discriminants(Dmax)]
    threads = _workers(args.threads, len(items) * Mmax * Mmax)
    chunks = _map_ordered(worker, items, threads)
    _write(itertools.chain([header + "\n"], chunks), args.output)
    return 0
