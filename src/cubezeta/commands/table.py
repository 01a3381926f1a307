"""``cubezeta table B|a3``: CSV tables over a (D, m, n) box, one discriminant at a time."""

from __future__ import annotations

import importlib

from . import _box, _discriminant_count, _discriminants, _map_ordered, _write

# The fewest rows of each kind of table that repay a process pool (see ``_workers``).
_TABLE_CROSSOVER = {"B": 1_500_000, "a3": 800_000}


def _workers(threads: int, what: str, rows: int) -> int:
    """Worker processes for a table ``what`` of ``rows``: threads, or 1 below its crossover.

    Measured for two workers on a 2-core host under Python 3.11, as
    whole-process wall time, medians of 15 rounds that ran one process
    (which never imports the pool) and a pool of two in random order.
    table B, --Mmax 40: 0.45 M rows 0.16 s vs 0.22 s, 0.96 M 0.23 vs 0.27,
    1.3 M 0.30 vs 0.29, 1.6 M 0.35 vs 0.33 (the pool faster in 10 of 15
    rounds), 2.4 M 0.48 vs 0.42 (15 of 15).  table a3, --Mmax 30: 0.45 M
    0.23 vs 0.26, 0.72 M 0.31 vs 0.30 (5 of 15), 0.99 M 0.39 vs 0.34 (12
    of 15).  A row class is summed and formatted once per discriminant, so
    the cost per row falls as --Mmax grows: table B at --Mmax 80 ran faster
    in one process up to 2.4 M rows, and at --Mmax 20 the pool broke even
    at 0.6 to 0.8 M rows and won at 1.2 M.  Other worker counts and hosts
    were not measured.
    """
    return threads if rows >= _TABLE_CROSSOVER[what] else 1


# Row workers sit at module level so that they pickle into worker processes.


def _rows_text(D: int, Mmax: int, keys: list, cells_of) -> str:
    """The table rows "D,m,<cell>" of D, m <= Mmax; cells_of(keys[m]) runs once per key."""
    cells = {}
    rows = []
    for m in range(1, Mmax + 1):
        key = keys[m]
        if key not in cells:
            cells[key] = cells_of(key)
        pre = f"{D},{m},"
        rows.append(pre + pre.join(cells[key]))
    return "".join(rows)


def _row_chunk_B(D: int, Mmax: int) -> str:
    """The table rows of D; each row class of B is summed once and formatted once."""
    from ..congruence import row_classes
    from ..orbits import b_levels

    keys, rows = row_classes(b_levels(D, Mmax), Mmax)
    # the cells "n,B\n" of one row in one format call: field n is B(D, m, n)
    cells = "".join(f"{n},{{{n}}}\n" for n in range(1, Mmax + 1))
    return _rows_text(D, Mmax, keys, lambda key: cells.format(*rows[key]).splitlines(True))


def _row_chunk_a3(D: int, Mmax: int) -> str:
    """The table rows of D; a row class of a3 with chi(D, m) is formatted once."""
    from ..congruence import row_classes
    from ..wmds import a3_levels, twisted_series

    chis = twisted_series(D, Mmax, coefficient=False)
    keys, rows = row_classes(a3_levels(D, Mmax), Mmax)
    # field n is a3(D, m, n) and field c is chi(D, m); chi(D, n) is written in
    cells = "".join(f"{n},{{{n}}},{{c}},{chis[n]}\n" for n in range(1, Mmax + 1))

    def cells_of(key: tuple) -> list:  # key: chi(D, m) and the level values of row m
        return cells.format(*rows[key[1]], c=key[0]).splitlines(True)

    return _rows_text(D, Mmax, list(zip(chis, keys)), cells_of)


def run(args) -> int:
    Dmax, Mmax = _box(args)
    worker, module = (_row_chunk_B, "orbits") if args.what == "B" else (_row_chunk_a3, "wmds")
    header = "D,m,n,B" if args.what == "B" else "D,m,n,a,chi_m,chi_n"
    # run the worker's module before a pool forks, so that no worker compiles it again
    importlib.import_module(f"cubezeta.{module}")
    _write([header + "\n"], args.output)
    # the discriminants are generated as their rows are written, so a large box streams
    count = _discriminant_count(Dmax)
    threads = _workers(args.threads, args.what, count * Mmax * Mmax)
    items = ((D, Mmax) for D in _discriminants(Dmax))
    _write(_map_ordered(worker, items, threads, count), args.output)
    return 0
