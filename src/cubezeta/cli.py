"""Command-line surface: counts, orbit checks, identity verification, tables.

Subcommands
-----------

* ``count A|B|a3`` -- single exact values (square-root counts, orbit counts,
  rank-3 coefficients).
* ``orbits`` -- the orbit count of one invariant cell by formula, optionally
  cross-checked against the enumeration oracle.
* ``pairs`` -- the congruence pairs of a cell and, optionally, the cube
  representative constructed from each pair.
* ``ppart`` -- the trivariate prime-part coefficient polynomials (or their
  values at a chosen p).
* ``verify`` -- one of the named identity checks over its default or given
  range, emitting a schema-versioned JSON report; ``verify thm13`` with all
  of --D, --a1 and --a2 (and no --Dmax or --amax) checks one cell instead.
* ``table B|a3`` -- CSV tables over a (D, m, n) box.
* ``zeta`` -- floating truncation of the three-variable Dirichlet sum.
* ``moduli`` -- the oriented ideal-class pairs of one cell as JSON lines,
  each with its exact fiber cardinality.

Exit codes: 0 when every assertion passed (including "pass_with_findings"
verification reports, whose defects are expected and documented), 1 when a
verification found a real mismatch, 2 on usage errors, among them a verify
range flag below its least value or one that the identity does not read,
and on output errors: an --output that cannot be opened, or a stdout that
its reader closed before the output ended.  ``main`` opens --output before
the command runs, so a path that cannot be opened fails at once, and a
command that fails after that leaves the file empty or partly written.

Start-up loads only what a command reads.  This module imports
``congruence``, which every command reads; each handler imports the rest of
what it reads when it runs (``count A`` nothing more, ``table B``
``orbits``, and only ``pairs --cubes`` and ``orbits --oracle`` ``cube``),
and ``verify`` looks its verifier up by name.  The other library modules
stay registered but unrun (see the package docstring).  ``table`` runs the
module of its row worker before a pool forks, so that the workers inherit it.

The env var CUBEZETA_THREADS (or --threads) sets the worker-process count
for range subcommands.  A ``table`` too small to repay starting a process
pool runs in one process whatever it says (see ``_workers``), and the pool
machinery is imported only when a pool starts.  Results are written in
submission order as they arrive (``table`` one discriminant at a time), so
output is byte-identical for every parallelism degree.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import os
import sys

from .congruence import DomainError, RangeError, factorize, sqrt_count

SCHEMA = 1

# the least meaningful value of each verify range flag
_RANGE_MINIMA = {"Dmax": 1, "M": 1, "kmax": 0, "amax": 1, "T": 1}

_CELL_FLAGS = ("D", "a1", "a2")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _discriminants(Dmax: int) -> list:
    """Nonzero D = 0, 1 mod 4 with |D| <= Dmax, ascending."""
    return [D for D in range(-Dmax, Dmax + 1) if D and D % 4 in (0, 1)]


def _odd_integers(Dmax: int) -> list:
    """Odd D with |D| <= Dmax, ascending."""
    return [D for D in range(-Dmax, Dmax + 1) if D % 2]


# The fewest table rows that repay a process pool (see ``_workers``).
_TABLE_CROSSOVER = 300_000


def _workers(threads: int, rows: int) -> int:
    """Worker processes for a table of ``rows``: threads, or 1 below the crossover.

    Measured for two workers on a 2-core host under Python 3.11, as
    whole-process wall time, median of 7 to 9 runs, one process (which never
    imports the pool) against a pool of two: table B 270 k rows 0.19 s vs
    0.23 s, 450 k 0.28 vs 0.29, 960 k 0.43 vs 0.35; table a3, about three
    times the cost per row, 135 k rows 0.32 vs 0.32, 270 k 0.46 vs 0.43.
    300 k lies between the two break-even points.  Other worker counts and
    hosts were not measured.
    """
    return threads if rows >= _TABLE_CROSSOVER else 1


def _run_batch(fn, batch: list) -> list:
    return [fn(*item) for item in batch]


def _map_ordered(fn, items, threads: int):
    """Yield fn(*item) over items in order; a process pool when threads > 1.

    The pool holds at most 2 * threads batches that are submitted but not yet
    yielded, so finished results cannot pile up while the caller lags.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        yield from (fn(*item) for item in items)
        return
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (threads * 8))
    pending = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for start in range(0, len(items), chunk):
            pending.append(pool.submit(_run_batch, fn, items[start:start + chunk]))
            if len(pending) >= 2 * threads:
                yield from pending.pop(0).result()
        while pending:
            yield from pending.pop(0).result()


def _write(texts, output) -> None:
    """Write each text as it comes, to stdout or to the output file that main opened."""
    out = output or sys.stdout
    out.writelines(texts)
    out.flush()  # a closed stdout raises here, inside main


def _emit(lines: list, output) -> None:
    _write(["".join(line + "\n" for line in lines)], output)


def _require(args: argparse.Namespace, *names: str) -> list:
    """The flags of ``count`` that its value needs, which argparse cannot require."""
    values = [getattr(args, name) for name in names]
    missing = [name for name, value in zip(names, values) if value is None]
    if missing:
        raise UsageError("missing required flag(s): " + ", ".join(f"--{m}" for m in missing))
    return values


def _box(args: argparse.Namespace) -> list:
    """--Dmax and --Mmax of a range command; a negative one is a usage error."""
    if args.Dmax < 0 or args.Mmax < 0:
        raise UsageError("--Dmax and --Mmax must be nonnegative")
    return [args.Dmax, args.Mmax]


# ---------------------------------------------------------------------------
# Range workers (module level so they pickle into worker processes)
# ---------------------------------------------------------------------------


def _row_chunk_B(D: int, Mmax: int) -> str:
    """The table rows of D; the cells "n,B\\n" of equal grid rows are built once."""
    from .orbits import b_grid

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
    from .wmds import a3_grid, twisted_series

    chis = twisted_series(D, Mmax, coefficient=False)
    grid = a3_grid(D, Mmax)
    return "".join(
        f"{D},{m},{n},{grid[m][n]},{chis[m]},{chis[n]}\n"
        for m in range(1, Mmax + 1)
        for n in range(1, Mmax + 1)
    )


def _siegel_cells(Dmax: int) -> list:
    """(d, p) for each discriminant |d| <= Dmax and p in {2, 3, 5} or p | d."""
    return [
        (d, p)
        for d in _discriminants(Dmax)
        for p in sorted({2, 3, 5} | {p for p, _ in factorize(d).factors})
    ]


# identity: (the range flags it reads with their defaults, its verifier as
# "module.function", its instances for --Dmax, the flag passed as its size);
# an instance is the verifier's first argument, or a tuple of its first ones.
# The verifier is looked up when the check runs, so only its module loads.
# thm44 runs its two checks itself (see ``_verify_report``).
_CHECKS = {
    "prop21": ({"Dmax": 200, "M": 200}, "identities.verify_prop21", _discriminants, "M"),
    "cor24": ({"Dmax": 200, "M": 200}, "identities.verify_cor24", _discriminants, "M"),
    "prop25": ({"Dmax": 297, "M": 100}, "identities.verify_prop25", _odd_integers, "M"),
    "thm12": ({"Dmax": 297, "M": 64}, "identities.verify_thm12", _odd_integers, "M"),
    "thm44": ({"kmax": 8}, None, None, None),
    "thm13": ({"Dmax": 500, "amax": 30}, "quadring.verify_thm13_scan", _discriminants, "amax"),
    "siegel": ({"Dmax": 200, "T": 12}, "identities.verify_siegel", _siegel_cells, "T"),
}

IDENTITIES = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    if args.what == "A":
        value = sqrt_count(*_require(args, "d", "a"))
    elif args.what == "B":
        from .orbits import B

        value = B(*_require(args, "D", "m", "n"))
    else:  # a3
        from .wmds import a_coeff3

        value = a_coeff3(*_require(args, "D", "m", "n"))
    _emit([str(value)], args.output)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    from .orbits import B

    formula = B(args.D, args.m, args.n)
    lines = [f"B = {formula}"]
    ok = True
    if args.oracle:
        from .cube import orbit_count_oracle

        oracle = orbit_count_oracle(
            args.D, args.m, args.n, entry_bound=args.entry_bound, slack=args.slack
        )
        agree = oracle.count == formula
        lines += [
            f"oracle = {oracle.count}",
            f"stable = {'true' if oracle.stable else 'false'}",
            f"agree = {'true' if agree else 'false'}",
        ]
        ok = agree and oracle.stable
    _emit(lines, args.output)
    return 0 if ok else 1


def _cmd_pairs(args: argparse.Namespace) -> int:
    from .orbits import congruence_pairs, cube_from_pair

    lines = []
    for pair in congruence_pairs(args.D, args.m, args.n):
        row = f"{pair.x} {pair.y} {pair.s} {pair.t}"
        if args.cubes:
            row += " | " + " ".join(str(v) for v in cube_from_pair(pair).entries())
        lines.append(row)
    _emit(lines, args.output)
    return 0


def _cmd_ppart(args: argparse.Namespace) -> int:
    from .ppart import f_a3_expand, p_eval, p_format

    kmax, p = args.kmax, args.p
    if kmax < 0:
        raise UsageError("--kmax must be nonnegative")
    coeffs = f_a3_expand(kmax).coeffs
    lines = []
    for l, k, t in itertools.product(range(kmax + 1), repeat=3):
        c = coeffs[l][k][t]
        lines.append(f"{l} {k} {t} {p_eval(c, p) if p is not None else p_format(c)}")
    _emit(lines, args.output)
    return 0


def _aggregate_reports(identity: str, params: dict, reports: list) -> dict:
    """The verify JSON of a run's reports: the first mismatch alone gives the
    instance and findings; else the first report not "equal" gives the
    instance, and all such reports give their findings, each once.
    """
    flagged = [rep for rep in reports if rep.status != "equal"]
    failed = [rep for rep in flagged if rep.status == "mismatch"][:1]
    shown = failed or flagged
    return {
        "schema": SCHEMA,
        "identity": identity,
        "params": params,
        "checked": len(reports),
        "status": "fail" if failed else "pass_with_findings" if flagged else "pass",
        "first_mismatch": (
            {"instance": shown[0].params, **(shown[0].first_mismatch or {})} if shown else None
        ),
        "findings": list(dict.fromkeys(text for rep in shown for text in rep.findings)),
    }


def _verify_report(args: argparse.Namespace) -> dict:
    identity = args.identity
    defaults, verifier, instances, size = _CHECKS[identity]
    given = {
        key: getattr(args, key)
        for key in (*_RANGE_MINIMA, *_CELL_FLAGS)
        if getattr(args, key) is not None
    }
    for key, least in _RANGE_MINIMA.items():
        if given.get(key, least) < least:
            raise UsageError(f"--{key} must be at least {least}")
        if key in given and key not in defaults:
            raise UsageError(f"verify {identity} does not read --{key}")
    cell = [given[key] for key in _CELL_FLAGS if key in given]
    if cell:
        if identity != "thm13" or len(cell) < 3 or "Dmax" in given or "amax" in given:
            raise UsageError(
                "--D, --a1 and --a2 select one thm13 cell: give all three, "
                "without --Dmax or --amax"
            )
        from .quadring import verify_thm13

        report = verify_thm13(*cell)
        return _aggregate_reports(identity, dict(report.params), [report])
    params = {**defaults, **given}
    if verifier is None:  # thm44
        from .ppart import specialization_check, thm44_check

        kmax = params["kmax"]
        reports = [thm44_check(kmax), specialization_check(min(kmax, 6))]
    else:
        module, _, name = verifier.partition(".")
        check = getattr(importlib.import_module("." + module, __package__), name)
        items = [
            (*x, params[size]) if isinstance(x, tuple) else (x, params[size])
            for x in instances(params["Dmax"])
        ]
        reports = list(_map_ordered(check, items, args.threads))
    return _aggregate_reports(identity, params, reports)


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    report = _verify_report(args)
    _emit([json.dumps(report, indent=2, sort_keys=True)], args.output)
    return 1 if report["status"] == "fail" else 0


def _cmd_table(args: argparse.Namespace) -> int:
    Dmax, Mmax = _box(args)
    worker, module = (_row_chunk_B, ".orbits") if args.what == "B" else (_row_chunk_a3, ".wmds")
    header = "D,m,n,B" if args.what == "B" else "D,m,n,a,chi_m,chi_n"
    # run the worker's module before a pool forks, so that no worker compiles it again
    importlib.import_module(module, __package__)
    items = [(D, Mmax) for D in _discriminants(Dmax)]
    threads = _workers(args.threads, len(items) * Mmax * Mmax)
    chunks = _map_ordered(worker, items, threads)
    _write(itertools.chain([header + "\n"], chunks), args.output)
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    from .identities import partial_sum

    result = partial_sum(args.s1, args.s2, args.w, *_box(args))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit([f"{result.value:.15g}"], args.output)
    return 0


def _cmd_moduli(args: argparse.Namespace) -> int:
    import json

    from .quadring import ideal_class_pairs, pair_fiber

    lines = [
        json.dumps({"D": args.D, "a1": pair.first.a, "b1": pair.first.b,
                    "a2": pair.second.a, "b2": pair.second.b, "fiber": pair_fiber(pair)})
        for pair in ideal_class_pairs(args.D, args.a1, args.a2)
    ]
    _emit(lines, args.output)
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code.

    ``args.output`` is the open output file, or None for stdout.
    """
    return args.handler(args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: CUBEZETA_THREADS or CPU count)")
    common.add_argument("--output", default=None, help="write to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="cubezeta",
        description="Exact orbit counts, coefficient identities, and tables "
        "for integer cubes and their discriminant data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", parents=[common], help="one exact value")
    p.add_argument("what", choices=["A", "B", "a3"])
    p.add_argument("--d", type=int, help="discriminant-like integer (count A)")
    p.add_argument("--a", type=int, help="modulus (count A)")
    p.add_argument("--D", type=int, help="discriminant (count B / a3)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("orbits", parents=[common],
                       help="orbit count of one cell, optionally vs the enumeration oracle")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--entry-bound", dest="entry_bound", type=int, default=None)
    p.add_argument("--slack", type=int, default=5)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("pairs", parents=[common], help="congruence pairs of one cell")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cubes", action="store_true",
                   help="append the cube representative of each pair")
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("ppart", parents=[common],
                       help="trivariate prime-part coefficients up to an index bound")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="evaluate at this p")
    p.set_defaults(handler=_cmd_ppart)

    p = sub.add_parser("verify", parents=[common], help="run one identity check")
    p.add_argument("identity", choices=list(IDENTITIES))
    p.add_argument("--Dmax", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--amax", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--D", type=int, help="single-cell mode (thm13)")
    p.add_argument("--a1", type=int, help="single-cell mode (thm13)")
    p.add_argument("--a2", type=int, help="single-cell mode (thm13)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", parents=[common], help="CSV table over a (D, m, n) box")
    p.add_argument("what", choices=["B", "a3"])
    p.add_argument("--Dmax", type=int, required=True)
    p.add_argument("--Mmax", type=int, required=True)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("zeta", parents=[common],
                       help="floating truncation of the three-variable Dirichlet sum")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--Dmax", type=int, required=True)
    p.add_argument("--Mmax", type=int, required=True)
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("moduli", parents=[common],
                       help="oriented ideal-class pairs of one cell, JSON per line")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.set_defaults(handler=_cmd_moduli)

    return parser


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("CUBEZETA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"CUBEZETA_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.threads = _resolve_threads(args.threads)
        if args.output is None:
            return run(args)
        try:  # before the work, so that a path that cannot be opened fails at once
            args.output = open(args.output, "w")
        except OSError as exc:
            raise UsageError(exc) from exc
        with args.output:
            return run(args)
    except SystemExit as exc:
        # argparse exits itself on usage errors / --help; surface the code
        return int(exc.code or 0)
    except (UsageError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); what is still buffered
        # goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
