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
range flag below its least value.

The env var CUBEZETA_THREADS (or --threads) sets the worker-process count
for range subcommands; results are gathered in submission order, so output
is byte-identical for every parallelism degree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .congruence import (
    DomainError,
    RangeError,
    chi,
    factorize,
    hat,
    siegel_factor_check,
    sqrt_count,
    valuation,
)
from .cube import orbit_count_oracle
from .identities import (
    IdentityReport,
    partial_sum,
    verify_cor24,
    verify_prop21,
    verify_prop25,
    verify_thm12,
)
from .orbits import B, congruence_pairs, cube_from_pair
from .ppart import f_a3_expand, p_eval, p_format, specialization_check, thm44_check
from .quadring import ideal_class_pairs, pair_fiber, verify_thm13, verify_thm13_scan
from .wmds import a_coeff3

SCHEMA = 1

IDENTITIES = ("prop21", "cor24", "prop25", "thm12", "thm44", "thm13", "siegel")

_VERIFY_DEFAULTS = {
    "prop21": {"Dmax": 200, "M": 200},
    "cor24": {"Dmax": 200, "M": 200},
    "prop25": {"Dmax": 297, "M": 100},
    "thm12": {"Dmax": 297, "M": 64},
    "thm44": {"kmax": 8},
    "thm13": {"Dmax": 500, "amax": 30},
    "siegel": {"Dmax": 200, "T": 12},
}

# the least meaningful value of each verify range flag
_RANGE_MINIMA = {"Dmax": 1, "M": 1, "kmax": 0, "amax": 1, "T": 1}

_CELL_FLAGS = ("D", "a1", "a2")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: subcommand, its parameters, and plumbing."""

    subcommand: str
    params: dict = field(default_factory=dict)
    threads: int = 1
    output: str | None = None


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


def _map_ordered(fn, items, threads: int) -> list:
    """fn(*item) over items, in order; a process pool when threads > 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    chunk = max(1, len(items) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*items), chunksize=chunk))


def _emit(lines: list, output: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _require(params: dict, *names: str) -> list:
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise UsageError("missing required flag(s): " + ", ".join(f"--{m}" for m in missing))
    return [params[name] for name in names]


# ---------------------------------------------------------------------------
# Range workers (module level so they pickle into worker processes)
# ---------------------------------------------------------------------------


def _row_chunk_B(D: int, Mmax: int) -> list:
    return [
        f"{D},{m},{n},{B(D, m, n)}"
        for m in range(1, Mmax + 1)
        for n in range(1, Mmax + 1)
    ]


def _row_chunk_a3(D: int, Mmax: int) -> list:
    chis = {m: chi(D, hat(m, D)) for m in range(1, Mmax + 1)}
    return [
        f"{D},{m},{n},{a_coeff3(D, m, n)},{chis[m]},{chis[n]}"
        for m in range(1, Mmax + 1)
        for n in range(1, Mmax + 1)
    ]


def _siegel_cells(Dmax: int) -> list:
    """(d, p) for each discriminant |d| <= Dmax and p in {2, 3, 5} or p | d."""
    return [
        (d, p)
        for d in _discriminants(Dmax)
        for p in sorted({2, 3, 5} | {p for p, _ in factorize(d).factors})
    ]


def _siegel_report(cell: tuple, T: int) -> IdentityReport:
    """The p-part check of d at p, to degree at least max(T, v_p(d) + 4)."""
    d, p = cell
    T = max(T, valuation(d, p) + 4)
    while p**T >= 2**63:  # keep the modulus p^T factorizable
        T -= 1
    rep = siegel_factor_check(d, p, T)
    params = {"d": d, "p": p, "T": T}
    if rep.equal:
        return IdentityReport("siegel", params, "equal", None)
    l = rep.first_mismatch
    return IdentityReport(
        "siegel", params, "mismatch",
        {"l": l, "lhs": rep.lhs[l], "rhs": rep.rhs[l]},
    )


def _thm44_reports(kmax: int) -> list:
    poly_rep = thm44_check(kmax)
    spec_rep = specialization_check(min(kmax, 6))
    return [
        IdentityReport(
            "thm44", {"kmax": kmax, "route": "polynomial"},
            "equal" if poly_rep.equal else "mismatch",
            None if poly_rep.equal else {
                "index": list(poly_rep.first_mismatch),
                "lhs": list(poly_rep.lhs),
                "rhs": list(poly_rep.rhs),
            },
        ),
        IdentityReport(
            "thm44",
            {
                "kmax": spec_rep.K,
                "route": "specialization",
                "primes": list(spec_rep.primes),
            },
            "equal" if spec_rep.equal else "mismatch",
            spec_rep.first_mismatch,
        ),
    ]


# identity: (verifier, its instances for --Dmax, the flag passed as its size)
_RANGE_CHECKS = {
    "prop21": (verify_prop21, _discriminants, "M"),
    "cor24": (verify_cor24, _discriminants, "M"),
    "prop25": (verify_prop25, _odd_integers, "M"),
    "thm12": (verify_thm12, _odd_integers, "M"),
    "thm13": (verify_thm13_scan, _discriminants, "amax"),
    "siegel": (_siegel_report, _siegel_cells, "T"),
}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(config: RunConfig) -> int:
    params = config.params
    what = params["what"]
    if what == "A":
        d, a = _require(params, "d", "a")
        value = sqrt_count(d, a)
    elif what == "B":
        D, m, n = _require(params, "D", "m", "n")
        value = B(D, m, n)
    else:  # a3
        D, m, n = _require(params, "D", "m", "n")
        value = a_coeff3(D, m, n)
    _emit([str(value)], config.output)
    return 0


def _cmd_orbits(config: RunConfig) -> int:
    params = config.params
    D, m, n = _require(params, "D", "m", "n")
    formula = B(D, m, n)
    lines = [f"B = {formula}"]
    code = 0
    if params.get("oracle"):
        oracle = orbit_count_oracle(
            D, m, n,
            entry_bound=params.get("entry_bound"),
            slack=5 if params.get("slack") is None else params["slack"],
        )
        agree = oracle.count == formula
        lines += [
            f"oracle = {oracle.count}",
            f"stable = {'true' if oracle.stable else 'false'}",
            f"agree = {'true' if agree else 'false'}",
        ]
        if not (agree and oracle.stable):
            code = 1
    _emit(lines, config.output)
    return code


def _cmd_pairs(config: RunConfig) -> int:
    params = config.params
    D, m, n = _require(params, "D", "m", "n")
    lines = []
    for pair in congruence_pairs(D, m, n):
        row = f"{pair.x} {pair.y} {pair.s} {pair.t}"
        if params.get("cubes"):
            row += " | " + " ".join(str(v) for v in cube_from_pair(pair).entries())
        lines.append(row)
    _emit(lines, config.output)
    return 0


def _cmd_ppart(config: RunConfig) -> int:
    params = config.params
    (kmax,) = _require(params, "kmax")
    if kmax < 0:
        raise UsageError("--kmax must be nonnegative")
    p = params.get("p")
    series = f_a3_expand(kmax)
    lines = []
    for l in range(kmax + 1):
        for k in range(kmax + 1):
            for t in range(kmax + 1):
                c = series.coeffs[l][k][t]
                value = p_eval(c, p) if p is not None else p_format(c)
                lines.append(f"{l} {k} {t} {value}")
    _emit(lines, config.output)
    return 0


def _aggregate_reports(identity: str, params: dict, reports: list) -> dict:
    findings: list = []
    first_known = None
    for rep in reports:
        if rep.status == "mismatch":
            return {
                "schema": SCHEMA,
                "identity": identity,
                "params": params,
                "checked": len(reports),
                "status": "fail",
                "first_mismatch": {"instance": rep.params, **(rep.first_mismatch or {})},
                "findings": list(rep.findings),
            }
    for rep in reports:
        if rep.status != "equal":
            if first_known is None:
                first_known = {"instance": rep.params, **(rep.first_mismatch or {})}
            for text in rep.findings:
                if text not in findings:
                    findings.append(text)
    return {
        "schema": SCHEMA,
        "identity": identity,
        "params": params,
        "checked": len(reports),
        "status": "pass" if first_known is None else "pass_with_findings",
        "first_mismatch": first_known,
        "findings": findings,
    }


def _verify_report(config: RunConfig) -> dict:
    identity = config.params["identity"]
    given = {
        key: config.params[key]
        for key in (*_RANGE_MINIMA, *_CELL_FLAGS)
        if config.params.get(key) is not None
    }
    for key, least in _RANGE_MINIMA.items():
        if given.get(key, least) < least:
            raise UsageError(f"--{key} must be at least {least}")
    cell = [given[key] for key in _CELL_FLAGS if key in given]
    if cell:
        if identity != "thm13" or len(cell) < 3 or "Dmax" in given or "amax" in given:
            raise UsageError(
                "--D, --a1 and --a2 select one thm13 cell: give all three, "
                "without --Dmax or --amax"
            )
        report = verify_thm13(*cell)
        return _aggregate_reports(identity, dict(report.params), [report])
    params = {**_VERIFY_DEFAULTS[identity], **given}
    if identity == "thm44":
        reports = _thm44_reports(params["kmax"])
    else:
        verifier, instances, size = _RANGE_CHECKS[identity]
        items = [(x, params[size]) for x in instances(params["Dmax"])]
        reports = _map_ordered(verifier, items, config.threads)
    return _aggregate_reports(identity, params, reports)


def _cmd_verify(config: RunConfig) -> int:
    report = _verify_report(config)
    _emit([json.dumps(report, indent=2, sort_keys=True)], config.output)
    return 1 if report["status"] == "fail" else 0


def _cmd_table(config: RunConfig) -> int:
    params = config.params
    what = params["what"]
    Dmax, Mmax = _require(params, "Dmax", "Mmax")
    if Dmax < 0 or Mmax < 0:
        raise UsageError("--Dmax and --Mmax must be nonnegative")
    worker = _row_chunk_B if what == "B" else _row_chunk_a3
    header = "D,m,n,B" if what == "B" else "D,m,n,a,chi_m,chi_n"
    chunks = _map_ordered(
        worker, [(D, Mmax) for D in _discriminants(Dmax)], config.threads
    )
    lines = [header]
    for chunk in chunks:
        lines.extend(chunk)
    _emit(lines, config.output)
    return 0


def _cmd_zeta(config: RunConfig) -> int:
    params = config.params
    s1, s2, w, Dmax, Mmax = _require(params, "s1", "s2", "w", "Dmax", "Mmax")
    result = partial_sum(s1, s2, w, Dmax, Mmax)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit([f"{result.value:.15g}"], config.output)
    return 0


def _cmd_moduli(config: RunConfig) -> int:
    params = config.params
    D, a1, a2 = _require(params, "D", "a1", "a2")
    lines = []
    for pair in ideal_class_pairs(D, a1, a2):
        lines.append(
            json.dumps(
                {
                    "D": D,
                    "a1": pair.first.a,
                    "b1": pair.first.b,
                    "a2": pair.second.a,
                    "b2": pair.second.b,
                    "fiber": pair_fiber(pair),
                }
            )
        )
    _emit(lines, config.output)
    return 0


_HANDLERS = {
    "count": _cmd_count,
    "orbits": _cmd_orbits,
    "pairs": _cmd_pairs,
    "ppart": _cmd_ppart,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "zeta": _cmd_zeta,
    "moduli": _cmd_moduli,
}


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


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

    p = sub.add_parser("orbits", parents=[common],
                       help="orbit count of one cell, optionally vs the enumeration oracle")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--entry-bound", dest="entry_bound", type=int, default=None)
    p.add_argument("--slack", type=int, default=None)

    p = sub.add_parser("pairs", parents=[common], help="congruence pairs of one cell")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cubes", action="store_true",
                   help="append the cube representative of each pair")

    p = sub.add_parser("ppart", parents=[common],
                       help="trivariate prime-part coefficients up to an index bound")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="evaluate at this p")

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

    p = sub.add_parser("table", parents=[common], help="CSV table over a (D, m, n) box")
    p.add_argument("what", choices=["B", "a3"])
    p.add_argument("--Dmax", type=int, required=True)
    p.add_argument("--Mmax", type=int, required=True)

    p = sub.add_parser("zeta", parents=[common],
                       help="floating truncation of the three-variable Dirichlet sum")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--Dmax", type=int, required=True)
    p.add_argument("--Mmax", type=int, required=True)

    p = sub.add_parser("moduli", parents=[common],
                       help="oriented ideal-class pairs of one cell, JSON per line")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)

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


def config_from_args(argv=None) -> RunConfig:
    parser = _build_parser()
    ns = vars(parser.parse_args(argv))
    subcommand = ns.pop("subcommand")
    threads = _resolve_threads(ns.pop("threads"))
    output = ns.pop("output")
    return RunConfig(
        subcommand=subcommand,
        params=ns,
        threads=threads,
        output=output,
    )


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
        return run(config)
    except SystemExit as exc:
        # argparse exits itself on usage errors / --help; surface the code
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
