"""``cubezeta verify <identity>``: one identity check as a schema-versioned JSON report."""

from __future__ import annotations

import importlib
import json

from . import IDENTITIES, UsageError, _discriminants, _emit, _map_ordered

SCHEMA = 1

# the least meaningful value of each verify range flag
_RANGE_MINIMA = {"Dmax": 1, "M": 1, "kmax": 0, "amax": 1, "T": 1}

_CELL_FLAGS = ("D", "a1", "a2")

# The cost model of --M: one instance of a check holds about M**e entries, e
# its exponent here (series to M, or thm12's M x M grids), and a run above
# _ENTRY_CAP exits before any work.  At the cap one prop21 instance took 7 s
# and 190 MB, and one thm12 instance (M = 1000) 3 s and 65 MB (Python 3.11).
_ENTRY_EXPONENT = {"prop21": 1, "cor24": 1, "prop25": 1, "thm12": 2}
_ENTRY_CAP = 1_000_000


def _odd_integers(Dmax: int) -> list:
    """Odd D with |D| <= Dmax, ascending."""
    return [D for D in range(-Dmax, Dmax + 1) if D % 2]


def _siegel_cells(Dmax: int) -> list:
    """(d, p) for each discriminant |d| <= Dmax and p in {2, 3, 5} or p | d."""
    from ..congruence import factorize

    return [
        (d, p)
        for d in _discriminants(Dmax)
        for p in sorted({2, 3, 5} | {p for p, _ in factorize(d).factors})
    ]


# identity: (the range flags it reads with their defaults, its verifier as
# "module.function", its instances for --Dmax, the flag passed as its size);
# an instance is the verifier's first argument, or a tuple of its first ones.
# The verifier is looked up when the check runs, so only its module loads.
# thm44 runs its two checks itself (see ``_verify_report``).  The rows are
# in the order of ``IDENTITIES``.
_CHECKS = dict(zip(IDENTITIES, [
    ({"Dmax": 200, "M": 200}, "identities.verify_prop21", _discriminants, "M"),
    ({"Dmax": 200, "M": 200}, "identities.verify_cor24", _discriminants, "M"),
    ({"Dmax": 297, "M": 100}, "identities.verify_prop25", _odd_integers, "M"),
    ({"Dmax": 297, "M": 64}, "identities.verify_thm12", _odd_integers, "M"),
    ({"kmax": 8}, None, None, None),
    ({"Dmax": 500, "amax": 30}, "quadring.verify_thm13_scan", _discriminants, "amax"),
    ({"Dmax": 200, "T": 12}, "identities.verify_siegel", _siegel_cells, "T"),
], strict=True))


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


def _verify_report(args) -> dict:
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
        from ..quadring import verify_thm13

        report = verify_thm13(*cell)
        return _aggregate_reports(identity, dict(report.params), [report])
    params = {**defaults, **given}
    if identity in _ENTRY_EXPONENT:
        entries = params["M"] ** _ENTRY_EXPONENT[identity]
        if entries > _ENTRY_CAP:
            raise UsageError(f"verify {identity} needs about {entries:,} entries "
                             f"per instance, over {_ENTRY_CAP:,}")
    if verifier is None:  # thm44
        from ..ppart import specialization_check, thm44_check

        kmax = params["kmax"]
        reports = [thm44_check(kmax), specialization_check(min(kmax, 6))]
    else:
        module, _, name = verifier.partition(".")
        check = getattr(importlib.import_module(f"cubezeta.{module}"), name)
        items = [
            (*x, params[size]) if isinstance(x, tuple) else (x, params[size])
            for x in instances(params["Dmax"])
        ]
        reports = list(_map_ordered(check, items, args.threads))
    return _aggregate_reports(identity, params, reports)


def run(args) -> int:
    report = _verify_report(args)
    _emit([json.dumps(report, indent=2, sort_keys=True)], args.output)
    return 1 if report["status"] == "fail" else 0
