"""``cubezeta verify <identity>``: one identity check as a schema-versioned JSON report."""

from __future__ import annotations

import importlib
import json

from . import IDENTITIES, UsageError, _discriminant_count, _discriminants, _emit, _map_ordered

SCHEMA = 1

# the least meaningful value of each verify range flag
_RANGE_MINIMA = {"Dmax": 1, "M": 1, "kmax": 0, "amax": 1, "T": 1}

_CELL_FLAGS = ("D", "a1", "a2")

# The cost model of verify: one instance of a check holds about size**e
# entries, size the range flag that _CHECKS names for it and e its exponent
# there (series to M, M x M or amax x amax grids, thm44's kmax**4 polynomial
# coefficients, siegel's T x T polynomial products).  An instance above
# _ENTRY_CAP, or a run above _RUN_CAP, exits before any work.  A run counts
# its instances by arithmetic from --Dmax, each with _INSTANCE_ENTRIES more
# for the work it does whatever its size.  Measured on a 2-core host under
# Python 3.11: at the instance cap one prop21 instance took 7 s and 190 MB,
# and two thm12 instances (M = 1000) 0.1 s and 22 MB.  Just under the run cap
# prop21 took 21 s at M = 200 (--Dmax 43000) and 9 s and 128 MB at M = 1
# (--Dmax 300000), thm13 8 s, prop25 7 s, siegel 1.5 s and thm44 1.9 s.
_ENTRY_CAP = 1_000_000
_RUN_CAP = 10_000_000
_INSTANCE_ENTRIES = 32


def _odd_integers(Dmax: int):
    """Odd D with |D| <= Dmax, ascending, as a range."""
    return range(-Dmax + (Dmax + 1) % 2, Dmax + 1, 2)


def _siegel_cells(Dmax: int):
    """(d, p) for each discriminant |d| <= Dmax and p in {2, 3, 5} or p | d, one at a time."""
    from ..congruence import factorize

    for d in _discriminants(Dmax):
        for p in sorted({2, 3, 5} | {p for p, _ in factorize(d).factors}):
            yield d, p


# identity: (the range flags it reads with their defaults, its verifier as
# "module.function", its instances for --Dmax, the flag passed as its size,
# the exponent of that size in the cost model); an instance is the
# verifier's first argument, or a tuple of its first ones.  The verifier is
# looked up when the check runs, so only its module loads.  thm44 runs its
# two checks itself (see ``_verify_report``).  The rows are in the order of
# ``IDENTITIES``.
_CHECKS = dict(zip(IDENTITIES, [
    ({"Dmax": 200, "M": 200}, "identities.verify_prop21", _discriminants, "M", 1),
    ({"Dmax": 200, "M": 200}, "identities.verify_cor24", _discriminants, "M", 1),
    ({"Dmax": 297, "M": 100}, "identities.verify_prop25", _odd_integers, "M", 1),
    ({"Dmax": 297, "M": 64}, "identities.verify_thm12", _odd_integers, "M", 2),
    ({"kmax": 8}, None, None, "kmax", 4),
    ({"Dmax": 500, "amax": 30}, "quadring.verify_thm13_scan", _discriminants, "amax", 2),
    ({"Dmax": 200, "T": 12}, "identities.verify_siegel", _siegel_cells, "T", 2),
], strict=True))


def _check_cost(identity: str, params: dict) -> int:
    """The run's instance count; UsageError with the estimate when an
    instance or the run is over its cap.

    The instances are counted, not listed: thm44 has one, and siegel's cost
    counts one per discriminant, but its count three, the fewest primes it
    checks for each, so that a pool's batches are not cut too small.
    """
    _, _, instances, size, exponent = _CHECKS[identity]
    value = params[size]
    if identity == "siegel":  # verify_siegel lowers T to at most its degree cap at p = 2
        from ..identities import _siegel_top

        value = min(value, _siegel_top(2))
    entries = value**exponent
    if entries > _ENTRY_CAP:
        raise UsageError(f"verify {identity} needs about {entries:,} entries "
                         f"per instance, over {_ENTRY_CAP:,}")
    if instances is None:
        count = 1
    elif instances is _odd_integers:
        count = len(_odd_integers(params["Dmax"]))
    else:
        count = _discriminant_count(params["Dmax"])
    total = count * (entries + _INSTANCE_ENTRIES)
    if total > _RUN_CAP:
        raise UsageError(f"verify {identity} needs about {total:,} entries in all, "
                         f"over {_RUN_CAP:,}")
    return 3 * count if identity == "siegel" else count


def _aggregate_reports(identity: str, params: dict, reports) -> dict:
    """The verify JSON of reports read once, as they come: the first mismatch
    alone gives the instance and findings; else the first report not "equal"
    gives the instance, and all such reports give their findings, each once.
    """
    checked, failed, first, findings = 0, None, None, {}
    for checked, rep in enumerate(reports, 1):
        if failed or rep.status == "equal":
            continue
        if rep.status == "mismatch":
            failed, findings = rep, {}
        first = first or rep
        findings.update(dict.fromkeys(rep.findings))
    shown = failed or first
    return {
        "schema": SCHEMA,
        "identity": identity,
        "params": params,
        "checked": checked,
        "status": "fail" if failed else "pass_with_findings" if first else "pass",
        "first_mismatch": (
            {"instance": shown.params, **(shown.first_mismatch or {})} if shown else None
        ),
        "findings": list(findings),
    }


def _verify_report(args) -> dict:
    identity = args.identity
    defaults, verifier, instances, size, _ = _CHECKS[identity]
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
    count = _check_cost(identity, params)
    if verifier is None:  # thm44
        from ..ppart import specialization_check, thm44_check

        kmax = params["kmax"]
        reports = [thm44_check(kmax), specialization_check(min(kmax, 6))]
    else:
        module, _, name = verifier.partition(".")
        check = getattr(importlib.import_module(f"cubezeta.{module}"), name)
        items = (
            (*x, params[size]) if isinstance(x, tuple) else (x, params[size])
            for x in instances(params["Dmax"])
        )
        reports = _map_ordered(check, items, args.threads, count)
    return _aggregate_reports(identity, params, reports)


def run(args) -> int:
    report = _verify_report(args)
    _emit([json.dumps(report, indent=2, sort_keys=True)], args.output)
    return 1 if report["status"] == "fail" else 0
