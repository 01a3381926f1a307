"""``cubezeta orbits``: the orbit count of one cell, optionally against the oracle."""

from __future__ import annotations

from . import _emit


def run(args) -> int:
    from ..orbits import B

    formula = B(args.D, args.m, args.n)
    lines = [f"B = {formula}"]
    ok = True
    if args.oracle:
        from ..cube import orbit_count_oracle

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
