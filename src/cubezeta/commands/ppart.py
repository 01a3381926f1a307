"""``cubezeta ppart``: the trivariate prime-part coefficients, or their values at p."""

from __future__ import annotations

import itertools

from . import UsageError, _emit


def run(args) -> int:
    from ..ppart import f_a3_expand, p_eval, p_format

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
