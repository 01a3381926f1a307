"""``cubezeta zeta``: the floating truncation of the three-variable Dirichlet sum."""

from __future__ import annotations

import sys

from . import UsageError, _box, _discriminant_count, _emit

# The most cells, discriminants times (Mmax + 1)^2, that one sum reads: 1,000
# discriminants at --Mmax 300 (90.6 M cells) took 5.0 s on a 2-core host.
_CELL_CAP = 10**8


def run(args) -> int:
    Dmax, Mmax = _box(args)
    cells = _discriminant_count(Dmax) * (Mmax + 1) ** 2
    if cells > _CELL_CAP:
        raise UsageError(f"zeta needs about {cells:,} cells, over {_CELL_CAP:,}")
    from ..identities import partial_sum

    result = partial_sum(args.s1, args.s2, args.w, Dmax, Mmax)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit([f"{result.value:.15g}"], args.output)
    return 0
