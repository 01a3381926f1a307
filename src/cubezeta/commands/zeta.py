"""``cubezeta zeta``: the floating truncation of the three-variable Dirichlet sum."""

from __future__ import annotations

import sys

from . import _box, _emit


def run(args) -> int:
    from ..identities import partial_sum

    result = partial_sum(args.s1, args.s2, args.w, *_box(args))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit([f"{result.value:.15g}"], args.output)
    return 0
