"""``cubezeta pairs``: the congruence pairs of one cell, optionally with their cubes."""

from __future__ import annotations

from . import _emit


def run(args) -> int:
    from ..orbits import congruence_pairs, cube_from_pair

    lines = []
    for pair in congruence_pairs(args.D, args.m, args.n):
        row = f"{pair.x} {pair.y} {pair.s} {pair.t}"
        if args.cubes:
            row += " | " + " ".join(str(v) for v in cube_from_pair(pair).entries())
        lines.append(row)
    _emit(lines, args.output)
    return 0
