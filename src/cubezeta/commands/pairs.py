"""``cubezeta pairs``: the congruence pairs of one cell, optionally with their cubes."""

from __future__ import annotations

from . import _write


def run(args) -> int:
    from ..orbits import cube_from_pair, iter_congruence_pairs

    def line(pair) -> str:
        row = f"{pair.x} {pair.y} {pair.s} {pair.t}"
        if args.cubes:
            row += " | " + " ".join(str(v) for v in cube_from_pair(pair).entries())
        return row + "\n"

    # each row is written as it is formed: the pairs can outnumber memory
    _write(map(line, iter_congruence_pairs(args.D, args.m, args.n)), args.output)
    return 0
