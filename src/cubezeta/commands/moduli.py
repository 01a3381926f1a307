"""``cubezeta moduli``: the oriented ideal-class pairs of one cell as JSON lines."""

from __future__ import annotations

import json

from . import _write


def run(args) -> int:
    from ..quadring import iter_ideal_class_pairs, pair_fiber

    def line(pair) -> str:
        return json.dumps({"D": args.D, "a1": pair.first.a, "b1": pair.first.b,
                           "a2": pair.second.a, "b2": pair.second.b,
                           "fiber": pair_fiber(pair)}) + "\n"

    # each row is written as it is formed: the pairs can outnumber memory
    _write(map(line, iter_ideal_class_pairs(args.D, args.a1, args.a2)), args.output)
    return 0
