"""``cubezeta moduli``: the oriented ideal-class pairs of one cell as JSON lines."""

from __future__ import annotations

import json

from . import _emit


def run(args) -> int:
    from ..quadring import ideal_class_pairs, pair_fiber

    lines = [
        json.dumps({"D": args.D, "a1": pair.first.a, "b1": pair.first.b,
                    "a2": pair.second.a, "b2": pair.second.b, "fiber": pair_fiber(pair)})
        for pair in ideal_class_pairs(args.D, args.a1, args.a2)
    ]
    _emit(lines, args.output)
    return 0
