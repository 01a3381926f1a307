"""``cubezeta count A|B|a3``: one exact value."""

from __future__ import annotations

from . import _emit, _require


def run(args) -> int:
    if args.what == "A":
        from ..congruence import sqrt_count

        value = sqrt_count(*_require(args, "d", "a"))
    elif args.what == "B":
        from ..orbits import B

        value = B(*_require(args, "D", "m", "n"))
    else:  # a3
        from ..wmds import a_coeff3

        value = a_coeff3(*_require(args, "D", "m", "n"))
    _emit([str(value)], args.output)
    return 0
