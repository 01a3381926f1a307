"""The report type that every identity check returns, and the scan that
finds where the two sides of an identity first differ.

It lives apart from ``identities`` so that the checks of ``quadring`` and
``ppart`` use it without loading the series arithmetic;
``identities`` re-exports ``IdentityReport`` under the same name.
"""

from __future__ import annotations

from typing import NamedTuple


class IdentityReport(NamedTuple):
    """Outcome of one identity check.

    status: "equal" | "known_p2_discrepancy" | "known_odd_square_discrepancy"
    | "known_constant_fiber_discrepancy" | "mismatch".  The known_* values
    mean: the closed form as usually printed disagrees with the independent
    count, but a corrected closed form agrees everywhere checked; the defect
    is documented in findings rather than silently fixed.  "mismatch" means
    no characterized correction restores equality.
    """

    identity: str
    params: dict
    status: str
    first_mismatch: dict | None
    findings: tuple[str, ...] = ()


def first_mismatch(lhs, rhs, names: tuple[str, ...]) -> dict | None:
    """Where nested arrays lhs and rhs first differ, in row-major order.

    The arrays are nested ``len(names)`` deep, and index 0 is compared.  A
    row equal on both sides is passed over in one comparison.  Returns
    {names[0]: i, ..., "lhs": lhs[i]..., "rhs": rhs[i]...}, or None when
    the arrays are equal; ValueError when one array ends before the other
    does and before they differ.
    """
    if lhs == rhs:
        return None
    for i, (left, right) in enumerate(zip(lhs, rhs, strict=True)):
        if left != right:
            if len(names) == 1:
                return {names[0]: i, "lhs": left, "rhs": right}
            return {names[0]: i, **first_mismatch(left, right, names[1:])}
    return None


def compare(identity: str, params: dict, lhs, rhs, names: tuple[str, ...]) -> IdentityReport:
    """The report of a check with one route: "equal", or "mismatch" at the
    first difference that ``first_mismatch`` finds."""
    mismatch = first_mismatch(lhs, rhs, names)
    return IdentityReport(identity, params, "mismatch" if mismatch else "equal", mismatch)
