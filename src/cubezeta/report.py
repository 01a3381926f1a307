"""The report type that every identity check returns.

It lives apart from ``identities`` so that the checks of ``quadring`` and
``ppart`` return it without loading the series arithmetic;
``identities`` re-exports it under the same name.
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
