"""Oriented quadratic rings, oriented ideal classes, and the moduli count.

A nonzero integer D congruent to 0 or 1 mod 4 determines the quadratic ring
R(D) = Z[tau] with tau^2 = D/4 (D even) or tau^2 = (D-1)/4 + tau (D odd).
An oriented ideal class of norm |a| in R(D) is recorded by a signed leading
coefficient a and a residue b mod 2|a| with b^2 = D (mod 4|a|); the sign of
a is the orientation.  Binary quadratic forms (a, b, c) of discriminant D
with a != 0 correspond bijectively to such classes: the shear b -> b + 2ka
on forms becomes reduction of b into its window, and c = (b^2 - D)/(4a) is
implied.  A cube with nonvanishing invariants maps to the pair of classes
of its first two slicing forms, and that map is constant on group orbits.

Fibers of the cube-to-pair map:

* ``fiber_count`` is the constant-per-grid-cell cardinality
  sigma_1(gcd(D1, |a1|, |a2|)) (D1 the square conductor of D), the value
  the aggregate count-by-classes identity is usually stated with.
* ``pair_fiber`` is the per-pair cardinality: the sum of d over divisors
  d of gcd(D1, |a1|, |a2|) such that d divides both b's and the depressed
  congruences (b_i/d)^2 = D/d^2 (mod 4|a_i|/d) still hold.  The two agree
  whenever gcd(D1, |a1|, |a2|) = 1 but not in general (smallest difference
  at D = -4, a1 = a2 = 2: constant-fiber aggregate 12, B = 4), and only
  the per-pair count aggregates to the orbit count B(D, a1, a2)
  everywhere.

``fiber_sums`` computes both aggregates of one cell from its two class
lists, the per-pair one as sum_{d | g} d * N1(d) * N2(d) over the divisor
levels d of g = gcd(D1, a1, a2).  ``verify_thm13`` checks one cell and
``verify_thm13_scan`` every cell a1, a2 <= amax of one discriminant; both
compare the two sums with B by the same status rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .congruence import (
    DomainError,
    RangeError,
    discriminant_data,
    divisors,
    is_discriminant,
    sigma1,
    sqrt_roots,
    squarefree_split,
)
from .cube import BinaryQuadraticForm, Cube, form1, form2, is_semistable
from .identities import IdentityReport
from .orbits import B


@dataclass(frozen=True)
class QuadraticRing:
    """The quadratic ring of discriminant D, basis <1, tau>."""

    D: int

    def __post_init__(self):
        if not is_discriminant(self.D):
            raise DomainError("D must be a nonzero integer = 0 or 1 mod 4")

    def tau_square(self) -> tuple[int, int]:
        """(c0, c1) with tau^2 = c0 + c1 * tau."""
        if self.D % 2 == 0:
            return (self.D // 4, 0)
        return ((self.D - 1) // 4, 1)


@dataclass(frozen=True)
class OrientedIdealClass:
    """An oriented ideal class: signed a with |a| = norm, b its residue.

    The window is 0 <= b < 2|a|; validity of the congruence
    b^2 = D (mod 4|a|) depends on D and is enforced where the class meets
    a discriminant (constructors below, IdealClassPair).
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a == 0:
            raise DomainError("class needs a nonzero leading coefficient")
        if not 0 <= self.b < 2 * abs(self.a):
            raise DomainError("b must lie in [0, 2|a|)")

    @property
    def norm(self) -> int:
        return abs(self.a)

    @property
    def orientation(self) -> int:
        return 1 if self.a > 0 else -1

    def matches(self, D: int) -> bool:
        """Whether the defining congruence b^2 = D (mod 4|a|) holds."""
        return (self.b * self.b - D) % (4 * abs(self.a)) == 0


@dataclass(frozen=True)
class IdealClassPair:
    """Two oriented ideal classes of the same ring R(D)."""

    D: int
    first: OrientedIdealClass
    second: OrientedIdealClass

    def __post_init__(self):
        if not is_discriminant(self.D):
            raise DomainError("D must be a nonzero integer = 0 or 1 mod 4")
        for cls in (self.first, self.second):
            if not cls.matches(self.D):
                raise DomainError(
                    f"(a={cls.a}, b={cls.b}) is not a class of discriminant {self.D}"
                )


def ring_ideal_from_form(
    form: BinaryQuadraticForm,
) -> tuple[QuadraticRing, OrientedIdealClass]:
    """The ring R(disc) and oriented class <a, tau> of a form with a != 0.

    Forms related by b -> b + 2ka (same a, c adjusted) give the same class;
    the sign of a is retained as the orientation.
    """
    if form.a == 0:
        raise DomainError("form must have a nonzero leading coefficient")
    D = form.discriminant()
    if D == 0:
        raise DomainError("form must have a nonzero discriminant")
    return QuadraticRing(D), OrientedIdealClass(form.a, form.b % (2 * abs(form.a)))


def form_from_class(cls: OrientedIdealClass, D: int) -> BinaryQuadraticForm:
    """The form (a, b, (b^2 - D)/(4a)); inverse of ring_ideal_from_form."""
    if not is_discriminant(D):
        raise DomainError("D must be a nonzero integer = 0 or 1 mod 4")
    if not cls.matches(D):
        raise DomainError(f"(a={cls.a}, b={cls.b}) is not a class of discriminant {D}")
    return BinaryQuadraticForm(cls.a, cls.b, (cls.b * cls.b - D) // (4 * cls.a))


def classes_with_norm(D: int, a: int) -> tuple[OrientedIdealClass, ...]:
    """All classes of R(D) with the given signed leading coefficient a.

    These are (a, b) for the roots b in [0, 2|a|) of b^2 = D (mod 4|a|);
    roots mod 4|a| come in pairs {x, x + 2|a|} that give one class each.
    """
    if a == 0:
        raise DomainError("a must be nonzero")
    if not is_discriminant(D):
        raise DomainError("D must be a nonzero integer = 0 or 1 mod 4")
    window = 2 * abs(a)
    bs = sorted({x % window for x in sqrt_roots(D, 4 * abs(a))})
    return tuple(OrientedIdealClass(a, b) for b in bs)


def _oriented_classes(D: int, a: int) -> tuple[OrientedIdealClass, ...]:
    """The classes of norm a > 0 in both orientations, negative a first."""
    return classes_with_norm(D, -a) + classes_with_norm(D, a)


def ideal_class_pairs(D: int, a1: int, a2: int) -> tuple[IdealClassPair, ...]:
    """All ordered pairs of classes with norms a1, a2 (both orientations).

    a1, a2 are positive norms; each slot ranges over both signs.  Pairs are
    ordered by (first.a, first.b, second.a, second.b).
    """
    if a1 < 1 or a2 < 1:
        raise RangeError("norms must be positive")
    pairs = [
        IdealClassPair(D, c1, c2)
        for c1 in _oriented_classes(D, a1)
        for c2 in _oriented_classes(D, a2)
    ]
    pairs.sort(key=lambda p: (p.first.a, p.first.b, p.second.a, p.second.b))
    return tuple(pairs)


def pair_from_cube(A: Cube) -> IdealClassPair:
    """The pair of oriented classes of a cube's first two slicing forms.

    Requires all three invariants (D, m, n) nonzero; m and n are exactly
    the leading coefficients of the two forms, so both classes exist.
    Constant on orbits of the group action.
    """
    if not is_semistable(A):
        raise DomainError("cube must have nonzero invariants D, m, n")
    q1, q2 = form1(A), form2(A)
    if q1.a == 0 or q2.a == 0:
        raise DomainError("slicing form has a vanishing leading coefficient")
    ring, c1 = ring_ideal_from_form(q1)
    _, c2 = ring_ideal_from_form(q2)
    return IdealClassPair(ring.D, c1, c2)


def fiber_count(D: int, a1: int, a2: int) -> int:
    """sigma_1(gcd(D1, |a1|, |a2|)), D1 the square conductor of D.

    The constant value the aggregate identity assigns to every fiber over
    a pair with norms |a1|, |a2|.  See ``pair_fiber`` for the per-pair
    count that actually varies with the b-data.
    """
    data = discriminant_data(D)
    return sigma1(math.gcd(data.D1, abs(a1), abs(a2)))


def _depressed(cls: OrientedIdealClass, d: int, D: int) -> bool:
    """Whether d | b and (b/d)^2 = D/d^2 (mod 4|a|/d), for d^2 | D and d | a."""
    return cls.b % d == 0 and ((cls.b // d) ** 2 - D // (d * d)) % (4 * abs(cls.a) // d) == 0


def pair_fiber(pair: IdealClassPair) -> int:
    """Cardinality of the cube fiber over one pair of oriented classes.

    Counts, over divisors d of gcd(D1, |a1|, |a2|) with d | b1 and d | b2,
    those d whose depressed congruences (b_i/d)^2 = D/d^2 (mod 4|a_i|/d)
    hold, with multiplicity d.  (Dividing the original congruence by d^2
    only gives information mod 4|a_i|/d^2, so the depressed condition is a
    genuine further constraint; this is where the constant-fiber shortcut
    breaks.)
    """
    D, first, second = pair.D, pair.first, pair.second
    g = math.gcd(squarefree_split(D)[1], first.norm, second.norm)
    return sum(
        d for d in divisors(g) if _depressed(first, d, D) and _depressed(second, d, D)
    )


def fiber_sums(D: int, a1: int, a2: int, firsts, seconds) -> tuple[int, int]:
    """(constant-fiber sum, per-pair sum) over firsts x seconds, g = gcd(D1, a1, a2).

    firsts and seconds are the classes of norms a1 and a2.  The constant-fiber
    sum is sigma_1(g) |firsts| |seconds|; the sum of ``pair_fiber`` is taken by
    divisor levels, sum_{d | g} d N1(d) N2(d), N_i(d) counting the classes of
    slot i that pass the depressed congruence at d.
    """
    g = math.gcd(squarefree_split(D)[1], a1, a2)
    sigma_sum = sigma1(g) * len(firsts) * len(seconds)
    exact_sum = sum(
        d
        * sum(_depressed(c, d, D) for c in firsts)
        * sum(_depressed(c, d, D) for c in seconds)
        for d in divisors(g)
    )
    return sigma_sum, exact_sum


def _thm13_cell(D: int, a1: int, a2: int, firsts, seconds) -> tuple[str, dict]:
    """Status of one cell, by its two aggregates next to B(D, a1, a2)."""
    sigma_sum, exact_sum = fiber_sums(D, a1, a2, firsts, seconds)
    b_value = B(D, a1, a2)
    status = (
        "mismatch" if exact_sum != b_value
        else "known_constant_fiber_discrepancy" if sigma_sum != b_value
        else "equal"
    )
    return status, {"sigma1_sum": sigma_sum, "exact_sum": exact_sum, "B": b_value}


_MISMATCH_NOTE = "exact per-pair fiber aggregate disagrees with B"


def verify_thm13(D: int, a1: int, a2: int) -> IdentityReport:
    """Check the count-by-classes aggregate of one cell against B(D, a1, a2).

    Takes all ordered pairs of oriented classes with norms a1, a2 and forms
    both aggregates of ``fiber_sums``: the constant-fiber sum (every pair
    weighted by sigma_1(gcd(D1, a1, a2))) and the per-pair sum (weights
    from ``pair_fiber``).  Status "equal" when both match B;
    "known_constant_fiber_discrepancy" when only the per-pair sum does;
    "mismatch" when the per-pair sum does not.
    """
    if a1 < 1 or a2 < 1:
        raise RangeError("norms must be positive")
    firsts, seconds = _oriented_classes(D, a1), _oriented_classes(D, a2)
    status, sums = _thm13_cell(D, a1, a2, firsts, seconds)
    params = {"D": D, "a1": a1, "a2": a2}
    if status == "equal":
        return IdentityReport("thm13", params, status, None)
    detail = {"pairs": len(firsts) * len(seconds), **sums}
    if status == "mismatch":
        return IdentityReport("thm13", params, status, detail, (_MISMATCH_NOTE,))
    finding = (
        "the per-fiber cardinality is not constant at "
        f"sigma_1(gcd(D1, a1, a2)) = {fiber_count(D, a1, a2)}: the "
        f"constant-fiber aggregate gives {sums['sigma1_sum']}, but the fibers "
        "depend on the b-data through the depressed congruences and their "
        f"exact sum {sums['exact_sum']} matches B"
    )
    return IdentityReport("thm13", params, status, detail, (finding,))


_CONSTANT_FIBER_NOTE = (
    "per-fiber cardinality is not constant at sigma_1(gcd(D1, a1, a2)); "
    "the exact per-pair fibers (depressed congruences at each divisor "
    "level) aggregate to B everywhere checked"
)


def verify_thm13_scan(D: int, amax: int) -> IdentityReport:
    """``verify_thm13`` over every cell a1, a2 <= amax of one discriminant.

    The classes of each norm are enumerated once.  The first cell, in
    (a1, a2) order, whose per-pair sum differs from B is reported as a
    mismatch; otherwise the first whose constant-fiber sum differs from B
    is reported as the known discrepancy.
    """
    params = {"D": D, "amax": amax}
    per_norm = {a: _oriented_classes(D, a) for a in range(1, amax + 1)}
    first_known = None
    for a1 in range(1, amax + 1):
        for a2 in range(1, amax + 1):
            status, sums = _thm13_cell(D, a1, a2, per_norm[a1], per_norm[a2])
            if status == "mismatch":
                return IdentityReport(
                    "thm13", params, status, {"a1": a1, "a2": a2, **sums},
                    (_MISMATCH_NOTE,),
                )
            if status != "equal" and first_known is None:
                first_known = {"a1": a1, "a2": a2, **sums}
    if first_known is None:
        return IdentityReport("thm13", params, "equal", None)
    return IdentityReport(
        "thm13", params, "known_constant_fiber_discrepancy", first_known,
        (_CONSTANT_FIBER_NOTE,),
    )
