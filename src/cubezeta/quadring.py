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

``level_counts`` counts, per norm a and divisor level d | gcd(D1, a), the
classes N(d) that pass the depressed congruence at d.  Both aggregates are
sums over the divisor levels d of g = gcd(D1, a1, a2): the per-pair one is
sum_{d | g} d * N1(d) * N2(d), and the constant-fiber one sum_{d | g} d *
N1(1) * N2(1).  ``verify_thm13`` checks one cell, its two sums taken by
``fiber_sums``; ``verify_thm13_scan`` checks every cell a1, a2 <= amax of
one discriminant, its two sums taken as two ``level_grid``s and the cell
it reports found by ``first_mismatch``.  Both compare the two sums with B
by the same status rule.

The counts read no cube: ``cube`` is imported only by ``pair_from_cube``,
so ``moduli`` and ``verify thm13`` do not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .congruence import (
    DomainError,
    RangeError,
    discriminant_data,
    divisors,
    level_grid,
    require_discriminant,
    sigma1,
    sqrt_roots,
    squarefree_split,
)
from .orbits import B, b_grid
from .report import IdentityReport, first_mismatch

if TYPE_CHECKING:  # cube is imported where a cube is read, so the counts do not load it
    from .cube import BinaryQuadraticForm, Cube


class _QuadraticRingFields(NamedTuple):
    D: int


class QuadraticRing(_QuadraticRingFields):
    """The quadratic ring of discriminant D, basis <1, tau>."""

    __slots__ = ()

    def __new__(cls, D: int):
        require_discriminant(D)
        return super().__new__(cls, D)

    def tau_square(self) -> tuple[int, int]:
        """(c0, c1) with tau^2 = c0 + c1 * tau."""
        if self.D % 2 == 0:
            return (self.D // 4, 0)
        return ((self.D - 1) // 4, 1)


class _OrientedIdealClassFields(NamedTuple):
    a: int
    b: int


class OrientedIdealClass(_OrientedIdealClassFields):
    """An oriented ideal class: signed a with |a| = norm, b its residue.

    The window is 0 <= b < 2|a|; validity of the congruence
    b^2 = D (mod 4|a|) depends on D and is enforced where the class meets
    a discriminant (constructors below, IdealClassPair).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if a == 0:
            raise DomainError("class needs a nonzero leading coefficient")
        if not 0 <= b < 2 * abs(a):
            raise DomainError("b must lie in [0, 2|a|)")
        return super().__new__(cls, a, b)

    @property
    def norm(self) -> int:
        return abs(self.a)

    @property
    def orientation(self) -> int:
        return 1 if self.a > 0 else -1

    def matches(self, D: int) -> bool:
        """Whether the defining congruence b^2 = D (mod 4|a|) holds."""
        return (self.b * self.b - D) % (4 * abs(self.a)) == 0


class _IdealClassPairFields(NamedTuple):
    D: int
    first: OrientedIdealClass
    second: OrientedIdealClass


class IdealClassPair(_IdealClassPairFields):
    """Two oriented ideal classes of the same ring R(D)."""

    __slots__ = ()

    def __new__(cls, D: int, first: OrientedIdealClass, second: OrientedIdealClass):
        require_discriminant(D)
        for c in (first, second):
            if not c.matches(D):
                raise DomainError(f"(a={c.a}, b={c.b}) is not a class of discriminant {D}")
        return super().__new__(cls, D, first, second)


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


def classes_with_norm(D: int, a: int) -> tuple[OrientedIdealClass, ...]:
    """All classes of R(D) with the given signed leading coefficient a.

    These are (a, b) for the roots b in [0, 2|a|) of b^2 = D (mod 4|a|);
    roots mod 4|a| come in pairs {x, x + 2|a|} that give one class each.
    """
    if a == 0:
        raise DomainError("a must be nonzero")
    require_discriminant(D)
    window = 2 * abs(a)
    return tuple(OrientedIdealClass(a, b) for b in sqrt_roots(D, 4 * a) if b < window)


def _oriented_classes(D: int, a: int) -> tuple[OrientedIdealClass, ...]:
    """The classes of norm a > 0 in both orientations, negative a first."""
    positive = classes_with_norm(D, a)
    return tuple(OrientedIdealClass(-a, c.b) for c in positive) + positive


def iter_ideal_class_pairs(D: int, a1: int, a2: int) -> Iterator[IdealClassPair]:
    """The pairs of ``ideal_class_pairs`` one at a time, in the same order.

    The classes of each norm are found at the call; the pairs, as many as
    their product, are formed only as they are read.
    """
    if a1 < 1 or a2 < 1:
        raise RangeError("norms must be positive")
    firsts, seconds = _oriented_classes(D, a1), _oriented_classes(D, a2)
    return (IdealClassPair(D, c1, c2) for c1 in firsts for c2 in seconds)


def ideal_class_pairs(D: int, a1: int, a2: int) -> tuple[IdealClassPair, ...]:
    """All ordered pairs of classes with norms a1, a2 (both orientations).

    a1, a2 are positive norms; each slot ranges over both signs.  Pairs are
    ordered by (first.a, first.b, second.a, second.b): ``_oriented_classes``
    lists the negative a first, each sign by ascending b, and the product is
    taken first-major.
    """
    return tuple(iter_ideal_class_pairs(D, a1, a2))


def pair_from_cube(A: Cube) -> IdealClassPair:
    """The pair of oriented classes of a cube's first two slicing forms.

    Requires all three invariants (D, m, n) nonzero; m and n are exactly
    the leading coefficients of the two forms, so both classes exist.
    Constant on orbits of the group action.
    """
    from .cube import form1, form2, is_semistable

    if not is_semistable(A):
        raise DomainError("cube must have nonzero invariants D, m, n")
    ring, c1 = ring_ideal_from_form(form1(A))
    _, c2 = ring_ideal_from_form(form2(A))
    return IdealClassPair(ring.D, c1, c2)


def fiber_count(D: int, a1: int, a2: int) -> int:
    """sigma_1(gcd(D1, |a1|, |a2|)), D1 the square conductor of D.

    The constant value the aggregate identity assigns to every fiber over
    a pair with norms |a1|, |a2|.  See ``pair_fiber`` for the per-pair
    count that actually varies with the b-data.
    """
    data = discriminant_data(D)
    return sigma1(math.gcd(data.D1, abs(a1), abs(a2)))


def _depressed(b: int, norm: int, d: int, D: int) -> bool:
    """Whether d | b and (b/d)^2 = D/d^2 (mod 4 norm/d), for d^2 | D and d | norm.

    b and norm = |a| are a class's residue and norm; its orientation does
    not enter.
    """
    return b % d == 0 and ((b // d) ** 2 - D // (d * d)) % (4 * norm // d) == 0


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
        d for d in divisors(g)
        if _depressed(first.b, first.norm, d, D) and _depressed(second.b, second.norm, d, D)
    )


def level_counts(D: int, D1: int, a: int) -> dict:
    """{d: N(d)} over d | gcd(D1, a): the classes of norm a > 0, in both
    orientations, that pass the depressed congruence at d.

    N(1) counts every class.  The classes are enumerated from their roots,
    not counted by ``sqrt_count``: each root b < 2a of b^2 = D (mod 4a) is
    one class of each orientation, and the depressed test does not read the
    orientation, so N(d) is twice the roots that pass it.  Every root
    passes it at d = 1.
    """
    require_discriminant(D)
    roots = [b for b in sqrt_roots(D, 4 * a) if b < 2 * a]
    counts = {1: 2 * len(roots)}
    for d in divisors(math.gcd(D1, a))[1:]:
        counts[d] = 2 * sum(_depressed(b, a, d, D) for b in roots)
    return counts


def fiber_sums(g: int, counts1: dict, counts2: dict) -> tuple[int, int]:
    """(constant-fiber sum, per-pair sum) of one cell, g = gcd(D1, a1, a2).

    counts1 and counts2 are the ``level_counts`` of norms a1 and a2.  The
    constant-fiber sum is sigma_1(g) N1(1) N2(1); the sum of ``pair_fiber``
    over the cell's pairs is taken by divisor levels, sum_{d | g} d N1(d) N2(d).
    """
    sigma_sum = sigma1(g) * counts1[1] * counts2[1]
    exact_sum = sum(d * counts1[d] * counts2[d] for d in divisors(g))
    return sigma_sum, exact_sum


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
    D1 = discriminant_data(D).D1
    counts1, counts2 = level_counts(D, D1, a1), level_counts(D, D1, a2)
    sigma_sum, exact_sum = fiber_sums(math.gcd(D1, a1, a2), counts1, counts2)
    b_value = B(D, a1, a2)
    params = {"D": D, "a1": a1, "a2": a2}
    detail = {"pairs": counts1[1] * counts2[1], "sigma1_sum": sigma_sum,
              "exact_sum": exact_sum, "B": b_value}
    if exact_sum != b_value:
        return IdentityReport("thm13", params, "mismatch", detail, (_MISMATCH_NOTE,))
    if sigma_sum == b_value:
        return IdentityReport("thm13", params, "equal", None)
    finding = (
        "the per-fiber cardinality is not constant at "
        f"sigma_1(gcd(D1, a1, a2)) = {fiber_count(D, a1, a2)}: the "
        f"constant-fiber aggregate gives {sigma_sum}, but the fibers "
        "depend on the b-data through the depressed congruences and their "
        f"exact sum {exact_sum} matches B"
    )
    return IdentityReport("thm13", params, "known_constant_fiber_discrepancy", detail, (finding,))


_CONSTANT_FIBER_NOTE = (
    "per-fiber cardinality is not constant at sigma_1(gcd(D1, a1, a2)); "
    "the exact per-pair fibers (depressed congruences at each divisor "
    "level) aggregate to B everywhere checked"
)


def verify_thm13_scan(D: int, amax: int) -> IdentityReport:
    """``verify_thm13`` over every cell a1, a2 <= amax of one discriminant.

    D1 is split off once and the ``level_counts`` of each norm are taken
    once.  Both aggregates are level grids over the divisor levels d | D1
    with d <= amax: the per-pair one over the vectors N_a(d), and the
    constant-fiber one, sigma_1(g) N_a1(1) N_a2(1) = sum_{d | g} d N_a1(1)
    N_a2(1), over the vectors N_a(1), each 0 where d does not divide a.
    When d = 1 is the only level, the two grids are one.  B is read from one
    ``b_grid``.  The first cell, in (a1, a2) order, whose per-pair sum
    differs from B is reported as a mismatch; otherwise the first whose
    constant-fiber sum differs from B is reported as the known discrepancy.
    """
    params = {"D": D, "amax": amax}
    D1 = discriminant_data(D).D1
    counts = [{}] + [level_counts(D, D1, a) for a in range(1, amax + 1)]
    levels = [d for d in divisors(D1) if d <= amax]
    exact = level_grid([(d, [c.get(d, 0) for c in counts]) for d in levels], amax)
    sigma = exact if len(levels) < 2 else level_grid(
        [(d, [c.get(1, 0) if a % d == 0 else 0 for a, c in enumerate(counts)]) for d in levels],
        amax)
    b = b_grid(D, amax)
    status, note = "mismatch", _MISMATCH_NOTE
    cell = first_mismatch(exact, b, ("a1", "a2"))
    if cell is None:
        status, note = "known_constant_fiber_discrepancy", _CONSTANT_FIBER_NOTE
        cell = first_mismatch(sigma, b, ("a1", "a2"))
    if cell is None:
        return IdentityReport("thm13", params, "equal", None)
    a1, a2 = cell["a1"], cell["a2"]
    detail = {"a1": a1, "a2": a2, "sigma1_sum": sigma[a1][a2],
              "exact_sum": exact[a1][a2], "B": b[a1][a2]}
    return IdentityReport("thm13", params, status, detail, (note,))
