"""2x2x2 integer cubes: invariants, group action, and an orbit-counting oracle.

A cube A = (a, b, c, d, e, f, g, h) is sliced three ways into pairs of 2x2
matrices (M_i, N_i), listed once in ``_SLICINGS``.  Slicing i yields the
form Q_i(u, v) = det(M_i u - N_i v), and factor i of the group acts on the
pair by (M, N) -> (r M + s N, t M + u N): lower-unipotent shears in factors
1 and 2, all of SL2 in factor 3.  The three forms share one discriminant
D(A), and the leading coefficients m = ad - bc and n = ag - ce of Q_1, Q_2
are the two further invariants.

Only the identity fixes a cube with D, m, n != 0, so the Shintani zeta
function weights every semistable orbit by 1/|Stab| = 1.  The factors
commute, and each keeps the forms of the other two slicings (it multiplies
both of their matrices by one unimodular matrix).  A factor-1 shear by k
takes (M_1, N_1) to (M_1, k M_1 + N_1), so Q_1(u, v) to Q_1(u - kv, v): it
moves Q_1.b by -2km, so it fixes no cube unless k = 0.  A factor-2 shear
moves Q_2.b by -2kn.  Then gamma = ((r, s), (t, u)) in factor 3 fixes
(M_3, N_3) only at gamma = I, as D != 0 makes M_3 and N_3 linearly
independent (were they dependent, Q_3 would be a multiple of a square).

``canonical`` names each semistable orbit by one of its cubes.  By the
above, the cubes of an orbit with Q_1.b in [0, 2|m|) and Q_2.b in [0, 2|n|)
form one free orbit of factor 3, the oriented bases (M_3, N_3) of one rank-2
lattice in Z^4, and a reduced basis of that lattice, least among its ties,
picks one of them.

The orbit oracle counts, by explicit enumeration, the orbits of cubes with
given (D, |m|, |n|) -- all four sign classes together -- and reports a
stability flag (every orbit that the outer box reaches meets the inner box,
and the box skips no divisor).
Enumeration works on the c = 0 slice: every orbit with m, n != 0 has a
representative there.  The slice-preserving moves are the two
lower-unipotent shears, the upper shear in the third factor, and global
negation.  The shears keep a, d and g.  Negation swaps the a > 0 and a < 0
halves; the sign flips of (b, d, f, h) and of (e, f, g, h) swap the signs of
d and of g, and each turns one lower shear into its inverse and commutes with
the other moves.  All three keep D, |m|, |n| and every |entry|, so only the
part with a, d, g > 0 is enumerated and each of its orbits stands for four.
The third shear (b, e, f) += k*(d, g, h) commutes with both lower shears,
so the enumeration yields its orbits (chains), each named by (x, h, e) with
the run of k in each box.  The lower shears move chain (x, h, e) to
(x, h + g, e) and to (x - 2m, h + d, (e + a) mod g), so all chains of one
normal key (x - 2m*j, (h + d*j) mod g, (e + a*j) mod g) with j = x // 2m
lie in one orbit, and ``canonical`` of one cube per key tells which keys are
one orbit.  The oracle takes the keys by formulas of its own: they are its
hot loop.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter, mul
from typing import NamedTuple

from .congruence import DomainError, RangeError, divisors


class BinaryQuadraticForm(NamedTuple):
    """Integral binary quadratic form a*u^2 + b*u*v + c*v^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v


class Cube(NamedTuple):
    """Integer cube with entries (a, b, c, d) on the front face, (e, f, g, h) back."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int

    def entries(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f, self.g, self.h)


# Slicing i: the positions in (a, ..., h) of M_i and of N_i, each read row by row
_SLICINGS = {
    1: ((0, 1, 2, 3), (4, 5, 6, 7)),  # [[a,b],[c,d]] and [[e,f],[g,h]]
    2: ((0, 2, 4, 6), (1, 3, 5, 7)),  # [[a,c],[e,g]] and [[b,d],[f,h]]
    3: ((0, 4, 1, 5), (2, 6, 3, 7)),  # [[a,e],[b,f]] and [[c,g],[d,h]]
}
_READ = {i: itemgetter(*M, *N) for i, (M, N) in _SLICINGS.items()}


def _form(A: Cube, i: int) -> BinaryQuadraticForm:
    """det(M u - N v) for the pair (M, N) = ([[p, q], [r, s]], [[w, x], [y, z]]) of slicing i."""
    p, q, r, s, w, x, y, z = _READ[i](A)
    return BinaryQuadraticForm(p * s - q * r, q * y + x * r - p * z - w * s, w * z - x * y)


def form1(A: Cube) -> BinaryQuadraticForm:
    """Form of the front/back slicing: det([[a,b],[c,d]] u - [[e,f],[g,h]] v)."""
    return _form(A, 1)


def form2(A: Cube) -> BinaryQuadraticForm:
    """Form of the left/right slicing: det([[a,c],[e,g]] u - [[b,d],[f,h]] v)."""
    return _form(A, 2)


def form3(A: Cube) -> BinaryQuadraticForm:
    """Form of the top/bottom slicing: det([[a,e],[b,f]] u - [[c,g],[d,h]] v)."""
    return _form(A, 3)


def forms(A: Cube) -> tuple[BinaryQuadraticForm, BinaryQuadraticForm, BinaryQuadraticForm]:
    return form1(A), form2(A), form3(A)


def discriminant(A: Cube) -> int:
    """Common discriminant of the three slicing forms."""
    return form1(A).discriminant()


def invariants(A: Cube) -> tuple[int, int, int]:
    """(D, m, n): discriminant and the two leading coefficients m = ad-bc, n = ag-ce."""
    q1 = form1(A)
    return q1.discriminant(), q1.a, form2(A).a


def is_semistable(A: Cube) -> bool:
    """True when none of the invariants D, m, n vanishes."""
    D, m, n = invariants(A)
    return D != 0 and m != 0 and n != 0


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------


class _GroupElementFields(NamedTuple):
    factor: int
    k: int = 0
    mat: tuple[tuple[int, int], tuple[int, int]] | None = None


class GroupElement(_GroupElementFields):
    """One factor's move: lower-unipotent shear (factors 1, 2) or SL2 (factor 3).

    factor 1 and 2 carry a shear parameter k (matrix [[1,0],[k,1]] acting on
    the corresponding matrix pair); factor 3 carries a full unimodular matrix
    ((r, s), (t, u)) with ru - st = 1.
    """

    __slots__ = ()

    def __new__(cls, factor: int, k: int = 0, mat=None):
        if factor in (1, 2):
            if mat is not None:
                raise DomainError("factors 1 and 2 are shears; no matrix allowed")
        elif factor == 3:
            if mat is None:
                raise DomainError("factor 3 needs a unimodular matrix")
            (r, s), (t, u) = mat
            if r * u - s * t != 1:
                raise DomainError("factor 3 matrix must have determinant 1")
        else:
            raise DomainError("factor must be 1, 2 or 3")
        return super().__new__(cls, factor, k, mat)


def shear1(k: int) -> GroupElement:
    return GroupElement(1, k=k)


def shear2(k: int) -> GroupElement:
    return GroupElement(2, k=k)


def sl2(r: int, s: int, t: int, u: int) -> GroupElement:
    return GroupElement(3, mat=((r, s), (t, u)))


def _act(i: int, mat, A: Cube) -> Cube:
    """Apply the 2x2 matrix ((r, s), (t, u)) to the pair (M, N) of slicing i.

    The pair becomes (r M + s N, t M + u N).
    """
    (r, s), (t, u) = mat
    out = list(A)
    for j, k in zip(*_SLICINGS[i]):
        out[j], out[k] = r * A[j] + s * A[k], t * A[j] + u * A[k]
    return Cube(*out)


# The 20 matrices of SL2(Z) with entries in {-1, 0, 1}: they take a reduced
# basis of a plane lattice to every reduced basis with the same two lengths.
_SMALL_SL2 = tuple(((r, s), (t, u)) for r, s, t, u in itertools.product((-1, 0, 1), repeat=4)
                   if r * u - s * t == 1)


def _dot(v: tuple, w: tuple) -> int:
    return sum(map(mul, v, w))


def canonical(A: Cube) -> Cube:
    """The one cube of A's orbit that is returned for every cube of the orbit.

    Shears put Q_1.b in [0, 2|m|) and Q_2.b in [0, 2|n|).  The cubes of the
    orbit so placed are one orbit of factor 3 alone, acting freely: the
    oriented bases (v1, v2) = (M_3, N_3) of the rank-2 lattice that they span
    in Z^4.  Lagrange-Gauss reduction (Nguyen-Stehle, "Low-dimensional
    lattice basis reduction revisited", ANTS 2004) takes (v1, v2) to a
    shortest basis by the moves ((1, 0), (-q, 1)) and ((0, 1), (-1, 0)); its
    least image under ``_SMALL_SL2`` that keeps (|v1|^2, |v2|^2) is the
    form.  Raises DomainError unless D, m and n are nonzero.
    """
    q1, q2 = form1(A), form2(A)  # a factor-1 shear keeps Q_2
    m, n = q1.a, q2.a
    if q1.discriminant() * m * n == 0:
        raise DomainError("canonical form requires nonzero D, m and n")
    A = _act(1, ((1, 0), ((q1.b - q1.b % (2 * abs(m))) // (2 * m), 1)), A)
    A = _act(2, ((1, 0), ((q2.b - q2.b % (2 * abs(n))) // (2 * n), 1)), A)
    v1, v2 = (A.a, A.e, A.b, A.f), (A.c, A.g, A.d, A.h)
    n1, n2 = _dot(v1, v1), _dot(v2, v2)
    while True:
        q = (2 * _dot(v1, v2) + n1) // (2 * n1)  # the nearest integer to <v1, v2> / |v1|^2
        if q:
            v2 = tuple(y - q * x for x, y in zip(v1, v2))
            n2 = _dot(v2, v2)
        if n2 >= n1:
            break
        v1, v2, n1, n2 = v2, tuple(-x for x in v1), n2, n1
    images = ((tuple(r * x + s * y for x, y in zip(v1, v2)),
               tuple(t * x + u * y for x, y in zip(v1, v2))) for (r, s), (t, u) in _SMALL_SL2)
    (a, e, b, f), (c, g, d, h) = min(
        (w1, w2) for w1, w2 in images if _dot(w1, w1) == n1 and _dot(w2, w2) == n2)
    return Cube(a, b, c, d, e, f, g, h)


def act(g: GroupElement, A: Cube) -> Cube:
    """Apply one element's matrix, ((1, 0), (k, 1)) for a shear by k, to its factor's pair."""
    return _act(g.factor, g.mat or ((1, 0), (g.k, 1)), A)


def act_word(word, A: Cube) -> Cube:
    """Apply a sequence of group elements, leftmost first."""
    for g in word:
        A = act(g, A)
    return A


# ---------------------------------------------------------------------------
# Orbit oracle
# ---------------------------------------------------------------------------


class OracleCount(NamedTuple):
    """Orbit count from enumeration, with the box parameters and stability flag."""

    count: int
    stable: bool
    entry_bound: int
    slack: int
    cubes_enumerated: int


_ORACLE_CAP = 2_000_000  # the most residues the oracle scans and (x, h) steps it takes


def default_entry_bound(D: int, m: int, n: int) -> int:
    """Box radius covering the constructive orbit representatives plus margin.

    Representatives built from congruence data (D, x, y) satisfy
    |h| <= m + n - 1 and the remaining entries are bounded by expressions of
    size about m + n + |D| / (4 min(m, n)); the margin leaves room for the
    connecting moves.
    """
    m, n = abs(m), abs(n)
    lead = min(m, n)
    return m + n + (abs(D) + 4 * lead - 1) // (4 * lead) + 4


def _slice_roots(D: int, m: int, n: int) -> list[int]:
    """The square roots of D mod 4m, or none when D is no square mod 4n.

    Nonempty exactly when some cube has the invariants (D, m, n), the second
    form having leading coefficient a*g = +-n.  Both are direct residue scans;
    the oracle uses no sqrt_count.
    """
    roots = [r for r in range(4 * m) if (r * r - D) % (4 * m) == 0]
    if roots and any((r * r - D) % (4 * n) == 0 for r in range(4 * n)):
        return roots
    return []


def _slice_enumerate(D: int, m: int, n: int, R: int, slack: int, roots):
    """Normal keys of the third-shear chains of the cubes with c = 0 and a, d, g > 0.

    Covers the cubes with |m| = m, |n| = n and discriminant D; the sign flips
    of (b, d, f, h) and of (e, f, g, h) keep D, |m|, |n| and |entries| and
    give the rest of the a > 0 half.  A chain is one orbit of the third-factor
    shear (b, e, f) += k*(d, g, h), which keeps h and x = b*g - d*e - a*h:
    chain (x, h, e) has at k = 0 the cube with 0 <= e < g,
    b = (x + a*h + d*e) / g and f = (e*h - (x*x - D) / (4m)) / g.  Each entry
    is affine in k, so the k whose cube has all entries <= rho form one
    interval, empty when lo > hi; the inner and outer boxes have rho = R and
    R + slack + 1.  With j = x // 2m, the chain's normal key is
    (x - 2m*j, (h + d*j) mod g, (e + a*j) mod g).  For each divisor a of
    gcd(m, n) with d = m / a and g = n / a in the box, yields
    (a, d, g, inner, outer, cubes): the normal keys of the chains that meet
    the inner and the outer box, and the number of cubes in the outer box.

    Walks the Diophantine structure of the slice: a*d = m, a*g = n, and x
    runs over the classes mod 4m of ``roots`` from ``_slice_roots``.  Given
    (x, h), g*b - d*e = x + a*h fixes e modulo g / gamma with
    gamma = gcd(d, g), so the (x, h) line holds gamma representatives, and
    e*h - f*g = (x*x - D) / (4m) fixes f when g divides it.  A cube of the box
    has |b*g - d*e| <= rho*(d + g) and |e*h - f*g| <= rho*(|h| + g), which
    bounds h for each x.
    """
    rho = R + slack + 1
    for a in divisors(math.gcd(m, n)):
        d, g = m // a, n // a
        adg = max(a, d, g)
        if adg > rho:
            continue
        gamma = math.gcd(d, g)
        g1 = g // gamma
        # g*b - d*e = w gives e = -(w / gamma) / (d / gamma) mod g1
        e_unit = -pow(d // gamma, -1, g1)
        w_max = rho * (d + g)
        x_max = w_max + a * rho
        inner, outer, cubes = set(), set(), 0
        for r in roots:
            for x in range(r - 4 * m * ((r + x_max) // (4 * m)), x_max + 1, 4 * m):
                s = (x * x - D) // (4 * m)
                j = x // (2 * m)
                x0, dj, aj = x - 2 * m * j, d * j, a * j
                band = -(-abs(s) // rho) - g
                h_lo = max(-rho, -((w_max + x) // a))
                h_hi = min(rho, (w_max - x) // a)
                if band > 0:
                    hs = (*range(h_lo, min(h_hi, -band) + 1), *range(max(h_lo, band), h_hi + 1))
                else:
                    hs = range(h_lo, h_hi + 1)
                for h in hs:
                    w = x + a * h
                    if w % gamma:
                        continue
                    hj = (h + dj) % g
                    for e in range((w // gamma) * e_unit % g1, g, g1):
                        num = e * h - s
                        if num % g:
                            continue
                        b = (w + d * e) // g
                        f = num // g
                        # lo = -min((rho + .) // .) and hi = min((rho - .) // .) over |b + k*d|,
                        # |e + k*g| and |f + k*h| = |fh + k*hh|; at h = 0 the e-term stands in
                        # for the f-term, and |f| <= rho, as the band leaves out h = 0 otherwise
                        fh, hh = (f, h) if h > 0 else (-f, -h) if h else (e, g)
                        u, v, t = (rho + b) // d, (rho + e) // g, (rho + fh) // hh
                        lo = -(u if u < v and u < t else v if v < t else t)
                        u, v, t = (rho - b) // d, (rho - e) // g, (rho - fh) // hh
                        hi = u if u < v and u < t else v if v < t else t
                        if lo > hi:
                            continue
                        cubes += hi - lo + 1
                        key = (x0, hj, (e + aj) % g)
                        outer.add(key)
                        if key not in inner and (abs(h) if h else abs(f)) <= R and adg <= R:
                            u, v, t = (R + b) // d, (R + e) // g, (R + fh) // hh
                            i_lo = -(u if u < v and u < t else v if v < t else t)
                            u, v, t = (R - b) // d, (R - e) // g, (R - fh) // hh
                            if i_lo <= (u if u < v and u < t else v if v < t else t):
                                inner.add(key)
        yield a, d, g, inner, outer, cubes


def orbit_count_oracle(
    D: int, m: int, n: int, entry_bound: int | None = None, slack: int = 5
) -> OracleCount:
    """Count orbits of cubes with discriminant D and |invariants| (|m|, |n|).

    All four sign classes of (m, n) are counted together.  Enumerates the
    part of the c = 0 slice with a, d, g > 0 inside a box of radius
    R + slack + 1 (R = entry_bound) as third-shear chains
    (``_slice_enumerate``).  The lower shears keep a, d and g and commute
    with the third shear: the k = +1 move of the second shear takes chain
    (x, h, e) to (x, h + g, e), that of the first, reduced by the third
    shear, to (x - 2m, h + d, (e + a) mod g).  Both keep the chain's normal
    key, so the chains of one key lie in one orbit, and one ``canonical``
    form per key of the outer box names its orbit.  The two sign flips give
    four orbits in the a > 0 half for each form, and negation adds the a < 0
    half to the same orbits, so ``count`` is four times the number of forms
    of the keys that meet the inner box of radius R.  The count is stable
    when these are the forms of all keys, so no orbit of the outer box misses
    the inner one, and the inner box holds a cube.  An empty inner box is
    stable only when no cube has these invariants at all, i.e. when D is no
    square mod 4m or mod 4n (then B = 0).  When D is a square mod 4m and
    mod 4n, the count is also unstable if some divisor a of gcd(m, n) has
    max(a, m/a, n/a) > R + slack + 1, as the box then skips that divisor's
    cubes; this is conservative, since the skipped divisor may have no cube
    with these invariants.  ``cubes_enumerated`` counts the whole slice in
    the box.  Raises RangeError before any enumeration when 4(m + n) or the
    box's (x, h) steps, the sum over its divisors a of
    |roots| * (2*x_max // (4m) + 1) * (2*rho + 1), exceed ``_ORACLE_CAP``.
    """
    m, n = abs(m), abs(n)
    if m == 0 or n == 0:
        raise DomainError("oracle requires nonzero m and n")
    if (entry_bound is not None and entry_bound < 0) or slack < 0:
        raise DomainError("oracle entry_bound and slack must be nonnegative")
    if 4 * (m + n) > _ORACLE_CAP:
        raise RangeError(f"oracle scans 4(m + n) = {4 * (m + n):,} residues, over {_ORACLE_CAP:,}")
    R = entry_bound if entry_bound is not None else default_entry_bound(D, m, n)
    roots = _slice_roots(D, m, n)
    rho = R + slack + 1
    divs = divisors(math.gcd(m, n))
    boxed = [a for a in divs if max(a, m // a, n // a) <= rho]
    steps = sum(len(roots) * (2 * rho * (m // a + n // a + a) // (4 * m) + 1) * (2 * rho + 1)
                for a in boxed)
    if steps > _ORACLE_CAP:
        raise RangeError(f"oracle box needs about {steps:,} (x, h) steps, over {_ORACLE_CAP:,}")
    inner, every, enumerated = set(), set(), 0
    for a, d, g, inner_keys, outer_keys, cubes in _slice_enumerate(D, m, n, R, slack, roots):
        form = {(x, h, e): canonical(Cube(a, (x + a * h + d * e) // g, 0, d, e,
                                          (e * h - (x * x - D) // (4 * m)) // g, g, h))
                for x, h, e in outer_keys}
        every.update(form.values())
        inner.update(form[key] for key in inner_keys)
        enumerated += cubes
    # the two sign flips and negation make four orbits of each form and eight
    # copies of each enumerated cube
    stable = inner == every and (not roots or (bool(inner) and len(boxed) == len(divs)))
    return OracleCount(4 * len(inner), stable, R, slack, 8 * enumerated)
