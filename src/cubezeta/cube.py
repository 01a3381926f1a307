"""2x2x2 integer cubes: invariants, group action, and an orbit-counting oracle.

A cube A = (a, b, c, d, e, f, g, h) is sliced three ways into pairs of 2x2
matrices (M_i, N_i), listed once in ``_SLICINGS``.  Slicing i yields the
form Q_i(u, v) = det(M_i u - N_i v), and factor i of the group acts on the
pair by (M, N) -> (r M + s N, t M + u N): lower-unipotent shears in factors
1 and 2, all of SL2 in factor 3.  The three forms share one discriminant
D(A), and the leading coefficients m = ad - bc and n = ag - ce of Q_1, Q_2
are the two further invariants.

The orbit oracle counts, by explicit enumeration and union-find, the orbits
of cubes with given (D, |m|, |n|) -- all four sign classes together -- and
reports a stability flag (the count is unchanged when the search slack is
enlarged).  Enumeration works on the c = 0 slice: every orbit with m, n != 0
has a representative there, and the slice-preserving moves (the two
lower-unipotent shears, the upper shear in the third factor, and global
negation) connect exactly the cubes that the full group connects inside the
slice, so components of the move graph are orbit traces.  The shears keep
a, d and g.  Negation swaps the a > 0 and a < 0 halves; the sign flips of
(b, d, f, h) and of (e, f, g, h) swap the signs of d and of g, and each
turns one lower shear into its inverse and commutes with the other moves.
All three keep D, |m|, |n| and every |entry|, so only the part with
a, d, g > 0 is enumerated and each of its components stands for four orbits.
The third shear (b, e, f) += k*(d, g, h) commutes with both lower shears,
so the enumeration yields its orbits (chains), each named by (x, h, e) with
the run of k in each box, and union-find runs over chains, one forest per
divisor a.  The oracle moves these names by formulas of its own: they are its
hot loop.  One pass counts the components meeting the inner box twice: with
the edges inside the box of radius entry_bound + slack, and again after the
deferred edges touching the outer shell (radius entry_bound + slack + 1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
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


def act(g: GroupElement, A: Cube) -> Cube:
    """Apply one element's matrix, ((1, 0), (k, 1)) for a shear by k, to its factor's pair."""
    return _act(g.factor, g.mat or ((1, 0), (g.k, 1)), A)


def act_word(word, A: Cube) -> Cube:
    """Apply a sequence of group elements, leftmost first."""
    for g in word:
        A = act(g, A)
    return A


# ---------------------------------------------------------------------------
# Stabilizer scan
# ---------------------------------------------------------------------------

_IDENTITY = ((1, 0), (0, 1))
# (factor, matrix): the shears by +-1 of factors 1 and 2, and of factor 3 the
# upper shears by +-1 and the rotation S = ((0, -1), (1, 0)) and its inverse
_WORD_GENERATORS = (
    (1, ((1, 0), (1, 1))), (1, ((1, 0), (-1, 1))),
    (2, ((1, 0), (1, 1))), (2, ((1, 0), (-1, 1))),
    (3, ((1, 1), (0, 1))), (3, ((1, -1), (0, 1))),
    (3, ((0, -1), (1, 0))), (3, ((0, 1), (-1, 0))),
)


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


@lru_cache(maxsize=None)
def group_words(max_length: int):
    """Distinct group elements reachable by generator words up to max_length.

    An element is the triple of its factors' matrices (the three factors
    commute with each other), a shear by k being ((1, 0), (k, 1)); a word
    multiplies each generator into its factor's matrix from the left.  The
    identity is excluded.
    """
    frontier = [(_IDENTITY,) * 3]
    seen = set(frontier)
    out = []
    for _ in range(max_length):
        new_frontier = []
        for elt in frontier:
            for i, gen in _WORD_GENERATORS:
                moved = (*elt[:i - 1], _mat_mul(gen, elt[i - 1]), *elt[i:])
                if moved not in seen:
                    seen.add(moved)
                    new_frontier.append(moved)
                    out.append(moved)
        frontier = new_frontier
    return out


def stabilizer_trivial(A: Cube, max_length: int = 4) -> bool:
    """Check no nonidentity group word up to max_length fixes the cube.

    Semistable cubes have trivial stabilizer in the unipotent-times-SL2
    group; this scans all distinct elements reachable by short words.
    """
    for elt in group_words(max_length):
        B = A
        for i, mat in enumerate(elt, 1):
            if mat != _IDENTITY:
                B = _act(i, mat, B)
        if B == A:
            return False
    return True


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
    """Third-shear chains of the cubes with c = 0 and a, d, g > 0, by divisor a.

    Covers the cubes with |m| = m, |n| = n and discriminant D; the sign flips
    of (b, d, f, h) and of (e, f, g, h) keep D, |m|, |n| and |entries| and
    give the rest of the a > 0 half.  A chain is one orbit of the third-factor
    shear (b, e, f) += k*(d, g, h), which keeps h and x = b*g - d*e - a*h:
    chain (x, h, e) has at k = 0 the cube with 0 <= e < g,
    b = (x + a*h + d*e) / g and f = (e*h - (x*x - D) / (4m)) / g.  Each entry
    is affine in k, so the k whose cube has all entries <= rho form one
    interval (lo, hi), empty when lo > hi: inner, core and outer are these
    for rho = R, R + slack and R + slack + 1.  For each divisor a of gcd(m, n)
    with d = m / a and g = n / a in the box, yields (a, d, g, index, spans):
    index maps the key of each chain with a nonempty outer interval to its
    number i, and spans[i] = (inner_lo, inner_hi, core_lo, core_hi, outer_lo,
    outer_hi).

    Walks the Diophantine structure of the slice: a*d = m, a*g = n, and x
    runs over the classes mod 4m of ``roots`` from ``_slice_roots``.  Given
    (x, h), g*b - d*e = x + a*h fixes e modulo g / gamma with
    gamma = gcd(d, g), so the (x, h) line holds gamma representatives, and
    e*h - f*g = (x*x - D) / (4m) fixes f when g divides it.  A cube of the box
    has |b*g - d*e| <= rho*(d + g) and |e*h - f*g| <= rho*(|h| + g), which
    bounds h for each x.
    """
    core, rho = R + slack, R + slack + 1
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
        index, spans = {}, []
        for r in roots:
            for x in range(r - 4 * m * ((r + x_max) // (4 * m)), x_max + 1, 4 * m):
                s = (x * x - D) // (4 * m)
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
                        fixed = abs(h) if h else abs(f)
                        c_lo, c_hi, i_lo, i_hi = 1, 0, 1, 0
                        if fixed <= core and adg <= core:
                            u, v, t = (core + b) // d, (core + e) // g, (core + fh) // hh
                            c_lo = -(u if u < v and u < t else v if v < t else t)
                            u, v, t = (core - b) // d, (core - e) // g, (core - fh) // hh
                            c_hi = u if u < v and u < t else v if v < t else t
                            if fixed <= R and adg <= R:
                                u, v, t = (R + b) // d, (R + e) // g, (R + fh) // hh
                                i_lo = -(u if u < v and u < t else v if v < t else t)
                                u, v, t = (R - b) // d, (R - e) // g, (R - fh) // hh
                                i_hi = u if u < v and u < t else v if v < t else t
                        index[x, h, e] = len(spans)
                        spans.append((i_lo, i_hi, c_lo, c_hi, lo, hi))
        yield a, d, g, index, spans


def _find(parent: list[int], i: int) -> int:
    """Root of i in the union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def orbit_count_oracle(
    D: int, m: int, n: int, entry_bound: int | None = None, slack: int = 5
) -> OracleCount:
    """Count orbits of cubes with discriminant D and |invariants| (|m|, |n|).

    All four sign classes of (m, n) are counted together.  Enumerates the
    part of the c = 0 slice with a, d, g > 0 inside a box of radius
    R + slack + 1 (R = entry_bound) as third-shear chains
    (``_slice_enumerate``) and counts, by union-find over chains, the
    components meeting the inner box of radius R: first under the shear
    edges between cubes of the box of radius R + slack, then again after the
    deferred edges that touch the outer shell are added.  The lower shears
    keep a, d and g and commute with the third shear, so each divisor a has
    its own union-find, and the k = +1 move of the second shear takes the
    cube of chain (x, h, e) at k to chain (x, h + g, e) at k, that of the
    first, reduced by the third shear, to (x - 2m, h + d, (e + a) mod g) at
    k + (e + a) // g: an edge joins two chains when their intervals meet
    after the offset.  The two sign flips give four such components in the
    a > 0 half, and negation pairs each with one of the a < 0 half into one
    orbit trace, so four times these are the orbit counts.  The count is
    stable when the two agree, i.e. when enlarging the slack by one does not
    change it, and the inner box holds a cube.  An empty inner box is stable
    only when no cube has these invariants at all, i.e. when D is no square
    mod 4m or mod 4n (then B = 0).  ``cubes_enumerated`` counts the whole
    slice in the box.  Raises RangeError before any enumeration when 4(m + n)
    or the box's (x, h) steps, the sum over its divisors a of
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
    steps = sum(len(roots) * (2 * rho * (m // a + n // a + a) // (4 * m) + 1) * (2 * rho + 1)
                for a in divisors(math.gcd(m, n)) if max(a, m // a, n // a) <= rho)
    if steps > _ORACLE_CAP:
        raise RangeError(f"oracle box needs about {steps:,} (x, h) steps, over {_ORACLE_CAP:,}")
    count = count_wider = enumerated = 0
    for a, d, g, index, spans in _slice_enumerate(D, m, n, R, slack, roots):
        parent, deferred = list(range(len(spans))), []
        for i, (x, h, e) in enumerate(index):
            _, _, c_lo, c_hi, o_lo, o_hi = spans[i]
            q1, e1 = divmod(e + a, g)
            for j, q in ((index.get((x, h + g, e)), 0), (index.get((x - 2 * m, h + d, e1)), q1)):
                if j is None:
                    continue
                _, _, c2_lo, c2_hi, o2_lo, o2_hi = spans[j]
                if c_lo <= c_hi and c2_lo <= c2_hi and c_lo + q <= c2_hi and c2_lo <= c_hi + q:
                    parent[_find(parent, i)] = _find(parent, j)
                elif o_lo + q <= o2_hi and o2_lo <= o_hi + q:
                    deferred.append((i, j))
        inner = [i for i, span in enumerate(spans) if span[0] <= span[1]]
        count += len({_find(parent, i) for i in inner})
        for i, j in deferred:
            parent[_find(parent, i)] = _find(parent, j)
        count_wider += len({_find(parent, i) for i in inner})
        enumerated += sum(hi - lo + 1 for *_, lo, hi in spans)
    # the two sign flips and negation make eight copies of each enumerated cube
    return OracleCount(4 * count, count == count_wider and (count > 0 or not roots),
                       R, slack, 8 * enumerated)
