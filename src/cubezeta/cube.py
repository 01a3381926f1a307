"""2x2x2 integer cubes: invariants, group action, and an orbit-counting oracle.

A cube A = (a, b, c, d, e, f, g, h) is sliced three ways into pairs of 2x2
matrices (M_i, N_i); each slicing yields a binary quadratic form
Q_i(u, v) = det(M_i u - N_i v).  All three forms share one discriminant D(A),
and the leading coefficients of Q_1, Q_2 are the two further invariants
m = ad - bc and n = ag - ce of the unipotent subgroup action used throughout:
lower-unipotent shears in the first two factors and all of SL2 in the third.

The orbit oracle counts, by explicit enumeration and union-find, the orbits
of cubes with given (D, |m|, |n|) -- all four sign classes together -- and
reports a stability flag (the count is unchanged when the search slack is
enlarged).  Enumeration works on the c = 0 slice: every orbit with m, n != 0
has a representative there, and the slice-preserving moves (the two
lower-unipotent shears, the upper shear in the third factor, and global
negation) connect exactly the cubes that the full group connects inside the
slice, so components of the move graph are orbit traces.  The shears keep a
and commute with negation, which swaps the a > 0 and a < 0 halves and keeps
the largest absolute entry; so each orbit trace is C and -C for exactly one
shear component C of the a > 0 half, and only that half is enumerated.  Each
cube is one packed integer key and each shear is integer arithmetic on keys.
One union-find pass counts the components meeting the inner box twice: with
the edges inside the box of radius entry_bound + slack, and again after the
deferred edges touching the outer shell (radius entry_bound + slack + 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .congruence import DomainError, divisors


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Integral binary quadratic form a*u^2 + b*u*v + c*v^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(self.a, self.b, self.c)

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v


@dataclass(frozen=True)
class Cube:
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

    @staticmethod
    def from_iterable(vals) -> "Cube":
        t = tuple(int(v) for v in vals)
        if len(t) != 8:
            raise DomainError("a cube needs exactly 8 integer entries")
        return Cube(*t)

    def max_abs(self) -> int:
        return max(abs(v) for v in self.entries())


def form1(A: Cube) -> BinaryQuadraticForm:
    """Form of the front/back slicing: det([[a,b],[c,d]] u - [[e,f],[g,h]] v)."""
    return BinaryQuadraticForm(
        A.a * A.d - A.b * A.c,
        -A.a * A.h + A.b * A.g + A.c * A.f - A.d * A.e,
        A.e * A.h - A.f * A.g,
    )


def form2(A: Cube) -> BinaryQuadraticForm:
    """Form of the left/right slicing: det([[a,c],[e,g]] u - [[b,d],[f,h]] v)."""
    return BinaryQuadraticForm(
        A.a * A.g - A.c * A.e,
        -A.a * A.h - A.b * A.g + A.c * A.f + A.d * A.e,
        A.b * A.h - A.d * A.f,
    )


def form3(A: Cube) -> BinaryQuadraticForm:
    """Form of the top/bottom slicing: det([[a,e],[b,f]] u - [[c,g],[d,h]] v)."""
    return BinaryQuadraticForm(
        A.a * A.f - A.b * A.e,
        -A.a * A.h + A.b * A.g - A.c * A.f + A.d * A.e,
        A.c * A.h - A.d * A.g,
    )


def forms(A: Cube) -> tuple[BinaryQuadraticForm, BinaryQuadraticForm, BinaryQuadraticForm]:
    return form1(A), form2(A), form3(A)


def discriminant(A: Cube) -> int:
    """Common discriminant of the three slicing forms."""
    return form1(A).discriminant()


def invariants(A: Cube) -> tuple[int, int, int]:
    """(D, m, n): discriminant and the two leading coefficients m = ad-bc, n = ag-ce."""
    return discriminant(A), A.a * A.d - A.b * A.c, A.a * A.g - A.c * A.e


def is_semistable(A: Cube) -> bool:
    """True when none of the invariants D, m, n vanishes."""
    D, m, n = invariants(A)
    return D != 0 and m != 0 and n != 0


def is_projective(A: Cube) -> bool:
    """True when all three slicing forms are primitive (content 1)."""
    return all(q.content() == 1 for q in forms(A))


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """One factor's move: lower-unipotent shear (factors 1, 2) or SL2 (factor 3).

    factor 1 and 2 carry a shear parameter k (matrix [[1,0],[k,1]] acting on
    the corresponding matrix pair); factor 3 carries a full unimodular matrix
    ((r, s), (t, u)) with ru - st = 1.
    """

    factor: int
    k: int = 0
    mat: tuple[tuple[int, int], tuple[int, int]] | None = None

    def __post_init__(self):
        if self.factor in (1, 2):
            if self.mat is not None:
                raise DomainError("factors 1 and 2 are shears; no matrix allowed")
        elif self.factor == 3:
            if self.mat is None:
                raise DomainError("factor 3 needs a unimodular matrix")
            (r, s), (t, u) = self.mat
            if r * u - s * t != 1:
                raise DomainError("factor 3 matrix must have determinant 1")
        else:
            raise DomainError("factor must be 1, 2 or 3")


def shear1(k: int) -> GroupElement:
    return GroupElement(1, k=k)


def shear2(k: int) -> GroupElement:
    return GroupElement(2, k=k)


def sl2(r: int, s: int, t: int, u: int) -> GroupElement:
    return GroupElement(3, mat=((r, s), (t, u)))


def act(g: GroupElement, A: Cube) -> Cube:
    """Apply one group element.

    Factor i acts on the slicing pair (M_i, N_i) by
    (M, N) -> (r M + s N, t M + u N); for the shears (r,s,t,u) = (1,0,k,1).
    """
    a, b, c, d, e, f, g2, h = A.entries()
    if g.factor == 1:
        k = g.k
        return Cube(a, b, c, d, e + k * a, f + k * b, g2 + k * c, h + k * d)
    if g.factor == 2:
        k = g.k
        return Cube(a, b + k * a, c, d + k * c, e, f + k * e, g2, h + k * g2)
    (r, s), (t, u) = g.mat
    return Cube(
        r * a + s * c,
        r * b + s * d,
        t * a + u * c,
        t * b + u * d,
        r * e + s * g2,
        r * f + s * h,
        t * e + u * g2,
        t * f + u * h,
    )


def act_word(word, A: Cube) -> Cube:
    """Apply a sequence of group elements, leftmost first."""
    for g in word:
        A = act(g, A)
    return A


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cube_to_json(A: Cube) -> str:
    """Serialize as a JSON array of the 8 entries."""
    return json.dumps(list(A.entries()))


def cube_from_json(text: str) -> Cube:
    vals = json.loads(text)
    if not isinstance(vals, list):
        raise DomainError("expected a JSON array of 8 integers")
    return Cube.from_iterable(vals)


def cube_to_text(A: Cube) -> str:
    """Serialize as 8 whitespace-separated integers."""
    return " ".join(str(v) for v in A.entries())


def cube_from_text(line: str) -> Cube:
    return Cube.from_iterable(line.split())


# ---------------------------------------------------------------------------
# Stabilizer scan
# ---------------------------------------------------------------------------

_S = sl2(0, -1, 1, 0)
_S_INV = sl2(0, 1, -1, 0)
_WORD_GENERATORS = (
    shear1(1),
    shear1(-1),
    shear2(1),
    shear2(-1),
    sl2(1, 1, 0, 1),
    sl2(1, -1, 0, 1),
    _S,
    _S_INV,
)


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


@lru_cache(maxsize=None)
def group_words(max_length: int):
    """Distinct group elements reachable by generator words up to max_length.

    Elements are triples (k1, k2, mat): the two shear parameters and the
    third-factor matrix (the three factors commute with each other).  The
    identity is excluded.
    """
    seen = {(0, 0, ((1, 0), (0, 1)))}
    frontier = [(0, 0, ((1, 0), (0, 1)))]
    out = []
    for _ in range(max_length):
        new_frontier = []
        for k1, k2, mat in frontier:
            for gen in _WORD_GENERATORS:
                if gen.factor == 1:
                    elt = (k1 + gen.k, k2, mat)
                elif gen.factor == 2:
                    elt = (k1, k2 + gen.k, mat)
                else:
                    elt = (k1, k2, _mat_mul(gen.mat, mat))
                if elt not in seen:
                    seen.add(elt)
                    new_frontier.append(elt)
                    out.append(elt)
        frontier = new_frontier
    return out


def _apply_triple(elt, A: Cube) -> Cube:
    k1, k2, mat = elt
    B = A
    if k1:
        B = act(shear1(k1), B)
    if k2:
        B = act(shear2(k2), B)
    if mat != ((1, 0), (0, 1)):
        B = act(GroupElement(3, mat=mat), B)
    return B


def stabilizer_trivial(A: Cube, max_length: int = 4) -> bool:
    """Check no nonidentity group word up to max_length fixes the cube.

    Semistable cubes have trivial stabilizer in the unipotent-times-SL2
    group; this scans all distinct elements reachable by short words.
    """
    return all(_apply_triple(elt, A) != A for elt in group_words(max_length))


# ---------------------------------------------------------------------------
# Orbit oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCount:
    """Orbit count from enumeration, with the box parameters and stability flag."""

    count: int
    stable: bool
    entry_bound: int
    slack: int
    cubes_enumerated: int


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


def _interval(c0: int, step: int, bound: int):
    """Integer t-range with |c0 + t*step| <= bound, as (lo, hi) or None.

    step == 0 means the constraint is t-independent: returns the full marker
    (None sentinel handled by caller) when satisfied, empty otherwise.
    """
    if step == 0:
        return (0, -1) if abs(c0) > bound else None
    lo = -bound - c0
    hi = bound - c0
    if step < 0:
        lo, hi, step = -hi, -lo, -step
    return (-(-lo // step), hi // step)  # ceil, floor


# Cube keys: entry i of (a, b, c, d, e, f, g, h) is the digit value + W/2 at
# bit offset i * bits, with W = 2**bits > 4R in a box of radius R.  A move
# adds at most R to an entry, so a neighbour's digits stay in [0, W) and its
# key aliases no other cube's.  The key is affine in the entries, so the
# slice-preserving shears are integer arithmetic on keys: k = +-1 of
#   first-factor lower shear    (e, f, g, h) += k * (a, b, c, d)
#   second-factor lower shear   (b, d, f, h) += k * (a, c, e, g)
#   third-factor upper shear    (a, b, e, f) += k * (c, d, g, h)
# (c = 0 stays 0).  Each shear edge between enumerated cubes is the k = +1
# move of one end.  The seventh move, negation, pairs the a > 0 half of the
# slice with the a < 0 half; only the a > 0 half is enumerated, so it is not
# an edge.


def _key_bits(R: int) -> int:
    """Bits per entry of the keys of cubes with entries bounded by R."""
    return (4 * R).bit_length()


def _digit_units(bits: int, positions) -> int:
    """Sum of the place values 2**(bits * i) of the given entry positions."""
    return sum(1 << (bits * i) for i in positions)


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


def _slice_enumerate(D: int, m: int, n: int, R: int, roots) -> tuple[list[int], list[int]]:
    """Cubes with c = 0, a > 0, |entries| <= R, |m| = m, |n| = n, disc = D.

    Returns the cubes' keys (packed with ``_key_bits(R)`` bits per entry) and,
    in the same order, their largest absolute entries.  Each cube appears
    once; negating them gives the a < 0 half.  Walks the Diophantine
    structure of the slice: a*d = +-m, a*g = +-n, x = b*g - d*e (the middle
    coefficient of the first form) runs over the classes mod 4m of the
    ``roots`` that ``_slice_roots`` returns, (b, e) live on a Bezout line for
    given x and h, and f is determined up to exact divisibility.
    """
    keys: list[int] = []
    maxabs: list[int] = []
    bits = _key_bits(R)
    for aa in divisors(math.gcd(m, n)):
        dd, gg = m // aa, n // aa
        if aa > R or dd > R or gg > R:
            continue
        for d_s in (dd, -dd):
            for g_s in (gg, -gg):
                _slice_branch(keys, maxabs, D, m, aa, d_s, g_s, roots, R, bits)
    return keys, maxabs


def _slice_branch(keys, maxabs, D, m, a_s, d_s, g_s, roots, R, bits):
    fourm = 4 * m
    x_max = R * (abs(a_s) + abs(d_s) + abs(g_s))
    gamma = math.gcd(d_s, g_s)
    # Bezout: g_s * u + d_s * v = gamma
    u0, v0 = _bezout(g_s, d_s, gamma)
    d1, g1 = d_s // gamma, g_s // gamma
    four_ad = 4 * a_s * d_s
    abs_g = abs(g_s)
    adg_max = max(abs(a_s), abs(d_s), abs_g)
    place_b, place_e, place_f, place_h = (1 << (bits * i) for i in (1, 4, 5, 7))
    zero_key = _digit_units(bits, range(8)) << (bits - 1)
    branch_key = zero_key + a_s + (d_s << (3 * bits)) + (g_s << (6 * bits))
    for r in roots:
        # ribbon of x-values in the congruence class of r
        x = r - fourm * ((r + x_max) // fourm)
        while x <= x_max:
            if abs(x) <= x_max:
                s_val = (x * x - D) // four_ad
                for h in range(-R, R + 1):
                    w = x + a_s * h
                    if w % gamma:
                        continue
                    wq = w // gamma
                    b0 = u0 * wq
                    e0 = -v0 * wq
                    # pull (b0, e0) near zero along the kernel direction
                    shift = e0 // g1 if g1 else 0
                    b0 -= shift * d1
                    e0 -= shift * g1
                    win = _interval(e0, g1, R)
                    wb = _interval(b0, d1, R)
                    wf = _interval(e0 * h - s_val, g1 * h, R * abs_g)
                    lo, hi = -(10**9), 10**9
                    for wnd in (win, wb, wf):
                        if wnd is not None:
                            lo = max(lo, wnd[0])
                            hi = min(hi, wnd[1])
                    key_h = branch_key + h * place_h
                    max_h = max(adg_max, abs(h))
                    for t in range(lo, hi + 1):
                        e = e0 + t * g1
                        num = e * h - s_val
                        if num % g_s:
                            continue
                        b = b0 + t * d1
                        f = num // g_s
                        keys.append(key_h + b * place_b + e * place_e + f * place_f)
                        maxabs.append(max(max_h, abs(b), abs(e), abs(f)))
            x += fourm


def _bezout(p: int, q: int, gamma: int) -> tuple[int, int]:
    """(u, v) with p*u + q*v = gamma = gcd(p, q) (signed inputs)."""
    old_r, r = p, q
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_u, u = u, old_u - quot * u
        old_v, v = v, old_v - quot * v
    if old_r == gamma:
        return old_u, old_v
    return -old_u, -old_v


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
    a > 0 half of the c = 0 slice inside a box of radius R + slack + 1
    (R = entry_bound) and counts, in one union-find pass, the components
    meeting the inner box of radius R: first under the shear edges between
    cubes of the box of radius R + slack, then again after the deferred edges
    that touch the outer shell are added.  Negation pairs each such component
    with one of the a < 0 half into one orbit trace, so these are the orbit
    counts.  The count is stable when the two agree, i.e. when enlarging the
    slack by one does not change it, and the inner box holds a cube.  An empty
    inner box is stable only when no cube has these invariants at all, i.e.
    when D is no square mod 4m or mod 4n (then B = 0).  ``cubes_enumerated``
    counts the whole slice, both halves.
    """
    m, n = abs(m), abs(n)
    if m == 0 or n == 0:
        raise DomainError("oracle requires nonzero m and n")
    if (entry_bound is not None and entry_bound < 0) or slack < 0:
        raise DomainError("oracle entry_bound and slack must be nonnegative")
    R = entry_bound if entry_bound is not None else default_entry_bound(D, m, n)
    core = R + slack
    roots = _slice_roots(D, m, n)
    keys, maxabs = _slice_enumerate(D, m, n, core + 1, roots)
    bits = _key_bits(core + 1)
    half, digit = 1 << (bits - 1), (1 << bits) - 1
    # the entries that the k = +1 shears add: (a, b, c, d), (a, c, e, g), (c, d, g, h)
    front, left, right = (
        _digit_units(bits, block) for block in ((0, 1, 2, 3), (0, 2, 4, 6), (2, 3, 6, 7))
    )
    front_mask, left_mask, right_mask = front * digit, left * digit, right * digit
    front_half, left_half, right_half = front * half, left * half, right * half

    index_of = {key: i for i, key in enumerate(keys)}
    parent = list(range(len(keys)))
    deferred = []
    for i, key in enumerate(keys):
        in_core = maxabs[i] <= core
        # (key & mask) - half is the signed value of a block of entries; the
        # shift moves it onto the entries that the shear adds it to
        for nb in (
            key + (((key & front_mask) - front_half) << (4 * bits)),
            key + (((key & left_mask) - left_half) << bits),
            key + (((key & right_mask) - right_half) >> (2 * bits)),
        ):
            j = index_of.get(nb)
            if j is None:
                continue
            if in_core and maxabs[j] <= core:
                parent[_find(parent, i)] = _find(parent, j)
            else:
                deferred.append((i, j))
    inner = [i for i, r in enumerate(maxabs) if r <= R]
    count = len({_find(parent, i) for i in inner})
    for i, j in deferred:
        parent[_find(parent, i)] = _find(parent, j)
    count_wider = len({_find(parent, i) for i in inner})
    return OracleCount(count, count == count_wider and (bool(inner) or not roots),
                       R, slack, 2 * len(keys))
