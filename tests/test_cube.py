"""Cube invariants, the group action, and the orbit-count oracle."""

import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubezeta.congruence import RangeError, is_discriminant, sqrt_count_direct
from cubezeta.cube import (
    BinaryQuadraticForm,
    Cube,
    DomainError,
    GroupElement,
    OracleCount,
    _slice_enumerate,
    _slice_roots,
    act,
    act_word,
    canonical,
    default_entry_bound,
    discriminant,
    form1,
    form2,
    forms,
    invariants,
    is_semistable,
    orbit_count_oracle,
    shear1,
    shear2,
    sl2,
)
from cubezeta.orbits import B

entries = st.integers(min_value=-9, max_value=9)
cubes = st.builds(Cube, *([entries] * 8))
ks = st.integers(min_value=-3, max_value=3)


def random_word(rng, length):
    word = []
    for _ in range(length):
        kind = rng.randrange(3)
        k = rng.choice([-2, -1, 1, 2])
        if kind == 0:
            word.append(shear1(k))
        elif kind == 1:
            word.append(shear2(k))
        else:
            word.append(rng.choice([
                sl2(1, k, 0, 1), sl2(1, 0, k, 1), sl2(0, -1, 1, 0)
            ]))
    return word


# ---------------------------------------------------------------------------
# Forms and invariants
# ---------------------------------------------------------------------------


def test_invariants_of_reference_cubes():
    A = Cube(1, 1, 0, 1, 1, 0, 1, -1)
    assert forms(A)[0] == BinaryQuadraticForm(1, 1, -1)
    assert forms(A)[1] == BinaryQuadraticForm(1, 1, -1)
    assert invariants(A) == (5, 1, 1)
    assert is_semistable(A)

    A = Cube(1, 0, 0, 1, 0, 1, 1, 0)
    assert invariants(A) == (4, 1, 1)

    A = Cube(0, 1, 1, 0, 1, 0, 0, 1)
    assert discriminant(A) in (0, 1) or discriminant(A) % 4 in (0, 1)


def test_forms_and_action_on_a_generic_cube():
    # frozen from the expanded per-slicing formulas of forms and act
    A = Cube(2, 3, 5, 7, 11, 13, 17, 19)
    assert forms(A) == ((-1, 1, -12), (-21, 53, -34), (-7, 25, -24))
    assert invariants(A) == (-47, -1, -21)
    assert act(shear1(2), A) == Cube(2, 3, 5, 7, 15, 19, 27, 33)
    assert act(shear2(-3), A) == Cube(2, -3, 5, -8, 11, -20, 17, -32)
    assert act(sl2(2, 1, 1, 1), A) == Cube(9, 13, 7, 10, 39, 45, 28, 32)


@given(cubes)
def test_three_forms_share_a_discriminant(A):
    q1, q2, q3 = forms(A)
    assert q1.discriminant() == q2.discriminant() == q3.discriminant()
    assert q1.discriminant() % 4 in (0, 1)


@given(cubes, ks, ks, st.integers(min_value=0, max_value=2))
def test_invariants_constant_under_generators(A, k1, k2, pick):
    D, m, n = invariants(A)
    for g in (shear1(k1), shear2(k2),
              [sl2(1, k1, 0, 1), sl2(1, 0, k2, 1), sl2(0, -1, 1, 0)][pick]):
        assert invariants(act(g, A)) == (D, m, n)


def letter_kind(g):
    """1 or 2 for the shears, else which off-diagonal entries of the SL2 letter are nonzero."""
    return g.factor if g.mat is None else (3, g.mat[0][1] != 0, g.mat[1][0] != 0)


# the words of these seeds hold every letter kind: both shears, and the upper,
# lower and swapping SL2 letters
WORDS = [random_word(random.Random(seed), 4) for seed in range(8)]


@given(cubes)
@settings(max_examples=60)
def test_word_then_inverse_word_restores(A):
    assert len({letter_kind(g) for word in WORDS for g in word}) == 5
    for word in WORDS:
        inverse = []
        for g in reversed(word):
            if g.factor in (1, 2):
                inverse.append(GroupElement(g.factor, -g.k, None))
            else:
                (a, b), (c, d) = g.mat
                inverse.append(sl2(d, -b, -c, a))
        assert act_word(inverse, act_word(word, A)) == A, word


def test_group_element_validation():
    with pytest.raises(DomainError):
        sl2(1, 1, 1, 1)  # determinant 0
    with pytest.raises(DomainError):
        sl2(2, 0, 0, 1)  # determinant 2
    for factor, k, mat in ((1, 0, ((1, 0), (0, 1))), (3, 0, None), (4, 1, None)):
        with pytest.raises(DomainError):
            GroupElement(factor, k, mat)
    sl2(1, 1, 0, 1)
    for g in (shear1(-2), shear2(3), sl2(2, 1, 1, 1)):  # the last has determinant 1
        back = pickle.loads(pickle.dumps(g))
        assert back == g and type(back) is GroupElement


def test_records_keep_repr_hash_and_immutability():
    A = Cube(1, 0, 0, 1, 0, 1, 1, 0)
    assert repr(A) == "Cube(a=1, b=0, c=0, d=1, e=0, f=1, g=1, h=0)"
    assert hash(A) == hash(A.entries())
    assert repr(orbit_count_oracle(5, 1, 1)) == (
        "OracleCount(count=4, stable=True, entry_bound=8, slack=5, cubes_enumerated=16832)"
    )
    for record, name in ((A, "a"), (form1(A), "c"), (shear1(1), "k")):
        with pytest.raises(AttributeError):
            setattr(record, name, 7)


# ---------------------------------------------------------------------------
# Stabilizers: the three steps of the lemma in the cube module docstring
# ---------------------------------------------------------------------------


@st.composite
def sl2_matrices(draw):
    """((r, s), (t, u)) of determinant 1: a coprime column (r, t), then s, u solved."""
    r, t = draw(st.tuples(ks, ks).filter(lambda col: math.gcd(*col) == 1))
    # r u0 - s0 t = 1; when t = 0, r = +-1
    u0 = pow(r, -1, abs(t)) if t else r
    s0 = (r * u0 - 1) // t if t else 0
    j = draw(ks)
    return (r, s0 + j * r), (t, u0 + j * t)


def slicing3(A):
    """(M_3, N_3) = ([[a, e], [b, f]], [[c, g], [d, h]]), each read row by row."""
    return (A.a, A.e, A.b, A.f), (A.c, A.g, A.d, A.h)


@settings(max_examples=300)
@given(cubes, ks, ks, sl2_matrices())
def test_only_the_identity_fixes_a_semistable_cube(A, k1, k2, gamma):
    assume(is_semistable(A))
    q1, q2, q3 = forms(A)
    _, m, n = invariants(A)
    # a factor-1 shear by k1 takes Q1(u, v) to Q1(u - k1 v, v) and keeps Q2, Q3
    assert forms(act(shear1(k1), A)) == (
        (m, q1.b - 2 * k1 * m, q1(-k1, 1)), q2, q3)
    # a factor-2 shear by k2 does the same to Q2 with n
    assert forms(act(shear2(k2), A)) == (
        q1, (n, q2.b - 2 * k2 * n, q2(-k2, 1)), q3)
    # gamma in factor 3 keeps Q1, Q2 and takes (M3, N3) to (r M3 + s N3, t M3 + u N3),
    # which is (M3, N3) only at gamma = I, since M3 and N3 are independent
    (r, s), (t, u) = gamma
    moved = act(sl2(r, s, t, u), A)
    M, N = slicing3(A)
    assert forms(moved)[:2] == (q1, q2)
    assert slicing3(moved) == (tuple(r * x + s * y for x, y in zip(M, N)),
                               tuple(t * x + u * y for x, y in zip(M, N)))
    assert any(M[i] * N[j] - M[j] * N[i] for i in range(4) for j in range(i + 1, 4))
    # so a nonidentity element moves the cube
    if (k1, k2, gamma) != (0, 0, ((1, 0), (0, 1))):
        assert act_word([shear1(k1), shear2(k2), sl2(r, s, t, u)], A) != A


def test_cubes_off_the_semistable_locus_have_fixed_points():
    # every element fixes the zero cube; shear1 fixes a zero front face and
    # shear2 a zero left face; all three invariants vanish on each
    for A, g in ((Cube(0, 0, 0, 0, 0, 0, 0, 0), sl2(0, -1, 1, 0)),
                 (Cube(0, 0, 0, 0, 1, 2, 3, 4), shear1(1)),
                 (Cube(0, 1, 0, 2, 0, 3, 0, 4), shear2(1))):
        assert invariants(A) == (0, 0, 0) and act(g, A) == A, A


# ---------------------------------------------------------------------------
# Canonical orbit form
# ---------------------------------------------------------------------------


small_entries = st.integers(min_value=-6, max_value=6)
semistable_cubes = st.builds(Cube, *([small_entries] * 8)).filter(is_semistable)
letters = st.one_of(ks.map(shear1), ks.map(shear2),
                    sl2_matrices().map(lambda mat: sl2(*mat[0], *mat[1])))


def discriminant_kind(D):
    return "D < 0" if D < 0 else "square D" if math.isqrt(D) ** 2 == D else "non-square D > 0"


@pytest.mark.parametrize("kind", ["D < 0", "square D", "non-square D > 0"])
@settings(max_examples=150)
@given(data=st.data())
def test_canonical_form_is_unchanged_by_the_group(kind, data):
    A = data.draw(semistable_cubes.filter(lambda A: discriminant_kind(discriminant(A)) == kind))
    word = data.draw(st.lists(letters, max_size=12))
    assert canonical(act_word(word, A)) == canonical(A)


@settings(max_examples=200)
@given(semistable_cubes)
def test_canonical_form_lies_in_the_orbit(A):
    C = canonical(A)
    _, m, n = invariants(A)
    b1, b2 = form1(A).b, form2(A).b
    # the shears that put Q1.b in [0, 2|m|) and Q2.b in [0, 2|n|)
    P = act_word([shear1((b1 - b1 % (2 * abs(m))) // (2 * m)),
                  shear2((b2 - b2 % (2 * abs(n))) // (2 * n))], A)
    assert 0 <= form1(P).b < 2 * abs(m) and 0 <= form2(P).b < 2 * abs(n)
    # the factor-3 matrix from (M3, N3) of P to that of C, by Cramer's rule on
    # two coordinates where M3 and N3 are independent
    (v1, v2), (w1, w2) = slicing3(P), slicing3(C)
    i, j = next((i, j) for i in range(4) for j in range(i + 1, 4) if v1[i] * v2[j] != v1[j] * v2[i])
    det = v1[i] * v2[j] - v1[j] * v2[i]
    (r, t), (s, u) = ((Fraction(w[i] * v2[j] - w[j] * v2[i], det) for w in (w1, w2)),
                      (Fraction(v1[i] * w[j] - v1[j] * w[i], det) for w in (w1, w2)))
    assert all(x.denominator == 1 for x in (r, s, t, u)), (A, C)
    assert r * u - s * t == 1
    assert act(sl2(int(r), int(s), int(t), int(u)), P) == C


# ---------------------------------------------------------------------------
# Oracle: completeness of the slice enumeration, agreement with the formula
# ---------------------------------------------------------------------------


def literal_slice_scan(D, m, n, R):
    """Brute-force cubes with c = 0, entries bounded by R, invariants (D, +-m, +-n).

    Independent of the production enumeration: loops over divisor pairs for
    the two leading invariants (m = a*d, n = a*g when c = 0) and scans the
    remaining entries, keeping cubes by direct invariant computation.
    """
    found = set()
    for a in range(-R, R + 1):
        if a == 0 or m % a or n % a:
            continue
        d, g = m // a, n // a
        for d_s, g_s in ((d, g), (d, -g), (-d, g), (-d, -g)):
            if abs(d_s) > R or abs(g_s) > R:
                continue
            for b in range(-R, R + 1):
                for e in range(-R, R + 1):
                    for f in range(-R, R + 1):
                        for h in range(-R, R + 1):
                            A = Cube(a, b, 0, d_s, e, f, g_s, h)
                            DD, mm, nn = invariants(A)
                            if DD == D and abs(mm) == m and abs(nn) == n:
                                found.add(A.entries())
    return found


def half_slice(D, m, n, rho):
    """The cubes (a, b, 0, d, e, f, g, h) with a, d, g > 0, invariants (D, m, n)
    and every |entry| <= rho.

    Scans (b, e, h) for each divisor pair a*d = m, a*g = n and solves f from
    D = x^2 - 4m(eh - fg) with x = bg - de - ah; it reads no oracle code.
    """
    found = []
    for a in range(1, rho + 1):
        if m % a or n % a or max(m // a, n // a) > rho:
            continue
        d, g = m // a, n // a
        for b, e, h in itertools.product(range(-rho, rho + 1), repeat=3):
            x = b * g - d * e - a * h
            f, r = divmod(D - x * x + 4 * m * e * h, 4 * m * g)
            if r == 0 and abs(f) <= rho:
                found.append((a, b, 0, d, e, f, g, h))
    return found


def normal_key(cube, m):
    """(x - 2m*j, (h + d*j) mod g, (e + a*j) mod g) with x = Q_1.b and j = x // 2m."""
    a, _, _, d, e, _, g, h = cube
    x = form1(Cube(*cube)).b
    j = x // (2 * m)
    return x - 2 * m * j, (h + d * j) % g, (e + a * j) % g


def key_cube(a, d, g, key, D, m):
    """The cube of chain (x, h, e) at k = 0: b = (x + a*h + d*e) / g and
    f = (e*h - (x*x - D) / (4m)) / g, both divisions exact."""
    x, h, e = key
    b, rb = divmod(x + a * h + d * e, g)
    s, rs = divmod(x * x - D, 4 * m)
    f, rf = divmod(e * h - s, g)
    assert rb == rs == rf == 0, (a, key)
    return Cube(a, b, 0, d, e, f, g, h)


def with_sign_flips(cubes):
    """The cubes with their images under the sign flips of (b, d, f, h) and (e, f, g, h)."""
    signs = ((1, 1, 1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1, 1, -1),
             (1, 1, 1, 1, -1, -1, -1, -1), (1, -1, 1, -1, -1, 1, -1, 1))
    return [tuple(v * s for v, s in zip(c, sign)) for c in cubes for sign in signs]


SMALL_BOXES = ((5, 1, 1, 3), (45, 3, 3, 4), (-4, 1, 1, 3), (12, 2, 1, 3), (5, 1, 2, 3))


def test_slice_enumeration_is_complete_in_small_boxes():
    for D, m, n, R in SMALL_BOXES:
        literal = literal_slice_scan(D, m, n, R)
        # negation pairs the a > 0 half with the rest
        assert literal == {tuple(-v for v in c) for c in literal}, (D, m, n, R)
        half = [c for c in literal if c[0] > 0 and c[3] > 0 and c[6] > 0]
        assert sorted(half_slice(D, m, n, R)) == sorted(half), (D, m, n, R)
        # the sign flips of the a, d, g > 0 part give the a > 0 half exactly once
        assert sorted(with_sign_flips(half)) == sorted(c for c in literal if c[0] > 0)
        enumerated = 0
        # radii R - 2 and R for the inner and outer boxes
        for a, d, g, inner, outer, cubes in _slice_enumerate(D, m, n, R - 2, 1,
                                                             _slice_roots(D, m, n)):
            mine = [c for c in half if (c[0], c[3], c[6]) == (a, d, g)]
            assert outer == {normal_key(c, m) for c in mine}, (D, m, n, a)
            assert inner == {normal_key(c, m) for c in mine if max(map(abs, c)) <= R - 2}
            assert all(0 <= x < 2 * m and 0 <= h < g and 0 <= e < g for x, h, e in outer)
            assert cubes == len(mine), (D, m, n, a)
            enumerated += cubes
        assert 8 * enumerated == len(literal), (D, m, n, R)
    # the last box is empty: 5 is a square mod 4m = 4 but not mod 4n = 8, and
    # the second form has leading coefficient a*g = +-n and discriminant D
    assert literal_slice_scan(5, 1, 2, 3) == set()
    result = orbit_count_oracle(5, 1, 2, entry_bound=3)
    assert (result.count, result.cubes_enumerated) == (0, 0)


def test_chain_keys_follow_the_group_action():
    """Both lower shears and the third shear keep the normal key, through ``act``."""
    checked = 0
    for D, m, n, R in SMALL_BOXES:
        outer = {a: keys for a, _, _, _, keys, _ in
                 _slice_enumerate(D, m, n, R - 2, 1, _slice_roots(D, m, n))}
        for cube in half_slice(D, m, n, R):
            a, _, _, d, _, _, g, _ = cube
            key = normal_key(cube, m)
            assert key in outer[a] and normal_key(key_cube(a, d, g, key, D, m), m) == key
            # the cube's chain at k = 0: the third shear brings e into [0, g)
            A = act(sl2(1, -(cube[4] // g), 0, 1), Cube(*cube))
            x, h, e = form1(A).b, A.h, A.e
            # the second shear keeps e; after the first, the third shear by -q
            # brings e back into [0, g)
            image = act(shear1(1), A)
            q = image.e // g
            moves = ((shear2(1), act(shear2(1), A), 0, (x, h + g, e)),
                     (shear1(1), act(sl2(1, -q, 0, 1), image), q, (x - 2 * m, h + d, (e + a) % g)))
            for move, moved, offset, chain in moves:
                assert 0 <= moved.e < g, (cube, moved)
                assert (form1(moved).b, moved.h, moved.e) == chain, (cube, move)
                assert normal_key(moved, m) == key, (cube, move)
                # the move takes the chain's cube at k to the moved chain's cube at k + offset
                for k in (-1, 0, 1):
                    at_k = act(sl2(1, k, 0, 1), A)
                    assert normal_key(at_k, m) == key, (cube, k)
                    assert act(move, at_k) == act(sl2(1, k + offset, 0, 1), moved), (cube, k)
            for inverse in (shear1(-1), shear2(-1)):
                assert normal_key(act(inverse, A), m) == key, (cube, inverse)
            checked += 1
    assert checked > 100


def box_graph(D, m, n, R, slack):
    """(cubes, maxabs, root) of the slice in the box of radius R + slack + 1.

    The move graph of the seven slice-preserving moves on the whole slice
    (``half_slice``, its sign flips and their negations), built on
    8-tuples with explicit neighbour tuples and joined by one union-find pass
    over its edges; root[i] is the component of cubes[i].
    """
    half = with_sign_flips(half_slice(D, m, n, R + slack + 1))
    cubes = sorted(set(half) | {tuple(-v for v in c) for c in half})
    index_of = {cube: i for i, cube in enumerate(cubes)}
    parent = list(range(len(cubes)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, (a, b, _, d, e, f, g, h) in enumerate(cubes):
        neighbours = [(-a, -b, 0, -d, -e, -f, -g, -h)]
        for k in (1, -1):
            neighbours += [
                (a, b, 0, d, e + k * a, f + k * b, g, h + k * d),
                (a, b + k * a, 0, d, e, f + k * e, g, h + k * g),
                (a, b + k * d, 0, d, e + k * g, f + k * h, g, h),
            ]
        for nb in neighbours:
            j = index_of.get(nb)
            if j is not None:
                parent[find(i)] = find(j)
    maxabs = [max(abs(v) for v in cube) for cube in cubes]
    return cubes, maxabs, [find(i) for i in range(len(cubes))]


def tuple_graph_oracle(D, m, n, entry_bound, slack):
    """Reference oracle: the components of ``box_graph``, labelled by their canonical forms.

    The count is the number of forms of the components that meet the inner
    box of radius R, all four sign classes of (m, n) among them.  It is
    stable when those are the forms of all components, unless the inner box
    holds no cube although some cube has the invariants, i.e. D is a square
    mod 4m and 4n.  The oracle's skipped-divisor rule adds nothing on the
    cells compared below: only R = 0, whose inner box is empty, skips one.
    """
    R = entry_bound if entry_bound is not None else default_entry_bound(D, m, n)
    cubes, maxabs, root = box_graph(D, m, n, R, slack)
    form = {r: canonical(Cube(*cubes[r])) for r in set(root)}
    inner = {form[r] for r, size in zip(root, maxabs) if size <= R}
    exists = sqrt_count_direct(D, 4 * m) and sqrt_count_direct(D, 4 * n)
    stable = inner == set(form.values()) and (bool(inner) or not exists)
    return OracleCount(len(inner), stable, R, slack, len(cubes))


def test_oracle_matches_tuple_graph_reference():
    unstable = set()
    cells = ((-15, 1, 1), (-15, 1, 2), (-15, 2, 1), (-4, 1, 1), (-4, 2, 2), (5, 1, 2),
             (5, 2, 2), (9, 1, 1), (12, 1, 2), (12, 2, 1), (12, 2, 2))
    for D, m, n in cells:
        for entry_bound in (0, 1, 2, 3, None):
            for slack in (0, 1, 5):
                got = orbit_count_oracle(D, m, n, entry_bound, slack)
                want = tuple_graph_oracle(D, m, n, entry_bound, slack)
                assert got == want, (D, m, n, entry_bound, slack)
                # on these cells each orbit that the outer box reaches meets the inner
                # box, or the inner box holds no cube at all
                if got.stable:
                    assert got.count == B(D, m, n), (D, m, n, entry_bound, slack)
                else:
                    assert got.count == 0, (D, m, n, entry_bound, slack)
                    unstable.add((D, m, n, entry_bound, slack))
    # an inner box of radius 0 holds no cube (a != 0): unstable where B > 0,
    # stable where the slice is empty because 5 is no square mod 4n = 8
    assert (-4, 1, 1, 0, 5) in unstable
    assert (5, 1, 2, 0, 0) not in unstable and (5, 2, 2, 0, 5) not in unstable


def test_forms_join_the_union_find_components_at_minus_188_9_9():
    D, m, n = -188, 9, 9
    R = default_entry_bound(D, m, n)
    cubes, maxabs, root = box_graph(D, m, n, R, 5)
    # the components of the sign class m, n > 0 that meet the inner box
    inner = {r for r, size in zip(root, maxabs)
             if size <= R and invariants(Cube(*cubes[r]))[1:] == (m, n)}
    assert len(inner) == 8
    assert len({canonical(Cube(*cubes[r])) for r in inner}) == 4
    result = orbit_count_oracle(D, m, n)
    assert (result.count, result.stable) == (16, True) and B(D, m, n) == 16


def test_oracle_rejects_negative_box():
    for entry_bound, slack in ((-1, 5), (2, -1), (-3, -2)):
        with pytest.raises(DomainError):
            orbit_count_oracle(9, 1, 1, entry_bound=entry_bound, slack=slack)


def test_oracle_caps_its_work_before_enumerating():
    # 4 (m + n) residues to scan, then the (x, h) steps of the box
    with pytest.raises(RangeError, match="4,000,000,000,004 residues"):
        orbit_count_oracle(-4, 10**12, 1)
    with pytest.raises(RangeError, match="about 37,878,450 "):
        orbit_count_oracle(-9999, 1, 1)
    with pytest.raises(RangeError, match="about 375,037,750,950 "):
        orbit_count_oracle(-999999, 1, 1)
    with pytest.raises(RangeError):
        orbit_count_oracle(5, 1, 1, entry_bound=10**9)
    # the largest estimate on the |D| <= 200, m <= n <= 10 sweep (122,122 steps)
    assert orbit_count_oracle(200, 1, 10).stable


def test_oracle_matches_formula_on_sample_cells():
    for D, m, n in ((5, 1, 1), (45, 3, 3), (-4, 1, 1), (9, 3, 3), (-23, 2, 3)):
        res = orbit_count_oracle(D, m, n)
        assert res.stable
        assert res.count == B(D, m, n), (D, m, n, res)


def test_oracle_frozen_counts():
    # every field frozen from the per-cube enumeration that preceded the
    # chains, except count and stable of (-15, 1, 1, 2, 1), (9, 1, 1, 1, 0)
    # and the two D = -188 cells, recorded with the canonical forms; the
    # D = -188 cells have union-find components that join only outside the box
    frozen = {
        (5, 1, 1, None, 5): (4, True, 8, 5, 16832),
        (45, 3, 3, None, 5): (16, True, 14, 5, 34848),
        (9, 9, 9, None, 5): (84, True, 23, 5, 125952),
        (16, 4, 4, None, 5): (40, True, 13, 5, 62024),
        (-60, 4, 4, None, 5): (48, True, 16, 5, 101728),
        (-4, 2, 2, None, 5): (4, True, 9, 5, 11408),
        (12, 2, 1, None, 5): (4, True, 10, 5, 13008),
        (-15, 2, 1, None, 5): (8, True, 11, 5, 28288),
        (5, 1, 2, None, 5): (0, True, 9, 5, 0),
        (-15, 1, 1, 2, 1): (4, True, 2, 1, 800),
        (9, 1, 1, 1, 0): (4, True, 1, 0, 432),
        (-4, 1, 1, 0, 5): (0, False, 0, 5, 2760),
        (-188, 9, 9, None, 5): (16, True, 28, 5, 30480),
        (-188, 6, 8, 60, 5): (64, True, 60, 5, 519520),
    }
    for (D, m, n, entry_bound, slack), fields in frozen.items():
        assert orbit_count_oracle(D, m, n, entry_bound, slack) == OracleCount(*fields), (D, m, n)
        if fields[1]:
            assert fields[0] == B(D, m, n), (D, m, n)


# The 56 cells of the sweep |D| <= 200, 1 <= m <= n <= 10 (default box) on
# which the oracle's earlier rule, union-find components counted at two
# radii, gave a count other than B.  Every one was an over-count.
TWO_RADIUS_MISMATCHES = (
    (-200, 6, 9), (-199, 7, 8), (-199, 10, 10), (-188, 6, 8), (-188, 9, 9), (-180, 9, 10),
    (-176, 8, 10), (-175, 10, 10), (-167, 8, 9), (-159, 7, 10), (-156, 8, 10), (-144, 10, 10),
    (-140, 9, 9), (-140, 9, 10), (-135, 9, 10), (-128, 6, 9), (-111, 6, 10), (-111, 7, 10),
    (-96, 6, 10), (-95, 9, 10), (-92, 6, 8), (-92, 8, 9), (-83, 9, 9), (-72, 9, 9),
    (-71, 9, 10), (-64, 8, 10), (-56, 6, 9), (-15, 8, 10), (4, 7, 10), (4, 8, 9), (9, 7, 10),
    (9, 9, 10), (13, 9, 9), (25, 10, 10), (36, 7, 9), (36, 8, 10), (36, 9, 10), (44, 7, 10),
    (49, 8, 10), (49, 9, 10), (64, 8, 10), (84, 6, 10), (85, 9, 9), (89, 10, 10), (92, 7, 7),
    (121, 7, 10), (136, 9, 10), (144, 7, 10), (144, 8, 10), (169, 7, 8), (169, 8, 10),
    (176, 10, 10), (177, 7, 8), (180, 9, 10), (184, 9, 9), (200, 7, 10),
)


def test_oracle_is_exact_where_two_radii_over_counted():
    assert len(set(TWO_RADIUS_MISMATCHES)) == 56
    for D, m, n in TWO_RADIUS_MISMATCHES:
        result = orbit_count_oracle(D, m, n)
        assert result.stable and result.count == B(D, m, n), (D, m, n, result)


def test_oracle_is_unstable_when_the_box_skips_a_divisor():
    # a box of radius R + slack + 1 below max(a, m/a, n/a) skips the cubes of
    # divisor a; here 48 wrong counts were stable before that made them unstable
    for D in filter(is_discriminant, range(-80, 81)):
        for m, n in ((2, 4), (4, 4)):
            for entry_bound in range(7):
                for slack in (0, 5):
                    result = orbit_count_oracle(D, m, n, entry_bound, slack)
                    if result.stable:
                        assert result.count == B(D, m, n), (D, m, n, entry_bound, slack)


def oracle_digest_cases():
    """The 900 criterion-1 cells at the default box, then every |D| <= 40,
    1 <= m <= n <= 3 at entry bounds 0-4 and slacks 0, 1 and 5: 4,500 calls."""
    for D in filter(is_discriminant, range(-60, 61)):
        for m in range(1, 6):
            for n in range(m, 6):
                yield D, m, n, None, 5
    for D in filter(is_discriminant, range(-40, 41)):
        for m in range(1, 4):
            for n in range(m, 4):
                for entry_bound in range(5):
                    for slack in (0, 1, 5):
                        yield D, m, n, entry_bound, slack


def test_oracle_counts_keep_their_digest():
    # recorded from the union-find oracle before its chains were named by
    # normal keys; pins cubes_enumerated, which criterion 1 does not read
    digest, calls = hashlib.sha256(), 0
    for case in oracle_digest_cases():
        digest.update(repr(tuple(orbit_count_oracle(*case))).encode() + b"\n")
        calls += 1
    want = "e48cf305935fae7dd48c5fe4b4c20d82fb5712e67bd2e04d09716b56d0f6b58e"
    assert (calls, digest.hexdigest()) == (4500, want)


@pytest.mark.parametrize("call, error, message", [
    (lambda: orbit_count_oracle(5, 0, 1), DomainError, "oracle requires nonzero m and n"),
    # D = 0 with m = n = 1
    (lambda: canonical(Cube(1, 0, 0, 1, 0, 0, 1, 0)), DomainError,
     "canonical form requires nonzero D, m and n"),
], ids=["orbit_count_oracle", "canonical"])
def test_out_of_domain_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
