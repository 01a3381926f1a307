"""Cube invariants, the group action, and the orbit-count oracle."""

import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubezeta.congruence import RangeError, sqrt_count_direct
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


def chain_records(D, m, n, R, slack):
    """(rep, inner, core, outer, key) of each chain of ``_slice_enumerate``.

    The representative (a, b, 0, d, e, f, g, h) is rebuilt from the key
    (x, h, e): b = (x + a*h + d*e) / g and f = (e*h - (x*x - D) / (4m)) / g,
    both divisions exact.
    """
    records = []
    for a, d, g, index, spans in _slice_enumerate(D, m, n, R, slack, _slice_roots(D, m, n)):
        for (x, h, e), i in index.items():
            b, rb = divmod(x + a * h + d * e, g)
            s, rs = divmod(x * x - D, 4 * m)
            f, rf = divmod(e * h - s, g)
            assert rb == rs == rf == 0, (a, x, h, e)
            i_lo, i_hi, c_lo, c_hi, o_lo, o_hi = spans[i]
            rep = (a, b, 0, d, e, f, g, h)
            records.append((rep, (i_lo, i_hi), (c_lo, c_hi), (o_lo, o_hi), (x, h, e)))
    return records


def expand(chain, k_range=None):
    """The cubes rep + k*(0, d, 0, 0, g, h, 0, 0) of a chain, for k in its outer interval."""
    (a, b, _, d, e, f, g, h), _, _, (lo, hi), _ = chain
    ks = range(lo, hi + 1) if k_range is None else k_range
    return [(a, b + k * d, 0, d, e + k * g, f + k * h, g, h) for k in ks]


def with_sign_flips(cubes):
    """The cubes with their images under the sign flips of (b, d, f, h) and (e, f, g, h)."""
    signs = ((1, 1, 1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1, 1, -1),
             (1, 1, 1, 1, -1, -1, -1, -1), (1, -1, 1, -1, -1, 1, -1, 1))
    return [tuple(v * s for v, s in zip(c, sign)) for c in cubes for sign in signs]


def test_slice_enumeration_is_complete_in_small_boxes():
    boxes = ((5, 1, 1, 3), (45, 3, 3, 4), (-4, 1, 1, 3), (12, 2, 1, 3), (5, 1, 2, 3))
    for D, m, n, R in boxes:
        # radii R - 2, R - 1 and R for the inner, core and outer intervals
        chains = chain_records(D, m, n, R - 2, 1)
        produced = with_sign_flips(c for chain in chains for c in expand(chain))
        # every cube of the a > 0 half lies in exactly one chain (or one flip of it)
        assert len(set(produced)) == len(produced), (D, m, n, R)
        literal = literal_slice_scan(D, m, n, R)
        # negation pairs the a > 0 half with the rest
        assert literal == {tuple(-v for v in c) for c in literal}, (D, m, n, R)
        assert set(produced) == {c for c in literal if c[0] > 0}, (D, m, n, R)
        for chain in chains:
            (a, _, _, d, e, _, g, _), *spans, _ = chain
            assert a > 0 and d > 0 and 0 <= e < g, chain
            # each interval is exactly the k whose cube has all entries <= its radius
            window = range(spans[2][0] - 3 * R, spans[2][1] + 3 * R + 1)
            for (lo, hi), radius in zip(spans, (R - 2, R - 1, R)):
                within = [max(map(abs, c)) <= radius for c in expand(chain, window)]
                assert within == [lo <= k <= hi for k in window], (chain, radius)
    # the last box is empty: 5 is a square mod 4m = 4 but not mod 4n = 8, and
    # the second form has leading coefficient a*g = +-n and discriminant D
    assert literal_slice_scan(5, 1, 2, 3) == set()
    result = orbit_count_oracle(5, 1, 2, entry_bound=3)
    assert (result.count, result.cubes_enumerated) == (0, 0)


def test_chain_keys_follow_the_group_action():
    """The oracle's neighbour keys and offsets, written as it takes them, against ``act``."""
    boxes = ((5, 1, 1, 3), (45, 3, 3, 4), (-4, 1, 1, 3), (12, 2, 1, 3), (5, 1, 2, 3))
    checked = 0
    for D, m, n, R in boxes:
        for rep, *_, (lo, hi), (x, h, e) in chain_records(D, m, n, R - 2, 1):
            a, _, _, d, _, _, g, _ = rep
            A = Cube(*rep)
            assert form1(A).b == x
            q1, e1 = divmod(e + a, g)
            # the second shear keeps e; after the first, the third shear by -q
            # brings e back into [0, g)
            image = act(shear1(1), A)
            q = image.e // g
            moves = ((shear2(1), act(shear2(1), A), 0, (x, h + g, e), 0),
                     (shear1(1), act(sl2(1, -q, 0, 1), image), q, (x - 2 * m, h + d, e1), q1))
            for move, moved, offset, key, oracle_offset in moves:
                assert 0 <= moved.e < g, (rep, moved)
                assert ((form1(moved).b, moved.h, moved.e), offset) == (key, oracle_offset)
                # the move takes the chain's cube at k to the neighbour's cube at k + offset
                for k in (lo, hi):
                    at_k = act(sl2(1, k, 0, 1), A)
                    assert act(move, at_k) == act(sl2(1, k + offset, 0, 1), moved), (rep, k)
                checked += 1
    assert checked > 100


def tuple_graph_oracle(D, m, n, entry_bound, slack):
    """Reference oracle: 8-tuple cubes, a levelled edge list, one union-find per level.

    The move graph of the seven slice-preserving moves on the whole slice
    (the expanded chains, their sign flips and their negations), built on
    tuples with explicit neighbour tuples; the count at radius R + slack and
    the count with the outer shell's edges come from two separate union-find
    passes over the whole edge list.  An inner box without a cube is unstable
    whenever some cube has the invariants, i.e. D is a square mod 4m and 4n.
    """
    R = entry_bound if entry_bound is not None else default_entry_bound(D, m, n)
    chains = chain_records(D, m, n, R, slack)
    half = with_sign_flips(c for chain in chains for c in expand(chain))
    # the set makes cubes_enumerated differ from the oracle's if a cube repeats
    cubes = sorted(set(half) | {tuple(-v for v in c) for c in half})
    index_of = {cube: i for i, cube in enumerate(cubes)}
    maxabs = [max(abs(v) for v in cube) for cube in cubes]
    edges = []
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
            if j is not None and j > i:
                edges.append((max(maxabs[i], maxabs[j]), i, j))

    def count_at(outer):
        parent = list(range(len(cubes)))

        def find(i):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for level, i, j in edges:
            if level <= outer:
                parent[find(i)] = find(j)
        return len({find(i) for i in range(len(cubes)) if maxabs[i] <= R})

    count, wider = count_at(R + slack), count_at(R + slack + 1)
    exists = sqrt_count_direct(D, 4 * m) and sqrt_count_direct(D, 4 * n)
    vacuous = exists and all(r > R for r in maxabs)
    return OracleCount(count, count == wider and not vacuous, R, slack, len(cubes))


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
                if not got.stable:
                    unstable.add((D, m, n, entry_bound, slack))
    # the deferred outer-shell edges change the count on these cells
    assert {(-15, 1, 1, 2, 1), (9, 1, 1, 1, 0)} <= unstable
    # an inner box of radius 0 holds no cube (a != 0): unstable where B > 0,
    # stable where the slice is empty because 5 is no square mod 4n = 8
    assert (-4, 1, 1, 0, 5) in unstable
    assert (5, 1, 2, 0, 0) not in unstable and (5, 2, 2, 0, 5) not in unstable


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
    # chains (and the counts confirmed by the formula where stable)
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
        (-15, 1, 1, 2, 1): (8, False, 2, 1, 800),
        (9, 1, 1, 1, 0): (24, False, 1, 0, 432),
        (-4, 1, 1, 0, 5): (0, False, 0, 5, 2760),
        # components that merge only far out: at slack 10 (-188, 9, 9) counts 16 = B.
        # The canonical orbit forms for D < 0 (ROADMAP) count 16 and 64 = B here,
        # and will re-record these two cells with stable = False.
        (-188, 9, 9, None, 5): (32, True, 28, 5, 30480),
        (-188, 6, 8, 60, 5): (72, True, 60, 5, 519520),
    }
    for (D, m, n, entry_bound, slack), fields in frozen.items():
        assert orbit_count_oracle(D, m, n, entry_bound, slack) == OracleCount(*fields), (D, m, n)


@pytest.mark.parametrize("call, error, message", [
    (lambda: orbit_count_oracle(5, 0, 1), DomainError, "oracle requires nonzero m and n"),
], ids=["orbit_count_oracle"])
def test_out_of_domain_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
