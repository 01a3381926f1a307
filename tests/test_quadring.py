"""Tests for oriented ideal classes and the cube-to-class-pair fibration."""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta import quadring
from cubezeta.commands import _discriminants
from cubezeta.congruence import (
    DomainError,
    RangeError,
    is_discriminant,
    sqrt_count,
    squarefree_split,
)
from cubezeta.cube import BinaryQuadraticForm, Cube, act_word, is_semistable, shear1, shear2, sl2
from cubezeta.orbits import B
from cubezeta.quadring import (
    IdealClassPair,
    OrientedIdealClass,
    QuadraticRing,
    classes_with_norm,
    fiber_count,
    fiber_sums,
    ideal_class_pairs,
    level_counts,
    pair_fiber,
    pair_from_cube,
    ring_ideal_from_form,
    verify_thm13,
    verify_thm13_scan,
)

discriminants = st.integers(min_value=-200, max_value=200).filter(is_discriminant)


def test_ring_basis_relation():
    assert QuadraticRing(5).tau_square() == (1, 1)
    assert QuadraticRing(-3).tau_square() == (-1, 1)
    assert QuadraticRing(-4).tau_square() == (-1, 0)
    assert QuadraticRing(12).tau_square() == (3, 0)
    with pytest.raises(DomainError):
        QuadraticRing(3)
    with pytest.raises(DomainError):
        QuadraticRing(0)


def test_oriented_class_validation():
    cls = OrientedIdealClass(-3, 3)
    assert cls.norm == 3
    assert cls.orientation == -1
    assert cls.matches(45) and not cls.matches(5)
    with pytest.raises(DomainError):
        OrientedIdealClass(0, 0)
    with pytest.raises(DomainError):
        OrientedIdealClass(2, 4)  # b outside [0, 2|a|)
    with pytest.raises(DomainError):
        IdealClassPair(5, OrientedIdealClass(1, 0), OrientedIdealClass(1, 1))
    with pytest.raises(DomainError):
        IdealClassPair(3, OrientedIdealClass(1, 1), OrientedIdealClass(1, 1))
    pair = ideal_class_pairs(45, 3, 3)[0]
    assert repr(pair) == (
        "IdealClassPair(D=45, first=OrientedIdealClass(a=-3, b=3), "
        "second=OrientedIdealClass(a=-3, b=3))"
    )
    report = verify_thm13(45, 3, 3)
    assert repr(report) == (
        "IdentityReport(identity='thm13', params={'D': 45, 'a1': 3, 'a2': 3}, "
        "status='equal', first_mismatch=None, findings=())"
    )
    for record in (QuadraticRing(-23), cls, pair, report):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
    for record, name in ((QuadraticRing(5), "D"), (cls, "b"), (pair, "first"), (report, "status")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@settings(max_examples=200)
@given(D=discriminants, a0=st.integers(min_value=1, max_value=12), sign=st.sampled_from((1, -1)))
def test_class_count_is_half_the_root_count(D, a0, sign):
    a = sign * a0
    classes = classes_with_norm(D, a)
    assert len(classes) == sqrt_count(D, 4 * a0) // 2
    assert all(c.a == a and c.matches(D) for c in classes)


def test_classes_with_norm_near_10_12():
    # two primes and a smooth norm; D = x^2 - 4ak has the root x mod 4a
    smooth = 2**4 * 3**2 * 5**2 * 7 * 11 * 13 * 17 * 19 * 23 * 29
    for a in (999999999989, 10**12 + 39, smooth):
        for x, k in ((5, 1), (7, -3), (2 * 3 * 5 * 7, 2)):
            D = x * x - 4 * a * k
            classes = classes_with_norm(D, a)
            assert classes and all(c.a == a and c.matches(D) for c in classes)
            assert [c.b for c in classes_with_norm(D, -a)] == [c.b for c in classes]
            assert 2 * len(classes) == sqrt_count(D, 4 * a), (D, a)


@settings(max_examples=200)
@given(D=discriminants, a0=st.integers(min_value=1, max_value=12), sign=st.sampled_from((1, -1)))
def test_form_class_roundtrip(D, a0, sign):
    for cls in classes_with_norm(D, sign * a0):
        f = BinaryQuadraticForm(cls.a, cls.b, (cls.b**2 - D) // (4 * cls.a))
        assert f.discriminant() == D and f.a == cls.a
        ring, back = ring_ideal_from_form(f)
        assert ring.D == D and back == cls


def test_sheared_forms_give_the_same_class():
    for (D, a, b, c) in ((45, 3, 3, -3), (5, 1, 1, -1), (-23, 2, 1, 3)):
        f = BinaryQuadraticForm(a, b, c)
        assert f.discriminant() == D
        base = ring_ideal_from_form(f)[1]
        for k in (-3, -1, 1, 2, 5):
            g = BinaryQuadraticForm(a, b + 2 * k * a, c + k * b + k * k * a)
            assert g.discriminant() == D
            assert ring_ideal_from_form(g)[1] == base


def test_pair_counts_are_products_of_root_counts():
    for (D, m, n) in ((5, 1, 1), (9, 9, 9), (45, 3, 3), (-500, 2, 2), (-23, 2, 3)):
        pairs = ideal_class_pairs(D, m, n)
        assert len(pairs) == sqrt_count(D, 4 * m) * sqrt_count(D, 4 * n)
        keys = [(p.first.a, p.first.b, p.second.a, p.second.b) for p in pairs]
        assert keys == sorted(keys)
    with pytest.raises(RangeError):
        ideal_class_pairs(5, 0, 1)


def test_pair_from_reference_cube():
    pair = pair_from_cube(Cube(1, 1, 0, 1, 1, 0, 1, -1))
    assert pair.D == 5
    assert (pair.first.a, pair.first.b) == (1, 1)
    assert (pair.second.a, pair.second.b) == (1, 1)


def test_pair_from_cube_rejects_vanishing_invariants():
    with pytest.raises(DomainError):
        pair_from_cube(Cube(1, 0, 0, 0, 0, 0, 0, 0))


def _random_word(rng, length):
    word = []
    for _ in range(length):
        kind = rng.randrange(3)
        k = rng.randint(-2, 2)
        if kind == 0:
            word.append(shear1(k))
        elif kind == 1:
            word.append(shear2(k))
        else:
            word.append(sl2(1, k, 0, 1) if rng.random() < 0.5 else sl2(1, 0, k, 1))
    return word


def test_pair_is_constant_on_orbits():
    rng = random.Random(413)
    found = 0
    while found < 60:
        A = Cube(*(rng.randint(-2, 2) for _ in range(8)))
        if not is_semistable(A):
            continue
        found += 1
        base = pair_from_cube(A)
        for _ in range(4):
            moved = act_word(_random_word(rng, 4), A)
            assert pair_from_cube(moved) == base


def test_fiber_count_frozen():
    assert fiber_count(45, 3, 3) == 4
    assert fiber_count(9, 3, 3) == 4
    assert fiber_count(5, 2, 3) == 1
    assert fiber_count(-500, 2, 2) == 3


def test_per_pair_fibers_aggregate_to_the_orbit_count():
    for (D, m, n) in ((9, 9, 9), (9, 3, 3), (45, 3, 3), (-500, 2, 2), (5, 1, 1), (-23, 2, 3)):
        pairs = ideal_class_pairs(D, m, n)
        assert sum(pair_fiber(p) for p in pairs) == B(D, m, n), (D, m, n)


def test_verify_thm13_statuses_frozen():
    assert verify_thm13(5, 1, 1).status == "equal"
    assert verify_thm13(45, 3, 3).status == "equal"
    report = verify_thm13(9, 9, 9)
    assert report.status == "known_constant_fiber_discrepancy"
    assert report.first_mismatch == {
        "pairs": 36, "sigma1_sum": 144, "exact_sum": 84, "B": 84,
    }
    report = verify_thm13(-500, 2, 2)
    assert report.status == "known_constant_fiber_discrepancy"
    assert report.first_mismatch == {
        "pairs": 4, "sigma1_sum": 12, "exact_sum": 4, "B": 4,
    }
    assert report.findings


def test_verify_thm13_reports_a_b_one_off_as_a_mismatch(monkeypatch):
    """A one-off B at one cell is a mismatch with that cell's two sums."""
    real = quadring.B
    monkeypatch.setattr(quadring, "B", lambda D, a1, a2: real(D, a1, a2) + 1)
    report = verify_thm13(-4, 2, 2)
    assert report.status == "mismatch"
    assert report.first_mismatch == {"pairs": 4, "sigma1_sum": 12, "exact_sum": 4, "B": 5}
    assert report.findings == ("exact per-pair fiber aggregate disagrees with B",)


def test_fiber_sums_match_the_per_pair_and_constant_aggregates():
    for D in range(-60, 61):
        if not is_discriminant(D):
            continue
        D1 = squarefree_split(D)[1]
        counts = {a: level_counts(D, D1, a) for a in range(1, 13)}
        for a1 in range(1, 13):
            for a2 in range(1, 13):
                pairs = ideal_class_pairs(D, a1, a2)
                assert fiber_sums(math.gcd(D1, a1, a2), counts[a1], counts[a2]) == (
                    fiber_count(D, a1, a2) * len(pairs),
                    sum(pair_fiber(p) for p in pairs),
                ), (D, a1, a2)


def test_verify_thm13_scan_matches_the_single_cell_check():
    """Each scan of the square a1, a2 <= amax reports what the per-cell checks give.

    Its status is the worst per-cell status, and its first_mismatch is the
    first non-equal cell in (a1, a2) order with that cell's two sums and B.
    Besides every small D, the inputs take D with many divisor levels d | D1:
    -675 (1, 3, 5, 15), 2025, -144, and 3600 (11 levels up to 30).
    """
    rank = {"equal": 0, "known_constant_fiber_discrepancy": 1, "mismatch": 2}
    cases = [(D, range(1, 13)) for D in range(-60, 61) if is_discriminant(D)]
    for D, amaxes in cases + [(D, (1, 12, 30)) for D in (-675, 2025, -144, 3600)]:
        top = max(amaxes)
        cells = {(a1, a2): verify_thm13(D, a1, a2)
                 for a1 in range(1, top + 1) for a2 in range(1, top + 1)}
        for amax in amaxes:
            square = [(cell, rep) for cell, rep in sorted(cells.items()) if max(cell) <= amax]
            scan = verify_thm13_scan(D, amax)
            status = max((rep.status for _, rep in square), key=rank.get)
            assert scan.status == status, (D, amax)
            first = next(((cell, rep) for cell, rep in square if rep.status == status), None)
            if status == "equal":
                assert scan.first_mismatch is None
                continue
            (a1, a2), rep = first
            sums = {k: v for k, v in rep.first_mismatch.items() if k != "pairs"}
            assert scan.first_mismatch == {"a1": a1, "a2": a2, **sums}, (D, amax)


def test_every_verify_thm13_scan_report_is_pinned():
    """A SHA-256 over the JSON of every report, one line each, in order.

    A golden of ``verify thm13`` shows only its first non-equal instance, so
    a scan that went wrong at a later D, or at a later cell of a D, would
    leave every golden as it is; this digest changes.  The ranges: every
    |D| <= 500 at amax 30, every |D| <= 2000 at amax 8, and D with many
    divisor levels or large D1 at amax 1, 2, 7 and 30.
    """
    cases = [(D, 30) for D in _discriminants(500)] + [(D, 8) for D in _discriminants(2000)]
    cases += [(D, amax) for D in (3600, -3600, 44100, -176400, 2**20, -3 * 2**21, -4 * 6211,
                                  5 * 6211**2) for amax in (1, 2, 7, 30)]
    digest = hashlib.sha256()
    for D, amax in cases:
        report = verify_thm13_scan(D, amax)._asdict()
        digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
    assert (len(cases), digest.hexdigest()) == (
        2532, "12853c76d1e67d07763e3bd1692468a55eb85fc70c1ade05406ad42e971e1532")


@pytest.mark.parametrize("amax", [0, -2])
def test_verify_thm13_scan_of_no_cell_is_equal(amax):
    for D in (5, -4, -675, 3600):
        report = verify_thm13_scan(D, amax)
        assert (report.status, report.first_mismatch, report.findings) == ("equal", None, ())


@pytest.mark.parametrize("cell", [(3, 5), (2, 4), (5, 3)], ids=["3-5", "2-4", "5-3"])
def test_verify_thm13_scan_reports_a_b_one_off_at_its_cell(monkeypatch, cell):
    """A one-off B is a mismatch at exactly its cell: (3, 5) and (5, 3), where
    gcd(D1, a1, a2) = 1 and only the level d = 1 counts, one with a1 on the
    level 3 and one with a2, and (2, 4), on the levels 1 and 2."""
    D, (a1, a2) = -36, cell  # D1 = 6
    real = quadring.b_grid

    def one_off(D, amax):
        grid = real(D, amax)
        grid[a1][a2] += 1
        return grid

    monkeypatch.setattr(quadring, "b_grid", one_off)
    report = verify_thm13_scan(D, 12)
    assert report.status == "mismatch"
    assert (report.first_mismatch["a1"], report.first_mismatch["a2"]) == cell
    assert report.first_mismatch["B"] == B(D, a1, a2) + 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: classes_with_norm(5, 0), DomainError, "a must be nonzero"),
    (lambda: ring_ideal_from_form(BinaryQuadraticForm(0, 1, 1)), DomainError,
     "form must have a nonzero leading coefficient"),
    (lambda: ring_ideal_from_form(BinaryQuadraticForm(1, 2, 1)), DomainError,
     "form must have a nonzero discriminant"),
    (lambda: verify_thm13(5, 0, 1), RangeError, "norms must be positive"),
], ids=["classes_with_norm", "form_with_a_0", "form_with_D_0", "verify_thm13"])
def test_out_of_domain_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
