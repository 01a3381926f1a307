"""Tests for oriented ideal classes and the cube-to-class-pair fibration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta.congruence import DomainError, RangeError, is_discriminant, sqrt_count
from cubezeta.cube import BinaryQuadraticForm, Cube, act_word, is_semistable, shear1, shear2, sl2
from cubezeta.orbits import B
from cubezeta.quadring import (
    IdealClassPair,
    OrientedIdealClass,
    QuadraticRing,
    classes_with_norm,
    fiber_count,
    fiber_sums,
    form_from_class,
    ideal_class_pairs,
    pair_fiber,
    pair_from_cube,
    ring_ideal_from_form,
    verify_thm13,
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


@settings(max_examples=200)
@given(D=discriminants, a0=st.integers(min_value=1, max_value=12), sign=st.sampled_from((1, -1)))
def test_class_count_is_half_the_root_count(D, a0, sign):
    a = sign * a0
    classes = classes_with_norm(D, a)
    assert len(classes) == sqrt_count(D, 4 * a0) // 2
    assert all(c.a == a and c.matches(D) for c in classes)


@settings(max_examples=200)
@given(D=discriminants, a0=st.integers(min_value=1, max_value=12), sign=st.sampled_from((1, -1)))
def test_form_class_roundtrip(D, a0, sign):
    for cls in classes_with_norm(D, sign * a0):
        f = form_from_class(cls, D)
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


def test_fiber_sums_match_the_per_pair_and_constant_aggregates():
    for D in range(-60, 61):
        if not is_discriminant(D):
            continue
        classes = {a: classes_with_norm(D, -a) + classes_with_norm(D, a) for a in range(1, 13)}
        for a1 in range(1, 13):
            for a2 in range(1, 13):
                pairs = ideal_class_pairs(D, a1, a2)
                assert fiber_sums(D, a1, a2, classes[a1], classes[a2]) == (
                    fiber_count(D, a1, a2) * len(pairs),
                    sum(pair_fiber(p) for p in pairs),
                ), (D, a1, a2)
