"""Congruence-pair parameterization and the orbit-count formula B."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta.congruence import DomainError, sqrt_count
from cubezeta.cube import forms, invariants, is_semistable
from cubezeta.orbits import (
    B,
    b_grid,
    congruence_pairs,
    cube_from_invariants,
    cube_from_pair,
)
from cubezeta.wmds import a3_grid, a_coeff3

discs = st.integers(min_value=-99, max_value=99).filter(
    lambda D: D != 0 and D % 4 in (0, 1)
)
sides = st.integers(min_value=1, max_value=8)


# ---------------------------------------------------------------------------
# Congruence pairs
# ---------------------------------------------------------------------------


@given(discs, sides, sides)
@settings(max_examples=200)
def test_pair_count_is_the_product_of_root_counts(D, m, n):
    pairs = congruence_pairs(D, m, n)
    # x runs over a half-window [0, 2m), collapsing roots mod 4m in pairs
    assert len(pairs) == (sqrt_count(D, 4 * m) // 2) * (sqrt_count(D, 4 * n) // 2)
    for p in pairs:
        assert 0 <= p.x < 2 * m and 0 <= p.y < 2 * n
        assert (p.x * p.x - D) % (4 * m) == 0
        assert (p.y * p.y - D) % (4 * n) == 0
        assert p.s == (p.x * p.x - D) // (4 * m)
        assert p.t == (p.y * p.y - D) // (4 * n)


@given(discs, sides, sides)
@settings(max_examples=120)
def test_cube_from_pair_hits_the_requested_forms(D, m, n):
    for pair in congruence_pairs(D, m, n):
        A = cube_from_pair(pair)
        assert A.c == 0
        q1, q2, _ = forms(A)
        assert (q1.a, q1.b, q1.c) == (m, pair.x, pair.s)
        assert (q2.a, q2.b, q2.c) == (n, pair.y, pair.t)
        assert invariants(A) == (D, m, n)
        assert is_semistable(A)


def scan_cube(D, m, n, x, y):
    """The representative of ``cube_from_invariants`` by the literal least-f / least-e scans."""
    s, t = (x * x - D) // (4 * m), (y * y - D) // (4 * n)
    a = abs(math.gcd(m, n, (x + y) // 2))
    d, g, h = m // a, n // a, -((x + y) // 2 // a)
    if h:
        f = next(f for f in range(abs(h)) if (s + f * g) % h == 0 and (t + f * d) % h == 0)
        return (a, (t + f * d) // h, 0, d, (s + f * g) // h, f, g, h)
    w = (x - y) // 2
    e = next(e for e in range(abs(g)) if (w + d * e) % g == 0)
    return (a, (w + d * e) // g, 0, d, e, -(s // g), g, 0)


def test_cube_from_invariants_matches_the_literal_scans():
    rng = random.Random(13)
    cells = 0
    while cells < 400:  # h != 0: the pairs of random cells, both signs of m and n
        D = rng.randint(-5000, 5000)
        m, n = rng.choice((1, -1)) * rng.randint(1, 300), rng.choice((1, -1)) * rng.randint(1, 300)
        if D and D % 4 in (0, 1):
            for p in congruence_pairs(D, m, n):
                assert cube_from_pair(p).entries() == scan_cube(D, m, n, p.x, p.y), p
                cells += 1
    for _ in range(400):  # h = 0: y = -x, with D = x^2 mod 4 lcm(m, n)
        m, n = rng.choice((1, -1)) * rng.randint(1, 300), rng.choice((1, -1)) * rng.randint(1, 300)
        x = rng.randint(-600, 600)
        D = x * x - 4 * math.lcm(m, n) * rng.randint(-20, 20)
        if D:
            assert cube_from_invariants(D, m, n, x, -x).entries() == scan_cube(D, m, n, x, -x)


def test_cube_from_invariants_rejects_bad_data():
    with pytest.raises(DomainError):
        cube_from_invariants(5, 1, 1, 0, 1)  # 0^2 != 5 mod 4
    with pytest.raises(DomainError):
        cube_from_invariants(7, 1, 1, 1, 1)  # 7 is not a discriminant


# ---------------------------------------------------------------------------
# The counting formula
# ---------------------------------------------------------------------------


def test_B_frozen_values():
    # frozen from the stable enumeration oracle
    assert B(5, 1, 1) == 4
    assert B(45, 3, 3) == 16
    assert B(9, 3, 3) == 16
    assert B(9, 9, 9) == 84
    assert B(16, 4, 4) == 40
    assert B(5, 2, 1) == 0
    assert B(-23, 2, 3) == 16


def test_B_vanishes_off_discriminants():
    assert B(7, 1, 1) == 0
    assert B(-2, 3, 5) == 0


@given(discs, sides, sides)
def test_B_symmetric_and_sign_blind(D, m, n):
    assert B(D, m, n) == B(D, n, m)
    assert B(D, m, n) == B(D, -m, n) == B(D, m, -n)


def pointwise(cell, D, M):
    return [[0] * (M + 1)] + [
        [0] + [cell(D, m, n) for n in range(1, M + 1)] for m in range(1, M + 1)
    ]


def assert_grids_match_pointwise(D, M):
    # B by its grid and cell by cell; a3, the same level sum with a_coeff
    assert b_grid(D, M) == pointwise(B, D, M), D
    assert a3_grid(D, M) == pointwise(a_coeff3, D, M), D


def test_b_grid_matches_pointwise():
    for D in range(-300, 301):
        if D:
            assert_grids_match_pointwise(D, 40)


@given(st.integers(min_value=-40, max_value=40).filter(bool),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_b_grid_matches_pointwise_with_square_factors(D0, k):
    # D1 = k * (the square part of D0) has several divisor levels d <= M
    assert_grids_match_pointwise(D0 * k * k, 40)


@pytest.mark.parametrize("grid", [b_grid, a3_grid])
def test_a_grid_edit_changes_only_its_cell(grid):
    # D = -3 * 30^2 has six levels d <= 12; row 4 shares its row class with row 7
    # of B and row 8 of a3, so a row list shared per class would leak the edit
    D, M = -2700, 12
    edited, fresh = grid(D, M), grid(D, M)
    assert any(fresh[m] == fresh[4] for m in range(5, M + 1))
    edited[4][3] += 1
    changed = [(m, n) for m in range(M + 1) for n in range(M + 1)
               if edited[m][n] != fresh[m][n]]
    assert changed == [(4, 3)]
