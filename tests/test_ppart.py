"""Tests for the exact-in-p trivariate generating function machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta.congruence import DomainError
from cubezeta.ppart import (
    P_ONE,
    P_ZERO,
    TriSeries,
    a2_poly,
    f_a3_convolution,
    p_add,
    p_eval,
    p_format,
    p_monomial,
    p_mul,
    p_trim,
    series_mul_geometric,
    specialization_check,
    thm44_check,
)

poly = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(tuple)


def test_poly_basics():
    assert p_trim((1, 2, 0, 0)) == (1, 2)
    assert p_trim((0, 0)) == ()
    assert p_add((1, 2), (3, -2)) == (4,)
    assert p_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert p_mul(P_ZERO, (5, 6)) == P_ZERO
    assert p_monomial(3, 2) == (0, 0, 3)
    assert p_monomial(0, 5) == P_ZERO
    assert p_eval((1, 2, 3), 10) == 321


def test_p_format_frozen():
    assert p_format(()) == "0"
    assert p_format((1,)) == "1"
    assert p_format((0, 1)) == "p"
    assert p_format((2, 0, -1)) == "2-p^2"
    assert p_format((-1, 3)) == "-1+3*p"
    assert p_format((0, -1, 0, 2)) == "-p+2*p^3"


@settings(max_examples=200)
@given(f=poly, g=poly, x=st.integers(min_value=-7, max_value=7))
def test_p_mul_matches_integer_evaluation(f, g, x):
    assert p_eval(p_mul(f, g), x) == p_eval(f, x) * p_eval(g, x)


@settings(max_examples=200)
@given(f=poly, g=poly, x=st.integers(min_value=-7, max_value=7))
def test_p_add_matches_integer_evaluation(f, g, x):
    assert p_eval(p_add(f, g), x) == p_eval(f, x) + p_eval(g, x)


def test_a2_poly_frozen():
    assert a2_poly(2, 2) == (0, 1)
    assert a2_poly(1, 1) == P_ZERO
    assert a2_poly(4, 7) == (0, 0, 1)
    for l in range(6):
        assert a2_poly(0, l) == P_ONE
    assert a2_poly(-1, 3) == P_ZERO


def series_mul(A: TriSeries, B: TriSeries) -> TriSeries:
    """Reference: the full truncated product (O(K^6) coefficient multiplications)."""
    assert A.K == B.K
    K = A.K
    out = TriSeries.zero(K)
    for l1 in range(K + 1):
        for k1 in range(K + 1):
            for t1 in range(K + 1):
                c1 = A.coeffs[l1][k1][t1]
                if not c1:
                    continue
                for l2 in range(K + 1 - l1):
                    for k2 in range(K + 1 - k1):
                        for t2 in range(K + 1 - t1):
                            c2 = B.coeffs[l2][k2][t2]
                            if not c2:
                                continue
                            tgt = out.coeffs[l1 + l2][k1 + k2][t1 + t2]
                            out.coeffs[l1 + l2][k1 + k2][t1 + t2] = p_add(
                                tgt, p_mul(c1, c2)
                            )
    return out


def _geometric_series(K, monomial, p_power):
    dl, dk, dt = monomial
    s = TriSeries.zero(K)
    j = 0
    while j * dl <= K and j * dk <= K and j * dt <= K:
        s.coeffs[j * dl][j * dk][j * dt] = p_monomial(1, j * p_power)
        j += 1
    return s


def test_geometric_multiply_matches_full_product():
    K = 4
    base = f_a3_convolution(K)
    for monomial, power in (((1, 0, 0), 0), ((0, 2, 2), 1), ((2, 2, 2), 2)):
        fast = series_mul_geometric(base, monomial, power)
        slow = series_mul(base, _geometric_series(K, monomial, power))
        assert fast == slow


def test_geometric_multiply_rejects_constant_monomial():
    with pytest.raises(DomainError):
        series_mul_geometric(TriSeries.one(3), (0, 0, 0), 1)


def test_convolution_frozen_small_coefficients():
    s = f_a3_convolution(4)
    assert s.get(0, 0, 0) == P_ONE
    assert s.get(1, 1, 1) == P_ZERO  # odd valuations cannot pair
    assert s.get(0, 2, 0) == P_ONE
    assert s.get(1, 2, 1) == (0, 1)  # single diagonal term p
    assert s.get(2, 2, 2) == (0, 1, 1)  # p + p^2
    assert s.get(2, 4, 2) == (0, 0, 2)  # two routes to p^2


def test_convolution_symmetric_in_outer_slots():
    s = f_a3_convolution(6)
    for l in range(7):
        for k in range(7):
            for t in range(7):
                assert s.coeffs[l][k][t] == s.coeffs[t][k][l]


def test_closed_form_matches_convolution():
    report = thm44_check(8)
    assert report.status == "equal"
    assert report.first_mismatch is None


def test_closed_form_specializes_to_arithmetic_coefficients():
    report = specialization_check(6)
    assert report.status == "equal"
    assert report.first_mismatch is None
    assert report.params["primes"] == (2, 3, 5)
