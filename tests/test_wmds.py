"""Tests for the multiple-Dirichlet-series coefficients.

The independent anchor is the bridge to ``sqrt_count`` (verified against
direct enumeration in test_congruence): for odd p the two-variable
coefficient layers recombine into square-root counts modulo prime powers.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta.congruence import (
    DomainError,
    chi,
    divisors,
    hat,
    is_discriminant,
    sqrt_count,
    squarefree_split,
)
from cubezeta.wmds import a_coeff, a_coeff3, a_pp, tilde_a, twisted_series


def test_a_pp_frozen_values():
    for p in (2, 3, 5, 7):
        assert a_pp(p, 2, 2) == p
        assert a_pp(p, 1, 1) == 0
        for l in range(9):
            assert a_pp(p, 0, l) == 1
            assert a_pp(p, l, 0) == 1
    assert a_pp(3, 4, 6) == 9
    assert a_pp(2, 3, 5) == 0
    assert a_pp(5, 2, 4) == 5


def test_a_pp_rejects_negative_valuations():
    with pytest.raises(DomainError):
        a_pp(2, -1, 0)
    with pytest.raises(DomainError):
        a_pp(3, 0, -2)


def test_a_pp_symmetric():
    for p in (2, 3, 5):
        for k in range(13):
            for l in range(13):
                assert a_pp(p, k, l) == a_pp(p, l, k)


def test_a_coeff_frozen_values():
    assert a_coeff(25, 25) == 5
    assert a_coeff(25, 5) == 0
    assert a_coeff(21, 10) == 1  # both valuations of 21 at 2 and 5 are zero
    assert a_coeff(48, 4) == 2
    for D in (5, -3, 45, -500, 7):
        assert a_coeff(D, 1) == 1


def test_a_coeff_rejects_bad_arguments():
    with pytest.raises(DomainError):
        a_coeff(0, 1)
    with pytest.raises(DomainError):
        a_coeff(5, 0)
    with pytest.raises(DomainError):
        a_coeff3(0, 1, 1)
    with pytest.raises(DomainError):
        a_coeff3(5, 1, 0)


@settings(max_examples=200)
@given(
    D=st.integers(min_value=-400, max_value=400).filter(lambda d: d != 0),
    m1=st.integers(min_value=1, max_value=60),
    m2=st.integers(min_value=1, max_value=60),
)
def test_a_coeff_multiplicative_in_m(D, m1, m2):
    if math.gcd(m1, m2) != 1:
        return
    assert a_coeff(D, m1 * m2) == a_coeff(D, m1) * a_coeff(D, m2)


def test_a_coeff3_frozen_values():
    assert a_coeff3(25, 5, 5) == 5
    assert a_coeff3(9, 3, 3) == 3
    assert a_coeff3(45, 1, 1) == 1
    for D in (5, -4, 12, -500, 297):
        assert a_coeff3(D, 1, 1) == 1


def test_a_coeff3_symmetric():
    for D in range(-60, 61):
        if D == 0:
            continue
        for m in range(1, 13):
            for n in range(1, 13):
                assert a_coeff3(D, m, n) == a_coeff3(D, n, m)


def test_tilde_a_frozen_values():
    assert tilde_a(5, 2) == -1
    assert tilde_a(17, 2) == 1
    for D in (5, -4, 45, -500):
        assert tilde_a(D, 1) == 1
    assert tilde_a(12, 3) == 0  # coefficient vanishes at odd valuation


def test_twisted_series_matches_tilde_a():
    for D in range(-100, 101):
        if not is_discriminant(D):
            continue
        assert twisted_series(D, 200) == [0] + [tilde_a(D, m) for m in range(1, 201)], D
        assert twisted_series(D, 200, coefficient=False) == [0] + [
            chi(D, hat(m, D)) for m in range(1, 201)
        ], D


def test_tilde_a_requires_discriminant_shape():
    with pytest.raises(DomainError):
        tilde_a(3, 1)
    with pytest.raises(DomainError):
        tilde_a(-6, 2)


def test_divisor_sum_matches_twisted_layers_for_odd_D():
    """sum_d d * tilde_a(D/d^2, m/d) * tilde_a(D/d^2, n/d) equals
    chi(D, hat(m)) * chi(D, hat(n)) * a3(D, m, n) for odd discriminants."""
    M = 48
    for D in range(-297, 298):
        if D % 2 == 0 or not is_discriminant(D):
            continue
        _, d1 = squarefree_split(D)
        chis = [0] + [chi(D, hat(m, D)) for m in range(1, M + 1)]
        for m in range(1, M + 1):
            for n in range(1, M + 1):
                lhs = 0
                for d in divisors(math.gcd(d1, m, n)):
                    dd = D // (d * d)
                    t = tilde_a(dd, m // d)
                    if t:
                        lhs += d * t * tilde_a(dd, n // d)
                assert lhs == chis[m] * chis[n] * a_coeff3(D, m, n), (D, m, n)


def test_a_pp_layers_recombine_into_sqrt_count_at_odd_primes():
    """For odd p: A(p^k mod p^l) is a_pp(p,k,l) + a_pp(p,k,l-1) when k < l,
    and p^(l//2) when k >= l."""
    for p in (3, 5, 7):
        for k in range(9):
            for l in range(9):
                got = sqrt_count(p**k, p**l)
                if k < l:
                    assert got == a_pp(p, k, l) + a_pp(p, k, l - 1), (p, k, l)
                else:
                    assert got == p ** (l // 2), (p, k, l)
