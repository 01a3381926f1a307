"""Square-root counting, divisor arithmetic, and character plumbing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta import congruence
from cubezeta.congruence import (
    DomainError,
    RangeError,
    chi,
    discriminant_data,
    divisors,
    factorize,
    fundamental_discriminant,
    hat,
    is_discriminant,
    is_fundamental,
    kronecker,
    mobius,
    multiplicative_series,
    sigma1,
    sqrt_count,
    sqrt_count_direct,
    sqrt_roots,
    squarefree_split,
)

nonzero_ints = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0)
small_moduli = st.integers(min_value=1, max_value=400)


# ---------------------------------------------------------------------------
# Factorization and divisor functions
# ---------------------------------------------------------------------------


def test_factorize_roundtrip_and_sign():
    for n in (1, -1, 2, -2, 12, 360, -360, 97, 2**40 + 1):
        f = factorize(n)
        value = f.sign
        for p, e in f.factors:
            value *= p**e
        assert value == n


def test_factorize_rejects_zero_and_63_bit_overflow():
    with pytest.raises(RangeError):
        factorize(0)
    with pytest.raises(RangeError):
        factorize(2**63)
    factorize(2**63 - 1)  # boundary value is accepted


def test_the_arithmetic_caches_share_one_bound_and_stay_at_it():
    caches = (factorize, divisors, sqrt_count, congruence._sqrt_count_prime_power)
    assert {f.cache_info().maxsize for f in caches} == {congruence._CACHE_SIZE}
    for n in range(1, congruence._CACHE_SIZE + 100):
        assert factorize(n).value() == n
    assert factorize.cache_info().currsize == congruence._CACHE_SIZE


def test_divisors_and_sigma1_frozen():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert sigma1(1) == 1
    assert sigma1(3) == 4
    assert sigma1(12) == 28


def test_mobius_frozen():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_sigma1_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) == 1:
        assert sigma1(a * b) == sigma1(a) * sigma1(b)


@given(nonzero_ints)
def test_squarefree_split_reconstructs(n):
    d0, d1 = squarefree_split(n)
    assert d0 * d1 * d1 == n
    assert all(e == 1 for _, e in factorize(d0).factors)


# ---------------------------------------------------------------------------
# Square-root counting
# ---------------------------------------------------------------------------


def test_sqrt_count_frozen_values():
    # frozen from sqrt_count_direct (O(a) scan)
    assert sqrt_count(5, 4) == 2
    assert sqrt_count(5, 8) == 0
    assert sqrt_count(1, 12) == 4
    assert sqrt_count(9, 36) == 6
    assert sqrt_count(-4, 16) == 0  # 12 is not a square mod 16
    assert sqrt_count(45, 36) == 6
    for case in ((5, 4), (5, 8), (1, 12), (9, 36), (-4, 16), (45, 36)):
        assert sqrt_count(*case) == sqrt_count_direct(*case)


def test_sqrt_count_of_odd_d_mod_2_is_one():
    for d in (1, 3, -5, 45, -297):
        assert sqrt_count(d, 2) == 1


@given(st.integers(min_value=-150, max_value=150), small_moduli)
@settings(max_examples=300)
def test_sqrt_count_matches_direct_scan(d, a):
    assert sqrt_count(d, a) == sqrt_count_direct(d, a)


@given(st.integers(min_value=-100, max_value=100).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_sqrt_count_multiplicative(d, a, b):
    if math.gcd(a, b) == 1:
        assert sqrt_count(d, a * b) == sqrt_count(d, a) * sqrt_count(d, b)


@given(st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=50))
def test_sqrt_count_ignores_modulus_sign(d, a):
    assert sqrt_count(d, 4 * a) == sqrt_count(d, -4 * a)


@given(st.integers(min_value=-80, max_value=80), st.integers(min_value=1, max_value=120))
def test_sqrt_roots_agree_with_count(d, a):
    roots = sqrt_roots(d, a)
    assert len(roots) == sqrt_count(d, a)
    assert all((x * x - d) % a == 0 for x in roots)
    assert roots == sorted(roots)


def scan_roots(d, a):
    """The literal O(a) scan that sqrt_roots replaces."""
    return [x for x in range(a) if (x * x - d) % a == 0]


def test_sqrt_roots_match_the_literal_scan():
    for d in range(-200, 201):
        for a in range(1, 300):
            assert sqrt_roots(d, a) == scan_roots(d, a), (d, a)
    rng = random.Random(10)
    for _ in range(300):
        d, a = rng.randint(-(10**6), 10**6), rng.randint(1, 10**5)
        assert sqrt_roots(d, a) == scan_roots(d, a), (d, a)
        assert sqrt_roots(d, -a) == sqrt_roots(d, a)


def test_sqrt_roots_at_powers_of_two():
    # d = 0 mod 2^e, and odd and even valuations with 1, 2, 4 unit roots
    for e in range(1, 13):
        for v in range(e + 3):
            for u in range(-17, 18, 2):
                d = u * 2**v
                assert sqrt_roots(d, 2**e) == scan_roots(d, 2**e), (d, e)
                assert sqrt_roots(d, 3 * 2**e) == scan_roots(d, 3 * 2**e), (d, e)


def test_factorize_splits_large_cofactors():
    p31, p32 = 2147483647, 4294967291  # primes above the trial bound squared
    cases = {
        4611686018427387847: {4611686018427387847: 1},  # a 62-bit prime
        p31 * p32: {p31: 1, p32: 1},
        2 * p31**2: {2: 1, p31: 2},
        4099**5: {4099: 5},
        2**63 - 1: {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1},
    }
    for n, want in cases.items():
        assert dict(factorize(n).factors) == want
        assert factorize(-n).value() == -n


def test_sqrt_roots_and_factorize_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 2**62)
        assert dict(factorize(n).factors) == sympy.factorint(n), n
        p, q = sympy.randprime(2**20, 2**31), sympy.randprime(2**20, 2**31)
        assert dict(factorize(p * q).factors) == sympy.factorint(p * q), p * q
    for _ in range(60):
        a = rng.randint(1, 2**62)
        x, k = rng.randint(0, a - 1), rng.randint(-5, 5)
        d = x * x - k * a if rng.random() < 0.7 else rng.randint(-(10**9), 10**9)
        roots = sqrt_roots(d, a)
        if len(roots) <= 4096:
            assert roots == sorted(sympy.sqrt_mod(d, a, all_roots=True) or []), (d, a)
        assert len(roots) == sqrt_count(d, a), (d, a)


# ---------------------------------------------------------------------------
# Discriminants and characters
# ---------------------------------------------------------------------------


def test_is_discriminant():
    assert is_discriminant(5) and is_discriminant(-4) and is_discriminant(45)
    assert not is_discriminant(0)
    assert not is_discriminant(2) and not is_discriminant(3) and not is_discriminant(-5)


def test_fundamental_discriminant_frozen():
    assert fundamental_discriminant(45) == 5
    assert fundamental_discriminant(-500) == -20
    assert fundamental_discriminant(8) == 8
    assert fundamental_discriminant(9) == 1
    assert fundamental_discriminant(12) == 12


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(is_discriminant))
def test_fundamental_discriminant_is_fundamental(n):
    D0 = fundamental_discriminant(n)
    assert is_discriminant(D0)
    assert is_fundamental(D0)


@given(st.integers(min_value=-2000, max_value=2000).filter(is_discriminant))
def test_discriminant_data_reconstructs(D):
    data = discriminant_data(D)
    assert data.D0 * data.D1 * data.D1 == D
    d0, _ = squarefree_split(D)
    assert data.D0 == d0
    assert is_fundamental(data.dstar)
    # alpha_map holds the half-valuations of the conductor square D / dstar
    square = D // data.dstar
    reconstructed = 1
    for p, alpha in data.alpha_map.items():
        reconstructed *= p ** (2 * alpha)
    assert reconstructed == square


def test_kronecker_frozen_table():
    # classic values of the quadratic character
    assert kronecker(5, 2) == -1
    assert kronecker(17, 2) == 1
    assert kronecker(-4, 3) == -1
    assert kronecker(-4, 5) == 1
    assert kronecker(12, 6) == 0
    assert kronecker(1, 7) == 1


@given(st.sampled_from([5, 8, 12, 13, -3, -4, -7, -8, 17, 21, -20]),
       st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_chi_completely_multiplicative(D, m, n):
    assert chi(D, m * n) == chi(D, m) * chi(D, n)


@given(st.sampled_from([5, 8, 12, 13, -3, -4, -7, -8, 17]),
       st.integers(min_value=1, max_value=300))
def test_chi_periodic_mod_fundamental(D, n):
    assert is_fundamental(D)
    assert chi(D, n) == chi(D, n + abs(D))


@given(st.integers(min_value=1, max_value=4000),
       st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0))
def test_hat_strips_exactly_the_squarefree_part(m, D):
    h = hat(m, D)
    d0, _ = squarefree_split(D)
    assert m % h == 0
    assert math.gcd(h, abs(d0)) == 1
    # the stripped cofactor has no prime outside the squarefree part
    cof = m // h
    for p, _ in (factorize(cof).factors if cof > 1 else ()):
        assert abs(d0) % p == 0


def test_multiplicative_series_is_the_product_over_prime_powers():
    """Every M <= 300 against the product of local over factorize; local is
    called once per prime power p^e <= M and for nothing else."""
    def local(p, e):
        calls.append(p**e)
        return 10 * p + e  # distinct at each prime power, as e < 10 here
    for M in range(301):
        calls = []
        series = multiplicative_series(M, local)
        want = [0, 1][: M + 1]
        for n in range(2, M + 1):
            want.append(math.prod(10 * p + e for p, e in factorize(n).factors))
        assert series == want, M
        powers = [n for n in range(2, M + 1) if len(factorize(n).factors) == 1]
        assert sorted(calls) == powers, M


@pytest.mark.parametrize("call, error, message", [
    (lambda: sqrt_count(5, 0), DomainError, "modulus must be nonzero"),
    (lambda: sqrt_roots(5, 0), DomainError, "modulus must be nonzero"),
    (lambda: sqrt_count_direct(5, 0), DomainError, "modulus must be nonzero"),
    (lambda: kronecker(3, 0), DomainError, "kronecker implemented for positive n"),
    (lambda: mobius(0), RangeError, "mobius is defined for n >= 1"),
    (lambda: congruence.valuation(0, 3), RangeError, "valuation of 0 is undefined"),
    (lambda: hat(0, 5), DomainError, "hat expects m >= 1"),
    (lambda: congruence.solve_linear(2, 1, 4), DomainError, "2*x = 1 (mod 4) has no solution"),
], ids=["sqrt_count", "sqrt_roots", "sqrt_count_direct", "kronecker", "mobius",
        "valuation", "hat", "solve_linear"])
def test_out_of_domain_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
