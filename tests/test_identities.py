"""Tests for Dirichlet-coefficient convolution and the identity verifiers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubezeta.congruence import (
    DomainError,
    RangeError,
    chi,
    fundamental_discriminant,
    is_discriminant,
    kronecker,
    mobius,
    sqrt_count,
    sqrt_count_direct,
    sqrt_count_series,
)
from cubezeta.identities import (
    _series_l_chi,
    _series_p_tilde2,
    _series_squarefree,
    _series_two_factor,
    _series_zeta,
    _series_zeta2s_inverse,
    _series_zeta_odd_2s_inverse,
    _siegel_top,
    _thm12_right_sides,
    convolve,
    convolve_bi,
    convolve_many,
    partial_sum,
    verify_cor24,
    verify_prop21,
    verify_prop25,
    verify_siegel,
    verify_thm12,
)
from cubezeta.report import IdentityReport, compare, first_mismatch
from cubezeta.wmds import a3_grid, twisted_series

M_SMALL = 30
coeff_arrays = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=M_SMALL + 1, max_size=M_SMALL + 1
).map(lambda xs: [0] + xs[1:])


def test_standard_series_frozen():
    assert _series_zeta(12) == [0] + [1] * 12
    z2 = _series_zeta2s_inverse(40)
    assert {i: v for i, v in enumerate(z2) if v} == {1: 1, 4: -1, 9: -1, 25: -1, 36: 1}
    zo = _series_zeta_odd_2s_inverse(240)
    assert {i: v for i, v in enumerate(zo) if v} == {
        1: 1, 9: -1, 25: -1, 49: -1, 121: -1, 169: -1, 225: 1,
    }
    tf = _series_two_factor(32)
    assert {i: v for i, v in enumerate(tf) if v} == {1: 2, 4: -2}


def test_squarefree_series_is_one_shared_tuple_per_cutoff():
    for M in (1, 40, 200):
        series = _series_squarefree(M)
        assert isinstance(series, tuple) and series is _series_squarefree(M)
        assert series == (0, *(mobius(n) ** 2 for n in range(1, M + 1))), M


def test_standard_series_l_chi_matches_character():
    for d in (5, -4, 12, -23):
        arr = _series_l_chi(d, 30)
        assert arr == [0] + [chi(d, n) for n in range(1, 31)]


def test_sieved_series_match_the_per_coefficient_functions():
    """A(d, a), A(d, 4a) and L(s, chi_d) from prime-power values, for |d| <= 100.

    The root counts are taken for every nonzero d: the discriminants, squares
    and p^2 | d among them, and the odd d = 3 mod 4 that prop25 reads.
    """
    for d in range(-100, 101):
        if d == 0:
            continue
        counts, counts4 = sqrt_count_series(d, 200, 1), sqrt_count_series(d, 200, 4)
        assert counts == [0] + [sqrt_count(d, a) for a in range(1, 201)], d
        assert counts4 == [0] + [sqrt_count(d, 4 * a) for a in range(1, 201)], d
        assert counts[:61] == [0] + [sqrt_count_direct(d, a) for a in range(1, 61)], d
        assert counts4[:61] == [0] + [sqrt_count_direct(d, 4 * a) for a in range(1, 61)], d
        if is_discriminant(d):
            dstar = fundamental_discriminant(d)
            assert _series_l_chi(d, 200) == [0] + [
                kronecker(dstar, n) for n in range(1, 201)
            ], d


def test_first_mismatch_at_depths_one_to_three():
    assert first_mismatch([0, 1, 2], [0, 1, 2], ("n",)) is None
    assert first_mismatch([5, 1], [4, 1], ("n",)) == {"n": 0, "lhs": 5, "rhs": 4}
    # row 1 differs at column 2, and the later row 2 at the earlier column 1
    lhs = [[0, 0, 0], [0, 1, 2], [0, 3, 4]]
    rhs = [[0, 0, 0], [0, 1, 9], [0, 8, 4]]
    assert first_mismatch(lhs, rhs, ("m", "n")) == {"m": 1, "n": 2, "lhs": 2, "rhs": 9}
    assert first_mismatch(lhs, lhs, ("m", "n")) is None
    # depth 3 with polynomial cells, as thm44 compares them
    lhs = [[[(1,), ()], [(0, 1), (2,)]], [[(), ()], [(), ()]]]
    rhs = [[[(1,), ()], [(0, 1), (3,)]], [[(), ()], [(5,), ()]]]
    assert first_mismatch(lhs, rhs, ("l", "k", "t")) == {
        "l": 0, "k": 1, "t": 1, "lhs": (2,), "rhs": (3,)}
    assert compare("x", {}, lhs, rhs, ("l", "k", "t")) == IdentityReport(
        "x", {}, "mismatch", {"l": 0, "k": 1, "t": 1, "lhs": (2,), "rhs": (3,)})
    assert compare("x", {}, lhs, lhs, ("l", "k", "t")) == IdentityReport("x", {}, "equal", None)


def test_first_mismatch_passes_over_an_equal_row_in_one_comparison():
    class Unscanned(list):
        def __iter__(self):
            raise AssertionError("an equal row was scanned")

    lhs = [Unscanned([1, 2]), [3, 4]]
    rhs = [Unscanned([1, 2]), [3, 5]]
    assert first_mismatch(lhs, rhs, ("m", "n")) == {"m": 1, "n": 1, "lhs": 4, "rhs": 5}


@pytest.mark.parametrize("lhs, rhs", [
    ([0, 1], [0, 1, 2]), ([0, 1, 2], [0, 1]), ([[0, 1]], [[0, 1, 2]]), ([[0]], [[0], [1]]),
])
def test_first_mismatch_rejects_arrays_of_unequal_length(lhs, rhs):
    names = ("m", "n") if isinstance(lhs[0], list) else ("n",)
    with pytest.raises(ValueError):
        first_mismatch(lhs, rhs, names)


@pytest.mark.parametrize("verify", [verify_prop21, verify_cor24, verify_prop25, verify_thm12])
@pytest.mark.parametrize("M", [0, -1])
def test_verifiers_reject_a_cutoff_below_one(verify, M):
    with pytest.raises(RangeError):
        verify(5, M)


@settings(max_examples=100)
@given(f=coeff_arrays, g=coeff_arrays)
def test_convolve_commutative(f, g):
    assert convolve(f, g) == convolve(g, f)


@settings(max_examples=60)
@given(f=coeff_arrays, g=coeff_arrays)
def test_convolve_is_the_divisor_sum_whichever_array_is_sparser(f, g):
    sparse = [v if n & (n - 1) == 0 else 0 for n, v in enumerate(g)]  # powers of 2 only
    for F, G in ((f, g), (g, f), (f, sparse), (sparse, f)):
        want = [0] + [sum(F[d] * G[n // d] for d in range(1, n + 1) if n % d == 0)
                      for n in range(1, M_SMALL + 1)]
        assert convolve(F, G) == want


@settings(max_examples=60)
@given(f=coeff_arrays, g=coeff_arrays, h=coeff_arrays)
def test_convolve_associative(f, g, h):
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@settings(max_examples=60)
@given(f=coeff_arrays)
def test_convolve_identity_element(f):
    delta = [0] * (M_SMALL + 1)
    delta[1] = 1
    assert convolve(f, delta) == f
    assert convolve_many(f) == f


def test_prop21_and_cor24_report_the_p2_defect_everywhere():
    for d in range(-60, 61):
        if not is_discriminant(d):
            continue
        for report in (verify_prop21(d, 60), verify_cor24(d, 60)):
            assert report.status == "known_p2_discrepancy", (report.identity, d)
            assert report.findings


def test_prop21_first_mismatch_frozen():
    report = verify_prop21(5, 60)
    assert report.first_mismatch == {"n": 4, "lhs": 2, "rhs": 0}
    assert "2-adic" in report.findings[0]
    assert report.params == {"d": 5, "M": 60}


def test_prop21_rejects_non_discriminant():
    with pytest.raises(DomainError):
        verify_prop21(3, 20)
    with pytest.raises(DomainError):
        verify_prop21(0, 20)


def test_prop25_reports_the_odd_square_defect_everywhere():
    for D in range(-99, 100):
        if D % 2 == 0 or not is_discriminant(D):
            continue
        report = verify_prop25(D, 100)
        assert report.status == "known_odd_square_discrepancy", D
        assert report.findings


def test_prop25_first_mismatch_frozen():
    report = verify_prop25(5, 100)
    assert report.first_mismatch == {"n": 9, "lhs": 0, "rhs": 2}


def test_prop25_rejects_even_D():
    with pytest.raises(DomainError):
        verify_prop25(-4, 40)


def test_thm12_reports_the_odd_square_defect():
    for D in (-3, 5, -23, 45):
        report = verify_thm12(D, 24)
        assert report.status == "known_odd_square_discrepancy", D
        assert report.first_mismatch["m"] == 1
        assert report.first_mismatch["n"] == 9
    with pytest.raises(DomainError):
        verify_thm12(-4, 24)


def test_thm12_right_sides_from_level_vectors_match_the_grid_convolution():
    """Both right sides equal convolve_bi on the explicit twisted a3 grid.

    Every odd D with |D| <= 99 at M = 30, and two D with many levels:
    -675 = -3 * 15^2 and 2025 = 45^2, whose levels d | 15 and d | 45 all
    lie in the box at M = 48.
    """
    cases = [(D, 30) for D in range(-99, 100, 2)] + [(-675, 48), (2025, 48)]
    for D, M in cases:
        twisted = [[0] * (M + 1) for _ in range(M + 1)]
        if D % 4 == 1:
            chis = twisted_series(D, M, coefficient=False)
            twisted = [[cm * cn * a for cn, a in zip(chis, row)]
                       for cm, row in zip(chis, a3_grid(D, M))]
        factor = convolve(_series_p_tilde2(D, M), _series_zeta(M))
        damp = _series_zeta_odd_2s_inverse(M)
        printed = convolve_bi(twisted, factor, factor)
        assert _thm12_right_sides(D, M) == (printed, convolve_bi(printed, damp, damp)), D


@pytest.mark.parametrize("verify", [verify_prop25, verify_thm12])
def test_odd_checks_reject_a_cutoff_below_one_at_D_3_mod_4(verify):
    # both sides vanish there, and no level vector is built
    with pytest.raises(RangeError):
        verify(-5, 0)


def test_partial_sum_deterministic_and_monotone():
    a = partial_sum(1.5, 1.5, 1.5, 20, 20)
    assert a == partial_sum(1.5, 1.5, 1.5, 20, 20)
    assert a.converged_region
    assert a.warnings == ()
    assert partial_sum(1.5, 1.5, 1.5, 40, 20).value >= a.value
    assert partial_sum(1.5, 1.5, 1.5, 20, 40).value >= a.value


def test_partial_sum_warns_outside_convergence_region():
    result = partial_sum(0.9, 1.5, 1.5, 20, 20)
    assert not result.converged_region
    assert result.warnings


def test_verify_siegel_small_sweep():
    for d in (D for D in range(-60, 61) if D and D % 4 in (0, 1)):
        for p in (2, 3, 5, 7):
            rep = verify_siegel(d, p, 10)
            assert rep.status == "equal", (d, p, rep.first_mismatch)


def test_verify_siegel_at_a_prime_whose_fifth_power_passes_the_63_bit_cap():
    # 6211^5 >= 2^63 caps T at 4; for odd p the least T is v_p(d) + 2 = 3
    rep = verify_siegel(-6211, 6211, 12)
    assert (rep.status, rep.params["T"]) == ("equal", 4)


def test_siegel_top_degree_is_the_largest_below_the_63_bit_cap():
    # every prime below 10^4, by a sieve, against the largest T whose
    # modulus read, p^T or 2^(T+1) at p = 2, is below 2^63
    sieve = [True] * 10**4
    for n in range(2, 100):
        sieve[n * n::n] = [False] * len(sieve[n * n::n])
    for p in (n for n in range(2, 10**4) if sieve[n]):
        want = max(T for T in range(64) if p ** (T + (p == 2)) < 2**63)
        assert _siegel_top(p) == want, p


@pytest.mark.parametrize("call, error, message", [
    (lambda: convolve([0, 1, 2], [0, 1]), DomainError, "coefficient arrays must share a cutoff"),
    (lambda: _series_p_tilde2(4, 10), DomainError, "this factor is defined for odd D"),
    # 2097169 is prime, and 2097169**3 > 2**63, so the degree cap there is 2
    (lambda: verify_siegel(4 * 2097169, 2097169, 12), RangeError,
     "T must be at least v_p(d) + 2, or v_p(d) + 4 at p = 2"),
], ids=["convolve", "series_p_tilde2", "verify_siegel"])
def test_out_of_domain_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
