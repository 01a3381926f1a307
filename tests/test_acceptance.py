"""Acceptance gate: the eight shipping criteria, one labeled line each.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible in the
failure report when red, and via -rA / -s when green); the -v test names
double as the per-criterion report.  Three closed forms, as usually
printed, are refuted by direct counting: the odd local factor and the
three-variable series identity (criteria 7 and 3), and the constant-fiber
aggregate (criterion 5).  For each, a literal clause builds the printed
form exactly as stated, compares it with direct counting, and asserts the
characterized way it fails; it prints the first counterexample.  A green
supplement checks the corrected form that the verifier findings carry.
Every clause is expected to pass.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from cubezeta.congruence import (
    chi,
    hat,
    is_discriminant,
    is_fundamental,
    sqrt_count,
    sqrt_count_direct,
    squarefree_split,
)
from cubezeta.cube import (
    Cube,
    act,
    act_word,
    forms,
    invariants,
    is_semistable,
    orbit_count_oracle,
    shear1,
    shear2,
    sl2,
)
from cubezeta.identities import (
    convolve,
    _series_p_tilde2,
    _series_zeta,
    convolve_bi,
    verify_cor24,
    verify_prop21,
    verify_prop25,
    verify_thm12,
)
from cubezeta.orbits import B
from cubezeta.ppart import specialization_check, thm44_check
from cubezeta.quadring import (
    IdealClassPair,
    classes_with_norm,
    fiber_count,
    ideal_class_pairs,
    pair_fiber,
    pair_from_cube,
)
from cubezeta.wmds import a_coeff3, tilde_a

SEED = 20260813

ODD_DISCRIMINANTS_297 = tuple(
    D for D in range(-297, 298) if D % 2 != 0 and is_discriminant(D)
)


def _line(n: int, ok: bool, note: str) -> bool:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {note}")
    return ok


def _zeta_odd_2s(M: int) -> list:
    """zeta_odd(2s) = sum over odd j of j^(-2s): coefficient 1 at each odd square."""
    out = [0] * (M + 1)
    for j in range(1, math.isqrt(M) + 1, 2):
        out[j * j] = 1
    return out


def _printed_factor(D: int, M: int) -> list:
    """The printed per-variable factor P_tilde2 * zeta = (2 - 2*4^(-s)) zeta(s)."""
    return convolve(_series_p_tilde2(D, M), _series_zeta(M))


# ---------------------------------------------------------------------------
# 1. Orbit-count formula == independent enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_formula_matches_enumeration():
    t0 = time.perf_counter()
    bad, unstable, checked = [], [], 0
    for D in range(-60, 61):
        if not is_discriminant(D):
            continue
        for m in range(1, 6):
            for n in range(m, 6):
                result = orbit_count_oracle(D, m, n)
                checked += 1
                if not result.stable:
                    unstable.append((D, m, n))
                if result.count != B(D, m, n):
                    bad.append((D, m, n, result.count, B(D, m, n)))
                assert B(D, n, m) == B(D, m, n)
    elapsed = time.perf_counter() - t0
    ok = not bad and not unstable and elapsed < 300
    assert _line(
        1,
        ok,
        f"enumeration == formula on {checked} cells (|D|<=60, m<=n<=5), "
        f"all counts stable under bound growth ({elapsed:.1f}s)",
    ), {"bad": bad[:3], "unstable": unstable[:3], "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 2. Fundamental discriminants: the count is a plain product
# ---------------------------------------------------------------------------


def test_criterion_2_fundamental_product_form():
    t0 = time.perf_counter()
    bad, checked = [], 0
    for D in range(-200, 201):
        if not is_discriminant(D) or not is_fundamental(D):
            continue
        row = [0] + [sqrt_count(D, 4 * m) for m in range(1, 41)]
        for m in range(1, 41):
            for n in range(1, 41):
                checked += 1
                if B(D, m, n) != row[m] * row[n]:
                    bad.append((D, m, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    assert _line(
        2,
        ok,
        f"B == A(D,4m)*A(D,4n) on {checked} fundamental cells "
        f"(|D|<=200, m,n<=40) ({elapsed:.1f}s)",
    ), {"bad": bad[:3], "elapsed": elapsed}


# ---------------------------------------------------------------------------
# 3. The three-variable series identity at prime-free truncation M=64
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def thm12_reports():
    t0 = time.perf_counter()
    reports = [(D, verify_thm12(D, 64)) for D in ODD_DISCRIMINANTS_297]
    return reports, time.perf_counter() - t0


def test_criterion_3_literal_printed_series_identity(thm12_reports):
    """The printed right side is B convolved with zeta_odd(2s) per variable.

    It is built exactly as stated: the twisted rank-3 grid
    chi(hat m) chi(hat n) a3(D, m, n), convolved in each variable by the
    printed factor.  It overcounts by the zeta_odd(2s) factor in each
    variable, so it first disagrees with B at (m, n) = (1, 9), where it
    adds B(D, 1, 1) = 4; the verifier must report exactly that mismatch.
    """
    reports, fixture_elapsed = thm12_reports
    t0 = time.perf_counter()
    M = 64
    odd_squares = _zeta_odd_2s(M)
    not_overcount, first_elsewhere, verifier_off = [], [], []
    first_shown = None
    for D, report in reports:
        direct = [[0] * (M + 1)] + [
            [0] + [B(D, m, n) for n in range(1, M + 1)] for m in range(1, M + 1)
        ]
        twist = [0] + [chi(D, hat(m, D)) for m in range(1, M + 1)]
        twisted = [[0] * (M + 1)] + [
            [0] + [twist[m] * twist[n] * a_coeff3(D, m, n) for n in range(1, M + 1)]
            for m in range(1, M + 1)
        ]
        factor = _printed_factor(D, M)
        printed = convolve_bi(twisted, factor, factor)
        if printed != convolve_bi(direct, odd_squares, odd_squares):
            not_overcount.append(D)
        first = next(
            (
                {"m": m, "n": n, "lhs": direct[m][n], "rhs": printed[m][n]}
                for m in range(1, M + 1)
                for n in range(1, M + 1)
                if direct[m][n] != printed[m][n]
            ),
            None,
        )
        if first is None or (first["m"], first["n"]) != (1, 9):
            first_elsewhere.append((D, first))
        if report.first_mismatch != first:
            verifier_off.append((D, report.first_mismatch, first))
        first_shown = first_shown or (D, first)
    elapsed = fixture_elapsed + time.perf_counter() - t0
    total = len(reports)
    ok = not (not_overcount or first_elsewhere or verifier_off) and elapsed < 120
    D0, mm = first_shown
    assert _line(
        3,
        ok,
        "literal printed form: printed right side == B convolved with "
        f"zeta_odd(2s) per variable at every (m, n) <= {M} on "
        f"{total - len(not_overcount)}/{total} odd discriminants |D|<=297; "
        f"first disagreement at (1, 9) on {total - len(first_elsewhere)}/{total} "
        f"(first: D={D0}, {mm}); verifier first_mismatch agrees on "
        f"{total - len(verifier_off)}/{total} ({elapsed:.1f}s)",
    ), {
        "not_overcount": not_overcount[:3],
        "first_elsewhere": first_elsewhere[:3],
        "verifier_off": verifier_off[:3],
        "elapsed": elapsed,
    }


def test_criterion_3_supplement_corrected_series_identity(thm12_reports):
    reports, elapsed = thm12_reports
    unexplained = [D for D, r in reports if r.status == "mismatch"]
    ok = not unexplained and elapsed < 120
    assert _line(
        3,
        ok,
        f"corrected form (odd-square damping per variable) matches direct "
        f"counting at M=64 on all {len(reports)} odd discriminants |D|<=297 "
        f"({elapsed:.1f}s)",
    ), unexplained[:5]


# ---------------------------------------------------------------------------
# 4. Closed form of the prime-part generating function
# ---------------------------------------------------------------------------


def test_criterion_4_prime_part_closed_form():
    t0 = time.perf_counter()
    poly = thm44_check(8)
    spec = specialization_check(6)
    elapsed = time.perf_counter() - t0
    ok = poly.status == spec.status == "equal" and elapsed < 120
    assert _line(
        4,
        ok,
        "closed form == diagonal convolution as polynomials in p up to "
        f"degree 8, and == arithmetic coefficients at p in {spec.params['primes']} "
        f"up to degree 6 ({elapsed:.1f}s)",
    ), {"poly": poly, "spec": spec}


# ---------------------------------------------------------------------------
# 5. Counting cubes by oriented ideal-class pairs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def class_pair_scan():
    """Both class-pair aggregates against B on every cell |D|<=500, a<=30.

    The constant-fiber aggregate weights every ordered pair of oriented
    classes by sigma_1(gcd(D1, a1, a2)); the per-pair aggregate sums
    pair_fiber over the same pairs.  Records the first cell, in scan order,
    of each kind of disagreement.
    """
    t0 = time.perf_counter()
    scan = {
        "cells": 0,
        "refuted": 0,
        "first_sigma": None,
        "coprime_refuted": None,
        "below_B": None,
        "exact_bad": None,
    }
    for D in range(-500, 501):
        if not is_discriminant(D):
            continue
        _, D1 = squarefree_split(D)
        per_norm = {
            a: classes_with_norm(D, -a) + classes_with_norm(D, a)
            for a in range(1, 31)
        }
        for a1 in range(1, 31):
            for a2 in range(1, 31):
                scan["cells"] += 1
                b_value = B(D, a1, a2)
                c1s, c2s = per_norm[a1], per_norm[a2]
                sigma_sum = fiber_count(D, a1, a2) * len(c1s) * len(c2s)
                cell = (D, a1, a2, sigma_sum, b_value)
                if sigma_sum != b_value:
                    scan["refuted"] += 1
                    scan["first_sigma"] = scan["first_sigma"] or cell
                    if math.gcd(D1, a1, a2) == 1:
                        scan["coprime_refuted"] = scan["coprime_refuted"] or cell
                    if sigma_sum < b_value:
                        scan["below_B"] = scan["below_B"] or cell
                exact = sum(
                    pair_fiber(IdealClassPair(D, c1, c2)) for c1 in c1s for c2 in c2s
                )
                if exact != b_value and scan["exact_bad"] is None:
                    scan["exact_bad"] = (D, a1, a2, exact, b_value)
    scan["elapsed"] = time.perf_counter() - t0
    return scan


def test_criterion_5_literal_constant_fiber_aggregate(class_pair_scan):
    """The constant-fiber aggregate only overcounts, and only if gcd(D1, a1, a2) > 1.

    On the grid it equals B on every cell with gcd(D1, a1, a2) = 1 and never
    falls below B.  It is refuted at (D, a1, a2) = (-4, 2, 2), the smallest
    counterexample, and at (9, 9, 9), where the orbit oracle confirms B by
    enumeration.
    """
    scan = class_pair_scan
    t0 = time.perf_counter()
    witnesses = []
    for D, a1, a2 in ((-4, 2, 2), (9, 9, 9)):
        sigma_sum = fiber_count(D, a1, a2) * len(ideal_class_pairs(D, a1, a2))
        oracle = orbit_count_oracle(D, a1, a2)
        refuted = (
            oracle.stable and oracle.count == B(D, a1, a2) and sigma_sum != oracle.count
        )
        witnesses.append((D, a1, a2, sigma_sum, oracle.count, refuted))
    elapsed = scan["elapsed"] + time.perf_counter() - t0
    ok = (
        scan["first_sigma"] is not None
        and scan["coprime_refuted"] is None
        and scan["below_B"] is None
        and all(w[-1] for w in witnesses)
        and elapsed < 120
    )
    D, a1, a2, got, want = scan["first_sigma"] or (None,) * 5
    coprime = scan["coprime_refuted"]
    below = scan["below_B"]
    shown = "; ".join(f"({w[0]},{w[1]},{w[2]}): {w[3]} != {w[4]}" for w in witnesses)
    assert _line(
        5,
        ok,
        "literal constant-fiber form: aggregate sigma_1(gcd(D1,a1,a2)) * #pairs "
        f"disagrees with B on {scan['refuted']}/{scan['cells']} cells, "
        + ("none" if coprime is None else f"first at {coprime[:3]}")
        + " with gcd(D1,a1,a2) = 1, "
        + ("never" if below is None else f"first at {below[:3]}")
        + f" below B; first at (D,a1,a2)=({D},{a1},{a2}): "
        f"{got} != {want}; oracle-confirmed B at {shown} "
        f"(grid |D|<=500, a<=30, {elapsed:.1f}s)",
    ), {
        "coprime_refuted": coprime,
        "below_B": below,
        "witnesses": witnesses,
        "elapsed": elapsed,
    }


def test_criterion_5_supplement_exact_fibers(class_pair_scan):
    scan = class_pair_scan
    ok = scan["exact_bad"] is None and scan["elapsed"] < 120
    assert _line(
        5,
        ok,
        f"per-pair fiber cardinalities aggregate to B on every cell "
        f"(grid |D|<=500, a<=30, {scan['cells']} cells, {scan['elapsed']:.1f}s)",
    ), scan["exact_bad"]


# ---------------------------------------------------------------------------
# 6. Square-root counting against direct enumeration
# ---------------------------------------------------------------------------


def test_criterion_6_square_root_counts():
    t0 = time.perf_counter()
    bad = []
    for d in range(-100, 101):
        for a in range(1, 257):
            if sqrt_count(d, a) != sqrt_count_direct(d, a):
                bad.append((d, a))
    for d in range(-100, 101):
        for a1, a2 in ((3, 4), (4, 9), (5, 8), (7, 9), (16, 27)):
            assert sqrt_count(d, a1 * a2) == sqrt_count(d, a1) * sqrt_count(d, a2)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    assert _line(
        6,
        ok,
        f"fast count == direct enumeration for |d|<=100, a<=256, and "
        f"multiplicative in the modulus ({elapsed:.1f}s)",
    ), bad[:5]


# ---------------------------------------------------------------------------
# 7. Local-factor identities for the two-variable series
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def prop25_reports():
    t0 = time.perf_counter()
    reports = [(D, verify_prop25(D, 100)) for D in ODD_DISCRIMINANTS_297]
    return reports, time.perf_counter() - t0


def test_criterion_7_p2_factor_reports():
    t0 = time.perf_counter()
    allowed = {"equal", "known_p2_discrepancy"}
    checked = 0
    for d in range(-200, 201):
        if not is_discriminant(d):
            continue
        for report in (verify_prop21(d, 200), verify_cor24(d, 200)):
            checked += 1
            assert report.status in allowed, (report.identity, d, report.status)
            if report.status != "equal":
                assert report.findings
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    assert _line(
        7,
        ok,
        f"two-variable local factors: {checked} reports (|d|<=200, M=200) all "
        f"equal-or-characterized-p2-defect, findings attached ({elapsed:.1f}s)",
    )


def test_criterion_7_literal_printed_odd_local_factor(prop25_reports):
    """The printed right side is the direct count convolved with zeta_odd(2s).

    It is built exactly as stated, (2 - 2*4^(-s)) zeta(s) times the twisted
    series tilde_a(D, m), and compared with the direct count A(D, 4m).  It
    overcounts by the zeta_odd(2s) factor, so it first disagrees at m = 9,
    where it adds A(D, 4) = 2; the verifier must report exactly that
    mismatch.
    """
    reports, fixture_elapsed = prop25_reports
    t0 = time.perf_counter()
    M = 100
    odd_squares = _zeta_odd_2s(M)
    not_overcount, first_elsewhere, verifier_off = [], [], []
    first_shown = None
    for D, report in reports:
        direct = [0] + [sqrt_count_direct(D, 4 * m) for m in range(1, M + 1)]
        twisted = [0] + [tilde_a(D, m) for m in range(1, M + 1)]
        printed = convolve(_printed_factor(D, M), twisted)
        if printed != convolve(direct, odd_squares):
            not_overcount.append(D)
        first = next(
            (
                {"n": m, "lhs": direct[m], "rhs": printed[m]}
                for m in range(1, M + 1)
                if direct[m] != printed[m]
            ),
            None,
        )
        if first is None or first["n"] != 9:
            first_elsewhere.append((D, first))
        if report.first_mismatch != first:
            verifier_off.append((D, report.first_mismatch, first))
        first_shown = first_shown or (D, first)
    elapsed = fixture_elapsed + time.perf_counter() - t0
    total = len(reports)
    ok = not (not_overcount or first_elsewhere or verifier_off) and elapsed < 120
    D0, mm = first_shown
    assert _line(
        7,
        ok,
        "literal printed form: printed odd local factor == direct count "
        f"convolved with zeta_odd(2s) at every m <= {M} on "
        f"{total - len(not_overcount)}/{total} odd discriminants |D|<=297; "
        f"first disagreement at m = 9 on {total - len(first_elsewhere)}/{total} "
        f"(first: D={D0}, {mm}); verifier first_mismatch agrees on "
        f"{total - len(verifier_off)}/{total} ({elapsed:.1f}s)",
    ), {
        "not_overcount": not_overcount[:3],
        "first_elsewhere": first_elsewhere[:3],
        "verifier_off": verifier_off[:3],
        "elapsed": elapsed,
    }


def test_criterion_7_supplement_corrected_odd_local_factor(prop25_reports):
    reports, elapsed = prop25_reports
    unexplained = [D for D, r in reports if r.status == "mismatch"]
    ok = not unexplained and elapsed < 120
    assert _line(
        7,
        ok,
        f"corrected odd local factor matches direct counting on all "
        f"{len(reports)} odd discriminants |D|<=297, M=100 ({elapsed:.1f}s)",
    ), unexplained[:5]


# ---------------------------------------------------------------------------
# 8. Structural invariants on seeded random data
# ---------------------------------------------------------------------------


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


def _only_the_identity_fixes(A) -> bool:
    """The three steps of the stabilizer lemma in the cube module docstring, on A.

    A shear by 1 in factor 1 moves Q1.b by -2m and keeps Q2 and Q3, one in
    factor 2 moves Q2.b by -2n and keeps Q1 and Q3, and some 2x2 minor of
    M3 = [[a, e], [b, f]] and N3 = [[c, g], [d, h]] read as rows is nonzero.
    """
    (q1, q2, q3), (_, m, n) = forms(A), invariants(A)
    M3, N3 = (A.a, A.e, A.b, A.f), (A.c, A.g, A.d, A.h)
    return (
        forms(act(shear1(1), A)) == ((m, q1.b - 2 * m, q1(-1, 1)), q2, q3)
        and forms(act(shear2(1), A)) == (q1, (n, q2.b - 2 * n, q2(-1, 1)), q3)
        and any(M3[i] * N3[j] - M3[j] * N3[i] for i in range(4) for j in range(i + 1, 4))
    )


def test_criterion_8_structural_invariants():
    t0 = time.perf_counter()
    rng = random.Random(SEED)

    for _ in range(10_000):
        A = Cube(*(rng.randint(-4, 4) for _ in range(8)))
        f1, f2, f3 = forms(A)
        D = f1.discriminant()
        assert f2.discriminant() == D and f3.discriminant() == D
        assert D % 4 in (0, 1)

    checked_pairs = 0
    while checked_pairs < 1_000:
        A = Cube(*(rng.randint(-3, 3) for _ in range(8)))
        if not is_semistable(A):
            continue
        checked_pairs += 1
        moved = act_word(_random_word(rng, 4), A)
        assert invariants(moved) == invariants(A)
        assert pair_from_cube(moved) == pair_from_cube(A)

    checked_stab = 0
    while checked_stab < 100:
        A = Cube(*(rng.randint(-3, 3) for _ in range(8)))
        if not is_semistable(A):
            continue
        checked_stab += 1
        assert _only_the_identity_fixes(A), A

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    assert _line(
        8,
        ok,
        "10^4 cubes share one discriminant = 0,1 mod 4 across all three "
        "slicings; invariants and class pairs constant along 10^3 random "
        f"orbit moves; trivial stabilizers on 100 samples ({elapsed:.1f}s)",
    )
