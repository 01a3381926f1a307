"""Exact Dirichlet-series coefficient arithmetic and identity checks.

A series is held as its coefficient array c[1..M] (integers or Fractions;
index 0 unused).  Products of Dirichlet series become divisor convolutions
of the arrays, so every identity here is checked coefficientwise in exact
arithmetic up to the cutoff M.

The checks:

* ``verify_prop21`` -- the square-root-count series sum_a A(d, a) a^{-s}
  against its closed-form factorization zeta(2s)^{-1} zeta(s) L(s, chi_d)
  P(d, s).  The usual printed 2-adic factor of P disagrees with direct
  counting (wrong sign inside the middle term's denominator); the check
  reports this and also compares against the corrected factor.
* ``verify_cor24`` -- same for the subseries over multiples of 4,
  sum_a A(d, 4a) a^{-s}.  The usual printed prefactor 4^s is off by 2^s
  (the bracket vanishes only to first order at q = 2^{-s}); the printed
  object is not a Dirichlet series at all.  The check documents this and
  verifies the 2^s-corrected form.
* ``verify_prop25`` -- for odd d: the same subseries against
  (2 - 2*4^{-s}) zeta(s) times the character-twisted coefficient series.
  As usually stated the right side is missing one factor: the twisted
  coefficients interpolate with an extra zeta_odd(2s) built in (per odd
  prime, the twisted local series is 1/(1-q^2) times the first-difference
  one), so equality needs an extra factor sum over odd j of mu(j) j^{-2s}.
  The check reports the defect and verifies the corrected form.
* ``verify_thm12`` -- the bivariate version: the grid B(D, m, n) against the
  double convolution of the twisted rank-3 coefficients by
  (2 - 2*4^{-s}) zeta(s) in each variable; the same missing factor applies
  per variable and is handled the same way.

``partial_sum`` evaluates truncations of the full three-variable sum
sum_D sum_{m,n} B(D, m, n) m^{-s1} n^{-s2} |D|^{-w} in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .congruence import (
    DomainError,
    RangeError,
    chi,
    discriminant_data,
    hat,
    kronecker,
    mobius,
    sqrt_count,
)
from .orbits import B
from .wmds import a_coeff, a_coeff3

Coeffs = list  # c[0] unused; c[1..M] are the coefficients


def coeffs_zero(M: int) -> Coeffs:
    if M < 1:
        raise RangeError("cutoff M must be >= 1")
    return [0] * (M + 1)


def convolve(F: Coeffs, G: Coeffs) -> Coeffs:
    """Dirichlet convolution: (F*G)[n] = sum_{d | n} F[d] G[n/d]."""
    M = len(F) - 1
    if len(G) - 1 != M:
        raise DomainError("coefficient arrays must share a cutoff")
    out = coeffs_zero(M)
    for d in range(1, M + 1):
        fd = F[d]
        if fd == 0:
            continue
        for q in range(1, M // d + 1):
            if G[q]:
                out[d * q] += fd * G[q]
    return out


def convolve_many(*arrays: Coeffs) -> Coeffs:
    out = arrays[0]
    for arr in arrays[1:]:
        out = convolve(out, arr)
    return out


def convolve_bi(H, g1: Coeffs, g2: Coeffs):
    """Per-variable Dirichlet convolution of a grid H[m][n] by g1, g2.

    Returns H'[m][n] = sum_{d1 | m, d2 | n} g1[d1] g2[d2] H[m/d1][n/d2].
    """
    M = len(H) - 1
    mid = [[0] * (M + 1) for _ in range(M + 1)]
    for d in range(1, M + 1):
        gd = g1[d]
        if gd == 0:
            continue
        for q in range(1, M // d + 1):
            row = H[q]
            tgt = mid[d * q]
            for n in range(1, M + 1):
                if row[n]:
                    tgt[n] += gd * row[n]
    out = [[0] * (M + 1) for _ in range(M + 1)]
    for d in range(1, M + 1):
        gd = g2[d]
        if gd == 0:
            continue
        for q in range(1, M // d + 1):
            for m in range(1, M + 1):
                v = mid[m][q]
                if v:
                    out[m][d * q] += gd * v
    return out


# ---------------------------------------------------------------------------
# Standard series
# ---------------------------------------------------------------------------


def _series_zeta(M: int) -> Coeffs:
    return [0] + [1] * M


def _series_zeta2s_inverse(M: int) -> Coeffs:
    out = coeffs_zero(M)
    k = 1
    while k * k <= M:
        out[k * k] = mobius(k)
        k += 1
    return out


def _series_zeta_odd_2s_inverse(M: int) -> Coeffs:
    """prod_{p odd} (1 - p^{-2s}): coefficient mu(j) at j^2 for odd j."""
    out = coeffs_zero(M)
    for j in range(1, M + 1, 2):
        if j * j > M:
            break
        out[j * j] = mobius(j)
    return out


def _series_l_chi(d: int, M: int) -> Coeffs:
    out = coeffs_zero(M)
    for n in range(1, M + 1):
        out[n] = chi(d, n)
    return out


def _series_two_factor(M: int) -> Coeffs:
    """2 * (1 - 4^{-s})."""
    out = coeffs_zero(M)
    out[1] = 2
    if M >= 4:
        out[4] = -2
    return out


def _series_p_tilde2(D: int, M: int) -> Coeffs:
    """2-adic factor for odd discriminants: 2(1 - 4^{-s}) if D = 1 mod 4, else 0."""
    if D % 2 == 0:
        raise DomainError("this factor is defined for odd D")
    if D % 4 == 1:
        return _series_two_factor(M)
    return coeffs_zero(M)


def _dyadic_to_coeffs(poly: list, M: int) -> Coeffs:
    """Place a polynomial in q = 2^{-s} onto the integers: q^j -> n = 2^j."""
    out = coeffs_zero(M)
    n = 1
    for c in poly:
        if n > M:
            break
        out[n] = c
        n *= 2
    return out


def _odd_part_series(d: int, M: int, data=None) -> Coeffs:
    """Product over odd primes p of the closed-form p-factor of P(d, s).

    Factor at p (alpha = alpha_p of d): p^alpha q^{2 alpha}
    + (1 - chi_d(p) q) sum_{l < alpha} p^l q^{2l}, with q = p^{-s}.
    """
    data = data or discriminant_data(d)
    out = coeffs_zero(M)
    out[1] = 1
    for p, alpha in sorted(data.alpha_map.items()):
        if p == 2:
            continue
        chi_p = kronecker(data.dstar, p)
        poly = [0] * (2 * alpha + 1)
        poly[2 * alpha] += p**alpha
        for l in range(alpha):
            poly[2 * l] += p**l
            poly[2 * l + 1] -= chi_p * p**l
        fac = coeffs_zero(M)
        n = 1
        j = 0
        while n <= M and j < len(poly):
            fac[n] = poly[j]
            n *= p
            j += 1
        out = convolve(out, fac)
    return out


def _printed_two_part(d: int, M: int) -> Coeffs:
    """The commonly printed 2-adic factor of P(d, s), expanded as far as M.

    With q = 2^{-s}, chi = chi_d(2), alpha = alpha_2(d):
    q(1 + chi)/(1 + q) + (1 - q)(1 - chi q)/(1 + q^2)
    + q(2q - chi) sum_{l <= alpha} 2^l q^{2l}.
    The middle term's denominator is the defect; direct counting requires
    (1 - q^2) there.
    """
    data = discriminant_data(d)
    alpha = data.alpha_map.get(2, 0)
    c2 = kronecker(data.dstar, 2)
    L = max(1, M.bit_length() + 2)
    poly = [0] * (L + 3)
    # q(1+chi)/(1+q) = (1+chi) * sum_{j>=1} (-1)^{j-1} q^j
    for j in range(1, L):
        poly[j] += (1 + c2) * (-1) ** (j - 1)
    # (1-q)(1-chi q)/(1+q^2): numerator [1, -(1+chi), chi] times sum (-1)^i q^{2i}
    num = [1, -(1 + c2), c2]
    for i in range(0, L, 2):
        s = (-1) ** (i // 2)
        for e, c in enumerate(num):
            if i + e < len(poly):
                poly[i + e] += s * c
    # q(2q - chi) sum_{l<=alpha} 2^l q^{2l}
    for l in range(alpha + 1):
        poly[2 * l + 1] += -c2 * 2**l
        poly[2 * l + 2] += 2 * 2**l
    return _dyadic_to_coeffs(poly, M)


def _corrected_two_part(d: int, M: int) -> Coeffs:
    """2-adic factor of P(d, s) that matches direct counting.

    1 + q(2q - chi) sum_{l <= alpha} 2^l q^{2l}  (q = 2^{-s}).
    """
    data = discriminant_data(d)
    alpha = data.alpha_map.get(2, 0)
    c2 = kronecker(data.dstar, 2)
    poly = [0] * (2 * alpha + 3)
    poly[0] = 1
    for l in range(alpha + 1):
        poly[2 * l + 1] += -c2 * 2**l
        poly[2 * l + 2] += 2 * 2**l
    return _dyadic_to_coeffs(poly, M)


def _p_prime_bracket(d: int) -> list:
    """Bracket of the multiples-of-4 subseries' 2-adic factor, in q = 2^{-s}.

    2q + (2q - chi) sum_{1 <= l <= alpha} 2^l q^{2l}; vanishes at q^0 but not
    q^1, so only one power of 2^s (not two) can be absorbed.
    """
    data = discriminant_data(d)
    alpha = data.alpha_map.get(2, 0)
    c2 = kronecker(data.dstar, 2)
    poly = [0] * (2 * alpha + 3)
    poly[1] = 2
    for l in range(1, alpha + 1):
        poly[2 * l] += -c2 * 2**l
        poly[2 * l + 1] += 2 * 2**l
    return poly


def _series_p_siegel(d: int, M: int) -> Coeffs:
    data = discriminant_data(d)
    return convolve(_odd_part_series(d, M, data), _printed_two_part(d, M))


def _series_p_prime(d: int, M: int) -> Coeffs:
    """Closed-form factor for the multiples-of-4 subseries (2^s-normalized).

    The printed normalization multiplies the bracket by 4^s, which would put
    coefficient mass at the non-integer index 1/2; this builder uses the
    2^s normalization that makes the factor a genuine Dirichlet series (the
    verifier reports the printed defect).
    """
    bracket = _p_prime_bracket(d)
    shifted = bracket[1:]  # multiply by 2^s: q^j -> q^{j-1}; bracket[0] == 0
    return convolve(_odd_part_series(d, M), _dyadic_to_coeffs(shifted, M))


_STANDARD = {
    "zeta": lambda M: _series_zeta(M),
    "zeta2s_inverse": lambda M: _series_zeta2s_inverse(M),
    "zeta_odd_2s_inverse": lambda M: _series_zeta_odd_2s_inverse(M),
    "two_factor": lambda M: _series_two_factor(M),
}

_STANDARD_D = {
    "L_chi": _series_l_chi,
    "P_siegel": _series_p_siegel,
    "P_prime": _series_p_prime,
    "P_tilde2": _series_p_tilde2,
}


def standard_series(name: str, M: int, d: int | None = None) -> Coeffs:
    """Coefficient arrays of the named standard series up to M.

    Names without a parameter: zeta, zeta2s_inverse, zeta_odd_2s_inverse,
    two_factor.  Names requiring the discriminant d: L_chi, P_siegel
    (printed closed form), P_prime (2^s-normalized closed form), P_tilde2.
    """
    if name in _STANDARD:
        return _STANDARD[name](M)
    if name in _STANDARD_D:
        if d is None:
            raise DomainError(f"series {name!r} needs the discriminant d")
        return _STANDARD_D[name](d, M)
    raise DomainError(f"unknown standard series {name!r}")


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    status: "equal" | "known_p2_discrepancy" | "known_odd_square_discrepancy"
    | "mismatch".  The two known_* values mean: the closed form as usually
    printed disagrees with direct counting, but a corrected closed form
    agrees everywhere checked; the defect is documented in findings rather
    than silently fixed.  "mismatch" means no characterized correction
    restores equality.
    """

    identity: str
    params: dict
    status: str
    first_mismatch: dict | None
    findings: tuple[str, ...] = ()


def _first_mismatch(lhs: Coeffs, rhs: Coeffs) -> dict | None:
    for n in range(1, len(lhs)):
        if lhs[n] != rhs[n]:
            return {"n": n, "lhs": lhs[n], "rhs": rhs[n]}
    return None


def _first_grid_mismatch(lhs, rhs) -> dict | None:
    for m in range(1, len(lhs)):
        for n in range(1, len(lhs)):
            if lhs[m][n] != rhs[m][n]:
                return {"m": m, "n": n, "lhs": lhs[m][n], "rhs": rhs[m][n]}
    return None


def _printed_then_corrected(
    identity: str, params: dict, lhs, printed, corrected, known: str,
    finding, form: str, find=_first_mismatch,
) -> IdentityReport:
    """Check a printed right side against lhs, then a corrected one.

    The corrected right side is built by corrected() only when the printed
    one fails.  Status "equal" when the printed form holds, ``known`` with
    the text finding(first printed mismatch) when only the corrected form
    holds, and "mismatch" when neither does.
    """
    mismatch = find(lhs, printed)
    if mismatch is None:
        return IdentityReport(identity, params, "equal", None)
    corr = find(lhs, corrected())
    if corr is None:
        return IdentityReport(identity, params, known, mismatch, (finding(mismatch),))
    where = f"(m, n)=({corr['m']}, {corr['n']})" if "m" in corr else f"n={corr['n']}"
    return IdentityReport(
        identity, params, "mismatch", mismatch,
        (f"{form} form also disagrees at {where}",),
    )


def verify_prop21(d: int, M: int) -> IdentityReport:
    """Check sum_a A(d, a) a^{-s} = zeta(2s)^{-1} zeta(s) L(s, chi_d) P(d, s).

    Ground truth is the direct count A(d, a) for a <= M.  The printed form
    of P's 2-adic factor is checked first; on disagreement the corrected
    factor (middle-term denominator 1 - 2^{-2s}) is checked as well.
    """
    if not (d != 0 and d % 4 in (0, 1)):
        raise DomainError("d must be a discriminant (nonzero, 0 or 1 mod 4)")
    lhs = coeffs_zero(M)
    for a in range(1, M + 1):
        lhs[a] = sqrt_count(d, a)
    base = convolve_many(
        _series_zeta2s_inverse(M), _series_zeta(M), _series_l_chi(d, M)
    )
    return _printed_then_corrected(
        "prop21",
        {"d": d, "M": M},
        lhs,
        convolve(base, _series_p_siegel(d, M)),
        lambda: convolve(
            base, convolve(_odd_part_series(d, M), _corrected_two_part(d, M))
        ),
        "known_p2_discrepancy",
        lambda mismatch: (
            "printed 2-adic factor disagrees with direct counting "
            f"(first at n={mismatch['n']}); middle term needs denominator "
            "1-2^(-2s) instead of 1+2^(-2s); corrected factor matches"
        ),
        "corrected",
    )


def verify_cor24(d: int, M: int) -> IdentityReport:
    """Check sum_a A(d, 4a) a^{-s} against its closed-form factorization.

    Ground truth is A(d, 4a) for a <= M.  The printed prefactor 4^s would
    shift the 2-adic bracket below exponent zero (the bracket starts at
    q^1, not q^2), which cannot be a Dirichlet series; this is reported as
    a finding, and the 2^s-normalized form is checked instead.
    """
    if not (d != 0 and d % 4 in (0, 1)):
        raise DomainError("d must be a discriminant (nonzero, 0 or 1 mod 4)")
    lhs = coeffs_zero(M)
    for a in range(1, M + 1):
        lhs[a] = sqrt_count(d, 4 * a)
    findings = []
    bracket = _p_prime_bracket(d)
    if bracket[0] == 0 and bracket[1] != 0:
        findings.append(
            "printed prefactor 4^s is off by 2^s: the 2-adic bracket is "
            f"2q + O(q^2) (coefficient {bracket[1]} at q^1), so 4^s times it "
            "has mass at the non-integer index 1/2; using prefactor 2^s"
        )
    rhs = convolve_many(
        _series_zeta2s_inverse(M),
        _series_zeta(M),
        _series_l_chi(d, M),
        _series_p_prime(d, M),
    )
    first = next((n for n in range(1, M + 1) if lhs[n] != rhs[n]), None)
    if first is None:
        status = "known_p2_discrepancy" if findings else "equal"
        return IdentityReport("cor24", {"d": d, "M": M}, status, None, tuple(findings))
    return IdentityReport(
        "cor24",
        {"d": d, "M": M},
        "mismatch",
        {"n": first, "lhs": lhs[first], "rhs": rhs[first]},
        tuple(findings),
    )


_ODD_SQUARE_NOTE = (
    "the twisted coefficient series already carries a zeta_odd(2s) factor "
    "(per odd prime p with chi(p) != 0 or p dividing D, the local twisted "
    "series is 1/(1-p^{-2s}) times the first difference of the local "
    "count series), so the stated right side overcounts first at m = 9; "
    "multiplying by prod_{p odd} (1 - p^{-2s}) restores equality"
)


def verify_prop25(D: int, M: int) -> IdentityReport:
    """For odd D: sum_m A(D, 4m) m^{-s} against (2 - 2*4^{-s}) zeta(s) X(D, s)

    where X has coefficients chi(D, hat(m)) a(D, m).  Both sides vanish
    identically when D = 3 mod 4.  For D = 1 mod 4 the stated right side
    is the left side times zeta_odd(2s) = sum over odd j of j^{-2s},
    coefficient by coefficient: at m it gives the sum of A(D, 4m/j^2) over
    odd j with j^2 | m.  So it first disagrees at m = 9, where it adds
    A(D, 4) = 2, and X needs to be damped by zeta_odd(2s)^{-1}.  The stated
    form is checked first; on disagreement the damped form is checked and
    the defect reported.
    """
    if D == 0 or D % 2 == 0:
        raise DomainError("D must be odd and nonzero")
    lhs = coeffs_zero(M)
    for m in range(1, M + 1):
        lhs[m] = sqrt_count(D, 4 * m)
    twisted = coeffs_zero(M)
    if D % 4 == 1:
        for m in range(1, M + 1):
            twisted[m] = chi(D, hat(m, D)) * a_coeff(D, m)
    base = convolve(_series_p_tilde2(D, M), _series_zeta(M))
    return _printed_then_corrected(
        "prop25",
        {"D": D, "M": M},
        lhs,
        convolve(base, twisted),
        lambda: convolve(convolve(base, _series_zeta_odd_2s_inverse(M)), twisted),
        "known_odd_square_discrepancy",
        lambda _: _ODD_SQUARE_NOTE,
        "damped",
    )


def verify_thm12(D: int, M: int) -> IdentityReport:
    """For odd D: the grid B(D, m, n) against the double convolution of the
    twisted rank-3 coefficient grid by (2 - 2*4^{-s}) zeta(s) per variable.

    Inherits the same defect as the single-variable identity, once per
    variable: the stated right side is the grid B convolved with
    zeta_odd(2s) in each variable, so it fails first at (m, n) = (1, 9),
    where it adds B(D, 1, 1) = 4, and damping each variable by
    zeta_odd(2s)^{-1} restores equality.
    """
    if D == 0 or D % 2 == 0:
        raise DomainError("D must be odd and nonzero")
    bgrid = [[0] * (M + 1) for _ in range(M + 1)]
    H = [[0] * (M + 1) for _ in range(M + 1)]
    if D % 4 == 1:
        chis = [0] + [chi(D, hat(m, D)) for m in range(1, M + 1)]
        for m in range(1, M + 1):
            for n in range(1, M + 1):
                bgrid[m][n] = B(D, m, n)
                H[m][n] = chis[m] * chis[n] * a_coeff3(D, m, n)
    factor = convolve(_series_p_tilde2(D, M), _series_zeta(M))
    damped = convolve(factor, _series_zeta_odd_2s_inverse(M))
    return _printed_then_corrected(
        "thm12",
        {"D": D, "M": M},
        bgrid,
        convolve_bi(H, factor, factor),
        lambda: convolve_bi(H, damped, damped),
        "known_odd_square_discrepancy",
        lambda _: _ODD_SQUARE_NOTE + " (applied once per variable)",
        "damped",
        find=_first_grid_mismatch,
    )


# ---------------------------------------------------------------------------
# Numeric partial sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialSumResult:
    value: float
    Dmax: int
    M: int
    converged_region: bool
    warnings: tuple[str, ...] = field(default=())


def partial_sum(s1: float, s2: float, w: float, Dmax: int, M: int) -> PartialSumResult:
    """Truncated sum_D sum_{m,n <= M} B(D, m, n) m^{-s1} n^{-s2} |D|^{-w}.

    D runs over nonzero discriminants with |D| <= Dmax, ascending.  Exact
    integer coefficients are combined in floats with math.fsum in a fixed
    deterministic order.  The converged_region flag is False (with a
    warning) when any exponent is <= 1, where the full series does not
    converge absolutely and truncations are heuristic.
    """
    warnings = []
    if min(s1, s2, w) <= 1:
        warnings.append(
            "exponents s1, s2, w <= 1 are outside the absolute-convergence "
            "region; the truncated value is heuristic"
        )
    terms = []
    for D in range(-Dmax, Dmax + 1):
        if D == 0 or D % 4 not in (0, 1):
            continue
        inner = []
        for m in range(1, M + 1):
            for n in range(1, M + 1):
                b = B(D, m, n)
                if b:
                    inner.append(b * m**-s1 * n**-s2)
        if inner:
            terms.append(math.fsum(inner) * abs(D) ** -w)
    return PartialSumResult(
        math.fsum(terms), Dmax, M, not warnings, tuple(warnings)
    )
