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
  per variable and is handled the same way.  The twisted grid is a sum over
  the levels d of a3 of d times an outer product u_d u_d^T, and convolution
  is bilinear, so the right side is the same sum over the products of the
  1-D convolutions u_d * f; no M x M grid is convolved.  ``convolve_bi``,
  which convolves a grid in each variable, stays as the 2-D route that the
  tests compare against.
* ``verify_siegel`` -- the closed form of the p-part series
  sum_l A(d, p^l) q^l as a polynomial identity in q, for one prime p.

Each local factor is a polynomial in q = p^{-s} built in one place: the odd
p-factor, the 2-adic tail, the local data (alpha, chi) they read, and the
placing of a q-polynomial on the powers of p.

The multiplicative series are built in one pass from their values at prime
powers by ``congruence.multiplicative_series``: the left sides A(d, a) and
A(d, 4a) of ``congruence.sqrt_count_series``, read from ``sqrt_count`` at
prime powers only, the L-series of chi_d, and the twisted series of
``wmds.twisted_series``.  Every right side
is still a coefficientwise convolution, never an Euler product.  Each
check finds where its two sides first differ with ``report.first_mismatch``
and reports in ``IdentityReport``, which is re-exported here.

``partial_sum`` evaluates truncations of the full three-variable sum
sum_D sum_{m,n} B(D, m, n) m^{-s1} n^{-s2} |D|^{-w} in floats.

``orbits`` and ``wmds`` are imported inside the functions that read them
(prop25, thm12 and ``partial_sum``), so prop21, cor24 and siegel run
neither module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .congruence import (
    DomainError,
    RangeError,
    discriminant_data,
    fundamental_discriminant,
    kronecker,
    level_grid,
    mobius,
    multiplicative_series,
    require_discriminant,
    sqrt_count,
    sqrt_count_series,
    valuation,
)
from .report import IdentityReport, compare, first_mismatch  # IdentityReport is re-exported

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
    if F.count(0) < G.count(0):
        F, G = G, F  # the product commutes; the outer loop runs over the support of F
    out = coeffs_zero(M)
    for d in compress(range(1, M + 1), F[1:]):
        fd = F[d]
        for q in range(1, M // d + 1):
            g = G[q]
            if g:
                out[d * q] += fd * g
    return out


def convolve_many(*arrays: Coeffs) -> Coeffs:
    out = arrays[0]
    for arr in arrays[1:]:
        out = convolve(out, arr)
    return out


def convolve_bi(H, g1: Coeffs, g2: Coeffs):
    """Per-variable Dirichlet convolution of a grid H[m][n] by g1, g2.

    Returns H'[m][n] = sum_{d1 | m, d2 | n} g1[d1] g2[d2] H[m/d1][n/d2].
    All-zero rows, and so an all-zero grid, are skipped.
    """
    M = len(H) - 1
    rows = [q for q in range(1, M + 1) if any(H[q])]
    mid = [[0] * (M + 1) for _ in range(M + 1)]
    for d in range(1, M + 1):
        gd = g1[d]
        if gd == 0:
            continue
        for q in rows:
            if d * q > M:
                break
            row = H[q]
            tgt = mid[d * q]
            for n in range(1, M + 1):
                if row[n]:
                    tgt[n] += gd * row[n]
    rows = [m for m in range(1, M + 1) if any(mid[m])]
    out = [[0] * (M + 1) for _ in range(M + 1)]
    for d in range(1, M + 1):
        gd = g2[d]
        if gd == 0:
            continue
        for q in range(1, M // d + 1):
            for m in rows:
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


@lru_cache(maxsize=2)
def _series_squarefree(M: int) -> tuple[int, ...]:
    """zeta(s) / zeta(2s): coefficient |mu(n)|, one shared tuple per M."""
    return tuple(convolve(_series_zeta2s_inverse(M), _series_zeta(M)))


def _series_zeta_odd_2s_inverse(M: int) -> Coeffs:
    """prod_{p odd} (1 - p^{-2s}): coefficient mu(j) at j^2 for odd j."""
    out = coeffs_zero(M)
    for j in range(1, M + 1, 2):
        if j * j > M:
            break
        out[j * j] = mobius(j)
    return out


def _series_l_chi(d: int, M: int) -> Coeffs:
    """L(s, chi_d): the Kronecker symbol of dstar is completely multiplicative."""
    coeffs_zero(M)  # raises RangeError when M < 1
    dstar = fundamental_discriminant(d)
    return multiplicative_series(M, lambda p, e: kronecker(dstar, p) ** e)


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


@lru_cache(maxsize=2)
def _series_rank3_factor(M: int) -> tuple[int, ...]:
    """(2 - 2*4^{-s}) zeta(s), one shared tuple per M.

    The factor _series_p_tilde2 * zeta of prop25 and thm12 at D = 1 mod 4;
    at D = 3 mod 4 that factor is the zero series.
    """
    return tuple(convolve(_series_two_factor(M), _series_zeta(M)))


# ---------------------------------------------------------------------------
# Local factors, as polynomials in q = p^{-s}
# ---------------------------------------------------------------------------


def _local_data(d: int, p: int) -> tuple[int, int]:
    """(alpha, chi) of the discriminant d at the prime p.

    p^(2 alpha) is the exact power of p dividing d/dstar, and chi = (dstar|p).
    """
    data = discriminant_data(d)
    return data.alpha_map.get(p, 0), kronecker(data.dstar, p)


def _odd_factor(p: int, alpha: int, chi_p: int) -> list:
    """p^alpha q^{2 alpha} + (1 - chi q) sum_{l < alpha} p^l q^{2l}."""
    poly = [0] * (2 * alpha + 1)
    poly[2 * alpha] = p**alpha
    for l in range(alpha):
        poly[2 * l] += p**l
        poly[2 * l + 1] -= chi_p * p**l
    return poly


def _two_tail(alpha: int, chi_2: int) -> list:
    """(2q - chi) sum_{l <= alpha} 2^l q^{2l}, with q = 2^{-s}."""
    poly = [0] * (2 * alpha + 2)
    for l in range(alpha + 1):
        poly[2 * l] = -chi_2 * 2**l
        poly[2 * l + 1] = 2 * 2**l
    return poly


def _place(poly: list, p: int, M: int) -> Coeffs:
    """A polynomial in q = p^{-s} as a Dirichlet series: q^j -> n = p^j."""
    out = coeffs_zero(M)
    n = 1
    for c in poly:
        if n > M:
            break
        out[n] = c
        n *= p
    return out


def _odd_part_series(d: int, M: int) -> Coeffs:
    """Product over odd primes p of the closed-form p-factor of P(d, s)."""
    out = coeffs_zero(M)
    out[1] = 1
    for p in sorted(discriminant_data(d).alpha_map):
        if p != 2:
            out = convolve(out, _place(_odd_factor(p, *_local_data(d, p)), p, M))
    return out


def _printed_two_part(d: int, M: int) -> Coeffs:
    """The commonly printed 2-adic factor of P(d, s), expanded as far as M.

    With q = 2^{-s}, chi = chi_d(2), alpha = alpha_2(d):
    q(1 + chi)/(1 + q) + (1 - q)(1 - chi q)/(1 + q^2)
    + q(2q - chi) sum_{l <= alpha} 2^l q^{2l}.
    The middle term's denominator is the defect; direct counting requires
    (1 - q^2) there.
    """
    alpha, c2 = _local_data(d, 2)
    L = max(1, M.bit_length() + 2)
    # q(2q - chi) sum_{l<=alpha} 2^l q^{2l}, with room for the two series below
    poly = [0] + _two_tail(alpha, c2) + [0] * (L + 2)
    # q(1+chi)/(1+q) = (1+chi) * sum_{j>=1} (-1)^{j-1} q^j
    for j in range(1, L):
        poly[j] += (1 + c2) * (-1) ** (j - 1)
    # (1-q)(1-chi q)/(1+q^2): numerator [1, -(1+chi), chi] times sum (-1)^i q^{2i}
    num = [1, -(1 + c2), c2]
    for i in range(0, L, 2):
        for e, c in enumerate(num):
            poly[i + e] += (-1) ** (i // 2) * c
    return _place(poly, 2, M)


def _corrected_two_part(d: int, M: int) -> Coeffs:
    """2-adic factor of P(d, s) that matches direct counting.

    1 + q(2q - chi) sum_{l <= alpha} 2^l q^{2l}  (q = 2^{-s}).
    """
    return _place([1] + _two_tail(*_local_data(d, 2)), 2, M)


def _series_p_prime(d: int, M: int) -> Coeffs:
    """Closed-form factor for the multiples-of-4 subseries (2^s-normalized).

    Its 2-adic bracket is 2q + (2q - chi) sum_{1 <= l <= alpha} 2^l q^{2l},
    which is chi plus the 2-adic tail: it vanishes at q^0 but not at q^1.
    The printed normalization multiplies it by 4^s, which would put
    coefficient mass at the non-integer index 1/2; this builder multiplies
    by 2^s (q^j -> q^{j-1}), which makes the factor a genuine Dirichlet
    series (the verifier reports the printed defect).
    """
    shifted = _two_tail(*_local_data(d, 2))[1:]
    return convolve(_odd_part_series(d, M), _place(shifted, 2, M))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _printed_then_corrected(
    identity: str, params: dict, lhs, printed, corrected, known: str,
    finding, form: str, names: tuple[str, ...],
) -> IdentityReport:
    """Check a printed right side against lhs, then a corrected one.

    The corrected right side is built by corrected() only when the printed
    one fails.  Status "equal" when the printed form holds, ``known`` with
    the text finding(first printed mismatch) when only the corrected form
    holds, and "mismatch" when neither does.  ``names`` name the indices
    of the arrays, as in ``first_mismatch``.
    """
    mismatch = first_mismatch(lhs, printed, names)
    if mismatch is None:
        return IdentityReport(identity, params, "equal", None)
    corr = first_mismatch(lhs, corrected(), names)
    if corr is None:
        return IdentityReport(identity, params, known, mismatch, (finding(mismatch),))
    keys, values = ", ".join(names), ", ".join(str(corr[name]) for name in names)
    where = f"{keys}={values}" if len(names) == 1 else f"({keys})=({values})"
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
    require_discriminant(d)
    lhs = sqrt_count_series(d, M, 1)
    base = convolve_many(_series_squarefree(M), _series_l_chi(d, M), _odd_part_series(d, M))
    return _printed_then_corrected(
        "prop21",
        {"d": d, "M": M},
        lhs,
        convolve(base, _printed_two_part(d, M)),
        lambda: convolve(base, _corrected_two_part(d, M)),
        "known_p2_discrepancy",
        lambda mismatch: (
            "printed 2-adic factor disagrees with direct counting "
            f"(first at n={mismatch['n']}); middle term needs denominator "
            "1-2^(-2s) instead of 1+2^(-2s); corrected factor matches"
        ),
        "corrected",
        ("n",),
    )


# The 2-adic bracket of every d starts 2q (see _series_p_prime), so the
# printed prefactor never holds and this finding goes with every report.
_PREFACTOR_NOTE = (
    "printed prefactor 4^s is off by 2^s: the 2-adic bracket is 2q + O(q^2) "
    "(coefficient 2 at q^1), so 4^s times it has mass at the non-integer "
    "index 1/2; using prefactor 2^s"
)


def verify_cor24(d: int, M: int) -> IdentityReport:
    """Check sum_a A(d, 4a) a^{-s} against its closed-form factorization.

    Ground truth is A(d, 4a) for a <= M.  The printed prefactor 4^s would
    shift the 2-adic bracket below exponent zero (the bracket starts at
    q^1, not q^2), which cannot be a Dirichlet series; this is reported as
    a finding, and the 2^s-normalized form is checked instead.
    """
    require_discriminant(d)
    lhs = sqrt_count_series(d, M, 4)
    rhs = convolve_many(_series_squarefree(M), _series_l_chi(d, M), _series_p_prime(d, M))
    mismatch = first_mismatch(lhs, rhs, ("n",))
    status = "mismatch" if mismatch else "known_p2_discrepancy"
    return IdentityReport("cor24", {"d": d, "M": M}, status, mismatch, (_PREFACTOR_NOTE,))


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
    from .wmds import twisted_series

    lhs = sqrt_count_series(D, M, 4)
    if D % 4 == 1:
        printed = convolve(_series_rank3_factor(M), twisted_series(D, M))
    else:  # the factor and the twisted series both vanish
        printed = coeffs_zero(M)
    return _printed_then_corrected(
        "prop25",
        {"D": D, "M": M},
        lhs,
        printed,
        lambda: convolve(printed, _series_zeta_odd_2s_inverse(M)),
        "known_odd_square_discrepancy",
        lambda _: _ODD_SQUARE_NOTE,
        "damped",
        ("n",),
    )


def _thm12_right_sides(D: int, M: int) -> tuple[list, list]:
    """The stated and the damped right side of thm12 for odd D, as grids [m][n].

    Summed from level vectors as ``verify_thm12`` states; the rows of one
    row class are one list.  Both vanish when D = 3 mod 4.
    """
    from .wmds import a3_levels, twisted_series

    levels = []
    if D % 4 == 1:
        factor = _series_rank3_factor(M)
        chis = twisted_series(D, M, coefficient=False)
        levels = [
            (d, convolve([c * x for c, x in zip(chis, L)], factor)) for d, L in a3_levels(D, M)
        ]
    damp = _series_zeta_odd_2s_inverse(M)
    return level_grid(levels, M), level_grid([(d, convolve(v, damp)) for d, v in levels], M)


def verify_thm12(D: int, M: int) -> IdentityReport:
    """For odd D: the grid B(D, m, n) against the double convolution of the
    twisted rank-3 coefficient grid by f = (2 - 2*4^{-s}) zeta(s) per variable.

    Inherits the same defect as the single-variable identity, once per
    variable: the stated right side is the grid B convolved with
    zeta_odd(2s) in each variable, so it fails first at (m, n) = (1, 9),
    where it adds B(D, 1, 1) = 4, and damping each variable by
    zeta_odd(2s)^{-1} restores equality.

    No M x M grid is convolved.  The twisted grid chi_m chi_n a3(D, m, n)
    is sum_d d u_d[m] u_d[n] over the levels d of a3, with u_d = chi L_d
    (``wmds.a3_levels``), and a convolution in each variable is bilinear.
    So the stated right side is sum_d d v_d[m] v_d[n] with the 1-D
    convolution v_d = u_d * f, and the damped one is the same sum over
    v_d * zeta_odd(2s)^{-1}; each is laid out by ``congruence.level_grid``.
    """
    if D == 0 or D % 2 == 0:
        raise DomainError("D must be odd and nonzero")
    from .orbits import b_grid

    printed, damped = _thm12_right_sides(D, M)
    return _printed_then_corrected(
        "thm12",
        {"D": D, "M": M},
        b_grid(D, M),
        printed,
        lambda: damped,
        "known_odd_square_discrepancy",
        lambda _: _ODD_SQUARE_NOTE + " (applied once per variable)",
        "damped",
        ("m", "n"),
    )


def _poly_mul(f: list, g: list, T: int) -> list:
    """Product of two integer polynomials, truncated at degree T."""
    out = [0] * (T + 1)
    for i, ci in enumerate(f[: T + 1]):
        if ci:
            for j, cj in enumerate(g[: T + 1 - i]):
                out[i + j] += ci * cj
    return out


@lru_cache(maxsize=64)
def _siegel_top(p: int) -> int:
    """The largest degree whose modulus read by verify_siegel, p^T or
    2^(T+1) at p = 2, is below 2^63."""
    top = 0
    while p ** (top + 1 + (p == 2)) < 2**63:
        top += 1
    return top


def verify_siegel(d: int, p: int, T: int) -> IdentityReport:
    """Check the closed form of the p-part series of square-root counts.

    For odd p the identity, with q a formal variable and (alpha, chi) the
    local data of the discriminant d at p (see ``_local_data``), is

        (1 - chi q) * sum_{l=0}^\\infty sqrt_count(d, p^l) q^l
          = (1 + q) * [ p^alpha q^{2 alpha}
                        + (1 - chi q) * sum_{l < alpha} p^l q^{2l} ].

    For p = 2 the first-difference series
    F = sum_{l>=1} sqrt_count(d, 2^l) (q^{l-1} - q^l) satisfies

        (1 - chi q) * F
          = (1 + chi)(1 - q) + (1 - q^2)(2q - chi) * sum_{l=0}^{alpha} 2^l q^{2l}.

    Both sides are compared as integer polynomials truncated at degree T.
    The right side has degree at most v_p(d) + 1 for odd p and v_p(d) + 3
    for p = 2.  T is first raised one above that, so the right side is never
    truncated and one degree past it is compared, then capped so that the
    largest modulus read (p^T, or 2^(T+1) for p = 2) is below 2^63;
    RangeError when that leaves T under its least value.  The report's
    params carry the T used, and its first mismatch the least degree l
    where the sides differ.
    """
    least = valuation(d, p) + (4 if p == 2 else 2)
    T = min(max(T, least), _siegel_top(p))
    if T < least:
        raise RangeError("T must be at least v_p(d) + 2, or v_p(d) + 4 at p = 2")
    alpha, chi_p = _local_data(d, p)
    if p == 2:
        counts = [sqrt_count(d, 2**l) for l in range(T + 2)]
        series = [counts[1]] + [counts[j + 1] - counts[j] for j in range(1, T + 1)]
        rhs = _poly_mul([1, 0, -1], _two_tail(alpha, chi_p), T)
        rhs[0] += 1 + chi_p
        rhs[1] -= 1 + chi_p
    else:
        series = [sqrt_count(d, p**l) for l in range(T + 1)]
        rhs = _poly_mul([1, 1], _odd_factor(p, alpha, chi_p), T)
    lhs = _poly_mul([1, -chi_p], series, T)
    return compare("siegel", {"d": d, "p": p, "T": T}, lhs, rhs, ("l",))


# ---------------------------------------------------------------------------
# Numeric partial sums
# ---------------------------------------------------------------------------


class PartialSumResult(NamedTuple):
    value: float
    Dmax: int
    M: int
    converged_region: bool
    warnings: tuple[str, ...] = ()


def partial_sum(s1: float, s2: float, w: float, Dmax: int, M: int) -> PartialSumResult:
    """Truncated sum_D sum_{m,n <= M} B(D, m, n) m^{-s1} n^{-s2} |D|^{-w}.

    D runs over nonzero discriminants with |D| <= Dmax, ascending.  Exact
    integer coefficients are combined in floats with math.fsum in a fixed
    deterministic order.  The converged_region flag is False (with a
    warning) when any exponent is <= 1, where the full series does not
    converge absolutely and truncations are heuristic.  Raises DomainError
    for a non-finite exponent and RangeError when a term overflows a float.
    """
    if not all(map(math.isfinite, (s1, s2, w))):
        raise DomainError("exponents s1, s2, w must be finite")
    warnings = []
    if min(s1, s2, w) <= 1:
        warnings.append(
            "exponents s1, s2, w <= 1 are outside the absolute-convergence "
            "region; the truncated value is heuristic"
        )
    from .orbits import b_grid

    terms = []
    try:
        for D in range(-Dmax, Dmax + 1):
            if D == 0 or D % 4 not in (0, 1):
                continue
            inner = [
                b * m**-s1 * n**-s2
                for m, row in enumerate(b_grid(D, M)) for n, b in enumerate(row) if b
            ]
            if inner:
                terms.append(math.fsum(inner) * abs(D) ** -w)
        value = math.fsum(terms)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RangeError("a term of the sum overflows a float")
    return PartialSumResult(value, Dmax, M, not warnings, tuple(warnings))
