"""Trivariate generating functions for prime-part coefficients, exact in p.

Coefficients are polynomials in a formal prime variable p, represented as
tuples of integer coefficients (index = power of p).  The main objects are
truncated power series in three variables x, y, z with polynomial
coefficients; the coefficient of x^l y^k z^t in the rational function

    N(x,y,z) / ((1-x)(1-y)(1-z)(1-p y^2 z^2)(1-p x^2 y^2)(1-p^2 x^2 y^2 z^2))

with numerator

    N = 1 - xy - yz + xyz + p xy^2 z - p x^2 y^2 z - p xy^2 z^2 + p x^2 y^3 z^2

equals the prime-part coefficient built from square-root counts,

    b(k, l, t) = sum_{j >= 0} p^j * a2(k - 2j, l - j) * a2(k - 2j, t - j),

where a2(k, l) = p^(min(k,l)/2) for min(k,l) even, else 0.  Both routes are
implemented independently and compared exactly (``thm44_check``), and the
closed form evaluated at p = 2, 3, 5 is compared with ``wmds.a_coeff3``
(``specialization_check``); both report the first differing (l, k, t)
found by ``report.first_mismatch``.
"""

from __future__ import annotations

from typing import NamedTuple

from .congruence import DomainError
from .report import IdentityReport, compare, first_mismatch
from .wmds import a_coeff3

# ---------------------------------------------------------------------------
# Polynomials in the formal prime p: tuples of ints, index = exponent
# ---------------------------------------------------------------------------

PolyCoeff = tuple[int, ...]

P_ZERO: PolyCoeff = ()
P_ONE: PolyCoeff = (1,)


def p_trim(c) -> PolyCoeff:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(f: PolyCoeff, g: PolyCoeff) -> PolyCoeff:
    n = max(len(f), len(g))
    return p_trim(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def p_mul(f: PolyCoeff, g: PolyCoeff) -> PolyCoeff:
    if not f or not g:
        return P_ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        if ci:
            for j, cj in enumerate(g):
                out[i + j] += ci * cj
    return p_trim(out)


def p_monomial(coeff: int, power: int) -> PolyCoeff:
    if coeff == 0:
        return P_ZERO
    return tuple([0] * power + [coeff])


def p_eval(f: PolyCoeff, p: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * p + c
    return out


def p_format(f: PolyCoeff) -> str:
    """Render as c0+c1*p+c2*p^2+... omitting zero terms ('0' if all zero)."""
    terms = []
    for e, c in enumerate(f):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            power = "p" if e == 1 else f"p^{e}"
            if c == 1:
                terms.append(power)
            elif c == -1:
                terms.append(f"-{power}")
            else:
                terms.append(f"{c}*{power}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# ---------------------------------------------------------------------------
# Truncated trivariate series with PolyCoeff coefficients
# ---------------------------------------------------------------------------


class TriSeries(NamedTuple):
    """Power series in x, y, z truncated at total degree K per variable.

    coeffs[l][k][t] is the PolyCoeff of x^l y^k z^t (0 <= l, k, t <= K).
    """

    K: int
    coeffs: list

    @staticmethod
    def zero(K: int) -> "TriSeries":
        return TriSeries(
            K, [[[P_ZERO] * (K + 1) for _ in range(K + 1)] for _ in range(K + 1)]
        )

    @staticmethod
    def one(K: int) -> "TriSeries":
        s = TriSeries.zero(K)
        s.coeffs[0][0][0] = P_ONE
        return s

    def get(self, l: int, k: int, t: int) -> PolyCoeff:
        return self.coeffs[l][k][t]


def series_mul_geometric(
    A: TriSeries, monomial: tuple[int, int, int], p_power: int
) -> TriSeries:
    """Multiply by 1 / (1 - p^p_power * x^dl y^dk z^dt) via running sums.

    The result T satisfies T = A + p^p_power * (shift of T), computed in one
    pass in increasing (l, k, t): O(K^3).
    """
    dl, dk, dt = monomial
    if (dl, dk, dt) == (0, 0, 0):
        raise DomainError("geometric factor needs a nonconstant monomial")
    K = A.K
    out = TriSeries.zero(K)
    scale = p_monomial(1, p_power)
    for l in range(K + 1):
        for k in range(K + 1):
            for t in range(K + 1):
                val = A.coeffs[l][k][t]
                if l >= dl and k >= dk and t >= dt:
                    val = p_add(val, p_mul(scale, out.coeffs[l - dl][k - dk][t - dt]))
                out.coeffs[l][k][t] = val
    return out


# ---------------------------------------------------------------------------
# The two routes to the prime-part coefficients
# ---------------------------------------------------------------------------

# numerator monomials of the closed form, as (l, k, t, coefficient PolyCoeff)
_NUMERATOR = (
    (0, 0, 0, P_ONE),
    (1, 1, 0, (-1,)),
    (0, 1, 1, (-1,)),
    (1, 1, 1, P_ONE),
    (1, 2, 1, (0, 1)),
    (2, 2, 1, (0, -1)),
    (1, 2, 2, (0, -1)),
    (2, 3, 2, (0, 1)),
)

# denominator factors as geometric series: (monomial (dl, dk, dt), power of p)
_DENOMINATOR = (
    ((1, 0, 0), 0),
    ((0, 1, 0), 0),
    ((0, 0, 1), 0),
    ((0, 2, 2), 1),
    ((2, 2, 0), 1),
    ((2, 2, 2), 2),
)


def f_a3_expand(K: int) -> TriSeries:
    """Closed-form route: numerator times the six geometric denominator factors."""
    s = TriSeries.zero(K)
    for l, k, t, c in _NUMERATOR:
        if l <= K and k <= K and t <= K:
            s.coeffs[l][k][t] = p_add(s.coeffs[l][k][t], c)
    for monomial, p_power in _DENOMINATOR:
        s = series_mul_geometric(s, monomial, p_power)
    return s


def a2_poly(k: int, l: int) -> PolyCoeff:
    """Rank-2 prime-part coefficient as a polynomial in p."""
    if k < 0 or l < 0:
        return P_ZERO
    mn = min(k, l)
    return p_monomial(1, mn // 2) if mn % 2 == 0 else P_ZERO


def f_a3_convolution(K: int) -> TriSeries:
    """Independent route: diagonal pairing of two rank-2 grids.

    coefficient(l, k, t) = sum_{j} p^j * a2(k - 2j, l - j) * a2(k - 2j, t - j).
    """
    out = TriSeries.zero(K)
    for l in range(K + 1):
        for k in range(K + 1):
            for t in range(K + 1):
                acc = P_ZERO
                for j in range(min(k // 2, l, t) + 1):
                    c = p_mul(a2_poly(k - 2 * j, l - j), a2_poly(k - 2 * j, t - j))
                    if c:
                        acc = p_add(acc, p_mul(p_monomial(1, j), c))
                out.coeffs[l][k][t] = acc
    return out


_SPECIALIZATION_PRIMES = (2, 3, 5)


def specialization_check(K: int) -> IdentityReport:
    """Evaluate the closed form at each prime and compare against a_coeff3.

    The bridge: the coefficient polynomial at (l, k, t), evaluated at p,
    must equal a_coeff3(p^k, p^l, p^t) (k is the exponent of the
    discriminant-like slot, whose square part drives the divisor levels).
    The grids of the two sides are compared one prime at a time.
    """
    params = {"kmax": K, "route": "specialization", "primes": _SPECIALIZATION_PRIMES}
    closed = f_a3_expand(K)
    degrees = range(K + 1)
    for p in _SPECIALIZATION_PRIMES:
        lhs = [[[p_eval(c, p) for c in row] for row in plane] for plane in closed.coeffs]
        rhs = [[[a_coeff3(p**k, p**l, p**t) for t in degrees] for k in degrees]
               for l in degrees]
        mismatch = first_mismatch(lhs, rhs, ("l", "k", "t"))
        if mismatch:
            return IdentityReport("thm44", params, "mismatch", {"p": p, **mismatch})
    return IdentityReport("thm44", params, "equal", None)


def thm44_check(K: int) -> IdentityReport:
    """Compare the two routes coefficientwise up to degree K in each variable.

    The comparison is exact in the formal variable p (integer polynomial
    identity, stronger than any numeric specialization).
    """
    return compare("thm44", {"kmax": K, "route": "polynomial"},
                   f_a3_expand(K).coeffs, f_a3_convolution(K).coeffs, ("l", "k", "t"))
