"""Exact counting of square roots modulo integers, and discriminant arithmetic.

The central quantity is ``sqrt_count(d, a)``, the number of residues
``x mod a`` with ``x^2 = d (mod a)``.  It is computed multiplicatively from
prime powers (Hensel-style case analysis), and everything downstream -- orbit
counting formulas, Dirichlet series coefficients, ideal-class fiber counts --
is built on it.  ``sqrt_count_direct`` is the brute-force enumeration kept as
an independent oracle.

Also here: factorization into signed prime powers, the splitting
``D = D0 * D1^2`` with ``D0`` squarefree, fundamental discriminants, the
Kronecker character attached to a discriminant, and an exact checker for the
closed-form generating function of ``sum_l sqrt_count(d, p^l) q^l``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

_INPUT_BOUND = 2**63  # factorization inputs must fit in 63 bits


class RangeError(ValueError):
    """An input is outside the supported range."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: n = sign * prod(p^e)."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # ((p, e), ...) with p ascending

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Trial-division factorization of a nonzero integer.

    Raises RangeError for n = 0 or |n| >= 2**63.
    """
    if n == 0:
        raise RangeError("cannot factor 0")
    if abs(n) >= _INPUT_BOUND:
        raise RangeError("factorization input exceeds the 63-bit bound")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = []
    for p in (2, 3, 5, 7):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    q = 11
    # wheel over candidates coprime to 2,3 (sufficient; 5,7 already stripped)
    step = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    factors.sort()
    return Factorization(sign, tuple(factors))


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    if n == 0:
        raise RangeError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n (n != 0)."""
    fac = factorize(n)
    out = [1]
    for p, e in fac.factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def sigma1(n: int) -> int:
    """Sum of positive divisors of n."""
    return sum(divisors(n))


def mobius(n: int) -> int:
    """Moebius function of n >= 1."""
    if n < 1:
        raise RangeError("mobius is defined for n >= 1")
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def squarefree_split(D: int) -> tuple[int, int]:
    """Write D = D0 * D1^2 with D0 squarefree (sign carried by D0).

    Returns (D0, D1) with D1 >= 1.
    """
    fac = factorize(D)
    d0, d1 = fac.sign, 1
    for p, e in fac.factors:
        if e % 2:
            d0 *= p
        d1 *= p ** (e // 2)
    return d0, d1


def _legendre(u: int, p: int) -> int:
    """Legendre symbol (u|p) for odd prime p, via Euler's criterion."""
    r = pow(u % p, (p - 1) // 2, p)
    return r if r <= 1 else -1


@lru_cache(maxsize=None)
def _sqrt_count_prime_power(d: int, p: int, l: int) -> int:
    """Number of x mod p^l with x^2 = d (mod p^l)."""
    if l == 0:
        return 1
    k = valuation(d, p) if d % p**l != 0 else l
    if k >= l:
        # x^2 = 0 (mod p^l): x divisible by p^ceil(l/2)
        return p ** (l // 2)
    if k % 2:
        return 0
    u = d // p**k
    j = l - k
    if p == 2:
        if j == 1:
            c = 1
        elif j == 2:
            c = 2 if u % 4 == 1 else 0
        else:
            c = 4 if u % 8 == 1 else 0
    else:
        c = 1 + _legendre(u, p)
    return c * p ** (k // 2)


@lru_cache(maxsize=None)
def sqrt_count(d: int, a: int) -> int:
    """Number of residues x mod a with x^2 = d (mod a); a != 0.

    Multiplicative over the prime powers of |a| (Chinese remainder theorem).
    """
    if a == 0:
        raise DomainError("modulus must be nonzero")
    a = abs(a)
    if a == 1:
        return 1
    out = 1
    for p, e in factorize(a).factors:
        out *= _sqrt_count_prime_power(d % p**e, p, e)
        if out == 0:
            return 0
    return out


def sqrt_count_direct(d: int, a: int) -> int:
    """Brute-force count of x in [0, |a|) with x^2 = d (mod a).

    Independent O(|a|) oracle for sqrt_count; kept as a library function so
    verification sweeps can use it.
    """
    if a == 0:
        raise DomainError("modulus must be nonzero")
    a = abs(a)
    return sum(1 for x in range(a) if (x * x - d) % a == 0)


def sqrt_roots(d: int, a: int) -> list[int]:
    """All x in [0, |a|) with x^2 = d (mod a), ascending (direct scan)."""
    if a == 0:
        raise DomainError("modulus must be nonzero")
    a = abs(a)
    return [x for x in range(a) if (x * x - d) % a == 0]


# ---------------------------------------------------------------------------
# Discriminants and characters
# ---------------------------------------------------------------------------


def is_discriminant(D: int) -> bool:
    """True when D is a nonzero integer congruent to 0 or 1 mod 4."""
    return D != 0 and D % 4 in (0, 1)


def _field_dstar(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for any nonzero d."""
    d0, _ = squarefree_split(d)
    return d0 if d0 % 4 == 1 else 4 * d0


def fundamental_discriminant(D: int) -> int:
    """Fundamental discriminant attached to D (D = 0,1 mod 4, D != 0).

    For perfect squares this is 1 (the attached character is trivial).
    """
    if not is_discriminant(D):
        raise DomainError("D must be nonzero and = 0 or 1 mod 4")
    return _field_dstar(D)


def is_fundamental(D: int) -> bool:
    """True when D is a fundamental discriminant (including D = 1)."""
    return is_discriminant(D) and fundamental_discriminant(D) == D


@dataclass(frozen=True)
class DiscriminantData:
    """D = D0 * D1^2 with the attached fundamental discriminant and 2-powers.

    alpha_map maps primes p to alpha >= 1 where p^(2*alpha) is the exact
    power of p dividing D/dstar (only for D = 0,1 mod 4, where D/dstar is a
    perfect square; absent primes have alpha = 0).
    """

    D: int
    D0: int
    D1: int
    dstar: int
    alpha_map: dict[int, int] = field(default_factory=dict)


def discriminant_data(D: int) -> DiscriminantData:
    """Decompose a discriminant D = 0,1 mod 4 (nonzero)."""
    if not is_discriminant(D):
        raise DomainError("D must be nonzero and = 0 or 1 mod 4")
    d0, d1 = squarefree_split(D)
    dstar = _field_dstar(D)
    quot = D // dstar
    alpha_map: dict[int, int] = {}
    if quot > 1:
        for p, e in factorize(quot).factors:
            assert e % 2 == 0, "D/dstar must be a perfect square"
            alpha_map[p] = e // 2
    return DiscriminantData(D, d0, d1, dstar, alpha_map)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1."""
    if n < 1:
        raise DomainError("kronecker implemented for positive n")
    result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def chi(D: int, n: int) -> int:
    """Quadratic character attached to D, evaluated at n >= 1.

    chi(D, .) is the Kronecker symbol of the fundamental discriminant of D;
    for perfect-square D it is identically 1.
    """
    return kronecker(fundamental_discriminant(D), n)


def hat(m: int, D: int) -> int:
    """Largest divisor of m coprime to the squarefree part D0 of D (m >= 1)."""
    if m < 1:
        raise DomainError("hat expects m >= 1")
    d0, _ = squarefree_split(D)
    d0 = abs(d0)
    g = math.gcd(m, d0)
    while g > 1:
        m //= g
        g = math.gcd(m, d0)
    return m


# ---------------------------------------------------------------------------
# Closed-form check for the prime-power generating series of sqrt_count
# ---------------------------------------------------------------------------


def _poly_mul(f: list[int], g: list[int], T: int) -> list[int]:
    out = [0] * (T + 1)
    for i, ci in enumerate(f):
        if ci == 0 or i > T:
            continue
        for j, cj in enumerate(g):
            if i + j > T:
                break
            out[i + j] += ci * cj
    return out


def _poly_add(f: list[int], g: list[int], T: int) -> list[int]:
    out = [0] * (T + 1)
    for i, ci in enumerate(f):
        if i <= T:
            out[i] += ci
    for j, cj in enumerate(g):
        if j <= T:
            out[j] += cj
    return out


@dataclass(frozen=True)
class SiegelFactorReport:
    """Result of checking the closed form of sum_l sqrt_count(d,p^l) q^l."""

    d: int
    p: int
    alpha: int
    chi_p: int
    T: int
    equal: bool
    first_mismatch: int | None
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]


def siegel_factor_check(d: int, p: int, T: int) -> SiegelFactorReport:
    """Check the closed form of the p-part series of square-root counts.

    For odd p the identity, with q a formal variable, chi_p the character of
    d at p, and alpha the half-valuation of d/dstar at p, is

        (1 - chi_p q) * sum_{l=0}^\\infty sqrt_count(d, p^l) q^l
          = (1 + q) * [ p^alpha q^{2 alpha}
                        + (1 - chi_p q) * sum_{l < alpha} p^l q^{2l} ].

    For p = 2 (requires d = 0,1 mod 4) the first-difference series
    F = sum_{l>=1} sqrt_count(d, 2^l) (q^{l-1} - q^l) satisfies

        (1 - chi_2 q) * F
          = (1 + chi_2)(1 - q)
            + (1 - q^2)(2q - chi_2) * sum_{l=0}^{alpha} 2^l q^{2l}.

    Both sides are compared as integer polynomials truncated at degree T
    (the left side uses the direct coefficient counts; T >= v_p(d) + 4 so
    the finite right side is never truncated).
    """
    if T < valuation(d, p) + 4:
        raise RangeError("T must be at least v_p(d) + 4")
    dstar = _field_dstar(d)
    if p == 2:
        if not is_discriminant(d):
            raise DomainError("p = 2 requires d = 0 or 1 mod 4")
        alpha = discriminant_data(d).alpha_map.get(2, 0)
        chi_p = kronecker(dstar, 2)
        counts = [sqrt_count(d, 2**l) for l in range(T + 2)]
        F = [counts[1]] + [counts[j + 1] - counts[j] for j in range(1, T + 1)]
        lhs = _poly_mul([1, -chi_p], F, T)
        geom = [0] * (2 * alpha + 1)
        for l in range(alpha + 1):
            geom[2 * l] = 2**l
        rhs = _poly_add(
            [1 + chi_p, -(1 + chi_p)],
            _poly_mul([1, 0, -1], _poly_mul([-chi_p, 2], geom, T), T),
            T,
        )
    else:
        _, d1 = squarefree_split(d)
        alpha = valuation(d1, p)
        chi_p = kronecker(dstar, p)
        S = [sqrt_count(d, p**l) for l in range(T + 1)]
        lhs = _poly_mul([1, -chi_p], S, T)
        closed = [0] * (T + 1)
        if 2 * alpha <= T:
            closed[2 * alpha] += p**alpha
        geom = [0] * max(1, 2 * alpha - 1)
        for l in range(alpha):
            geom[2 * l] = p**l
        closed = _poly_add(closed, _poly_mul([1, -chi_p], geom, T), T)
        rhs = _poly_mul([1, 1], closed, T)
    first = next((i for i in range(T + 1) if lhs[i] != rhs[i]), None)
    return SiegelFactorReport(
        d, p, alpha, chi_p, T, first is None, first, tuple(lhs), tuple(rhs)
    )
