"""Exact counting of square roots modulo integers, and discriminant arithmetic.

The central quantity is ``sqrt_count(d, a)``, the number of residues
``x mod a`` with ``x^2 = d (mod a)``.  It is computed multiplicatively from
prime powers (Hensel-style case analysis), and everything downstream -- orbit
counting formulas, Dirichlet series coefficients, ideal-class fiber counts --
is built on it.  ``sqrt_roots`` lists the roots themselves: Hensel lifting
per prime power (Tonelli-Shanks at odd p), joined by the Chinese remainder
theorem.  ``sqrt_count_direct`` is the one direct O(a) scan, kept as a test
oracle.  ``solve_linear`` solves c*x = r (mod n).

Also here: factorization into signed prime powers (trial division, then
Miller-Rabin and Pollard-Brent rho), the splitting
``D = D0 * D1^2`` with ``D0`` squarefree, fundamental discriminants, and the
Kronecker character attached to a discriminant.

The orbit count B and the rank-3 coefficient a3 are one sum over the divisor
levels d of D1 with a local factor L, sqrt_count(D', 4k) for B, a(D', k) for a3:

    S_L(D, m, n) = sum_{d | gcd(D1, m, n)} d * L(D/d^2, m/d) * L(D/d^2, n/d).

``level_sum`` sums one cell.  A box m, n <= M is read from one vector
L_d[m] = L(D/d^2, m/d) (0 unless d | m) per level d <= M, which
``level_vectors`` lists: row m is sum_d d * L_d[m] * L_d, so rows with equal
level values (L_d[m])_d are equal.  ``row_classes`` sums each such row class
once, for any list of (d, vector), and ``level_grid`` lays the classes out
as a grid.  Each L is multiplicative in k, so its vector comes from its
values at prime powers by ``multiplicative_series``; ``sqrt_count_series``
is that vector for A(d, c k).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

_INPUT_BOUND = 2**63  # factorization inputs must fit in 63 bits

# The most entries each of the caches of factorize, divisors, sqrt_count and
# _sqrt_count_prime_power holds, so that a long run's memory stays flat.  A
# benchmark pass holds a few hundred entries per cache, and the largest
# default verify run (siegel's sqrt_count) about 9,000.
_CACHE_SIZE = 4096


class RangeError(ValueError):
    """An input is outside the supported range."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class Factorization(NamedTuple):
    """Signed prime factorization: n = sign * prod(p^e)."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # ((p, e), ...) with p ascending

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


_TRIAL_BOUND = 2**12  # trial division below this; Miller-Rabin and rho above its square


@lru_cache(maxsize=_CACHE_SIZE)
def factorize(n: int) -> Factorization:
    """Factorization of a nonzero integer.

    Trial division by the candidates below 2^12; a cofactor left above 2^24
    is tested by deterministic Miller-Rabin and split by Pollard-Brent rho.
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
    q, bound = 11, _TRIAL_BOUND
    # wheel over candidates coprime to 2,3 (sufficient; 5,7 already stripped)
    step = 2
    while q * q <= n and q < bound:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += step
        step = 6 - step
    if n >= bound * bound:  # no prime factor below the bound
        large, primes = [n], []
        while large:
            n = large.pop()
            if n < bound * bound or _is_prime(n):
                primes.append(n)
            else:
                d = _rho(n)
                large += [d, n // d]
        factors += sorted((p, primes.count(p)) for p in set(primes))
    elif n > 1:
        factors.append((n, 1))
    return Factorization(sign, tuple(factors))


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37: exact for odd n < 3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite n (Pollard rho, Brent's cycle search)."""
    c = 1
    while True:
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:  # one gcd per batch of up to 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


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


@lru_cache(maxsize=_CACHE_SIZE)
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


def level_sum(D: int, m: int, n: int, local) -> int:
    """S_L(D, m, n) with L = local (see the module docstring); D != 0, m, n >= 1."""
    _, d1 = squarefree_split(D)
    total = 0
    for d in divisors(math.gcd(d1, m, n)):
        dd = D // (d * d)
        term = local(dd, m // d)
        if term:
            total += d * term * local(dd, n // d)
    return total


def level_vectors(D: int, M: int, series) -> list[tuple[int, list[int]]]:
    """[(d, L_d)] for the levels d | D1 with d <= M; L's vectors from series.

    series(D', K) is [0, L(D', 1), ..., L(D', K)], and L_d[m] = L(D/d^2, m/d)
    when d | m, else 0, for 0 <= m <= M.
    """
    _, d1 = squarefree_split(D)
    levels = []
    for d in divisors(d1):
        if d > M:
            break
        L = [0] * (M + 1)
        L[d::d] = series(D // (d * d), M // d)[1:]
        levels.append((d, L))
    return levels


def row_classes(levels: list, M: int) -> tuple[list[tuple], dict[tuple, list[int]]]:
    """The row classes of the grid sum_d d * v_d[m] * v_d[n], 0 <= m, n <= M.

    levels is [(d, v_d)], each v_d of length M + 1.  Returns keys, with
    keys[m] the values (v_d[m])_d of row m, and rows, mapping each key to
    the row of every m with that key, summed once.
    """
    keys = list(zip(*(v for _, v in levels))) or [()] * (M + 1)  # no level when M < 1
    rows = {}
    for key in keys:
        if key not in rows:
            row = [0] * (M + 1)
            for (d, v), x in zip(levels, key):
                if x:
                    scale = d * x
                    row = [r + scale * y for r, y in zip(row, v)]
            rows[key] = row
    return keys, rows


def level_grid(levels: list, M: int) -> list[list[int]]:
    """sum_d d * v_d[m] * v_d[n] over levels [(d, v_d)] for 0 <= m, n <= M; index [m][n].

    The rows of one row class are one list, so copy a row before editing it.
    """
    keys, rows = row_classes(levels, M)
    return [rows[key] for key in keys]


@lru_cache(maxsize=64)  # one entry per cutoff M; a box reads a few dozen
def _least_prime_powers(M: int) -> tuple[tuple, tuple]:
    """The 2 <= n <= M split by their least prime p, with p^e || n.

    Returns (powers, products): (n, p, e) for each prime power n = p^e, and
    (n, n / p^e, p^e) for every other n, each ascending in n.
    """
    least = list(range(M + 1))
    for p in range(2, M + 1):
        if least[p] == p:
            for n in range(p * p, M + 1, p):
                least[n] = min(least[n], p)
    powers, products = [], []
    for n in range(2, M + 1):
        p = least[n]
        q, e = p, 1
        while n % (q * p) == 0:
            q, e = q * p, e + 1
        if q == n:
            powers.append((n, p, e))
        else:
            products.append((n, n // q, q))
    return tuple(powers), tuple(products)


def multiplicative_series(M: int, local) -> list[int]:
    """[0, f(1), ..., f(M)] for the multiplicative f with f(p^e) = local(p, e).

    local is called once per prime power p^e <= M, and those entries are
    filled first; every other n is f(n / p^e) f(p^e) for the least prime p
    of n, read from smaller entries.
    """
    out = [0] + [1] * M
    powers, products = _least_prime_powers(M)
    for n, p, e in powers:
        out[n] = local(p, e)
    for n, r, q in products:
        out[n] = out[r] * out[q]
    return out


def _legendre(u: int, p: int) -> int:
    """Legendre symbol (u|p) for odd prime p, via Euler's criterion."""
    r = pow(u % p, (p - 1) // 2, p)
    return r if r <= 1 else -1


@lru_cache(maxsize=_CACHE_SIZE)
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


@lru_cache(maxsize=_CACHE_SIZE)
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


def sqrt_count_series(d: int, M: int, c: int = 1) -> list[int]:
    """[0, A(d, c), A(d, 2c), ..., A(d, M c)] for c = 1 or 4, from prime-power values.

    A(d, .) = sqrt_count(d, .) is multiplicative, so A(d, c 2^k o) =
    A(d, c 2^k) A(d, o) for odd o: the 2-adic local value is A(d, c 2^k),
    and odd a are scaled by A(d, c).
    """
    shift = c.bit_length() - 1  # c = 2^shift

    def local(p: int, e: int) -> int:
        if p == 2:
            e += shift
        return _sqrt_count_prime_power(d % p**e, p, e)

    out = multiplicative_series(M, local)
    if c > 1:
        unit = sqrt_count(d, c)
        out[1::2] = [unit * v for v in out[1::2]]
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


def solve_linear(c: int, r: int, n: int) -> tuple[int, int]:
    """(x0, n0) with {x : c*x = r (mod n)} = x0 + n0*Z and 0 <= x0 < n0; n >= 1.

    Raises DomainError when the congruence has no solution.
    """
    g = math.gcd(c, n)
    if r % g:
        raise DomainError(f"{c}*x = {r} (mod {n}) has no solution")
    n0 = n // g
    return r // g * pow(c // g, -1, n0) % n0, n0


def _sqrt_mod_prime(u: int, p: int) -> int:
    """A square root of a quadratic residue u, p not dividing u, mod an odd prime p."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    c, t, r = pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
    while t != 1:  # Tonelli-Shanks: t has order 2^i < 2^s
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _prime_power_roots(d: int, p: int, e: int) -> list[int]:
    """All x mod p^e with x^2 = d (mod p^e), unordered.

    With v = v_p(d) < e even, x = p^(v/2) y for the roots y mod p^(e-v) of
    the unit part u, each taken mod p^(e-v/2).
    """
    q = p**e
    d %= q
    if d == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = valuation(d, p)
    if v % 2:
        return []
    h, pj = p ** (v // 2), q // p**v
    u = d // p**v % pj
    if p == 2 and pj <= 8:
        ys = [y for y in range(1, pj, 2) if (y * y - u) % pj == 0]
    elif p == 2:
        if u % 8 != 1:
            return []
        y, k = 1, 8
        while k < pj:  # y^2 = u (mod k); fix the next bit
            if (y * y - u) % (2 * k):
                y += k // 2
            k *= 2
        ys = [y, pj - y, (y + pj // 2) % pj, (pj // 2 - y) % pj]
    else:
        if _legendre(u, p) != 1:
            return []
        y = _sqrt_mod_prime(u % p, p)
        while (y * y - u) % pj:  # Newton: the precision doubles per step
            y = (y - (y * y - u) * pow(2 * y, -1, pj)) % pj
        ys = [y, pj - y]
    return [h * (y + pj * k) for y in ys for k in range(h)]


def sqrt_roots(d: int, a: int) -> list[int]:
    """All x in [0, |a|) with x^2 = d (mod a), ascending.

    The roots mod each prime power of |a| are joined by the Chinese
    remainder theorem.
    """
    if a == 0:
        raise DomainError("modulus must be nonzero")
    a = abs(a)
    roots, q = [0], 1
    for p, e in factorize(a).factors:
        pe = p**e
        local = _prime_power_roots(d, p, e)
        inv = pow(q, -1, pe)
        roots = [x + q * ((y - x) * inv % pe) for x in roots for y in local]
        q *= pe
    return sorted(roots)


# ---------------------------------------------------------------------------
# Discriminants and characters
# ---------------------------------------------------------------------------


def is_discriminant(D: int) -> bool:
    """True when D is a nonzero integer congruent to 0 or 1 mod 4."""
    return D != 0 and D % 4 in (0, 1)


def require_discriminant(D: int) -> None:
    """DomainError unless ``is_discriminant(D)``: the one test and message for it."""
    if not is_discriminant(D):
        raise DomainError("D must be nonzero and = 0 or 1 mod 4")


def _field_dstar(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for any nonzero d."""
    d0, _ = squarefree_split(d)
    return d0 if d0 % 4 == 1 else 4 * d0


def fundamental_discriminant(D: int) -> int:
    """Fundamental discriminant attached to D (D = 0,1 mod 4, D != 0).

    For perfect squares this is 1 (the attached character is trivial).
    """
    require_discriminant(D)
    return _field_dstar(D)


def is_fundamental(D: int) -> bool:
    """True when D is a fundamental discriminant (including D = 1)."""
    return is_discriminant(D) and fundamental_discriminant(D) == D


class DiscriminantData(NamedTuple):
    """D = D0 * D1^2 with the attached fundamental discriminant and 2-powers.

    alpha_map maps primes p to alpha >= 1 where p^(2*alpha) is the exact
    power of p dividing D/dstar (only for D = 0,1 mod 4, where D/dstar is a
    perfect square; absent primes have alpha = 0).
    """

    D: int
    D0: int
    D1: int
    dstar: int
    alpha_map: dict[int, int]


def discriminant_data(D: int) -> DiscriminantData:
    """Decompose a discriminant D = 0,1 mod 4 (nonzero)."""
    require_discriminant(D)
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

