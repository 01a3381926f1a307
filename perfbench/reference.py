"""Independent answers the benchmark checks the program's outputs against.

Square-root counts come from the library's brute-force oracle
``sqrt_count_direct`` on each small prime power, and from Euler's criterion
lifted by Hensel's lemma on a large one, combined by the Chinese remainder
theorem.  Factorizations
are the benchmark's own, by Pollard's rho.  Nothing
here calls ``sqrt_count``, ``factorize`` or ``B``.
"""

from __future__ import annotations

import math

from cubezeta.congruence import sqrt_count_direct

DIRECT_LIMIT = 1 << 16  # prime powers above this use Euler's criterion and Hensel


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict:
    """{p: e} for |n| >= 1, by Pollard's rho (Floyd cycle) and Miller-Rabin."""
    n = abs(n)
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        c, d = 1, n
        while d == n:  # a new polynomial x^2 + c until the cycle gives a factor
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = math.gcd(abs(x - y), n)
            c += 1
        stack += [d, n // d]
    return out


def _prime_power_count(d: int, p: int, e: int) -> int:
    """#{x mod p^e : x^2 = d}: Euler's criterion (or d mod 8 for p = 2), lifted by Hensel."""
    d %= p**e
    if d == 0:
        return p ** (e // 2)
    v = 0
    while d % p == 0:
        d, v = d // p, v + 1
    if v % 2:
        return 0
    if p == 2:  # x = 2^(v/2) y with y odd and y^2 = d (mod 2^(e - v))
        roots = (1, 2 * (d % 4 == 1), 4 * (d % 8 == 1))[min(e - v, 3) - 1]
    else:
        roots = 2 if pow(d, (p - 1) // 2, p) == 1 else 0
    return roots * p ** (v // 2)


def sqrt_count(d: int, a: int) -> int:
    """#{x mod a : x^2 = d (mod a)}, over the prime powers of a."""
    out = 1
    for p, e in factor(a).items():
        q = p**e
        out *= sqrt_count_direct(d % q, q) if q <= DIRECT_LIMIT else _prime_power_count(d, p, e)
        if out == 0:
            return 0
    return out


def B(D: int, m: int, n: int) -> int:
    """The orbit count by its divisor-sum formula over reference square-root counts."""
    if D % 4 not in (0, 1):
        return 0
    d1 = math.prod(p ** (e // 2) for p, e in factor(D).items())
    g = math.gcd(d1, m, n)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            dd = D // (d * d)
            total += d * sqrt_count(dd, 4 * m // d) * sqrt_count(dd, 4 * n // d)
    return total
