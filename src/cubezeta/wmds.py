"""Coefficients of the rank-3 multiple Dirichlet series built on square-root counts.

The building block is the prime-power coefficient
a_pp(p, k, l) = p^(min(k,l)/2) when min(k, l) is even, else 0; the global
coefficient a(D, m) is the product over primes of a_pp at the valuations of
|D| and m.  The three-variable coefficient a3(D, m, n) is the divisor-level
sum of ``congruence`` with local factor a(D', k), the same sum as the orbit
count B; ``a_coeff3`` computes one cell, ``a3_levels`` the level vectors of
a box and ``a3_grid`` the box.

The twisted coefficient multiplies in the quadratic character of D evaluated
on the part of m coprime to the squarefree part of D; ``tilde_a`` computes
one, and ``twisted_series`` the row m <= M (or the character row alone).
That row, and the row of a(D', k) for each level, is built by
``congruence.multiplicative_series`` from its values at prime powers.
"""

from __future__ import annotations

from .congruence import (
    DomainError,
    chi,
    factorize,
    fundamental_discriminant,
    hat,
    kronecker,
    level_grid,
    level_sum,
    level_vectors,
    multiplicative_series,
    squarefree_split,
    valuation,
)


def a_pp(p: int, k: int, l: int) -> int:
    """Prime-power coefficient: p^(min(k,l)/2) when min(k,l) is even, else 0."""
    if k < 0 or l < 0:
        raise DomainError("valuations must be nonnegative")
    mn = min(k, l)
    return p ** (mn // 2) if mn % 2 == 0 else 0


def a_coeff(D: int, m: int) -> int:
    """Coefficient a(D, m): product of a_pp over the primes of m (D != 0, m >= 1).

    Exponents are read off |D|; primes absent from m contribute 1.
    """
    if D == 0 or m < 1:
        raise DomainError("a_coeff needs D != 0 and m >= 1")
    out = 1
    for p, l in factorize(m).factors if m > 1 else ():
        out *= a_pp(p, valuation(D, p), l)
        if out == 0:
            return 0
    return out


def a_coeff3(D: int, m: int, n: int) -> int:
    """Three-variable coefficient a3(D, m, n): the level sum of a_coeff."""
    if D == 0 or m < 1 or n < 1:
        raise DomainError("a_coeff3 needs D != 0 and m, n >= 1")
    return level_sum(D, m, n, a_coeff)


def _a_series(dd: int, K: int) -> list[int]:
    """[0, a(dd, 1), ..., a(dd, K)], from the values a_pp at prime powers."""
    return multiplicative_series(K, lambda p, e: a_pp(p, valuation(dd, p), e))


def a3_levels(D: int, M: int) -> list[tuple[int, list[int]]]:
    """[(d, L_d)] of a3(D, m, n), 0 <= m <= M, as ``congruence.level_vectors``."""
    return level_vectors(D, M, _a_series)


def a3_grid(D: int, M: int) -> list[list[int]]:
    """Grid of a3(D, m, n) for 1 <= m, n <= M (D != 0); index [m][n], row/col 0 zero.

    Each row is a list of its own, so an edit to one cell changes no other.
    """
    return [row[:] for row in level_grid(a3_levels(D, M), M)]


def tilde_a(D: int, m: int) -> int:
    """Character-twisted coefficient: chi(D, hat(m, D)) * a_coeff(D, m).

    Requires D = 0,1 mod 4 so the character is defined.
    """
    return chi(D, hat(m, D)) * a_coeff(D, m)


def twisted_series(D: int, M: int, coefficient: bool = True) -> list[int]:
    """[0, tilde_a(D, 1), ..., tilde_a(D, M)], from the values at prime powers.

    With coefficient=False the character row chi(D, hat(m, D)) alone.  Both
    are multiplicative in m: hat drops the primes of D0, chi(D, .) is
    completely multiplicative, and a_coeff is the product of a_pp.
    Requires D = 0,1 mod 4 so the character is defined.
    """
    d0, _ = squarefree_split(D)
    dstar = fundamental_discriminant(D)

    def local(p: int, e: int) -> int:
        c = 1 if d0 % p == 0 else kronecker(dstar, p) ** e
        return c * a_pp(p, valuation(D, p), e) if coefficient else c

    return multiplicative_series(M, local)
