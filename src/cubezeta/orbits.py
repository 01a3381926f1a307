"""Orbit counting for cubes via congruence data, and the divisor-sum formula.

For nonzero (D, m, n) with D = 0,1 mod 4, orbits of projective cubes with
invariants (D, m, n) correspond to pairs of square roots
x^2 = D (mod 4m), y^2 = D (mod 4n) taken in the windows [0, 2|m|) and
[0, 2|n|); ``cube_from_invariants`` builds the explicit representative.
The total count B(D, m, n) is the divisor-level sum of ``congruence`` with
local factor A(D', 4k) = sqrt_count(D', 4k); its level d = 1 term is four
times the number of congruence pairs.  B vanishes unless D = 0,1 mod 4.
``B`` computes one cell, ``b_levels`` the level vectors of a box and
``b_grid`` the box; none loads ``cube``, which ``cube_from_invariants``
imports when it builds a cube.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .congruence import (
    DomainError,
    level_grid,
    level_sum,
    level_vectors,
    solve_linear,
    sqrt_count,
    sqrt_count_series,
    sqrt_roots,
)

if TYPE_CHECKING:  # cube is imported where a cube is built, so B and b_grid do not load it
    from .cube import Cube


class CongruencePair(NamedTuple):
    """A pair of square roots of D modulo 4m and 4n, with the cofactors.

    x in [0, 2|m|), x^2 = D (mod 4m), s = (x^2 - D) / (4m);
    y in [0, 2|n|), y^2 = D (mod 4n), t = (y^2 - D) / (4n).
    """

    D: int
    m: int
    n: int
    x: int
    y: int
    s: int
    t: int


def iter_congruence_pairs(D: int, m: int, n: int) -> Iterator[CongruencePair]:
    """The congruence pairs for (D, m, n) one at a time, by (x, y).

    The roots are found at the call; the pairs, as many as their product,
    are formed only as they are read.
    """
    if D == 0 or m == 0 or n == 0:
        raise DomainError("congruence pairs need nonzero D, m, n")
    xs = [x for x in sqrt_roots(D, 4 * m) if x < 2 * abs(m)]
    ys = [y for y in sqrt_roots(D, 4 * n) if y < 2 * abs(n)]
    return (
        CongruencePair(D, m, n, x, y, (x * x - D) // (4 * m), (y * y - D) // (4 * n))
        for x in xs
        for y in ys
    )


def congruence_pairs(D: int, m: int, n: int) -> list[CongruencePair]:
    """All congruence pairs for (D, m, n), ordered lexicographically by (x, y)."""
    return list(iter_congruence_pairs(D, m, n))


def cube_from_invariants(D: int, m: int, n: int, x: int, y: int) -> Cube:
    """Explicit cube with invariants (D, m, n) realizing the congruence pair.

    Requires x^2 = D (mod 4m), y^2 = D (mod 4n), and x = y (mod 2) (automatic
    for valid pairs).  The representative has c = 0 and

        a = |gcd(m, n, (x+y)/2)|,  d = m/a,  g = n/a,  h = -(x+y)/(2a),

    with f the smallest nonnegative solution of s + f*g = 0 and t + f*d = 0
    (mod |h|), then e = (s + f*g)/h and b = (t + f*d)/h.  When h = 0, instead
    f = -s/g, e is the smallest nonnegative solution of d*e = -(x-y)/2
    (mod |g|), and b = ((x-y)/2 + d*e)/g.
    """
    from .cube import Cube, form1, form2

    if (x * x - D) % (4 * m) or (y * y - D) % (4 * n):
        raise DomainError("x, y must be square roots of D mod 4m, 4n")
    if (x - y) % 2:
        raise DomainError("x and y must share parity")
    s = (x * x - D) // (4 * m)
    t = (y * y - D) // (4 * n)
    half_sum = (x + y) // 2
    a = abs(math.gcd(m, n, half_sum))
    d = m // a
    g = n // a
    if half_sum % a:
        raise DomainError("internal: a must divide (x+y)/2")
    h = -(half_sum // a)
    if h != 0:
        f1, n1 = solve_linear(g, -s, abs(h))
        f2, n2 = solve_linear(d, -t, abs(h))
        # f = f1 (mod n1) and f = f2 (mod n2): the least f >= 0 lies below lcm(n1, n2)
        f = f1 + n1 * solve_linear(n1, f2 - f1, n2)[0]
        e = (s + f * g) // h
        b = (t + f * d) // h
    else:
        if s % g:
            raise DomainError("internal: g must divide s when h = 0")
        f = -(s // g)
        w = (x - y) // 2
        e = solve_linear(d, -w, abs(g))[0]
        b = (w + d * e) // g
    A = Cube(a, b, 0, d, e, f, g, h)
    q1, q2 = form1(A), form2(A)
    if (q1.a, q1.b, q1.c) != (m, x, s) or (q2.a, q2.b, q2.c) != (n, y, t):
        raise DomainError("internal: constructed cube fails its invariants")
    return A


def cube_from_pair(pair: CongruencePair) -> Cube:
    return cube_from_invariants(pair.D, pair.m, pair.n, pair.x, pair.y)


def _root_count(dd: int, k: int) -> int:
    """The local factor of B: A(dd, 4k)."""
    return sqrt_count(dd, 4 * k)


def _root_count_series(dd: int, K: int) -> list[int]:
    """[0, A(dd, 4), ..., A(dd, 4K)], from the prime-power values of A(dd, .)."""
    return sqrt_count_series(dd, K, 4)


def B(D: int, m: int, n: int) -> int:
    """Orbit count B(D, m, n) over all four sign classes of the invariants.

    Zero when D = 2,3 mod 4 (no square roots exist); requires nonzero
    D, m, n with m, n counted by absolute value.
    """
    if D == 0 or m == 0 or n == 0:
        raise DomainError("B needs nonzero D, m, n")
    if D % 4 not in (0, 1):
        return 0
    return level_sum(D, abs(m), abs(n), _root_count)


def b_levels(D: int, M: int) -> list[tuple[int, list[int]]]:
    """[(d, L_d)] of B(D, m, n), 0 <= m <= M, as ``congruence.level_vectors``.

    Empty when D = 0 or D = 2,3 mod 4, where B is all zero.
    """
    if D == 0 or D % 4 not in (0, 1):
        return []
    return level_vectors(D, M, _root_count_series)


def b_grid(D: int, M: int) -> list[list[int]]:
    """Grid of B(D, m, n) for 1 <= m, n <= M; index [m][n], row/col 0 zero.

    Each row is a list of its own, so an edit to one cell changes no other.
    """
    return [row[:] for row in level_grid(b_levels(D, M), M)]
