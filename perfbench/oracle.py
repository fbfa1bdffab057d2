"""Reference answers for the benchmark, written from the definitions alone.

Nothing here imports lehmerdefect, so a fault in the package cannot hide in
the check that is meant to catch it.

A Lehmer pair (alpha, beta) is encoded by a = (alpha + beta)^2 and
b = (alpha - beta)^2.  With s = sqrt(a) and q = alpha * beta = (a - b) / 4,
alpha and beta are the roots of X^2 - s X + q, so

    L_0 = 0,  L_1 = 1,  L_{k+1} = s L_k - q L_{k-1},  L_k = (alpha^k - beta^k)/(alpha - beta)

holds in Z[s].  u_k is L_k for odd k and L_k / s = (alpha^k - beta^k)/(alpha^2 - beta^2)
for even k.  The package uses a parity recurrence over the integers instead;
this module carries the Z[s] element (x, y) = x + y s and reads u_k off it.

A pair is valid when a * b != 0, a == b (mod 4), q != 0, gcd(a, q) = 1 and
alpha / beta is not a root of unity.  alpha/beta has degree at most 2, and for
such a root of unity z, z + 1/z is one of 2, -2, 0, 1, -1.  Since
z + 1/z = (alpha^2 + beta^2) / (alpha beta) = (a - 2q) / q, that excludes
exactly a = c q for c in {0, 1, 2, 3, 4}.

A prime is primitive for u_n when it divides u_n but not a * b * u_1 ... u_{n-1};
the pair is n-defective when u_n has none.  Primes come from sympy.factorint.

Run ``python3 perfbench/oracle.py`` to check the oracle against values known
apart from the package.
"""

from __future__ import annotations

from math import gcd


class WrongOutput(AssertionError):
    """The program gave an answer that is not the correct one."""


def is_valid(a: int, b: int) -> bool:
    if a * b == 0 or (a - b) % 4:
        return False
    q = (a - b) // 4
    if q == 0 or gcd(a, q) != 1:
        return False
    return all(a != c * q for c in range(5))


def u_prefix(a: int, b: int, n: int) -> list[int]:
    """[u_0, ..., u_n] by the Z[sqrt(a)] recurrence."""
    q = (a - b) // 4
    prev, cur = (0, 0), (1, 0)  # L_0, L_1 as x + y*sqrt(a)
    out = [0, 1]
    for k in range(2, n + 1):
        # s * (x + y s) = a y + x s
        prev, cur = cur, (a * cur[1] - q * prev[0], cur[0] - q * prev[1])
        x, y = cur
        if k % 2:
            if y:
                raise ArithmeticError(f"L_{k} of ({a}, {b}) is not rational")
            out.append(x)
        else:
            if x:
                raise ArithmeticError(f"L_{k} of ({a}, {b}) is not a multiple of sqrt(a)")
            out.append(y)
    return out[: n + 1]


def primitive_primes(a: int, b: int, n: int) -> list[int]:
    """Primes of u_n that divide none of a, b, u_1, ..., u_{n-1}, ascending."""
    from sympy import factorint

    u = u_prefix(a, b, n)
    if u[n] == 0:
        raise ArithmeticError(f"u_{n} of ({a}, {b}) is zero")
    earlier = [a, b] + u[1:n]
    return sorted(p for p in factorint(abs(u[n])) if all(x % p for x in earlier))


def is_defective(a: int, b: int, n: int) -> bool:
    return not primitive_primes(a, b, n)


def self_check() -> None:
    """Raise AssertionError unless the oracle reproduces known values."""
    checks = [
        (u_prefix(-1, -5, 5), [0, 1, 1, -2, -3, 5]),
        # Fibonacci: (a, b) = (1, 5) gives p = 1, q = -1.
        (u_prefix(1, 5, 10), [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]),
        (is_valid(6, 2) and is_defective(6, 2, 4), True),
        (primitive_primes(5, 1, 5), [11]),
        ([is_valid(*ab) for ab in [(0, 4), (5, 5), (6, -2), (1, -3), (2, -2), (7, 3)]],
         [False, False, False, False, False, True]),
    ]
    for got, want in checks:
        if got != want:
            raise AssertionError(f"oracle self-check: got {got}, want {want}")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
