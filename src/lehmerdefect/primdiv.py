"""Primitive-divisor tests for Lehmer pair elements.

A prime is a primitive divisor of u_n when it divides u_n but does not divide
D = (alpha^2 - beta^2)^2 * u_1 * ... * u_{n-1} = a * b * u_1 * ... * u_{n-1}.
A pair is n-defective when u_n has no primitive divisor.

The decision procedure never factors u_n: it strips m = |u_n| by gcd with D
until coprime.  The residual is the primitive part of u_n; it is 1 exactly
when the pair is n-defective.  defect_witness(pair, n) returns the whole
record (.defective, .primitive_primes); residual_after_stripping(a, b, n)
returns the residual alone, for the search loop.  Full factorization (trial
division, then Brent's cycle variant of the rho method with a deterministic
parameter sequence, behind a deterministic primality test) is used only for
reporting primitive primes and as an independent oracle in tests.

Indices 1 and 2 are excluded: u_1 = u_2 = 1, so every pair is trivially
1- and 2-defective.

CYCLOTOMIC_FORMS holds Phi_n(alpha, beta), the n-th cyclotomic factor of u_n,
as a binary form in (p, q) for each n with classified families.  A prime
that divides Phi_n(alpha, beta) and does not divide n is a primitive divisor
of u_n (Lehmer, Ann. of Math. 31 (1930); see also Voutier, Math. Comp. 64
(1995) and Bilu, Hanrot and Voutier, J. reine angew. Math. 539 (2001)).
So every n-defective pair has |Phi_n(p, q)| equal to a product of primes
of n, which is what lets the search solve for defective pairs; for the
quadratic forms the exponents of those primes are also capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .pairs import LehmerPair


class UnsupportedIndexError(ValueError):
    """Defectiveness is only decided for element indices n >= 3."""


@dataclass(frozen=True)
class DefectWitness:
    """Evidence record for one defectiveness decision.

    residual is the primitive part of |u_n| (coprime to the nonprimitive
    product, divides |u_n|); the pair is defective iff residual == 1.
    """

    pair: LehmerPair
    n: int
    u_n: int
    nonprim_product: int
    residual: int

    @property
    def defective(self) -> bool:
        return self.residual == 1

    @property
    def primitive_primes(self) -> tuple[int, ...]:
        """The primitive prime divisors of u_n, ascending; factors the residual."""
        return tuple(factorize(self.residual))


def _decide(a: int, b: int, n: int) -> tuple[int, int, int]:
    """(u_n, |a*b*u_1*...*u_{n-1}|, residual) for the (already validated) pair.

    u_n comes from the parity recurrence; signs are dropped after the loop,
    as gcd ignores them.  The residual is |u_n| stripped by gcd with the
    nonprimitive product until coprime.
    """
    if n < 3:
        raise UnsupportedIndexError(f"defectiveness is defined for n >= 3, got {n}")
    q = (a - b) // 4
    d = a * b
    prev, cur = 0, 1
    for i in range(2, n + 1):
        d *= cur
        prev, cur = cur, (a * cur if i & 1 else cur) - q * prev
    d, m = abs(d), abs(cur)
    if m == 0 or d == 0:
        raise ArithmeticError(f"zero element for ({a}, {b}); pair is degenerate")
    g = gcd(m, d)
    while g > 1:
        m //= g
        g = gcd(m, d)
    return cur, d, m


def residual_after_stripping(a: int, b: int, n: int) -> int:
    """Primitive part of |u_n| for the (already validated) pair (a, b)."""
    return _decide(a, b, n)[2]


def defect_witness(pair: LehmerPair, n: int) -> DefectWitness:
    """Decide n-defectiveness by gcd stripping."""
    return DefectWitness(pair, n, *_decide(pair.a, pair.b, n))


# n -> (coefficients of Phi_n(p, q) on p^d, p^(d-1) q, ..., q^d;
# (prime, cap) for each prime of n).  The cap is the largest exponent of the
# prime that divides Phi_n(p, q) when gcd(p, q) = 1, or None when there is
# none; each cap holds because no residue pair mod prime^(cap + 1), other
# than those with the prime dividing both p and q, makes the form vanish (a
# finite analogue of the bounds on the non-primitive part of Phi_n in
# Voutier (1995) and Bilu, Hanrot and Voutier (2001)).
# The product of Phi_d over the divisors d > 1 of odd n, or d >= 3 of even
# n, is u_n.  Tests pin both facts.
CYCLOTOMIC_FORMS: dict[int, tuple[tuple[int, ...], tuple[tuple[int, int | None], ...]]] = {
    3: ((1, -1), ((3, None),)),
    4: ((1, -2), ((2, None),)),
    5: ((1, -3, 1), ((5, 1),)),
    6: ((1, -3), ((2, None), (3, None))),
    8: ((1, -4, 2), ((2, 1),)),
    10: ((1, -5, 5), ((2, 0), (5, 1))),
    12: ((1, -4, 1), ((2, 1), (3, 1))),
}


# ---------------------------------------------------------------------------
# Exact integer factorization
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 4096
_trial_primes: list[int] = []


def _small_primes() -> list[int]:
    if not _trial_primes:
        sieve = bytearray(b"\x01") * (_TRIAL_LIMIT + 1)
        sieve[:2] = b"\x00\x00"
        for i in range(2, isqrt(_TRIAL_LIMIT) + 1):
            if sieve[i]:
                sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
        _trial_primes.extend(i for i, v in enumerate(sieve) if v)
    return _trial_primes


# Sorenson-Webster base set: the Miller-Rabin test with these twelve bases is
# a proven primality test below 3317044064679887385961981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3317044064679887385961981


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters (n odd, > 2)."""
    if isqrt(n) ** 2 == n:
        return False
    d_param = 5
    while _jacobi(d_param, n) != -1:
        d_param = -(d_param + 2) if d_param > 0 else -(d_param - 2)
    p_param, q_param = 1, (1 - d_param) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    inv2 = (n + 1) // 2  # 2 * inv2 == 1 mod n
    u, v, qk = 0, 2, 1
    for bit in bin(d)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p_param * u + v) * inv2 % n, (d_param * u + p_param * v) * inv2 % n
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Proven exact below the Sorenson-Webster bound ~3.3e24; beyond that the
    Miller-Rabin bases are reinforced with a strong Lucas test (the combined
    test has no known counterexample at any size).
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        if n % p == 0:
            return n == p
    if not _miller_rabin(n, _MR_BASES):
        return False
    if n < _MR_PROVEN_LIMIT:
        return True
    return _strong_lucas(n)


def _brent_rho(n: int, c: int) -> int:
    """One Brent rho round on odd composite n; may return n (caller retries)."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g


def _split(n: int) -> int:
    """A nontrivial factor of the odd composite n with no factor <= _TRIAL_LIMIT.

    The polynomial offset c walks a sequence determined by n alone, so the
    factorization of a given input is reproducible in any schedule.
    """
    root = isqrt(n)
    if root * root == n:
        return root
    for c in range(1, 200):
        g = _brent_rho(n, c)
        if 1 < g < n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(m: int) -> dict[int, int]:
    """Exact prime factorization of m >= 1 as {prime: exponent}, primes ascending."""
    if m < 1:
        raise ValueError(f"factorize needs m >= 1, got {m}")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        x = stack.pop()
        if x == 1:
            continue
        if is_prime(x):
            out[x] = out.get(x, 0) + 1
            continue
        d = _split(x)
        stack.append(d)
        stack.append(x // d)
    return dict(sorted(out.items()))
