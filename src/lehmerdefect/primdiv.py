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
parameter sequence and a fixed budget of iterations, behind a deterministic
primality test) is used only for reporting primitive primes and as an
independent oracle in tests.

Indices 1 and 2 are excluded: u_1 = u_2 = 1, so every pair is trivially
1- and 2-defective.

CYCLOTOMIC_FORMS holds Phi_n(alpha, beta), the n-th cyclotomic factor of u_n,
as a binary form in (p, q) for each n with classified families.  A prime
that divides Phi_n(alpha, beta) and does not divide n is a primitive divisor
of u_n (Lehmer, Ann. of Math. 31 (1930); see also Voutier, Math. Comp. 64
(1995) and Bilu, Hanrot and Voutier, J. reine angew. Math. 539 (2001)).
So every n-defective pair has |Phi_n(p, q)| equal to a product of primes
of n, which is what lets the search solve for defective pairs; for the
quadratic forms the exponents of those primes are also capped, and _orbits
gives the unit M of each quadratic form and one root per orbit of M: the
search walks these orbits, and families.certificate proves each half-orbit
one sequence row of the family table.
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
        """The primitive prime divisors of u_n, ascending; factors the residual
        (FactorBudgetError past factorize's budget)."""
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


def _apply(m, p, q):
    return m[0] * p + m[1] * q, m[2] * p + m[3] * q


def _walk(m, p, q, bound):
    """(p, q), M(p, q), M^2(p, q), ... up to the first point with 2|q| > bound."""
    while 2 * abs(q) <= bound:
        yield p, q
        p, q = _apply(m, p, q)


def _orbits(n: int) -> tuple[tuple[int, int, int, int], list[tuple[int, int]]]:
    """(M, representatives) of the quadratic form of n: M = (m11, m12, m21,
    m22) multiplies xi = X + Y sqrt(D) by eps, and the representatives are
    one root (p, q) of Phi_n(p, q) = t per orbit of M, for every capped
    target t.  Every root lies on one orbit, and |q| does not decrease along
    the walk by M from a representative, nor along the walk by M^-1 from its
    M^-1 image (the proof is in the harness module docstring).  The search
    walks these half-orbits, and families.certificate proves each one a
    sequence row."""
    (_, c1, c2), prime_caps = CYCLOTOMIC_FORMS[n]
    d = c1 * c1 - 4 * c2
    u0 = 1  # the least positive solution (T0, U0) of T^2 - D U^2 = 4
    while isqrt(4 + d * u0 * u0) ** 2 != 4 + d * u0 * u0:
        u0 += 1
    t0 = isqrt(4 + d * u0 * u0)
    m = ((t0 - c1 * u0) // 2, -c2 * u0, u0, (t0 + c1 * u0) // 2)
    back = (m[3], -m[1], -m[2], m[0])
    sizes = [1]  # every product of primes of n within their caps
    for prime, cap in prime_caps:
        sizes += [size * prime**e for size in sizes for e in range(1, cap + 1)]
    reps = []
    for size in sizes:
        for t in (size, -size):
            # D Y^2 < |t| (T0 + 1)^2, so Y^2 <= (|t| (T0 + 1)^2 - 1) // D.
            y_max = isqrt((abs(t) * (t0 + 1) ** 2 - 1) // d)
            for q in range(-y_max, y_max + 1):
                x_sq = 4 * t + d * q * q
                x = isqrt(max(x_sq, 0))
                if x * x != x_sq:
                    continue
                for x in {x, -x}:  # X == c1 Y mod 2, as X^2 == D Y^2 mod 4
                    p = (x - c1 * q) // 2
                    p_back, q_back = _apply(back, p, q)
                    if x * q >= 0 and (2 * p_back + c1 * q_back) * q_back < 0:
                        reps.append((p, q))
    return m, reps


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


# Rho iterations one factorize call may spend over all its splits.  The
# count is kept once per block of steps (a round's advance, and each batch
# of at most 128 steps between two gcds), so the inner loops pay nothing
# for it; a call can pass it by one batch and the backtrack over that batch.
# The budget is a count, not a time, so where a factorization stops depends
# on the input alone.
RHO_BUDGET = 1 << 18


class FactorBudgetError(ArithmeticError):
    """factorize spent RHO_BUDGET rho iterations and left a composite unsplit.

    primes holds the prime factors found, as factorize returns them;
    cofactor is the product of the parts left unsplit.  Each of those parts
    failed the primality test, so cofactor is composite, never a prime.
    """

    def __init__(self, primes: dict[int, int], cofactor: int):
        super().__init__(f"composite cofactor left unsplit after {RHO_BUDGET} rho iterations")
        self.primes = primes
        self.cofactor = cofactor


def _brent_rho(n: int, c: int, budget: int) -> tuple[int, int]:
    """One Brent rho round on odd composite n, within budget iterations:
    (g, budget left).  g may be n (caller retries), or 1 when the budget ran
    out first."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        if budget < r:
            return 1, budget
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        budget -= r
        k = 0
        while k < r and g == 1 and budget > 0:
            ys = y
            steps = min(128, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
            budget -= steps
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g, budget


def _split(n: int, budget: int) -> tuple[int | None, int]:
    """A nontrivial factor of the odd composite n with no factor <= _TRIAL_LIMIT,
    or None once the budget of rho iterations is spent; and the budget left.

    The polynomial offset c walks a sequence determined by n alone, so the
    factorization of a given input is reproducible in any schedule.
    """
    root = isqrt(n)
    if root * root == n:
        return root, budget
    for c in range(1, 200):
        if budget <= 0:
            return None, budget
        g, budget = _brent_rho(n, c, budget)
        if 1 < g < n:
            return g, budget
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(m: int) -> dict[int, int]:
    """Exact prime factorization of m >= 1 as {prime: exponent}, primes ascending.

    Trial division by the primes up to _TRIAL_LIMIT stops at the first p
    with p * p > m; what is left of m then has no prime factor below p and
    is below p², so it is 1 or a prime, with no test.  is_prime, and rho
    where it fails, run only on a cofactor left after every trial prime.

    Raises FactorBudgetError, with the primes found and the composite part
    left, when the rho splits would take more than RHO_BUDGET iterations.
    """
    if m < 1:
        raise ValueError(f"factorize needs m >= 1, got {m}")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > m:
            if m > 1:
                out[m] = 1
                m = 1
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    budget, unsplit = RHO_BUDGET, 1
    while stack:
        x = stack.pop()
        if is_prime(x):
            out[x] = out.get(x, 0) + 1
            continue
        d, budget = _split(x, budget)
        if d is None:
            unsplit *= x
        else:
            stack.append(d)
            stack.append(x // d)
    primes = dict(sorted(out.items()))
    if unsplit > 1:
        raise FactorBudgetError(primes, unsplit)
    return primes
