"""Lehmer pairs in (a, b) coordinates, their element sequences, and equivalence.

A Lehmer pair is a pair of algebraic integers (alpha, beta) such that
(alpha + beta)^2 and alpha * beta are nonzero coprime rational integers and
alpha / beta is not a root of unity.  Writing a = (alpha + beta)^2 and
b = (alpha - beta)^2, the pair is encoded by two integers with a == b mod 4,
and conversely (alpha, beta) = ((sqrt(a) - sqrt(b)) / 2, (sqrt(a) + sqrt(b)) / 2).
In the companion coordinates p = a, q = (a - b) / 4 we have alpha * beta = q
and alpha, beta are the roots of X^2 - sqrt(p) X + q.

Because alpha / beta has degree at most 2, it can only be a root of unity of
order 1, 2, 3, 4 or 6; those orders are exactly excluded by a != 0, b != 0
and the eight degenerate (p, q) pairs in DEGENERATE_PQ.

The element sequence u_n = (alpha^n - beta^n) / (alpha - beta) for odd n and
(alpha^n - beta^n) / (alpha^2 - beta^2) for even n is computed by the integer
recurrence

    u_0 = 0,  u_1 = 1,
    u_n = p * u_{n-1} - q * u_{n-2}   (n odd)
    u_n =     u_{n-1} - q * u_{n-2}   (n even)

which follows from L_{n+2} = sqrt(p) L_{n+1} - q L_n for
L_n = (alpha^n - beta^n)/(alpha - beta), together with L_n = u_n for odd n and
L_n = sqrt(p) u_n for even n.  The derivation is pinned by tests against
independently known prefixes.

Two pairs are equivalent when alpha1/alpha2 = beta1/beta2 is one of
+-1, +-sqrt(-1).  The multiplier +-1 fixes (a, b) and +-sqrt(-1) maps
(a, b) to (-a, -b), so an equivalence class in these coordinates is exactly
{(a, b), (-a, -b)}; the canonical representative has a > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import gcd
from typing import Iterator

# (p, q) pairs whose root ratio alpha/beta is a root of unity of order
# 3, 4 or 6 (orders 1 and 2 are the a = 0 and b = 0 cases).
DEGENERATE_PQ = frozenset(
    {(1, 1), (-1, -1), (2, 1), (-2, -1), (3, 1), (-3, -1), (4, 1), (-4, -1)}
)


class FailureKind(Enum):
    ZERO_A = "ZeroA"
    ZERO_B = "ZeroB"
    NOT_CONGRUENT_MOD_4 = "NotCongruentMod4"
    ZERO_Q = "ZeroQ"
    NOT_COPRIME = "NotCoprime"
    DEGENERATE_RATIO = "DegenerateRatio"


@dataclass(frozen=True)
class ValidationFailure:
    """First violated pair rule, under the fixed precedence of pair_failure."""

    kind: FailureKind
    pq: tuple[int, int] | None = None  # offending (p, q), DEGENERATE_RATIO only

    def describe(self) -> str:
        if self.kind is FailureKind.DEGENERATE_RATIO:
            return f"{self.kind.value}{self.pq}"
        return self.kind.value


class InvalidPairError(ValueError):
    """Raised by require_pair; carries the ValidationFailure."""

    def __init__(self, a: int, b: int, failure: ValidationFailure):
        super().__init__(f"({a}, {b}) is not a Lehmer pair: {failure.describe()}")
        self.failure = failure


@dataclass(frozen=True, order=True, slots=True)
class LehmerPair:
    """A validated (a, b) pair.  Construct through validate_ab or require_pair."""

    a: int
    b: int

    @property
    def p(self) -> int:
        return self.a

    @property
    def q(self) -> int:
        return (self.a - self.b) // 4


def pair_failure(a: int, b: int) -> ValidationFailure | None:
    """The first pair rule (a, b) breaks, or None when it is a Lehmer pair.

    Order: ZeroA, ZeroB, NotCongruentMod4, ZeroQ, NotCoprime, DegenerateRatio.
    Cheap structural checks come before arithmetic ones, and the first failure
    is the reported one, so error identities are deterministic.  No pair is
    built, so the search and the table enumeration call this on every tuple.
    """
    if a == 0:
        return ValidationFailure(FailureKind.ZERO_A)
    if b == 0:
        return ValidationFailure(FailureKind.ZERO_B)
    if (a - b) % 4:
        return ValidationFailure(FailureKind.NOT_CONGRUENT_MOD_4)
    q = (a - b) // 4
    if q == 0:
        return ValidationFailure(FailureKind.ZERO_Q)
    if gcd(a, q) != 1:
        return ValidationFailure(FailureKind.NOT_COPRIME)
    if (a, q) in DEGENERATE_PQ:
        return ValidationFailure(FailureKind.DEGENERATE_RATIO, (a, q))
    return None


def validate_ab(a: int, b: int) -> LehmerPair | ValidationFailure:
    """The LehmerPair (a, b), or the first rule it breaks (pair_failure)."""
    return pair_failure(a, b) or LehmerPair(a, b)


def require_pair(a: int, b: int) -> LehmerPair:
    """validate_ab, raising InvalidPairError instead of returning the failure."""
    failure = pair_failure(a, b)
    if failure is not None:
        raise InvalidPairError(a, b, failure)
    return LehmerPair(a, b)


def lehmer_elements(pair: LehmerPair) -> Iterator[int]:
    """u_0, u_1, u_2, ... of the pair's sequence, holding two terms at a time."""
    p, q = pair.a, pair.q
    prev, cur, i = 0, 1, 1
    yield prev
    while True:
        yield cur
        i += 1
        prev, cur = cur, (p * cur if i & 1 else cur) - q * prev


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"element index must be nonnegative, got {n}")


def lehmer_number(pair: LehmerPair, n: int) -> int:
    """Exact n-th element u_n of the pair's sequence, n >= 0."""
    _check_index(n)
    return next(islice(lehmer_elements(pair), n, None))


def lehmer_prefix(pair: LehmerPair, n: int) -> list[int]:
    """[u_0, ..., u_n]."""
    _check_index(n)
    return list(islice(lehmer_elements(pair), n + 1))


def discriminant_sq(pair: LehmerPair) -> int:
    """(alpha^2 - beta^2)^2 = a * b.  Negative when exactly one of a, b is."""
    return pair.a * pair.b


def canonicalize(pair: LehmerPair) -> LehmerPair:
    """The a > 0 representative of the pair's equivalence class."""
    if pair.a > 0:
        return pair
    return LehmerPair(-pair.a, -pair.b)


def equivalent(p1: LehmerPair, p2: LehmerPair) -> bool:
    """True iff the two pairs generate the same sequence up to sign."""
    return canonicalize(p1) == canonicalize(p2)
