"""Integer recurrence sequences that parametrize the defective-pair families.

Eight sequences, all second order with constant coefficients:

    phi     Fibonacci numbers, extended down to index -2
    psi     Lucas numbers, extended down to index -2
    pi      Pell numbers, extended down to index -1
    rho     half companion Pell numbers, extended down to index -1
    zeta0..zeta3   the four s(k+1) = 4 s(k) - s(k-1) sequences used for
                   index 12, each extended down to index -1

The negative-index seeds are the unique downward continuation of each
recurrence; family formulas evaluate them at small negative indices, so
they are part of the contract, not an implementation convenience.

seq_values(seq, k) is the one walk: s(k), s(k + 1), ..., the recurrence
stepped once per value, up from the seeds.  seq_eval(seq, k) is its first
value.  All values are exact (unbounded) integers.
Elements grow exponentially: phi(100) no longer fits in 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator


class SequenceId(str, Enum):
    PHI = "phi"
    PSI = "psi"
    PI = "pi"
    RHO = "rho"
    ZETA0 = "zeta0"
    ZETA1 = "zeta1"
    ZETA2 = "zeta2"
    ZETA3 = "zeta3"


class IndexBelowMinimumError(ValueError):
    """Requested index precedes the first defined element of the sequence."""


@dataclass(frozen=True)
class SequenceSpec:
    """One recurrence s(k+1) = coeff_a * s(k) + coeff_b * s(k-1) with its seeds.

    seed0 and seed1 are the values at min_index and min_index + 1.
    """

    id: SequenceId
    coeff_a: int
    coeff_b: int
    min_index: int
    seed0: int
    seed1: int


SPECS: dict[SequenceId, SequenceSpec] = {
    SequenceId.PHI: SequenceSpec(SequenceId.PHI, 1, 1, -2, -1, 1),
    SequenceId.PSI: SequenceSpec(SequenceId.PSI, 1, 1, -2, 3, -1),
    SequenceId.PI: SequenceSpec(SequenceId.PI, 2, 1, -1, 1, 0),
    SequenceId.RHO: SequenceSpec(SequenceId.RHO, 2, 1, -1, -1, 1),
    SequenceId.ZETA0: SequenceSpec(SequenceId.ZETA0, 4, -1, -1, -1, 0),
    SequenceId.ZETA1: SequenceSpec(SequenceId.ZETA1, 4, -1, -1, 2, 1),
    SequenceId.ZETA2: SequenceSpec(SequenceId.ZETA2, 4, -1, -1, 1, 1),
    SequenceId.ZETA3: SequenceSpec(SequenceId.ZETA3, 4, -1, -1, -1, 1),
}

ZETAS = (SequenceId.ZETA0, SequenceId.ZETA1, SequenceId.ZETA2, SequenceId.ZETA3)


def seq_values(seq: SequenceId, k: int) -> Iterator[int]:
    """s(k), s(k + 1), s(k + 2), ... of the sequence, one recurrence step per
    value, walked up from its seeds.  The index is checked before this
    returns."""
    spec = SPECS[seq]
    if k < spec.min_index:
        raise IndexBelowMinimumError(
            f"{seq.value} is defined for k >= {spec.min_index}, got k={k}"
        )
    return islice(_walk(spec), k - spec.min_index, None)


def _walk(spec: SequenceSpec) -> Iterator[int]:
    lo, hi = spec.seed0, spec.seed1
    while True:
        yield lo
        lo, hi = hi, spec.coeff_a * hi + spec.coeff_b * lo


def seq_eval(seq: SequenceId, k: int) -> int:
    """Exact k-th element of the sequence: the first of seq_values."""
    return next(seq_values(seq, k))
