import pytest

from lehmerdefect.sequences import (
    SPECS,
    ZETAS,
    IndexBelowMinimumError,
    SequenceId,
    seq_eval,
)

PHI, PSI, PI, RHO = SequenceId.PHI, SequenceId.PSI, SequenceId.PI, SequenceId.RHO
Z0, Z1, Z2, Z3 = ZETAS

# Seed and canonical low-index values each sequence must reproduce.
SEED_GOLDENS = [
    (PHI, -2, -1), (PHI, -1, 1), (PHI, 0, 0), (PHI, 1, 1),
    (PSI, -2, 3), (PSI, -1, -1), (PSI, 0, 2), (PSI, 1, 1),
    (PI, -1, 1), (PI, 0, 0), (PI, 1, 1),
    (RHO, -1, -1), (RHO, 0, 1), (RHO, 1, 1),
    (Z0, -1, -1), (Z0, 0, 0), (Z0, 1, 1),
    (Z1, -1, 2), (Z1, 0, 1), (Z1, 1, 2),
    (Z2, -1, 1), (Z2, 0, 1), (Z2, 1, 3),
    (Z3, -1, -1), (Z3, 0, 1), (Z3, 1, 5),
]


@pytest.mark.parametrize("seq,k,expected", SEED_GOLDENS)
def test_seed_goldens(seq, k, expected):
    assert seq_eval(seq, k) == expected


@pytest.mark.parametrize(
    "seq,k,expected",
    [
        (PI, 4, 12),   # unroll: 1, 0, 1, 2, 5, 12
        (RHO, 3, 7),   # unroll: -1, 1, 1, 3, 7
        (PHI, 10, 55),
        (PSI, 10, 123),
    ],
)
def test_unrolled_values(seq, k, expected):
    assert seq_eval(seq, k) == expected


@pytest.mark.parametrize(
    "seq,lo,hi,expected",
    [
        (PHI, 0, 5, [0, 1, 1, 2, 3, 5]),
        (Z0, -1, 3, [-1, 0, 1, 4, 15]),
        (PSI, -2, 3, [3, -1, 2, 1, 3, 4]),
        (PI, -1, -1, [1]),
    ],
)
def test_seq_range(seq, lo, hi, expected):
    assert [seq_eval(seq, k) for k in range(lo, hi + 1)] == expected


def test_seq_range_rejects_empty_and_low():
    # A range is walked through seq_eval: an empty one yields nothing, and
    # one that starts below PHI's minimum index raises at its first element.
    assert [seq_eval(PHI, k) for k in range(3, 2 + 1)] == []
    with pytest.raises(IndexBelowMinimumError):
        [seq_eval(PHI, k) for k in range(-3, 0 + 1)]


@pytest.mark.parametrize("seq", list(SequenceId))
def test_index_below_minimum(seq):
    with pytest.raises(IndexBelowMinimumError):
        seq_eval(seq, SPECS[seq].min_index - 1)


@pytest.mark.parametrize("seq", list(SequenceId))
def test_recurrence_holds_to_200(seq):
    spec = SPECS[seq]
    vals = [seq_eval(seq, k) for k in range(spec.min_index, 200 + 1)]
    for i in range(2, len(vals)):
        assert vals[i] == spec.coeff_a * vals[i - 1] + spec.coeff_b * vals[i - 2]


@pytest.mark.parametrize("seq", list(SequenceId))
def test_negative_extension_consistent_downward(seq):
    # Run the recurrence backwards from the k=0,1 values; the stored seeds
    # must be the unique downward continuation.
    spec = SPECS[seq]
    v0, v1 = seq_eval(seq, 0), seq_eval(seq, 1)
    for k in range(-1, spec.min_index - 1, -1):
        # s(k) = (s(k+2) - A s(k+1)) / B
        prev = (v1 - spec.coeff_a * v0) // spec.coeff_b
        assert prev * spec.coeff_b == v1 - spec.coeff_a * v0
        assert prev == seq_eval(seq, k)
        v0, v1 = prev, v0


def test_zeta_interleaving_to_60():
    for k in range(1, 61):
        assert (
            seq_eval(Z3, k - 1)
            < seq_eval(Z1, k)
            < seq_eval(Z2, k)
            < seq_eval(Z0, k + 1)
            < seq_eval(Z3, k)
        )


@pytest.mark.parametrize("seq", list(SequenceId))
def test_abs_monotone_from_2(seq):
    prev = abs(seq_eval(seq, 2))
    for k in range(3, 201):
        cur = abs(seq_eval(seq, k))
        assert cur > prev
        prev = cur

