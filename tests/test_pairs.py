import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings

from conftest import fib, valid_pairs
from lehmerdefect.pairs import (
    DEGENERATE_PQ,
    FailureKind,
    InvalidPairError,
    LehmerPair,
    ValidationFailure,
    canonicalize,
    discriminant_sq,
    equivalent,
    lehmer_number,
    lehmer_prefix,
    pair_failure,
    require_pair,
    validate_ab,
)


class TestValidation:
    def test_minus1_minus5_is_valid(self):
        pair = validate_ab(-1, -5)
        assert isinstance(pair, LehmerPair)
        assert (pair.p, pair.q) == (-1, 1)

    @pytest.mark.parametrize(
        "a,b,kind",
        [
            (0, 4, FailureKind.ZERO_A),
            (4, 0, FailureKind.ZERO_B),
            (3, 2, FailureKind.NOT_CONGRUENT_MOD_4),
            (5, 5, FailureKind.ZERO_Q),
            (6, -2, FailureKind.NOT_COPRIME),
            (2, -2, FailureKind.DEGENERATE_RATIO),
        ],
    )
    def test_failure_kinds(self, a, b, kind):
        res = validate_ab(a, b)
        assert isinstance(res, ValidationFailure)
        assert res.kind is kind

    def test_degenerate_reports_offending_pq(self):
        res = validate_ab(2, -2)
        assert res == ValidationFailure(FailureKind.DEGENERATE_RATIO, (2, 1))

    def test_precedence_zero_a_before_mod4(self):
        assert validate_ab(0, 3).kind is FailureKind.ZERO_A

    def test_precedence_zero_b_before_degenerate(self):
        # (4, 0) is also (p, q) = (4, 1), but b = 0 is reported first
        assert validate_ab(4, 0).kind is FailureKind.ZERO_B

    @pytest.mark.parametrize("p,q", sorted(DEGENERATE_PQ))
    def test_all_degenerate_pq_rejected(self, p, q):
        res = validate_ab(p, p - 4 * q)
        assert isinstance(res, ValidationFailure)
        if (p, q) in ((4, 1), (-4, -1)):
            # b = p - 4q = 0 here, reported first under the precedence order
            assert res.kind is FailureKind.ZERO_B
        else:
            assert res.kind is FailureKind.DEGENERATE_RATIO
            assert res.pq == (p, q)

    def test_require_pair_raises(self):
        with pytest.raises(InvalidPairError) as exc:
            require_pair(3, 2)
        assert exc.value.failure.kind is FailureKind.NOT_CONGRUENT_MOD_4
        assert require_pair(-1, -5) == LehmerPair(-1, -5)

    def test_pair_failure_agrees_with_validate_ab(self):
        """pair_failure is None exactly where validate_ab and require_pair
        give the pair, and is otherwise their failure, kind and pq alike."""
        grid = [(a, b) for a in range(-60, 61) for b in range(-60, 61)]
        degenerate = [(p, p - 4 * q) for p, q in sorted(DEGENERATE_PQ)]
        kinds = set()
        for a, b in grid + degenerate:
            failure = pair_failure(a, b)
            res = validate_ab(a, b)
            if failure is None:
                assert res == LehmerPair(a, b)
                assert require_pair(a, b) == res
            else:
                assert isinstance(res, ValidationFailure)
                assert (res.kind, res.pq) == (failure.kind, failure.pq)
                with pytest.raises(InvalidPairError) as exc:
                    require_pair(a, b)
                assert exc.value.failure == failure
            kinds.add(None if failure is None else failure.kind)
        assert kinds == {None, *FailureKind}


class TestCoordinates:
    @pytest.mark.parametrize(
        "a,b,p,q",
        [(-1, -5, -1, 1), (1, 5, 1, -1), (3, -5, 3, 2)],
    )
    def test_pq_of(self, a, b, p, q):
        pair = require_pair(a, b)
        assert (pair.p, pair.q) == (p, q)

    @pytest.mark.parametrize(
        "p,q,a,b",
        [(-1, 1, -1, -5), (1, -1, 1, 5), (5, 1, 5, 1)],
    )
    def test_ab_of(self, p, q, a, b):
        assert validate_ab(p, p - 4 * q) == LehmerPair(a, b)

    @given(pair=valid_pairs())
    def test_round_trip(self, pair):
        assert validate_ab(pair.p, pair.p - 4 * pair.q) == pair
        assert pair.p == pair.a
        assert pair.q == (pair.a - pair.b) // 4

    @pytest.mark.parametrize(
        "a,b,expected",
        [(-1, -5, 5), (1, 5, 5), (1, -7, -7)],
    )
    def test_discriminant_sq(self, a, b, expected):
        assert discriminant_sq(require_pair(a, b)) == expected


class TestElements:
    def test_minus1_minus5_prefix(self):
        assert lehmer_prefix(require_pair(-1, -5), 5) == [0, 1, 1, -2, -3, 5]

    def test_u4_identity_example(self):
        # (3, -5) has p = 3, q = 2; u_4 = p - 2q = -1
        assert lehmer_number(require_pair(3, -5), 4) == -1

    def test_fibonacci_pair(self):
        pair = require_pair(1, 5)
        assert lehmer_number(pair, 12) == 144
        assert lehmer_prefix(pair, 6) == [0, 1, 1, 2, 3, 5, 8]

    def test_fibonacci_oracle_prefix_30(self):
        assert lehmer_prefix(require_pair(1, 5), 30) == [fib(i) for i in range(31)]

    def test_prefix_trivial(self):
        assert lehmer_prefix(require_pair(-1, -5), 0) == [0]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            lehmer_number(require_pair(1, 5), -1)

    def test_number_holds_two_terms(self):
        # u_20000 of (1, 5) has about 14,000 bits; the whole prefix is 18 MB.
        tracemalloc.start()
        try:
            lehmer_number(require_pair(1, 5), 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @given(pair=valid_pairs())
    def test_u1_u2_are_one(self, pair):
        assert lehmer_number(pair, 1) == 1
        assert lehmer_number(pair, 2) == 1

    @given(pair=valid_pairs())
    def test_u3_u4_closed_forms(self, pair):
        p, q = pair.p, pair.q
        assert lehmer_number(pair, 3) == p - q
        assert lehmer_number(pair, 4) == p - 2 * q

    @given(pair=valid_pairs())
    @settings(max_examples=60)
    def test_prefix_matches_pointwise(self, pair):
        prefix = lehmer_prefix(pair, 12)
        assert prefix == [lehmer_number(pair, i) for i in range(13)]

    @given(pair=valid_pairs())
    @settings(max_examples=60)
    def test_elements_nonzero_to_30(self, pair):
        for i, u in enumerate(lehmer_prefix(pair, 30)[1:], start=1):
            assert u != 0, f"u_{i} = 0"

    @given(pair=valid_pairs())
    @settings(max_examples=60)
    def test_elements_coprime_to_q(self, pair):
        q = pair.q
        for u in lehmer_prefix(pair, 12)[1:]:
            assert gcd(u, q) == 1


class TestEquivalence:
    @pytest.mark.parametrize(
        "a,b,ca,cb",
        [(-1, -5, 1, 5), (3, -5, 3, -5), (-5, 3, 5, -3)],
    )
    def test_canonicalize(self, a, b, ca, cb):
        assert canonicalize(require_pair(a, b)) == LehmerPair(ca, cb)

    @given(pair=valid_pairs())
    def test_canonicalize_idempotent(self, pair):
        canon = canonicalize(pair)
        assert canon.a > 0
        assert canonicalize(canon) == canon
        assert equivalent(pair, canon)

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            ((3, -5), (-3, 5), True),
            ((-1, -5), (1, 5), True),
            ((6, 2), (2, 6), False),  # component swap is not an equivalence
        ],
    )
    def test_equivalent_examples(self, x, y, expected):
        assert equivalent(require_pair(*x), require_pair(*y)) is expected

    @given(pair=valid_pairs())
    @settings(max_examples=60)
    def test_equivalence_transport(self, pair):
        mirror = require_pair(-pair.a, -pair.b)
        assert abs(mirror.q) == abs(pair.q)
        for u, v in zip(lehmer_prefix(pair, 12), lehmer_prefix(mirror, 12)):
            assert abs(u) == abs(v)
