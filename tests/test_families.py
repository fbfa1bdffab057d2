import itertools

import pytest

from lehmerdefect.families import (
    SUPPORTED_N,
    ConstraintViolation,
    DuplicateOf,
    FamilyEntry,
    FamilyParams,
    FamilyRowId,
    NotAnExclusionError,
    Unexplained,
    UnsupportedNError,
    _ROWS,
    audit_exclusion,
    enumerate_families,
    enumerate_with_anomalies,
    family_rows,
    instantiate,
    raw_ab,
)
from lehmerdefect.pairs import FailureKind, ValidationFailure, canonicalize, pair_failure, validate_ab
from lehmerdefect.primdiv import CYCLOTOMIC_FORMS, defect_witness
from lehmerdefect.sequences import SequenceId, seq_eval

R = FamilyRowId


class TestRows:
    def test_rows_per_n(self):
        assert family_rows(3) == [R.N3_Q, R.N3_POW3]
        assert family_rows(4) == [R.N4_Q, R.N4_POW2]
        assert family_rows(5) == [R.N5_PHI, R.N5_PSI]
        assert family_rows(6) == [R.N6_Q, R.N6_POW3, R.N6_POW2, R.N6_POW6]
        assert family_rows(8) == [R.N8_RHO, R.N8_PI]
        assert family_rows(10) == [R.N10_PHI, R.N10_PSI]
        assert family_rows(12) == [
            R.N12_ZETA0,
            R.N12_ZETA1,
            R.N12_ZETA2,
            R.N12_ZETA3,
        ]

    def test_one_index_set(self):
        # search solves CYCLOTOMIC_FORMS[n] for every n that has table rows:
        # the supported n, the n of the rows and the forms' keys are one set.
        rows = [row for n in SUPPORTED_N for row in family_rows(n)]
        assert sorted(rows) == sorted(FamilyRowId)
        assert all(family_rows(n) for n in SUPPORTED_N)
        assert set(CYCLOTOMIC_FORMS) == set(SUPPORTED_N)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 9, 11, 13])
    def test_unsupported_n(self, n):
        with pytest.raises(UnsupportedNError):
            family_rows(n)
        with pytest.raises(UnsupportedNError):
            enumerate_families(n, 10)

    def test_eps_must_be_unit(self):
        with pytest.raises(ValueError):
            FamilyParams(k=1, eps=2)


class TestInstantiate:
    def test_once_missing_psi_tuple(self):
        e = instantiate(R.N5_PSI, FamilyParams(k=1, eps=1))
        assert isinstance(e, FamilyEntry)
        assert e.raw_ab == (-1, -5)
        assert e.canonical_ab == (1, 5)

    def test_excluded_duplicate_tuple(self):
        res = instantiate(R.N5_PSI, FamilyParams(k=0, eps=-1))
        assert isinstance(res, ConstraintViolation)

    def test_free_q_row(self):
        e = instantiate(R.N3_Q, FamilyParams(q=2))
        assert isinstance(e, FamilyEntry)
        assert e.raw_ab == (3, -5)

    def test_zeta3_added_instance(self):
        e = instantiate(R.N12_ZETA3, FamilyParams(k=0, eps=1))
        assert isinstance(e, FamilyEntry)
        assert e.raw_ab == (-1, -5)
        assert e.canonical_ab == (1, 5)

    def test_pell_row(self):
        e = instantiate(R.N8_RHO, FamilyParams(k=2, eps=1))
        assert isinstance(e, FamilyEntry)
        assert e.raw_ab == (1, -7)

    @pytest.mark.parametrize(
        "row,params",
        [
            (R.N3_POW3, FamilyParams(k=0, q=2)),   # k > 0 required
            (R.N3_POW3, FamilyParams(k=2, q=6)),   # 3 | q
            (R.N4_POW2, FamilyParams(k=3, q=4)),   # 2 | q
            (R.N5_PHI, FamilyParams(k=2, eps=1)),  # k >= 3 required
            (R.N6_POW6, FamilyParams(k=1, l=1, q=3)),  # gcd(6, q) != 1
            (R.N8_PI, FamilyParams(k=1, eps=-1)),  # k >= 2 required
            (R.N12_ZETA0, FamilyParams(k=-1, eps=1)),  # k >= 0 required
        ],
    )
    def test_constraint_violations(self, row, params):
        assert isinstance(instantiate(row, params), ConstraintViolation)

    @pytest.mark.parametrize(
        "row,params",
        [
            (R.N3_Q, FamilyParams(k=1, q=2)),      # stray k
            (R.N3_POW3, FamilyParams(q=2)),        # missing k
            (R.N5_PHI, FamilyParams(k=3)),         # missing eps
            (R.N6_POW3, FamilyParams(k=1, q=2)),   # l expected, not k
        ],
    )
    def test_shape_errors(self, row, params):
        with pytest.raises(ValueError):
            instantiate(row, params)

    def test_entry_invariants(self):
        e = instantiate(R.N6_POW6, FamilyParams(k=1, l=1, q=5))
        assert isinstance(e, FamilyEntry)
        assert e.raw_ab == (6 + 15, 6 - 5)
        assert (e.pair.a, e.pair.b) == e.raw_ab
        canon = canonicalize(e.pair)
        assert e.canonical_ab == (canon.a, canon.b)


class TestRecords:
    """Table entries are slot-backed and derive their pair from raw_ab."""

    def test_no_instance_dict(self):
        e = enumerate_families(5, 50)[0]
        for obj in (e, e.params, e.pair):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_pair_and_canonical_follow_raw_ab(self, n):
        for e in enumerate_families(n, 500):
            assert e.pair == validate_ab(*e.raw_ab)
            canon = canonicalize(e.pair)
            assert e.canonical_ab == (canon.a, canon.b)

    def test_params_eps_checked(self):
        with pytest.raises(ValueError):
            FamilyParams(eps=2)


class TestEnumerate:
    def test_bound_7_index_5(self):
        got = [e.canonical_ab for e in enumerate_families(5, 7)]
        assert sorted(got) == [(1, -7), (1, 5), (3, -5), (5, -3), (7, -5)]
        assert len(set(got)) == len(got)

    def test_bound_0_empty(self):
        assert enumerate_families(3, 0) == []

    def test_bound_7_index_10_is_swap_of_5(self):
        ten = {e.canonical_ab for e in enumerate_families(10, 7)}
        five = {e.canonical_ab for e in enumerate_families(5, 7)}
        swapped = {(b, a) if b > 0 else (-b, -a) for a, b in five}
        assert ten == swapped

    def test_deterministic_order(self):
        first = [(e.row, e.params) for e in enumerate_families(6, 300)]
        second = [(e.row, e.params) for e in enumerate_families(6, 300)]
        assert first == second

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_in_bounds_and_valid(self, n):
        entries, anomalies = enumerate_with_anomalies(n, 200)
        assert anomalies == []
        for e in entries:
            assert max(abs(e.raw_ab[0]), abs(e.raw_ab[1])) <= 200
            assert e.n == n
            assert defect_witness(e.pair, n).defective

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_intra_n_distinct_at_500(self, n):
        for e in enumerate_families(n, 500):
            assert e.provenance == (), f"{e.row}({e.params.compact()}) duplicated"

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_nested_bounds(self, n):
        small = {e.canonical_ab for e in enumerate_families(n, 100)}
        large = {e.canonical_ab for e in enumerate_families(n, 400)}
        assert small <= large

    @pytest.mark.parametrize("n,seqs", [(5, (SequenceId.PHI, SequenceId.PSI)),
                                        (8, (SequenceId.PI, SequenceId.RHO))])
    def test_q_identification(self, n, seqs):
        for e in enumerate_families(n, 300):
            seq = seqs[0] if e.row in (R.N5_PHI, R.N8_RHO) else seqs[1]
            assert e.pair.q == seq_eval(seq, e.params.k)

    def test_q_identification_zeta(self):
        zmap = {
            R.N12_ZETA0: SequenceId.ZETA0,
            R.N12_ZETA1: SequenceId.ZETA1,
            R.N12_ZETA2: SequenceId.ZETA2,
            R.N12_ZETA3: SequenceId.ZETA3,
        }
        for e in enumerate_families(12, 300):
            assert e.pair.q == seq_eval(zmap[e.row], e.params.k)

    def test_q_identification_swapped_rows(self):
        for e in enumerate_families(10, 300):
            seq = SequenceId.PHI if e.row is R.N10_PHI else SequenceId.PSI
            assert e.pair.q == -seq_eval(seq, e.params.k)


ROW_FIELDS = {
    R.N3_Q: ("q",),
    R.N3_POW3: ("k", "q"),
    R.N4_Q: ("q",),
    R.N4_POW2: ("k", "q"),
    R.N5_PHI: ("k", "eps"),
    R.N5_PSI: ("k", "eps"),
    R.N6_Q: ("q",),
    R.N6_POW3: ("l", "q"),
    R.N6_POW2: ("k", "q"),
    R.N6_POW6: ("k", "l", "q"),
    R.N8_RHO: ("k", "eps"),
    R.N8_PI: ("k", "eps"),
    R.N10_PHI: ("k", "eps"),
    R.N10_PSI: ("k", "eps"),
    R.N12_ZETA0: ("k", "eps"),
    R.N12_ZETA1: ("k", "eps"),
    R.N12_ZETA2: ("k", "eps"),
    R.N12_ZETA3: ("k", "eps"),
}
GRID = {"k": range(-1, 14), "l": range(-1, 9), "q": range(-602, 603), "eps": (1, -1)}


class TestRowsAgreeWithSideConditions:
    """Enumeration admits exactly the tuples instantiate accepts in bound."""

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_enumeration_equals_accepted_grid(self, n):
        bound = 300
        entries, anomalies = enumerate_with_anomalies(n, bound)
        got = [(e.row, e.params) for e in entries]
        got += [(s.row, s.params) for e in entries for s in e.provenance]
        got += [(row, params) for row, params, _, _ in anomalies]
        want = []
        for row in family_rows(n):
            names = ROW_FIELDS[row]
            for values in itertools.product(*(GRID[name] for name in names)):
                params = FamilyParams(**dict(zip(names, values)))
                if isinstance(instantiate(row, params), ConstraintViolation):
                    continue
                if max(map(abs, raw_ab(row, params))) <= bound:
                    want.append((row, params))
        assert len(got) == len(set(got))
        assert set(got) == set(want)


class TestLiteralTenFormulas:
    @pytest.mark.parametrize("row,seq,k_min", [(R.N10_PHI, SequenceId.PHI, 3),
                                               (R.N10_PSI, SequenceId.PSI, 0)])
    def test_swap_matches_written_out_formula(self, row, seq, k_min):
        # The swapped implementation must equal the written-out form
        # (s(k-2e) - 4 s(k), s(k-2e)).
        for k in range(k_min, 15):
            for eps in (1, -1):
                t = seq_eval(seq, k - 2 * eps)
                expected = (t - 4 * seq_eval(seq, k), t)
                assert raw_ab(row, FamilyParams(k=k, eps=eps)) == expected


EXPECTED_EXCLUSIONS = [
    (3, R.N3_Q, FamilyParams(q=-1), FailureKind.ZERO_A, None),
    (3, R.N3_Q, FamilyParams(q=0), FailureKind.ZERO_Q, None),
    (3, R.N3_Q, FamilyParams(q=1), FailureKind.DEGENERATE_RATIO, (2, 1)),
    (3, R.N3_POW3, FamilyParams(k=1, q=1), FailureKind.ZERO_B, None),
    (4, R.N4_Q, FamilyParams(q=-1), FailureKind.DEGENERATE_RATIO, (-1, -1)),
    (4, R.N4_Q, FamilyParams(q=0), FailureKind.ZERO_Q, None),
    (4, R.N4_Q, FamilyParams(q=1), FailureKind.DEGENERATE_RATIO, (3, 1)),
    (4, R.N4_POW2, FamilyParams(k=1, q=-1), FailureKind.ZERO_A, None),
    (4, R.N4_POW2, FamilyParams(k=1, q=1), FailureKind.ZERO_B, None),
    (6, R.N6_Q, FamilyParams(q=-1), FailureKind.DEGENERATE_RATIO, (-2, -1)),
    (6, R.N6_Q, FamilyParams(q=0), FailureKind.ZERO_Q, None),
    (6, R.N6_Q, FamilyParams(q=1), FailureKind.ZERO_B, None),
    (6, R.N6_POW3, FamilyParams(l=1, q=-1), FailureKind.ZERO_A, None),
    (6, R.N6_POW2, FamilyParams(k=1, q=-1), FailureKind.DEGENERATE_RATIO, (-1, -1)),
    (12, R.N12_ZETA0, FamilyParams(k=0, eps=1), FailureKind.ZERO_Q, None),
    (12, R.N12_ZETA0, FamilyParams(k=0, eps=-1), FailureKind.ZERO_Q, None),
    (12, R.N12_ZETA0, FamilyParams(k=1, eps=1), FailureKind.ZERO_A, None),
    (12, R.N12_ZETA0, FamilyParams(k=1, eps=-1), FailureKind.ZERO_B, None),
    (12, R.N12_ZETA1, FamilyParams(k=0, eps=1), FailureKind.DEGENERATE_RATIO, (2, 1)),
    (12, R.N12_ZETA1, FamilyParams(k=0, eps=-1), FailureKind.DEGENERATE_RATIO, (2, 1)),
    (12, R.N12_ZETA2, FamilyParams(k=0, eps=1), FailureKind.DEGENERATE_RATIO, (1, 1)),
    (12, R.N12_ZETA2, FamilyParams(k=0, eps=-1), FailureKind.DEGENERATE_RATIO, (3, 1)),
]


class TestAuditExclusion:
    @pytest.mark.parametrize("n,row,params,kind,pq", EXPECTED_EXCLUSIONS)
    def test_invalid_exclusions(self, n, row, params, kind, pq):
        reason = audit_exclusion(n, row, params)
        assert isinstance(reason, ValidationFailure)
        assert reason.kind is kind
        if pq is not None:
            assert reason.pq == pq
        assert reason == pair_failure(*raw_ab(row, params))

    @pytest.mark.parametrize(
        "n,row,params,of_params",
        [
            (5, R.N5_PSI, FamilyParams(k=0, eps=-1), FamilyParams(k=0, eps=1)),
            (5, R.N5_PSI, FamilyParams(k=1, eps=-1), None),  # (4, 0): invalid instead
            (10, R.N10_PSI, FamilyParams(k=0, eps=-1), FamilyParams(k=0, eps=1)),
        ],
    )
    def test_duplicates(self, n, row, params, of_params):
        reason = audit_exclusion(n, row, params)
        if of_params is None:
            assert isinstance(reason, ValidationFailure)
        else:
            assert isinstance(reason, DuplicateOf)
            assert reason.params == of_params

    def test_open_question_pair_is_unexplained(self):
        # (k, q) = (2, 1) gives (6, 2): a valid pair equivalent to no table
        # entry.  The audit must surface it, not explain it away; the search
        # harness is the arbiter (verify_table reports it as missing).
        reason = audit_exclusion(4, R.N4_POW2, FamilyParams(k=2, q=1))
        assert isinstance(reason, Unexplained)
        assert reason.raw_ab == (6, 2)
        assert reason.canonical_ab == (6, 2)

    def test_every_row_exclusion_is_explained(self):
        # Straight from the row records, so no excluded tuple goes unchecked:
        # each is invalid or a duplicate, except the open (6, 2) question.
        checked = 0
        for row, d in _ROWS.items():
            for values in d.excluded:
                params = FamilyParams(**dict(zip(d.fields, values)))
                reason = audit_exclusion(d.n, row, params)
                if (row, values) == (R.N4_POW2, (2, 1)):
                    assert reason == Unexplained((6, 2), (6, 2))
                elif isinstance(reason, ValidationFailure):
                    assert reason == pair_failure(*raw_ab(row, params)), (row, values)
                else:
                    assert isinstance(reason, DuplicateOf), (row, values, reason)
                checked += 1
        assert checked == 27

    def test_not_an_exclusion(self):
        with pytest.raises(NotAnExclusionError):
            audit_exclusion(3, R.N3_Q, FamilyParams(q=2))
        with pytest.raises(NotAnExclusionError):
            audit_exclusion(8, R.N8_RHO, FamilyParams(k=0, eps=1))
