import itertools
from dataclasses import replace

import pytest

from conftest import counted_linear_table, definitional_search
from lehmerdefect import families, harness
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
    certificate,
    instantiate,
    raw_ab,
    table_count,
    table_records,
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


class TestLinearCertificate:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_proved_for_every_bound(self, n):
        cert = certificate(n)
        assert cert.proved, cert.failures
        # (6, 2) is the one gap: valid, 4-defective and in no row instance.
        assert cert.gaps == (((6, 2),) if n == 4 else ())

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_no_power_term_past_the_bound_admits_a_q(self, n):
        # _Row.terms stops at t = bound: every term in (bound, 2 bound] has an
        # empty q range, as t is a weighted mean of a and b.
        for row in family_rows(n):
            d = _ROWS[row]
            for bound in range(1, 301):
                for _, t in families._power_terms(d.bases, 2 * bound):
                    assert t <= bound or not families._q_range(t, *d.m, bound), (row, bound, t)

    def test_quadratic_n_is_covered(self):
        # One certificate and one count for every n: the quadratic n are
        # proved too (TestSequenceCertificate), and counted from their walks.
        for n in (5, 8, 10, 12):
            assert certificate(n).proved
            assert table_count(n, 10) == (len(table_records(n, 10)[0]), ())

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_negative_bound_rejected(self, n):
        # The same check and message as row_walks and table_records.
        for table in (table_count, families.row_walks, table_records):
            with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
                table(n, -1)

    @pytest.mark.parametrize(
        "row,edit,failure",
        [
            # N3_Q's q = 0 gives (1, 1), which breaks ZeroQ.
            (R.N3_Q, lambda d: replace(d, excluded=((-1,), (1,))), "N3_Q(q=0) breaks ZeroQ"),
            # q = 5 gives the valid (6, -14): no exclusion lies that far out.
            (R.N3_Q, lambda d: replace(d, excluded=d.excluded + ((5,),)), "N3_Q(q=5): excluded"),
            (R.N6_POW6, None, "the rows' bases are not each set of primes of 6 once"),
            (R.N6_POW2, lambda d: replace(d, m=(1, -3)), "N6_POW2: not the progression"),
            (R.N4_Q, lambda d: replace(d, m=(3, -1)), "N4_Q: not the progression"),
        ],
    )
    def test_planted_faults_fail(self, monkeypatch, row, edit, failure):
        n = _ROWS[row].n
        if edit is None:  # a copy: deleting and restoring the key would reorder _ROWS
            monkeypatch.setattr(families, "_ROWS", {k: d for k, d in _ROWS.items() if k != row})
        else:
            monkeypatch.setitem(families._ROWS, row, edit(_ROWS[row]))
        cert = certificate(n)
        assert not cert.proved
        assert any(f.startswith(failure) for f in cert.failures), cert.failures

    def test_form_without_the_defect_fails_the_residue_check(self, monkeypatch):
        # Phi_3 taken as p - 2q, rows to match: the progressions and the
        # exclusions still agree, but 3 | p - 2q leaves 3 out of a b u_1 u_2.
        monkeypatch.setitem(CYCLOTOMIC_FORMS, 3, ((1, -2), ((3, None),)))
        for row in (R.N3_Q, R.N3_POW3):
            monkeypatch.setitem(families._ROWS, row, replace(_ROWS[row], m=(2, -2)))
        cert = certificate(3)
        assert cert.failures and all(f.startswith("(p, q) = (") for f in cert.failures), cert.failures

    def test_degenerate_ratio_outside_the_window_fails(self, monkeypatch):
        # The window |q| <= 2 rests on every DEGENERATE_PQ pair having |q| <= 2.
        monkeypatch.setattr(families, "DEGENERATE_PQ", families.DEGENERATE_PQ | {(7, 3)})
        assert not certificate(3).proved

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_count_matches_inclusion_exclusion(self, n):
        # Bounds no walk reaches: the pieces' lengths against a count by
        # inclusion-exclusion over the bases, from the rows' data alone.
        for bound in [*range(65), 1000, 10**6, 10**9, 10**12]:
            assert table_count(n, bound) == counted_linear_table(n, bound), bound

    def test_count_matches_walk_and_definition(self):
        # The n-defective pairs come from the definitional scan: the pair
        # rules plus the gcd strip, over the whole box.
        for bound in [*range(65), 500, 1000]:
            scanned = definitional_search(bound, (3, 4, 6)) if bound else {}
            for n in (3, 4, 6):
                size, gaps = table_count(n, bound)
                records, anomalies = table_records(n, bound)
                assert (size, anomalies) == (len(records), []), (n, bound)
                assert all(len(views) == 1 for views in records.values()), (n, bound)
                if bound:
                    assert sorted([*records, *gaps]) == list(scanned[n]), (n, bound)


class TestSequenceCertificate:
    """certificate(n) for n = 5, 8, 10, 12: every half-orbit of the search's
    orbit walk is one sequence row at one eps (primdiv._orbits)."""

    def test_all_seven_proved(self):
        # With no bound.  n = 4's (6, 2) is the one gap of the shipped table,
        # and stays visible.
        certs = {n: certificate(n) for n in SUPPORTED_N}
        assert {n: c.failures for n, c in certs.items() if not c.proved} == {}
        assert {n: c.gaps for n, c in certs.items() if c.gaps} == {4: ((6, 2),)}

    @pytest.mark.parametrize(
        "row,edit,failure",
        [
            # A k-step that acts as no M: no half-orbit is the row's.
            (R.N5_PHI, lambda d: replace(d, stride=1), "the half-orbit from (1, 0) by M matches 0 rows"),
            (R.N10_PSI, lambda d: replace(d, stride=1), "the half-orbit from (-5, -1) by M matches 0 rows"),
            # k_min one higher leaves out the valid (5, -3) at k = 3.
            (R.N5_PHI, lambda d: replace(d, k_min=4), "N5_PHI(k=3,eps=-1): k_min leaves out a valid pair"),
            # k_min one lower admits (3, -1), a degenerate ratio.
            (R.N5_PHI, lambda d: replace(d, k_min=2), "N5_PHI(k=2,eps=-1) breaks DegenerateRatio(3, 1)"),
            (R.N8_PI, lambda d: replace(d, k_min=3), "N8_PI(k=2,eps=-1): k_min leaves out a valid pair"),
            # n = 10 without the swap is n = 5's table, on no orbit of Phi_10.
            (R.N10_PHI, lambda d: replace(d, swap=False), "the half-orbit from (1, 0) by M matches 0 rows"),
            # rho for pi: the same recurrence, other values.
            (R.N8_RHO, lambda d: replace(d, qseq=None), "the half-orbit from (1, 0) by M matches 0 rows"),
            # phi for pi: another recurrence, so the two-term check proves nothing.
            (R.N8_RHO, lambda d: replace(d, qseq=SequenceId.PHI), "N8_RHO: its sequences follow different recurrences"),
            # zeta2 for zeta1: two rows on one half-orbit, none on another.
            (R.N12_ZETA1, lambda d: replace(d, seq=SequenceId.ZETA2), "the half-orbit from (3, 1) by M matches 2 rows"),
            # Dropped exclusions: (1, 1) of ZeroQ, (4, 0) of ZeroB, and the
            # seam's duplicate (3, -5) admitted twice.
            (R.N12_ZETA0, lambda d: replace(d, excluded=d.excluded[1:]), "N12_ZETA0(k=0,eps=1) breaks ZeroQ"),
            (R.N5_PSI, lambda d: replace(d, excluded=((0, -1),)), "N5_PSI(k=1,eps=-1) breaks ZeroB"),
            (R.N5_PSI, lambda d: replace(d, excluded=((1, -1),)), "N5_PSI(k=0,eps=1), before its half-orbit"),
            # Extra exclusions: the valid (13, -7) past the rule breakers'
            # window, and (3, -1), which k_min already leaves out.
            (R.N5_PHI, lambda d: replace(d, excluded=((5, -1),)), "N5_PHI(k=5,eps=-1): excluded outside the window"),
            (R.N5_PHI, lambda d: replace(d, excluded=((2, -1),)), "N5_PHI(k=2,eps=-1): excluded outside the window"),
        ],
    )
    def test_planted_faults_fail(self, monkeypatch, row, edit, failure):
        monkeypatch.setitem(families._ROWS, row, edit(_ROWS[row]))
        cert = certificate(_ROWS[row].n)
        assert not cert.proved
        assert any(f.startswith(failure) for f in cert.failures), cert.failures

    def test_excluded_valid_instance_is_a_gap(self, monkeypatch):
        # N12_ZETA3(k=0,eps=1), the added (1, 5) of correction n=12(3),
        # excluded: the certificate holds, with (1, 5) a gap, as (6, 2) is
        # for n = 4, and the counted verify reports it missing, as the
        # enumerated one does.
        monkeypatch.setitem(families._ROWS, R.N12_ZETA3, replace(_ROWS[R.N12_ZETA3], excluded=((0, 1),)))
        cert = certificate(12)
        assert cert.proved and cert.gaps == ((1, 5),)
        for bound in (4, 5, 200):
            assert harness.verify_table(12, bound) == harness._compare_with_search(12, bound), bound
        assert harness.verify_table(12, 5).missing_from_table == ((1, 5),)

    @pytest.mark.parametrize("n", [5, 8, 10, 12])
    def test_count_matches_records(self, n):
        # The walk's in-bound (k, eps), one recurrence step per k, against
        # the records at bounds up to 10^12.
        for bound in [*range(65), 500, 1000, 10**6, 10**12]:
            records, anomalies = table_records(n, bound)
            assert (table_count(n, bound), anomalies) == ((len(records), ()), []), bound

    def test_proved_once_per_row_set(self, monkeypatch):
        # The proof is cached on the rows: an edited row set is proved
        # afresh, and the shipped one is not proved again.
        shipped = certificate(5)
        assert certificate(5) is shipped
        with monkeypatch.context() as m:
            m.setitem(families._ROWS, R.N5_PSI, replace(_ROWS[R.N5_PSI], excluded=()))
            assert not certificate(5).proved
        assert certificate(5) is shipped
