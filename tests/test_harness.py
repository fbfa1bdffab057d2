import json
from dataclasses import replace

import pytest

from conftest import definitional_search, per_a_search, uncapped_search
from lehmerdefect import families, harness
from lehmerdefect.families import (
    SUPPORTED_N,
    DuplicateOf,
    FamilyEntry,
    FamilyParams,
    FamilyRowId,
    UnsupportedNError,
    enumerate_families,
    enumerate_with_anomalies,
    table_records,
)
from lehmerdefect.harness import (
    CheckpointMismatchError,
    audit_changes,
    search_defective,
    search_with_checkpoint,
    verify_table,
    _chunks,
)
from lehmerdefect.pairs import DEGENERATE_PQ, FailureKind, LehmerPair, ValidationFailure, validate_ab
from lehmerdefect.primdiv import CYCLOTOMIC_FORMS, defect_witness, residual_after_stripping


class TestSearch:
    def test_tiny_bound_empty(self):
        assert search_defective(5, 3).pairs == ()

    def test_bound_7_index_5(self):
        assert search_defective(5, 7).pairs == (
            (1, -7),
            (1, 5),
            (3, -5),
            (5, -3),
            (7, -5),
        )

    def test_bound_5_index_12(self):
        assert search_defective(12, 5).pairs == ((1, 5), (5, 1))

    def test_bound_20_index_8(self):
        assert search_defective(8, 20).pairs == (
            (1, -7),
            (2, -10),
            (3, -17),
            (7, -1),
            (10, -2),
            (17, -3),
        )

    def test_matches_validate_ab_grid(self):
        # Every b in range, not only a == b mod 4: the box misses no valid pair.
        bound, n = 40, 5
        expected = []
        for a in range(1, bound + 1):
            for b in range(-bound, bound + 1):
                pair = validate_ab(a, b)
                if isinstance(pair, LehmerPair) and defect_witness(pair, n).defective:
                    expected.append((a, b))
        assert search_defective(n, bound).pairs == tuple(expected)

    def test_solve_matches_definitional_scan_bound_1000(self):
        scanned = definitional_search(1000, SUPPORTED_N)
        for n in SUPPORTED_N:
            assert search_defective(n, 1000).pairs == scanned[n], n

    @pytest.mark.parametrize("n", [5, 8, 10, 12])
    def test_capped_solve_matches_uncapped_bound_20000(self, n):
        # A bounded check of the valuation caps, at four times the bound of
        # the extended definitional-scan comparison.
        assert search_defective(n, 20000).pairs == uncapped_search(n, 20000)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_linear_steps_match_per_a_solve_bound_10000(self, n):
        assert search_defective(n, 10000).pairs == per_a_search(n, 10000)

    def test_solve_matches_definitional_scan_small_bounds(self):
        # Bounds 33..64 have two chunks.  The linear roots the solve gives
        # are collected with their Phi_n, to show that these bounds reach
        # q = 0, b = 0, DEGENERATE_PQ and negative targets.
        linear = set()
        for bound in range(1, 65):
            scanned = definitional_search(bound, SUPPORTED_N)
            for n in SUPPORTED_N:
                assert search_defective(n, bound).pairs == scanned[n], (n, bound)
                coeffs = CYCLOTOMIC_FORMS[n][0]
                for lo, hi in _chunks(bound):
                    for a, q in harness._roots(n, lo, hi, bound):
                        assert lo <= a <= hi and abs(a - 4 * q) <= bound
                        if len(coeffs) == 2:
                            linear.add((a, q, a + coeffs[1] * q))
        assert any(q == 0 for _, q, _ in linear)
        assert any(a == 4 * q for a, q, _ in linear)
        assert any((a, q) in DEGENERATE_PQ for a, q, _ in linear)
        assert any(t < 0 for _, _, t in linear)

    def test_hits_of_one_a_share_its_int(self):
        # Each hit would otherwise hold its own a, 28 bytes (see _scan_range).
        first = {}
        for a, _ in search_defective(6, 2000).pairs:
            assert first.setdefault(a, a) is a

    def test_ordering_and_canonical_closure(self):
        result = search_defective(6, 120)
        assert list(result.pairs) == sorted(result.pairs)
        assert len(set(result.pairs)) == len(result.pairs)
        for a, b in result.pairs:
            assert a > 0
            assert (-a, -b) not in result.pairs

    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_nested_bounds(self, n):
        small = set(search_defective(n, 60).pairs)
        large = set(search_defective(n, 150).pairs)
        assert small <= large
        for a, b in large - small:
            assert max(abs(a), abs(b)) > 60

    def test_jobs_do_not_change_output(self):
        serial = search_defective(5, 150, jobs=1)
        parallel = search_defective(5, 150, jobs=3)
        assert serial == parallel

    def test_pool_is_sized_by_the_chunks(self, monkeypatch):
        # A stand-in pool that records its size and maps in this process, so
        # the test starts no process.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        serial = search_defective(5, 100, jobs=1)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        assert len(_chunks(100)) == 4
        assert search_defective(5, 100, jobs=64) == serial
        assert sizes == [4]
        assert len(_chunks(20)) == 1
        search_defective(5, 20, jobs=8)
        assert sizes == [4]

    def test_bad_args(self):
        with pytest.raises(UnsupportedNError):
            search_defective(7, 10)
        with pytest.raises(ValueError):
            search_defective(5, 0)


class TestVerify:
    @pytest.mark.parametrize("n", [3, 5, 6, 8, 10, 12])
    def test_exact_agreement_at_200(self, n):
        report = verify_table(n, 200)
        assert report.exact_agreement
        assert report.matched_count == len(enumerate_families(n, 200))
        assert report.matched_count == len(search_defective(n, 200).pairs)

    def test_n4_surfaces_the_missing_pair(self):
        report = verify_table(4, 10)
        assert report.missing_from_table == ((6, 2),)
        assert report.table_failures == ()
        assert report.equivalent_duplicates == ()
        assert not report.exact_agreement

    def test_n10_matches_swapped_n5(self):
        ten = set(search_defective(10, 200).pairs)
        five = set(search_defective(5, 200).pairs)
        swapped = {(b, a) if b > 0 else (-b, -a) for a, b in five}
        assert ten == swapped

    def test_residual_unchanged_by_negation(self):
        # verify_table trusts the search for a matched entry whose raw pair
        # may be the negation of the canonical one the search decided.
        for a in range(-60, 61):
            for b in range(-60, 61):
                if isinstance(validate_ab(a, b), LehmerPair):
                    for n in SUPPORTED_N:
                        assert residual_after_stripping(a, b, n) == residual_after_stripping(
                            -a, -b, n
                        ), (a, b, n)

    def test_search_and_tables_build_no_pair(self, monkeypatch):
        # The search and the table enumeration check every tuple with the
        # pair rules alone: with LehmerPair unconstructible they return what
        # they return normally.
        bound = 300
        want = {
            n: (
                search_defective(n, bound),
                harness.enumerate_with_anomalies(n, bound),
                verify_table(n, bound),
            )
            for n in SUPPORTED_N
        }

        def refuse(self, *args, **kwargs):
            raise AssertionError("a LehmerPair was built")

        monkeypatch.setattr(LehmerPair, "__init__", refuse)
        with pytest.raises(AssertionError):
            LehmerPair(1, 5)
        for n in SUPPORTED_N:
            got = (
                search_defective(n, bound),
                harness.enumerate_with_anomalies(n, bound),
                verify_table(n, bound),
            )
            assert got == want[n], n

    def test_unmatched_entry_is_still_decided(self, monkeypatch):
        # An injected table record with the non-defective pair (5, 1) for
        # n = 5: the search does not find it, so verify_table must strip it.
        records, shadows, anomalies = table_records(5, 10)
        first = next(iter(records.values()))
        bogus = (first[0], 1, *first[2:])  # sign 1: its raw pair is its key, (5, 1)
        assert (5, 1) not in search_defective(5, 10).pairs
        monkeypatch.setattr(
            harness, "table_records", lambda n, bound: ({**records, (5, 1): bogus}, shadows, anomalies)
        )
        report = verify_table(5, 10)
        assert [f.reason for f in report.table_failures] == [
            f"not_defective:residual={residual_after_stripping(5, 1, 5)}"
        ]
        assert report.table_failures[0].raw_ab == (5, 1)

    def test_duplicate_and_invalid_tuple_end_to_end(self, monkeypatch, run_cli):
        # N5_PSI with its exclusions lifted: (k=0, eps=-1) gives (3, -5)
        # again, a duplicate of (k=0, eps=1), and (k=1, eps=-1) gives (4, 0),
        # which breaks a pair rule.  verify_table must report both exactly as
        # the public enumeration yields them.
        lifted = replace(families._ROWS[FamilyRowId.N5_PSI], excluded=())
        monkeypatch.setitem(families._ROWS, FamilyRowId.N5_PSI, lifted)
        entries, anomalies = enumerate_with_anomalies(5, 10)
        kept = FamilyEntry(5, FamilyRowId.N5_PSI, FamilyParams(k=0, eps=1), (3, -5), (3, -5))
        shadow = FamilyEntry(5, FamilyRowId.N5_PSI, FamilyParams(k=0, eps=-1), (3, -5), (3, -5))
        assert anomalies == [
            (FamilyRowId.N5_PSI, FamilyParams(k=1, eps=-1), (4, 0), ValidationFailure(FailureKind.ZERO_B))
        ]
        assert [(e, e.provenance) for e in entries if e.provenance] == [(kept, (shadow,))]

        report = verify_table(5, 10)
        assert [(f.row, f.params, f.raw_ab, f.reason) for f in report.table_failures] == [
            (row, params, raw, f"invalid:{failure.describe()}") for row, params, raw, failure in anomalies
        ]
        assert report.table_failures[0].reason == "invalid:ZeroB"
        assert report.equivalent_duplicates == tuple((e, s) for e in entries for s in e.provenance)
        assert report.equivalent_duplicates == ((kept, shadow),)
        assert report.equivalent_duplicates[0][0].provenance == (shadow,)
        assert report.missing_from_table == () and not report.exact_agreement
        assert report.matched_count == len(entries)

        want = {
            "text": "row=N5_PSI params=k=0,eps=1 raw=(3, -5) canonical=(3, -5)\n",
            "tsv": "5\tN5_PSI\t0\t-\t-\t1\t3\t-5\t3\t-5\tN5_PSI(k=0,eps=-1)\n",
            "json": '{"row": "N5_PSI", "params": {"k": 0, "eps": 1}, "raw_a": "3", "raw_b": "-5", '
            '"canonical_a": "3", "canonical_b": "-5", '
            '"provenance": [{"row": "N5_PSI", "params": {"k": 0, "eps": -1}}]}',
        }
        for fmt, line in want.items():
            code, out, err = run_cli("family", "5", "--bound", "10", "--format", fmt)
            assert (code, err) == (0, ""), fmt
            assert line in out, fmt
        code, out, _ = run_cli("family", "5", "--bound", "10", "--format", "json")
        assert json.loads(out)["count"] == len(entries)
        code, out, _ = run_cli("verify", "5", "--bound", "10", "--format", "tsv")
        assert code == 2
        assert "table_failure\t4\t0\tN5_PSI(k=1,eps=-1) invalid:ZeroB\n" in out
        assert "equivalent_duplicate\t3\t-5\tkept=N5_PSI(k=0,eps=1) shadow=N5_PSI(k=0,eps=-1)\n" in out

    def test_verify_and_family_build_no_table_objects(self, monkeypatch, run_cli):
        # verify_table and the family command match and render the table as
        # records: with FamilyEntry and FamilyParams unconstructible they
        # return what they return normally (n = 4 reports only the missing
        # (6, 2), so no entry has to be built).
        bound = 300
        argvs = [
            ("family", str(n), "--bound", str(bound), "--format", fmt)
            for n in SUPPORTED_N
            for fmt in ("text", "tsv", "json")
        ]
        want = (
            {n: verify_table(n, bound) for n in SUPPORTED_N},
            {argv: run_cli(*argv) for argv in argvs},
        )

        def refuse(self, *args, **kwargs):
            raise AssertionError("a table object was built")

        monkeypatch.setattr(FamilyEntry, "__init__", refuse)
        monkeypatch.setattr(FamilyParams, "__init__", refuse)
        with pytest.raises(AssertionError):
            FamilyParams(q=1)
        got = (
            {n: verify_table(n, bound) for n in SUPPORTED_N},
            {argv: run_cli(*argv) for argv in argvs},
        )
        assert got == want

    def test_search_miss_is_reported(self, monkeypatch, run_cli):
        # A search that loses a defective pair the table holds must not leave
        # exact agreement standing: the entry is stripped, found defective and
        # reported as missed by the search.
        search = harness.search_defective

        def lossy(n, bound, jobs=1):
            result = search(n, bound, jobs)
            return replace(result, pairs=tuple(p for p in result.pairs if p != (7, -5)))

        monkeypatch.setattr(harness, "search_defective", lossy)
        report = verify_table(5, 200)
        assert [(f.row, f.params, f.raw_ab, f.reason) for f in report.table_failures] == [
            (FamilyRowId.N5_PSI, FamilyParams(k=2, eps=-1), (7, -5), "missed_by_search")
        ]
        assert report.missing_from_table == () and not report.exact_agreement
        assert report.matched_count == len(enumerate_families(5, 200)) - 1
        code, out, _ = run_cli("verify", "5", "--bound", "200", "--format", "tsv")
        assert code == 2
        assert "table_failure\t7\t-5\tN5_PSI(k=2,eps=-1) missed_by_search\n" in out


class TestCheckpoint:
    def test_resume_matches_uninterrupted(self, tmp_path):
        n, bound = 5, 150
        plain = search_defective(n, bound)

        fresh = tmp_path / "fresh.ckpt"
        full = search_with_checkpoint(n, bound, fresh)
        assert full == plain

        broken = tmp_path / "broken.ckpt"
        partial = search_with_checkpoint(n, bound, broken, stop_after_chunks=2)
        assert partial is None
        chunk_lines = [l for l in broken.read_text().splitlines() if not l.startswith("#")]
        assert 0 < len(chunk_lines) < len(_chunks(bound))

        resumed = search_with_checkpoint(n, bound, broken)
        assert resumed == plain
        assert broken.read_text() == fresh.read_text()
        hits_broken = (tmp_path / "broken.ckpt.hits").read_text()
        hits_fresh = (tmp_path / "fresh.ckpt.hits").read_text()
        assert hits_broken == hits_fresh

    def test_state_file_format(self, tmp_path):
        path = tmp_path / "fmt.ckpt"
        result = search_with_checkpoint(3, 64, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# 3\t64"
        lines = lines[1:]
        assert lines, "at least one chunk line"
        total = 0
        for line, (lo, hi) in zip(lines, _chunks(64)):
            f = line.split("\t")
            assert len(f) == 4
            assert (int(f[0]), int(f[1]), int(f[2])) == (3, lo, hi)
            total += int(f[3])
        assert total == len(result.pairs)
        hit_lines = (tmp_path / "fmt.ckpt.hits").read_text().splitlines()
        assert [tuple(int(x) for x in l.split("\t")) for l in hit_lines] == list(
            result.pairs
        )

    def test_truncated_hits_are_recovered(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        search_with_checkpoint(5, 150, path, stop_after_chunks=3)
        hits_path = tmp_path / "trunc.ckpt.hits"
        # Drop the last hit line: the final state line loses its commit.
        lines = hits_path.read_text().splitlines(keepends=True)
        assert lines
        hits_path.write_text("".join(lines[:-1]))
        resumed = search_with_checkpoint(5, 150, path)
        assert resumed == search_defective(5, 150)

    def test_every_truncation_resumes_or_is_refused(self, tmp_path):
        n, bound = 3, 200
        fresh = tmp_path / "fresh.ckpt"
        full = search_with_checkpoint(n, bound, fresh)
        want = (fresh.read_bytes(), (tmp_path / "fresh.ckpt.hits").read_bytes())
        snap = tmp_path / "snap.ckpt"
        assert search_with_checkpoint(n, bound, snap, stop_after_chunks=2) is None
        state = snap.read_bytes()
        hits = (tmp_path / "snap.ckpt.hits").read_bytes()
        cuts = [(state[:i], hits) for i in range(len(state))]
        cuts += [(state, hits[:i]) for i in range(len(hits))]
        refused = 0
        for i, (cut_state, cut_hits) in enumerate(cuts):
            # Fresh files per cut: on ext4, truncating or deleting a file
            # that was just rewritten waits for its data to be flushed.
            torn = tmp_path / f"torn{i}.ckpt"
            torn_hits = tmp_path / f"torn{i}.ckpt.hits"
            torn.write_bytes(cut_state)
            torn_hits.write_bytes(cut_hits)
            try:
                resumed = search_with_checkpoint(n, bound, torn)
            except CheckpointMismatchError:
                refused += 1
                continue
            assert resumed == full
            assert (torn.read_bytes(), torn_hits.read_bytes()) == want
        assert refused < len(cuts)

    def test_complete_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=1)
        good = path.read_text()
        for bad in ("3\t33\t64\n", "3\t33\t64\tx\n", "3\t33\t64\t-1\n"):
            path.write_text(good + bad)
            with pytest.raises(CheckpointMismatchError):
                search_with_checkpoint(3, 200, path)
        path.write_text(good)
        hits_path = tmp_path / "bad.ckpt.hits"
        hits_path.write_text("1\n" + hits_path.read_text())
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path)

    def test_intact_checkpoint_is_not_rewritten(self, tmp_path):
        path = tmp_path / "keep.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=2)
        files = (path, tmp_path / "keep.ckpt.hits")
        before = [(f.stat().st_ino, f.stat().st_mtime_ns, f.read_bytes()) for f in files]
        assert search_with_checkpoint(3, 200, path, stop_after_chunks=0) is None
        assert [(f.stat().st_ino, f.stat().st_mtime_ns, f.read_bytes()) for f in files] == before

    def test_negative_stop_after_chunks_rejected_before_any_file(self, tmp_path):
        # todo[:-1] would run all chunks but the last; refuse it, touching no file.
        with pytest.raises(ValueError, match="stop_after_chunks"):
            search_with_checkpoint(5, 200, tmp_path / "neg.ckpt", stop_after_chunks=-1)
        assert not list(tmp_path.iterdir())

    def test_torn_resume_cuts_files_in_place(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        files = (path, tmp_path / "cut.ckpt.hits")
        search_with_checkpoint(3, 200, path, stop_after_chunks=2)
        inodes = [f.stat().st_ino for f in files]
        path.write_bytes(path.read_bytes()[:-2])  # tear the last state line
        assert search_with_checkpoint(3, 200, path) == search_defective(3, 200)
        assert [f.stat().st_ino for f in files] == inodes
        assert not list(tmp_path.glob("*.tmp"))

    def test_zero_count_must_be_as_written(self, tmp_path):
        # b"%d" writes 0 without a sign; int() would read "-0" as 0 too.
        path = tmp_path / "zero.ckpt"
        search_with_checkpoint(8, 200, path, stop_after_chunks=3)
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[-1] == b"8\t65\t96\t0\n"
        path.write_bytes(b"".join(lines[:-1]) + b"8\t65\t96\t-0\n")
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(8, 200, path)

    @pytest.mark.parametrize("bad", [b"\xff\t-111\n", "\u0663\t-111\n".encode()])
    def test_committed_hit_line_must_be_ascii_digits(self, tmp_path, bad):
        path = tmp_path / "hits.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=1)
        hits_path = tmp_path / "hits.ckpt.hits"
        lines = hits_path.read_bytes().splitlines(keepends=True)
        assert lines
        hits_path.write_bytes(bad + b"".join(lines[1:]))
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda v: b"%d\t %d\t%d\t%d" % v,
            lambda v: b"+%d\t%d\t%d\t%d" % v,
            lambda v: b"%d\t%d_%d\t%d\t%d" % (v[0], v[1] // 10, v[1] % 10, *v[2:]),
            lambda v: b"0%d\t%d\t%d\t%d" % v,
            lambda v: b"%d\t%d\t%d\t%d\r" % v,
        ],
    )
    def test_state_line_must_be_as_written(self, tmp_path, edit):
        # int() reads each edited line as the original values; the resume
        # would then keep bytes an uninterrupted run never writes.
        path = tmp_path / "strict.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=2)
        header, first, second = path.read_bytes().splitlines()
        values = tuple(int(x) for x in second.split(b"\t"))
        assert values[:3] == (3, 33, 64)
        path.write_bytes(b"\n".join([header, first, edit(values), b""]))
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: b"0" + line,
            lambda line: line.replace(b"\t", b"\t0"),
            lambda line: line.replace(b"\t", b"\t+"),
        ],
    )
    def test_hit_line_must_be_as_written(self, tmp_path, edit):
        path = tmp_path / "strict.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=2)
        hits_path = tmp_path / "strict.ckpt.hits"
        lines = hits_path.read_bytes().splitlines(keepends=True)
        assert lines[-1] == b"64\t132\n"
        hits_path.write_bytes(b"".join(lines[:-1]) + edit(lines[-1]))
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "clash.ckpt"
        search_with_checkpoint(5, 150, path, stop_after_chunks=1)
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 150, path)
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(5, 3000, path)
        other = tmp_path / "other.txt"
        other.write_text("not a checkpoint")  # no newline: nothing committed
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(5, 150, other)
        assert other.read_text() == "not a checkpoint"


class TestAuditChanges:
    def test_all_items_pass(self):
        items = audit_changes()
        assert [i.change_id for i in items] == [
            "n=3(1)",
            "n=4(1)",
            "n=4(2)",
            "n=5(1)",
            "n=5(2)",
            "n=6(1)",
            "n=6(2)",
            "n=8",
            "n=10(1)",
            "n=10(2)",
            "n=12(2)",
            "n=12(3)",
        ]
        for item in items:
            assert item.passed, f"{item.change_id}: {item.evidence}"
            assert item.evidence

    def test_key_evidence_strings(self):
        by_id = {i.change_id: i for i in audit_changes()}
        assert "ZeroA" in by_id["n=3(1)"].evidence
        assert "DegenerateRatio(-1, -1)" in by_id["n=4(1)"].evidence
        assert "duplicate of N5_PSI(k=0,eps=1)" in by_id["n=5(2)"].evidence
        assert "(1,5)" in by_id["n=12(3)"].evidence.replace(" ", "")

    def test_wrong_expectation_fails(self, monkeypatch):
        # An exclusion check compares the whole re-derived outcome: the failure
        # kind and offending (p, q), or the kept row, params and canonical pair.
        psi, kept, excl = FamilyRowId.N5_PSI, FamilyParams(k=0, eps=1), FamilyParams(k=0, eps=-1)
        n4_q, q = FamilyRowId.N4_Q, FamilyParams(q=-1)
        checks = [
            (5, psi, excl, DuplicateOf(psi, kept, (3, -5))),  # the true outcome
            (5, psi, excl, DuplicateOf(psi, kept, (5, -3))),
            (5, psi, excl, DuplicateOf(FamilyRowId.N5_PHI, kept, (3, -5))),
            (5, psi, excl, ValidationFailure(FailureKind.ZERO_A)),
            (4, n4_q, q, ValidationFailure(FailureKind.ZERO_A)),
            (4, n4_q, q, ValidationFailure(FailureKind.DEGENERATE_RATIO, (1, 1))),
        ]
        changes = tuple(
            (str(i), n, [(harness._expect_excluded, *check)]) for i, (n, *check) in enumerate(checks)
        )
        monkeypatch.setattr(harness, "_CHANGES", changes)
        assert [item.passed for item in audit_changes()] == [True] + [False] * 5
