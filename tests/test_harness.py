import concurrent.futures
import importlib.util
import json
import multiprocessing
import sys
import types
import zlib
from dataclasses import replace
from itertools import accumulate
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import definitional_search, per_a_search, uncapped_search
from lehmerdefect import cli, families, harness, primdiv
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
        # A bounded check of the valuation caps, on the per-a oracle solve,
        # at four times the bound of the extended definitional-scan
        # comparison; TestOrbitWalk holds the walk equal to the capped solve.
        assert per_a_search(n, 20000) == uncapped_search(n, 20000)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_linear_steps_match_per_a_solve_bound_10000(self, n):
        assert search_defective(n, 10000).pairs == per_a_search(n, 10000)

    def test_solve_matches_definitional_scan_small_bounds(self, monkeypatch):
        # Bounds 33..64 have two chunks.  The linear search hands only the
        # excluded tuples to the pair rules; they are collected as (p, q), to
        # show that these bounds reach q = 0, b = 0 and DEGENERATE_PQ, and
        # the linear hits with their Phi_n, to show that they reach the
        # negated instances (Phi_n < 0).
        checked = set()
        rule = families.pair_failure
        monkeypatch.setattr(families, "pair_failure", lambda a, b: checked.add((a, (a - b) // 4)) or rule(a, b))
        phis = set()
        for bound in range(1, 65):
            scanned = definitional_search(bound, SUPPORTED_N)
            for n in SUPPORTED_N:
                pairs = search_defective(n, bound).pairs
                assert pairs == scanned[n], (n, bound)
                coeffs = CYCLOTOMIC_FORMS[n][0]
                if len(coeffs) == 2:
                    phis.update(a + coeffs[1] * ((a - b) // 4) for a, b in pairs)
        assert any(q == 0 for _, q in checked)
        assert any(a == 4 * q for a, q in checked)
        assert any(pq in DEGENERATE_PQ for pq in checked)
        assert any(t < 0 for t in phis)

    def test_linear_search_does_not_strip(self, monkeypatch):
        # Every valid root of a linear form is defective, and only an
        # excluded tuple can break a pair rule (families.certificate),
        # so no root is stripped and only the excluded tuples are checked
        # with the pair rules; the definitional scans above hold the result.
        want = {n: search_defective(n, 300) for n in (3, 4, 6)}
        excluded = {d.formula(v) for d in families._ROWS.values() if d.seq is None for v in d.excluded}
        rule = families.pair_failure
        checked = []

        def refuse(*args):
            raise AssertionError("a linear root was stripped")

        def excluded_only(a, b):
            assert (a, b) in excluded, f"({a}, {b}) was checked but is not excluded"
            checked.append((a, b))
            return rule(a, b)

        monkeypatch.setattr(harness, "residual_after_stripping", refuse)
        monkeypatch.setattr(families, "pair_failure", excluded_only)
        assert {n: search_defective(n, 300) for n in (3, 4, 6)} == want
        # (0, 4) has a = 0, so no chunk holds it.
        assert set(checked) == excluded - {(0, 4)}
        with pytest.raises(AssertionError):
            search_defective(5, 300)

    def test_hits_of_one_a_share_its_int(self):
        # Each hit would otherwise hold its own a, 28 bytes (see
        # harness.search_defective, which decodes the hits' keys).  At 20000
        # a group lists 26 or 27 chunks at once.
        for bound in (2000, 20000):
            first = {}
            for a, _ in search_defective(6, bound).pairs:
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
        # jobs is accepted and has no effect: every search runs in this process.
        for n in (5, 6):
            assert search_defective(n, 150, jobs=3) == search_defective(n, 150, jobs=1), n

    def test_no_search_starts_a_process(self, monkeypatch, run_cli, tmp_path):
        # Every search, verify and checkpointed search runs in this process
        # whatever --jobs is, with the bytes of --jobs 1.  BaseProcess.start
        # is what every multiprocessing Process class (fork, spawn, forkserver)
        # starts with.
        def argvs(jobs, ckpt_dir):
            for n in SUPPORTED_N:
                yield ("search", str(n), "--bound", "1000", "--checkpoint", str(ckpt_dir / f"{n}"), "--jobs", jobs)
                for cmd in ("search", "verify"):
                    for fmt in cli.FORMATS:
                        yield (cmd, str(n), "--bound", "1000", "--jobs", jobs, "--format", fmt)

        def outputs(jobs, ckpt_dir):
            ckpt_dir.mkdir()
            runs = [run_cli(*argv) for argv in argvs(jobs, ckpt_dir)]
            return runs, sorted((f.name, f.read_bytes()) for f in ckpt_dir.iterdir())

        want = outputs("1", tmp_path / "jobs1")

        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert outputs("2", tmp_path / "jobs2") == want

    def test_bad_args(self):
        with pytest.raises(UnsupportedNError):
            search_defective(7, 10)
        with pytest.raises(ValueError):
            search_defective(5, 0)


QUADRATIC_N = (5, 8, 10, 12)
WALK_BOUNDS = (*range(1, 65), 1000, 5000, 20000)


@pytest.fixture(scope="module")
def per_a_pairs():
    return {(n, bound): per_a_search(n, bound) for n in QUADRATIC_N for bound in WALK_BOUNDS}


def _walk_mismatch(module, per_a_pairs):
    """The first (n, bound) where module.search_defective differs from the
    per-a oracle solve, or None."""
    for (n, bound), want in per_a_pairs.items():
        if module.search_defective(n, bound).pairs != want:
            return n, bound
    return None


def _mutant(monkeypatch, old, new, original=harness):
    """A copy of the module original, loaded under its own name, with the one
    occurrence of old in its source replaced by new."""
    source = Path(original.__file__).read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType(original.__name__ + "_mutant")
    module.__package__ = "lehmerdefect"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), original.__file__, "exec"), module.__dict__)
    return module


def _phi(n, p, q):
    c0, c1, c2 = CYCLOTOMIC_FORMS[n][0]
    return c0 * p * p + c1 * p * q + c2 * q * q


def _capped_targets(n):
    """+-T for every product T of primes of n within their caps."""
    sizes = {1}
    for prime, cap in CYCLOTOMIC_FORMS[n][1]:
        sizes |= {size * prime**e for size in sizes for e in range(1, cap + 1)}
    return {s * size for size in sizes for s in (1, -1)}


class TestOrbitWalk:
    """The quadratic search walks the orbits of M from one representative
    each (primdiv._orbits; the proof is in the harness module docstring)."""

    def test_walk_matches_per_a_solve(self, per_a_pairs):
        assert _walk_mismatch(harness, per_a_pairs) is None

    @pytest.mark.parametrize("n", QUADRATIC_N)
    def test_unit_and_representatives(self, n):
        # M multiplies X + Y sqrt(D) by the least unit (T0 + U0 sqrt(D)) / 2
        # of norm 1, with T0 its trace and U0 its lower-left entry.
        _, c1, c2 = CYCLOTOMIC_FORMS[n][0]
        d = c1 * c1 - 4 * c2
        m, reps = harness._orbits(n)
        t0, u0 = m[0] + m[3], m[2]
        assert t0 * t0 - d * u0 * u0 == 4 and m[0] * m[3] - m[1] * m[2] == 1
        assert all(isqrt(4 + d * u * u) ** 2 != 4 + d * u * u for u in range(1, u0))
        assert (d, t0, u0) == {5: (5, 3, 1), 8: (8, 6, 2), 10: (5, 3, 1), 12: (12, 4, 1)}[n]
        for p, q in [(1, 0), (0, 1), (3, -2), (-7, 5)]:
            assert _phi(n, *harness._apply(m, p, q)) == _phi(n, p, q)
        # Eight representatives, each in the box D Y^2 < |t| (T0 + 1)^2 of
        # its target, which the caps bound.
        assert len(set(reps)) == len(reps) == 8
        for p, q in reps:
            t = _phi(n, p, q)
            assert t in _capped_targets(n) and d * q * q < abs(t) * (t0 + 1) ** 2 and abs(q) <= 3

    @pytest.mark.parametrize("n", QUADRATIC_N)
    def test_every_root_reduces_to_a_representative(self, n):
        # Every root with |q| <= 300, moved along its orbit to the first
        # point with X Y >= 0 (X = 2p + c1 q, Y = q), is a representative.
        _, c1, c2 = CYCLOTOMIC_FORMS[n][0]
        d = c1 * c1 - 4 * c2
        m, reps = harness._orbits(n)
        back = (m[3], -m[1], -m[2], m[0])
        seen = set()
        for t in _capped_targets(n):
            for q in range(-300, 301):
                x_sq = 4 * t + d * q * q
                x = isqrt(max(x_sq, 0))
                for x in {x, -x} if x * x == x_sq else ():
                    p, y = (x - c1 * q) // 2, q
                    while (2 * p + c1 * y) * y < 0:
                        p, y = harness._apply(m, p, y)
                    while True:
                        p_back, y_back = harness._apply(back, p, y)
                        if (2 * p_back + c1 * y_back) * y_back < 0:
                            break
                        p, y = p_back, y_back
                    assert (p, y) in reps, (t, x, q)
                    seen.add((p, y))
        assert seen == set(reps)

    @pytest.mark.parametrize(
        "old,new",
        [
            # M^2 in place of M: the walk skips every other point of an orbit.
            ("        p, q = _apply(m, p, q)\n", "        p, q = _apply(m, *_apply(m, p, q))\n"),
            # The Y box halved: the representatives with |q| = 2 or 3 are lost.
            (
                "y_max = isqrt((abs(t) * (t0 + 1) ** 2 - 1) // d)",
                "y_max = isqrt((abs(t) * (t0 + 1) ** 2 - 1) // d) // 2",
            ),
            # One target dropped.  (Dropping 3 or -6 for n = 12 changes
            # nothing: p^2 - 4pq + q^2 = 3 or -6 has no root mod 3.)
            ("for t in (size, -size):", "for t in [t for t in (size, -size) if t != -1]:"),
            ("for t in (size, -size):", "for t in [t for t in (size, -size) if t != 5]:"),
        ],
        ids=["M-squared", "half-box", "drop-minus-1", "drop-5"],
    )
    def test_planted_faults_are_caught(self, monkeypatch, per_a_pairs, old, new):
        # The walk and the representatives live in primdiv, next to the forms;
        # the search reads them through harness's names.
        mutant = _mutant(monkeypatch, old, new, original=primdiv)
        for name in ("_apply", "_orbits", "_walk"):
            monkeypatch.setattr(harness, name, getattr(mutant, name))
        assert _walk_mismatch(harness, per_a_pairs) is not None

    def test_search_at_10_12(self, run_cli):
        # Each orbit is walked in about 30 steps a side at this bound.
        for n in QUADRATIC_N:
            code, out, err = run_cli("search", str(n), "--bound", "1000000000000", "--format", "tsv")
            assert (code, err) == (0, "")
            pairs = [tuple(map(int, line.split("\t"))) for line in out.splitlines()[1:]]
            assert pairs == sorted(pairs) and len(pairs) > 100
            assert all(residual_after_stripping(a, b, n) == 1 for a, b in pairs[-5:])


LINEAR_BOUNDS = (*range(1, 65), 1000)


@pytest.fixture(scope="module")
def linear_per_a_pairs():
    return {(n, bound): per_a_search(n, bound) for n in (3, 4, 6) for bound in LINEAR_BOUNDS}


@pytest.fixture(scope="module")
def linear_per_a_chunks():
    """conftest.per_a_search cut at the chunk ends: per (n, bound), one list
    of hits per chunk of _chunks(bound), in chunk order."""
    cut = {}
    for bound in (*range(1, 70), 1000, 4095, 4096, 4097, 20000):
        chunks = _chunks(bound)
        index = {a: i for i, (lo, hi) in enumerate(chunks) for a in range(lo, hi + 1)}
        for n in (3, 4, 6):
            cut[n, bound] = [[] for _ in chunks]
            for a, b in per_a_search(n, bound):
                cut[n, bound][index[a]].append((a, b))
    return cut


class TestLinearPairs:
    """The linear search lists the rows' own instances (families.linear_pairs)
    once per group of chunks and cuts them at the chunk ends (harness.
    _run_chunks); families.certificate proves they are the defective
    pairs, and the definitional scans in TestSearch hold it equal to the
    definition."""

    @pytest.mark.parametrize(
        "old,new,in_terms",
        [
            # The coprime filter dropped: every residue mod c is listed.
            ("if gcd(c, r) == 1]", "]", True),
            # One non-coprime residue added: q == 0 mod c.
            ("if gcd(c, r) == 1]", "if gcd(c, r) == 1 or r == 0]", True),
            # One coprime residue dropped: q == 5 mod 6 of N6_POW6.
            ("if gcd(c, r) == 1]", "if gcd(c, r) == 1 and r != 5]", True),
            # The span's q window cut one short at its top.
            ("(hi - t) // m_a + 1\n", "(hi - t) // m_a\n", False),
            # The excluded tuples kept without the pair rules.
            ("if q_lo <= q < q_hi and pair_failure(t + m_a * q, t + m_b * q) is None:", "if q_lo <= q < q_hi:", False),
            # The excluded tuples always dropped, n = 4's gap (6, 2) with them.
            ("if q_lo <= q < q_hi and pair_failure(t + m_a * q, t + m_b * q) is None:", "if False:", False),
            # The negated window cut one short at either end of the span.
            ("(-1, -a_to, -a_from)", "(-1, -a_to + 1, -a_from)", False),
            ("(-1, -a_to, -a_from)", "(-1, -a_to, -a_from - 1)", False),
            # The key width one short, W = 2 bound: the key of (a, bound) is
            # that of (a + 1, -bound), so the packing is not one-to-one.
            ("return 2 * bound + 1\n", "return 2 * bound\n", False),
        ],
        ids=[
            "no-coprime-filter",
            "non-coprime-residue-added",
            "coprime-residue-dropped",
            "q-top-cut",
            "exclusions-unchecked",
            "exclusions-dropped",
            "negated-top",
            "negated-bottom",
            "key-width-short",
        ],
    )
    def test_planted_faults_are_caught(self, monkeypatch, linear_per_a_pairs, old, new, in_terms):
        mutant = _mutant(monkeypatch, old, new, original=families)
        monkeypatch.setattr(harness, "linear_pairs", mutant.linear_pairs)
        # The key width is defined once, so the harness's cut and decoding
        # share a fault in it with the listing.
        monkeypatch.setattr(harness, "_key_width", mutant._key_width)
        assert any(
            search_defective(n, bound).pairs != want for (n, bound), want in linear_per_a_pairs.items()
        )
        if in_terms:
            # _Row.terms is the one listing, so the fault reaches the count
            # and the family walk as well as the search.
            def counted(n, bound):
                size, gaps = mutant.table_count(n, bound)
                return size + len(gaps)

            def walked(n, bound):
                pairs = [(a, b) if a > 0 else (-a, -b) for _, walk in mutant.row_walks(n, bound) for *_, a, b in walk]
                return sorted([*pairs, *mutant.table_count(n, bound)[1]])

            cases = linear_per_a_pairs.items()
            assert any(counted(n, bound) != len(want) for (n, bound), want in cases)
            assert any(walked(n, bound) != list(want) for (n, bound), want in cases)

    @pytest.mark.parametrize(
        "old,new",
        [
            # A chunk's slice ends one a short: its hits at a = a_to are lost.
            ("(hi + 1) * w", "hi * w"),
            # A chunk's slice ends one a long: it repeats the next chunk's
            # hits at that chunk's first a, which only a group of two or more
            # chunks lists.
            ("(hi + 1) * w", "(hi + 2) * w"),
        ],
        ids=["cut-short", "cut-long"],
    )
    def test_planted_cut_faults_are_caught(self, monkeypatch, linear_per_a_pairs, old, new):
        # search_defective reads whole groups, so the cut is seen through the
        # hit lines, which are cut per chunk.
        mutant = _mutant(monkeypatch, old, new)
        assert any(
            b"".join(mutant.hit_lines(n, bound)) != b"".join(b"%d\t%d\n" % ab for ab in want)
            for (n, bound), want in linear_per_a_pairs.items()
        )

    @pytest.mark.parametrize("span", [1, harness._GROUP_SPAN, 10**9], ids=["per-chunk", "shipped", "one-group"])
    def test_chunks_match_per_a_solve(self, monkeypatch, linear_per_a_chunks, span):
        # Each chunk's hits, decoded from their keys a (2 bound + 1) + b +
        # bound, are the per-a solve's hits with a in the chunk, for the
        # whole chunk list and for the tails and windows that a checkpointed
        # run hands over (its todo list), whether the chunks are listed one
        # at a time, in groups or in one group.
        monkeypatch.setattr(harness, "_GROUP_SPAN", span)

        def decoded(n, chunks, bound):
            w = 2 * bound + 1
            return [[(key // w, key % w - bound) for key in keys] for keys in harness._run_chunks(n, chunks, bound)]

        for (n, bound), want in linear_per_a_chunks.items():
            chunks = _chunks(bound)
            assert decoded(n, chunks, bound) == want, (n, bound)
            for k in {1, len(chunks) // 2, len(chunks) - 2, len(chunks) - 1} & set(range(1, len(chunks))):
                assert decoded(n, chunks[k:], bound) == want[k:], (n, bound, k)
            for k in range(0, len(chunks), 7):
                assert decoded(n, chunks[k : k + 3], bound) == want[k : k + 3], (n, bound, k)


class TestVerify:
    @pytest.mark.parametrize("n", SUPPORTED_N)
    def test_counted_verify_equals_enumerated(self, monkeypatch, run_cli, n):
        # The enumerated comparison (search against table records) is the
        # oracle: same report, and the same exit code and bytes in every format.
        # 10^6 only for the quadratic n, whose records stay small (the linear
        # count is held to inclusion-exclusion there, in test_families).
        bounds = [*range(1, 65), 500, 1000, 5000, 20000 if families._linear(n) else 10**6]
        for bound in bounds:
            oracle = harness._compare_with_search(n, bound)
            assert verify_table(n, bound) == oracle, bound
            for fmt in cli.FORMATS:
                argv = ("verify", str(n), "--bound", str(bound), "--format", fmt)
                counted = run_cli(*argv)
                with monkeypatch.context() as m:
                    m.setattr(harness, "verify_table", lambda n, bound: oracle)
                    assert run_cli(*argv) == counted, (bound, fmt)

    def test_counted_verify_does_no_hidden_work(self, monkeypatch, run_cli):
        # No search, no table records and no process, whatever --jobs is.
        argvs = [
            ("verify", str(n), "--bound", "1000", "--jobs", "2", "--format", fmt)
            for n in (3, 4, 6)
            for fmt in cli.FORMATS
        ]
        want = {argv: run_cli(*argv) for argv in argvs}
        assert {out[0] for out in want.values()} == {0, 2}

        def refuse(*args, **kwargs):
            raise AssertionError("the counted verify enumerated")

        for module, name in (
            (concurrent.futures, "ProcessPoolExecutor"),
            (multiprocessing.process.BaseProcess, "start"),
            (harness, "_run_chunks"),
            (harness, "_groups"),
            (harness, "table_records"),
            (families, "table_records"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert {argv: run_cli(*argv) for argv in argvs} == want

    def test_counted_verify_at_10_12(self, run_cli):
        code, out, err = run_cli("verify", "6", "--bound", "1000000000000", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["matched_count"] == 126347742974457
        assert doc["exact_agreement"] is True

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
        # n = 5: the search does not find it, so the enumerated comparison
        # must strip it.  (verify_table counts the proved table and reads no
        # records.)
        records, anomalies = table_records(5, 10)
        row, values, _ = next(iter(records.values()))[0]
        assert (5, 1) not in search_defective(5, 10).pairs
        bogus = {**records, (5, 1): [(row, values, (5, 1))]}
        monkeypatch.setattr(harness, "table_records", lambda n, bound: (bogus, anomalies))
        report = harness._compare_with_search(5, 10)
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
        records, bad = table_records(5, 10)
        assert records[(3, -5)] == [
            (FamilyRowId.N5_PSI, (0, None, None, 1), (3, -5)),
            (FamilyRowId.N5_PSI, (0, None, None, -1), (3, -5)),
        ]
        assert bad == [
            (FamilyRowId.N5_PSI, (1, None, None, -1), (4, 0), ValidationFailure(FailureKind.ZERO_B))
        ]
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
        # exact agreement standing in the enumerated comparison: the entry is
        # stripped, found defective and reported as missed by the search.
        # verify_table counts the proved table and runs no search, so the
        # CLI's verify is routed through the enumerated comparison here.
        search = harness.search_defective

        def lossy(n, bound, jobs=1):
            result = search(n, bound, jobs)
            return replace(result, pairs=tuple(p for p in result.pairs if p != (7, -5)))

        monkeypatch.setattr(harness, "search_defective", lossy)
        assert verify_table(5, 200).exact_agreement
        monkeypatch.setattr(harness, "verify_table", harness._compare_with_search)
        report = harness._compare_with_search(5, 200)
        assert [(f.row, f.params, f.raw_ab, f.reason) for f in report.table_failures] == [
            (FamilyRowId.N5_PSI, FamilyParams(k=2, eps=-1), (7, -5), "missed_by_search")
        ]
        assert report.missing_from_table == () and not report.exact_agreement
        assert report.matched_count == len(enumerate_families(5, 200)) - 1
        code, out, _ = run_cli("verify", "5", "--bound", "200", "--format", "tsv")
        assert code == 2
        assert "table_failure\t7\t-5\tN5_PSI(k=2,eps=-1) missed_by_search\n" in out

    def test_planted_table_falls_back(self, monkeypatch):
        # N5_PSI with its exclusions lifted fails the certificate, so
        # verify_table compares by enumeration: its report is the enumerated
        # one, with the invalid tuple and the duplicate.
        lifted = replace(families._ROWS[FamilyRowId.N5_PSI], excluded=())
        monkeypatch.setitem(families._ROWS, FamilyRowId.N5_PSI, lifted)
        assert not families.certificate(5).proved
        for bound in (10, 200, 1000):
            report = verify_table(5, bound)
            assert report == harness._compare_with_search(5, bound), bound
            assert report.table_failures and report.equivalent_duplicates, bound

    def test_proved_verify_neither_searches_nor_enumerates(self, monkeypatch):
        # Once the certificate is proved (the first call), verify_table only
        # counts: no search, no orbit walk and no table records.
        want = {(n, bound): verify_table(n, bound) for n in SUPPORTED_N for bound in (1, 500, 10**6)}

        def refuse(*args, **kwargs):
            raise AssertionError("a proved table was searched or enumerated")

        for module, name in (
            (harness, "search_defective"),
            (harness, "_roots"),
            (harness, "table_records"),
            (families, "table_records"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert {key: verify_table(*key) for key in want} == want

    def test_lossy_walk_fails_the_count(self, monkeypatch, run_cli):
        # search 5 prints the proved table's count, not the listing's, so an
        # orbit walk that loses (7, -5) ends text and JSON with exit 1 after
        # the lines stream; TSV prints no count.
        roots = harness._roots
        monkeypatch.setattr(harness, "_roots", lambda *args: (r for r in roots(*args) if r != (7, -5)))
        for fmt in ("text", "json"):
            code, _, err = run_cli("search", "5", "--bound", "200", "--format", fmt)
            assert (code, err) == (1, "error: search listed 32 pairs, not the 33 its table counts\n"), fmt
        code, out, _ = run_cli("search", "5", "--bound", "200", "--format", "tsv")
        assert code == 0 and "\n7\t-5\n" not in out and len(out.splitlines()) == 33


def _verify_all():
    """scripts/verify_all.py as a module, so that its main() runs in this process."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerifyAll:
    """scripts/verify_all.py exits 2 only for what is not already known: a
    pair missing from the table passes when it is a certificate gap."""

    def test_shipped_table_exits_0(self, capsys):
        assert _verify_all().main(["--bound", "200"]) == 0
        out = capsys.readouterr().out
        assert "n= 4: matched=   767" in out and "missing from table: [(6, 2)] (certificate gap)\n" in out

    def test_planted_discrepancy_exits_2(self, monkeypatch, capsys):
        # The search of TestVerify.test_search_miss_is_reported, which loses
        # (7, -5) of N5_PSI(k=2,eps=-1).
        search = harness.search_defective

        def lossy(n, bound, jobs=1):
            result = search(n, bound, jobs)
            return replace(result, pairs=tuple(p for p in result.pairs if p != (7, -5)))

        script = _verify_all()
        monkeypatch.setattr(harness, "search_defective", lossy)
        assert script.main(["--bound", "200"]) == 2
        out = capsys.readouterr().out
        assert "n= 5: matched=    32" in out and "missed by search: 1\n" in out
        assert "missing from table: [(6, 2)] (certificate gap)\n" in out


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

    def test_resume_across_groups_matches_uninterrupted(self, tmp_path):
        # Bound 20000 has 129 chunks of 156 values of a, listed in groups of
        # 26 or 27; 5-chunk slices end inside those groups, and a slice lists
        # only its own chunks.  The run is torn after 12 slices, mid-line in
        # both files, and resumed in slices.
        n, bound = 6, 20000
        plain = search_defective(n, bound)
        fresh = tmp_path / "fresh.ckpt"
        assert search_with_checkpoint(n, bound, fresh) == plain
        sliced = tmp_path / "sliced.ckpt"
        for _ in range(12):
            assert search_with_checkpoint(n, bound, sliced, stop_after_chunks=5) is None
        hits = tmp_path / "sliced.ckpt.hits"
        sliced.write_bytes(sliced.read_bytes()[:-2])
        hits.write_bytes(hits.read_bytes()[:-3])
        slices = 0
        while (resumed := search_with_checkpoint(n, bound, sliced, stop_after_chunks=5)) is None:
            slices += 1
        assert slices == 13
        assert resumed == plain
        assert sliced.read_bytes() == fresh.read_bytes()
        assert hits.read_bytes() == (tmp_path / "fresh.ckpt.hits").read_bytes()

    def test_state_file_format(self, tmp_path):
        path = tmp_path / "fmt.ckpt"
        result = search_with_checkpoint(3, 64, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# 3\t64"
        lines = lines[1:]
        assert lines, "at least one chunk line"
        hit_lines = (tmp_path / "fmt.ckpt.hits").read_text().splitlines(keepends=True)
        total = 0
        for line, (lo, hi) in zip(lines, _chunks(64)):
            f = line.split("\t")
            assert len(f) == 5
            assert (int(f[0]), int(f[1]), int(f[2])) == (3, lo, hi)
            chunk = "".join(hit_lines[total : total + int(f[3])]).encode()
            assert f[4] == f"{zlib.crc32(chunk):08x}"
            total += int(f[3])
        assert total == len(result.pairs)
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

    @staticmethod
    def _resume_each(tmp_path, damaged):
        """Resume search_with_checkpoint(3, 200) from each (state, hits) pair
        that damaged makes of a 2-chunk checkpoint's files; each resume must
        be refused or end with the result and files of an uninterrupted run.
        Returns (refused, resumed)."""
        n, bound = 3, 200
        fresh = tmp_path / "fresh.ckpt"
        full = search_with_checkpoint(n, bound, fresh)
        want = (fresh.read_bytes(), (tmp_path / "fresh.ckpt.hits").read_bytes())
        snap = tmp_path / "snap.ckpt"
        assert search_with_checkpoint(n, bound, snap, stop_after_chunks=2) is None
        snap_files = (snap.read_bytes(), (tmp_path / "snap.ckpt.hits").read_bytes())
        refused = resumed = 0
        for i, (state, hits) in enumerate(damaged(*snap_files)):
            # Fresh files per case: on ext4, truncating or deleting a file
            # that was just rewritten waits for its data to be flushed.
            torn = tmp_path / f"torn{i}.ckpt"
            torn_hits = tmp_path / f"torn{i}.ckpt.hits"
            torn.write_bytes(state)
            torn_hits.write_bytes(hits)
            try:
                result = search_with_checkpoint(n, bound, torn)
            except CheckpointMismatchError:
                refused += 1
                continue
            assert result == full, i
            assert (torn.read_bytes(), torn_hits.read_bytes()) == want, i
            resumed += 1
        return refused, resumed

    def test_every_truncation_resumes_or_is_refused(self, tmp_path):
        def cuts(state, hits):
            yield from ((state[:i], hits) for i in range(len(state)))
            yield from ((state, hits[:i]) for i in range(len(hits)))

        assert self._resume_each(tmp_path, cuts)[1]

    def test_every_bit_flip_resumes_or_is_refused(self, tmp_path):
        # Each of the 8 bits of every committed byte of both files, flipped
        # one at a time: a flip in a committed chunk's state line or hits is
        # refused, and one that only uncommits the last chunk (its newline,
        # or a count past the hits) resumes.
        def flips(state, hits):
            for i in range(len(state) + len(hits)):
                for bit in range(8):
                    data = bytearray(state + hits)
                    data[i] ^= 1 << bit
                    yield bytes(data[: len(state)]), bytes(data[len(state) :])

        refused, resumed = self._resume_each(tmp_path, flips)
        assert refused and resumed

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
        assert lines[-1] == b"8\t65\t96\t0\t00000000\n"
        path.write_bytes(b"".join(lines[:-1]) + b"8\t65\t96\t-0\t00000000\n")
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
            lambda v: b"%d\t %d\t%d\t%d\t%s" % v,
            lambda v: b"+%d\t%d\t%d\t%d\t%s" % v,
            lambda v: b"%d\t%d_%d\t%d\t%d\t%s" % (v[0], v[1] // 10, v[1] % 10, *v[2:]),
            lambda v: b"0%d\t%d\t%d\t%d\t%s" % v,
            lambda v: b"%d\t%d\t%d\t%d\t%s\r" % v,
        ],
    )
    def test_state_line_must_be_as_written(self, tmp_path, edit):
        # int() reads each edited line as the original values, and the CRC
        # field is kept; the resume would then keep bytes an uninterrupted run
        # never writes.
        path = tmp_path / "strict.ckpt"
        search_with_checkpoint(3, 200, path, stop_after_chunks=2)
        header, first, second = path.read_bytes().splitlines()
        *fields, crc = second.split(b"\t")
        values = (*(int(x) for x in fields), crc)
        assert values[:3] == (3, 33, 64)
        path.write_bytes(b"\n".join([header, first, edit(values), b""]))
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path)

    @pytest.mark.parametrize("stop", [0, 1])
    def test_malformed_hit_line_refused_by_a_slice(self, tmp_path, stop):
        # A slice that returns None parses no hit, but still checks every
        # committed hit line.
        path = tmp_path / "slice.ckpt"
        assert search_with_checkpoint(3, 200, path, stop_after_chunks=2) is None
        hits_path = tmp_path / "slice.ckpt.hits"
        lines = hits_path.read_bytes().splitlines(keepends=True)
        hits_path.write_bytes(b"".join(lines[:-1]) + b"0" + lines[-1])
        with pytest.raises(CheckpointMismatchError):
            search_with_checkpoint(3, 200, path, stop_after_chunks=stop)

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

    @pytest.mark.parametrize("stop", [None, 0, 1])
    def test_edited_hit_line_in_the_grammar_refused(self, tmp_path, stop):
        # (64, 136) is not even a Lehmer pair; its line parses as well as the
        # written (64, 132), so only the chunk's CRC-32 tells them apart.
        path = tmp_path / "edit.ckpt"
        assert search_with_checkpoint(3, 200, path, stop_after_chunks=2) is None
        hits_path = tmp_path / "edit.ckpt.hits"
        lines = hits_path.read_bytes().splitlines(keepends=True)
        assert lines[-1] == b"64\t132\n"
        hits_path.write_bytes(b"".join(lines[:-1]) + b"64\t136\n")
        with pytest.raises(CheckpointMismatchError, match="CRC-32"):
            search_with_checkpoint(3, 200, path, stop_after_chunks=stop)

    @given(
        lengths=st.lists(st.integers(1, 8), max_size=30),
        start=st.integers(0, 30),
        count=st.integers(0, 30),
        tail=st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_lines_end_for_lines_of_any_length(self, lengths, start, count, tail):
        # Lines of 1 to 8 bytes, the writer's (4 bytes and more) and the
        # shorter ones it never writes, then a torn tail: count lines from
        # the start-th end where the line offsets say, or -1 past the last.
        data = b"".join(b"x" * (k - 1) + b"\n" for k in lengths) + b"x" * tail
        offsets = list(accumulate(lengths, initial=0))
        start = min(start, len(lengths))
        want = offsets[start + count] if start + count < len(offsets) else -1
        assert harness._lines_end(data, offsets[start], count, offsets[-1]) == want

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
