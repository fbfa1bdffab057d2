"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The extended bound-5000
cross-validation and the bound-5000 comparison of the search with a scan of
the whole box by the definition are included by default (about 90 s on one
core of a 2-core host); set LEHMERDEFECT_SKIP_EXTENDED=1 to skip both during
quick iterations.
"""

import json
import os
import random
import time
from math import gcd

import pytest

from conftest import definitional_search, fib
from lehmerdefect.families import enumerate_families
from lehmerdefect.harness import (
    audit_changes,
    search_defective,
    search_with_checkpoint,
    verify_table,
)
from lehmerdefect.pairs import (
    LehmerPair,
    discriminant_sq,
    lehmer_prefix,
    require_pair,
    validate_ab,
)
from lehmerdefect.primdiv import defect_witness, factorize
from lehmerdefect.sequences import ZETAS, SequenceId, seq_eval

ALL_N = (3, 4, 5, 6, 8, 10, 12)

# The one documented open question: (6, 2) is a valid 4-defective pair that
# matches no table row and is equivalent to none.  verify_table must report
# exactly it for n=4, or nothing; any other discrepancy fails acceptance.
KNOWN_N4_GAP = ((6, 2),)


def _report(criterion: str, elapsed: float, note: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {note}")


def test_criterion_1_exceptional_pair_reproduction():
    t0 = time.time()
    pair = validate_ab(-1, -5)
    assert isinstance(pair, LehmerPair)
    assert lehmer_prefix(pair, 5) == [0, 1, 1, -2, -3, 5]
    assert discriminant_sq(pair) == 5
    assert defect_witness(pair, 5).defective
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("1 (pair (-1,-5))", elapsed, "(-1,-5): prefix, discriminant 5, 5-defective")


def test_criterion_2_sequence_goldens():
    t0 = time.time()
    PHI, PSI, PI, RHO = SequenceId.PHI, SequenceId.PSI, SequenceId.PI, SequenceId.RHO
    Z0, Z1, Z2, Z3 = ZETAS
    goldens = {
        (PHI, -2): -1, (PHI, -1): 1, (PHI, 0): 0, (PHI, 1): 1,
        (PSI, -2): 3, (PSI, -1): -1, (PSI, 0): 2, (PSI, 1): 1,
        (PI, -1): 1, (PI, 0): 0, (PI, 1): 1,
        (RHO, -1): -1, (RHO, 0): 1, (RHO, 1): 1,
        (Z0, -1): -1, (Z0, 0): 0, (Z0, 1): 1,
        (Z1, -1): 2, (Z1, 0): 1, (Z1, 1): 2,
        (Z2, -1): 1, (Z2, 0): 1, (Z2, 1): 3,
        (Z3, -1): -1, (Z3, 0): 1, (Z3, 1): 5,
    }
    for (seq, k), expected in goldens.items():
        assert seq_eval(seq, k) == expected, (seq, k)
    for k in range(1, 61):
        assert (
            seq_eval(Z3, k - 1)
            < seq_eval(Z1, k)
            < seq_eval(Z2, k)
            < seq_eval(Z0, k + 1)
            < seq_eval(Z3, k)
        )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("2 (sequence goldens)", elapsed, "26 seeds + interleaving k=1..60")


def _assert_verify_contract(n: int, bound: int) -> int:
    report = verify_table(n, bound)
    assert report.table_failures == (), (n, bound, report.table_failures)
    assert report.equivalent_duplicates == (), (n, bound)
    if n == 4:
        assert report.missing_from_table in ((), KNOWN_N4_GAP), (
            n,
            bound,
            report.missing_from_table,
        )
    else:
        assert report.missing_from_table == (), (n, bound, report.missing_from_table)
    return report.matched_count


def test_criterion_3_cross_validation_bound_500():
    t0 = time.time()
    matched = {n: _assert_verify_contract(n, 500) for n in ALL_N}
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report("3 (cross-validation 500)", elapsed, f"matched per n: {matched}")


@pytest.mark.skipif(
    os.environ.get("LEHMERDEFECT_SKIP_EXTENDED") == "1",
    reason="extended bound-5000 sweep skipped by LEHMERDEFECT_SKIP_EXTENDED=1",
)
def test_criterion_3_extended_bound_5000():
    t0 = time.time()
    matched = {n: _assert_verify_contract(n, 5000) for n in ALL_N}
    elapsed = time.time() - t0
    assert elapsed < 3600.0
    _report("3 (cross-validation 5000)", elapsed, f"matched per n: {matched}")


@pytest.mark.skipif(
    os.environ.get("LEHMERDEFECT_SKIP_EXTENDED") == "1",
    reason="extended bound-5000 sweep skipped by LEHMERDEFECT_SKIP_EXTENDED=1",
)
def test_criterion_3_extended_solve_matches_definition_5000():
    t0 = time.time()
    scanned = definitional_search(5000, ALL_N)
    for n in ALL_N:
        assert search_defective(n, 5000).pairs == scanned[n], n
    elapsed = time.time() - t0
    counts = {n: len(pairs) for n, pairs in scanned.items()}
    _report("3 (solve = definitional scan 5000)", elapsed, f"pairs per n: {counts}")


def test_criterion_4_exclusion_audit():
    t0 = time.time()
    items = audit_changes()
    assert len(items) == 12
    for item in items:
        assert item.passed, f"{item.change_id}: {item.evidence}"
    elapsed = time.time() - t0
    _report("4 (changes audit)", elapsed, f"{len(items)} corrections re-verified")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    checked = 0
    non_defective = {n: 0 for n in ALL_N}
    for a in range(-200, 201):
        if a == 0:
            continue
        for q in range(-((200 - a) // 4), (200 + a) // 4 + 1):
            if q == 0:
                continue
            pair = validate_ab(a, a - 4 * q)
            if not isinstance(pair, LehmerPair):
                continue
            for n in ALL_N:
                w = defect_witness(pair, n)
                by_factoring = all(
                    w.nonprim_product % p == 0 for p in factorize(abs(w.u_n))
                )
                assert w.defective == by_factoring, (a, a - 4 * q, n)
                checked += 1
                if not w.defective:
                    non_defective[n] += 1
    assert all(count > 0 for count in non_defective.values()), non_defective
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("5 (oracle equivalence)", elapsed, f"{checked} decisions, 100% agreement")


def test_criterion_6_invariant_suite():
    t0 = time.time()
    rng = random.Random(20260808)
    pairs = []
    while len(pairs) < 1000:
        a = rng.randint(-10_000, 10_000)
        if a == 0:
            continue
        q = rng.randint(-((10_000 - a) // 4), (10_000 + a) // 4)
        res = validate_ab(a, a - 4 * q)
        if isinstance(res, LehmerPair):
            pairs.append(res)
    for pair in pairs:
        p, q = pair.p, pair.q
        prefix = lehmer_prefix(pair, 30)
        assert prefix[1] == 1 and prefix[2] == 1
        assert prefix[3] == p - q
        assert prefix[4] == p - 2 * q
        for u in prefix[1:13]:
            assert gcd(u, q) == 1
        for u in prefix[1:31]:
            assert u != 0
        mirror = require_pair(-pair.a, -pair.b)
        for u, v in zip(prefix[:13], lehmer_prefix(mirror, 12)):
            assert abs(u) == abs(v)
    elapsed = time.time() - t0
    _report("6 (invariant suite)", elapsed, "1000 seeded pairs, |a|,|b| <= 10^4")


def _swap_canonical(pairs):
    return {(b, a) if b > 0 else (-b, -a) for a, b in pairs}


def test_criterion_7_swap_duality():
    t0 = time.time()
    for bound in (100, 500, 2000):
        fam5 = {e.canonical_ab for e in enumerate_families(5, bound)}
        fam10 = {e.canonical_ab for e in enumerate_families(10, bound)}
        assert fam10 == _swap_canonical(fam5), ("family", bound)
        s5 = set(search_defective(5, bound).pairs)
        s10 = set(search_defective(10, bound).pairs)
        assert s10 == _swap_canonical(s5), ("search", bound)
    elapsed = time.time() - t0
    _report("7 (swap duality)", elapsed, "family and search sets at 100/500/2000")


def test_criterion_8_fibonacci_identification():
    t0 = time.time()
    assert lehmer_prefix(require_pair(1, 5), 30) == [fib(i) for i in range(31)]
    elapsed = time.time() - t0
    _report("8 (fibonacci oracle)", elapsed, "(1,5) prefix equals fib(0..30)")


def test_criterion_9_determinism_across_jobs(run_cli):
    t0 = time.time()
    outputs = set()
    for jobs in ("1", "4"):
        code, out, err = run_cli(
            "verify", "5", "--bound", "500", "--jobs", jobs, "--format", "json"
        )
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1
    doc = json.loads(outputs.pop())
    assert doc["exact_agreement"] is True
    elapsed = time.time() - t0
    _report("9 (determinism)", elapsed, "verify 5 --bound 500, jobs 1 vs 4 identical")


def test_long_mode_checkpoint_resume_bound_5000(tmp_path):
    t0 = time.time()
    n, bound = 3, 5000
    fresh = tmp_path / "fresh.ckpt"
    uninterrupted = search_with_checkpoint(n, bound, fresh)

    broken = tmp_path / "resumed.ckpt"
    assert search_with_checkpoint(n, bound, broken, stop_after_chunks=60) is None
    resumed = search_with_checkpoint(n, bound, broken)

    assert resumed == uninterrupted
    assert broken.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "resumed.ckpt.hits").read_bytes() == (
        tmp_path / "fresh.ckpt.hits"
    ).read_bytes()
    assert resumed == search_defective(n, bound)
    elapsed = time.time() - t0
    _report(
        "long mode (checkpoint)",
        elapsed,
        f"interrupted bound-5000 resume byte-identical, {len(resumed.pairs)} hits",
    )
