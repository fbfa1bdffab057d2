import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

import lehmerdefect
from lehmerdefect import cli, families, harness
from lehmerdefect.families import FamilyEntry, FamilyParams, FamilyRowId
from lehmerdefect.pairs import lehmer_number, require_pair
from lehmerdefect.sequences import SequenceId, seq_eval

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


class TestBasics:
    def test_u_with_negative_positionals(self, run_cli):
        code, out, err = run_cli("u", "-1", "-5", "5")
        assert (code, out, err) == (0, "5\n", "")

    def test_seq(self, run_cli):
        code, out, _ = run_cli("seq", "psi", "-2")
        assert (code, out) == (0, "3\n")

    def test_u_fibonacci(self, run_cli):
        code, out, _ = run_cli("u", "1", "5", "12")
        assert (code, out) == (0, "144\n")

    def test_module_help(self, run_cli):
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "") and out.startswith("usage: lehmerdefect")
        code, out, _ = run_cli("search", "--help")
        assert code == 0 and "--checkpoint" in out

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("u", "1", "5", "21000"), lambda: lehmer_number(require_pair(1, 5), 21000)),
            (("seq", "phi", "30000"), lambda: seq_eval(SequenceId.PHI, 30000)),
        ],
    )
    def test_values_past_the_int_str_digit_limit(self, run_cli, argv, value):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, out, err = run_cli(*argv)
        assert (code, err, limit()) == (0, "", before)
        # Decimal parses and compares without the int/str digit limit.
        assert len(out) > 4300 and Decimal(out) == value()


    def test_runs_in_one_process_match_standalone_runs(self, monkeypatch):
        # The parser is built once per process: a usage error, check, --help
        # and verify in a row must each behave as in a process of its own.
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width
        env = {**os.environ, "PYTHONPATH": str(Path(lehmerdefect.__file__).parents[1])}
        for argv in (
            ["search", "5"],
            ["check", "35", "-29", "6", "--format", "json"],
            ["--help"],
            ["verify", "4", "--bound", "30"],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.run(argv, stdout=buf, stderr=buf)
            alone = subprocess.run(
                [sys.executable, "-m", "lehmerdefect", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (code, buf.getvalue()) == (alone.returncode, alone.stdout + alone.stderr), argv


class TestErrors:
    def test_unknown_command(self, run_cli):
        code, _, err = run_cli("frobnicate")
        assert code == 1 and "error" in err

    def test_missing_required_bound(self, run_cli):
        code, _, err = run_cli("search", "5")
        assert code == 1 and "error" in err

    def test_invalid_pair(self, run_cli):
        code, _, err = run_cli("u", "3", "2", "5")
        assert code == 1
        assert "NotCongruentMod4" in err

    def test_unsupported_n(self, run_cli):
        code, _, err = run_cli("verify", "7", "--bound", "10")
        assert code == 1 and "n=7" in err

    def test_family_unsupported_n_before_bound(self, run_cli):
        code, out, err = run_cli("family", "7", "--bound", "-1")
        assert (code, out) == (1, "") and "n=7" in err

    def test_check_low_index(self, run_cli):
        code, _, err = run_cli("check", "1", "5", "2")
        assert code == 1 and "n >= 3" in err

    def test_seq_below_minimum(self, run_cli):
        code, _, err = run_cli("seq", "phi", "-3")
        assert code == 1 and "k >= -2" in err


class TestGoldenOutputs:
    def test_check_json(self, run_cli):
        code, out, _ = run_cli("check", "5", "1", "5", "--format", "json")
        assert code == 0
        assert out == (
            '{"a": "5", "b": "1", "n": 5, "u_n": "11", "nonprim_product": "60", '
            '"residual": "11", "defective": false, "primitive_primes": ["11"]}\n'
        )

    def test_check_defective_json(self, run_cli):
        code, out, _ = run_cli("check", "-1", "-5", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["defective"] is True
        assert doc["u_n"] == "5"
        assert doc["primitive_primes"] == []

    def test_check_tsv(self, run_cli):
        code, out, _ = run_cli("check", "5", "1", "5", "--format", "tsv")
        assert out.splitlines() == [
            "# a\tb\tn\tu_n\tnonprim_product\tresidual\tdefective\tprimitive_primes",
            "5\t1\t5\t11\t60\t11\tfalse\t11",
        ]

    def test_check_text(self, run_cli):
        code, out, _ = run_cli("check", "-1", "-5", "5")
        assert out == (
            "pair: (-1, -5)\nn: 5\nu_n: 5\nnonprim_product: 30\n"
            "residual: 1\ndefective: true\nprimitive_primes: []\n"
        )

    def test_search_tsv(self, run_cli):
        code, out, _ = run_cli("search", "5", "--bound", "7", "--format", "tsv")
        assert out.splitlines() == ["# a\tb", "1\t-7", "1\t5", "3\t-5", "5\t-3", "7\t-5"]

    def test_search_json(self, run_cli):
        code, out, _ = run_cli("search", "12", "--bound", "5", "--format", "json")
        assert json.loads(out) == {
            "n": 12,
            "bound": 5,
            "count": 2,
            "pairs": [["1", "5"], ["5", "1"]],
        }

    def test_family_json(self, run_cli):
        code, out, _ = run_cli("family", "5", "--bound", "7", "--format", "json")
        doc = json.loads(out)
        assert doc["n"] == 5 and doc["bound"] == 7 and doc["count"] == 5
        assert doc["entries"][0] == {
            "row": "N5_PHI",
            "params": {"k": 3, "eps": 1},
            "raw_a": "1",
            "raw_b": "-7",
            "canonical_a": "1",
            "canonical_b": "-7",
            "provenance": [],
        }
        rows = [(e["row"], e["raw_a"], e["raw_b"]) for e in doc["entries"]]
        assert rows == [
            ("N5_PHI", "1", "-7"),
            ("N5_PHI", "5", "-3"),
            ("N5_PSI", "3", "-5"),
            ("N5_PSI", "-1", "-5"),
            ("N5_PSI", "7", "-5"),
        ]

    def test_family_tsv_columns(self, run_cli):
        code, out, _ = run_cli("family", "3", "--bound", "9", "--format", "tsv")
        lines = out.splitlines()
        assert lines[0] == "# n\trow\tk\tl\tq\teps\traw_a\traw_b\tcanon_a\tcanon_b\tprovenance"
        assert "3\tN3_Q\t-\t-\t2\t-\t3\t-5\t3\t-5\t-" in lines
        assert "3\tN3_POW3\t1\t-\t-1\t-\t2\t6\t2\t6\t-" in lines

    def test_verify_json_agreement(self, run_cli):
        code, out, _ = run_cli("verify", "5", "--bound", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_agreement"] is True
        assert doc["missing_from_table"] == []
        assert doc["table_failures"] == []
        assert doc["equivalent_duplicates"] == []

    def test_verify_discrepancy_exit_2(self, run_cli):
        code, out, _ = run_cli("verify", "4", "--bound", "10", "--format", "json")
        assert code == 2
        assert json.loads(out)["missing_from_table"] == [["6", "2"]]

    def test_verify_text(self, run_cli):
        code, out, _ = run_cli("verify", "4", "--bound", "10")
        assert code == 2
        assert "missing from table: (6, 2)" in out

    def test_audit(self, run_cli):
        code, out, _ = run_cli("audit", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [c["id"] for c in doc["changes"]][:3] == ["n=3(1)", "n=4(1)", "n=4(2)"]
        assert all(c["passed"] for c in doc["changes"])

    def test_audit_text(self, run_cli):
        code, out, _ = run_cli("audit")
        assert code == 0
        assert "n=5(1) PASS" in out
        assert out.rstrip().endswith("all_passed: true")


_KEPT = FamilyEntry(5, FamilyRowId.N5_PSI, FamilyParams(k=0, eps=1), (3, -5), (3, -5))
_SHADOW = FamilyEntry(5, FamilyRowId.N5_PSI, FamilyParams(k=0, eps=-1), (-3, 5), (3, -5))


def _as_records(entries):
    """families.table_records' (records, shadows, anomalies) holding these
    entries, each entry's provenance as its shadows."""

    def record(e):
        sign = 1 if e.raw_ab == e.canonical_ab else -1
        p = e.params
        return (families._ROW_IDS.index(e.row), sign, p.k, p.l, p.q, p.eps)

    records = {e.canonical_ab: record(e) for e in entries}
    shadows = {e.canonical_ab: [record(s) for s in e.provenance] for e in entries if e.provenance}
    return records, shadows, []


class TestRenderings:
    """Report shapes the shipped table never produces, in every format.

    verify_table and families.table_records are replaced by fixed results so
    the missing-pair, failure, duplicate and provenance renderings stay pinned.
    """

    REPORT = harness.DiscrepancyReport(
        n=5,
        bound=9,
        missing_from_table=((9, 1),),
        table_failures=(
            harness.TableFailure(FamilyRowId.N5_PHI, FamilyParams(k=3, eps=1), (1, -7), "invalid:ZeroA"),
            harness.TableFailure(
                FamilyRowId.N5_PSI, FamilyParams(k=1, eps=1), (-1, -5), "not_defective:residual=11"
            ),
        ),
        equivalent_duplicates=((_KEPT, _SHADOW),),
        matched_count=4,
    )
    ENTRIES = [
        replace(
            _KEPT,
            provenance=(
                _SHADOW,
                FamilyEntry(5, FamilyRowId.N5_PHI, FamilyParams(k=3, eps=-1), (3, -5), (3, -5)),
            ),
        ),
        FamilyEntry(5, FamilyRowId.N5_PSI, FamilyParams(k=1, eps=1), (-1, -5), (1, 5)),
    ]

    @pytest.mark.parametrize(
        "fmt, want",
        [
            (
                "text",
                "n=5 bound=9 matched=4 exact_agreement=false\n"
                "missing from table: (9, 1)\n"
                "table failure: N5_PHI(k=3,eps=1) raw=(1, -7) invalid:ZeroA\n"
                "table failure: N5_PSI(k=1,eps=1) raw=(-1, -5) not_defective:residual=11\n"
                "equivalent duplicate: kept N5_PSI(k=0,eps=1) shadow N5_PSI(k=0,eps=-1) at (3, -5)\n",
            ),
            (
                "tsv",
                "# kind\ta\tb\tdetail\n"
                "summary\t-\t-\tn=5 bound=9 matched=4 exact_agreement=false\n"
                "missing\t9\t1\t-\n"
                "table_failure\t1\t-7\tN5_PHI(k=3,eps=1) invalid:ZeroA\n"
                "table_failure\t-1\t-5\tN5_PSI(k=1,eps=1) not_defective:residual=11\n"
                "equivalent_duplicate\t3\t-5\tkept=N5_PSI(k=0,eps=1) shadow=N5_PSI(k=0,eps=-1)\n",
            ),
            (
                "json",
                '{"n": 5, "bound": 9, "matched_count": 4, "exact_agreement": false, '
                '"missing_from_table": [["9", "1"]], "table_failures": ['
                '{"row": "N5_PHI", "params": {"k": 3, "eps": 1}, "raw_a": "1", "raw_b": "-7", '
                '"reason": "invalid:ZeroA"}, '
                '{"row": "N5_PSI", "params": {"k": 1, "eps": 1}, "raw_a": "-1", "raw_b": "-5", '
                '"reason": "not_defective:residual=11"}], '
                '"equivalent_duplicates": [{"kept": {"row": "N5_PSI", "params": {"k": 0, "eps": 1}}, '
                '"shadow": {"row": "N5_PSI", "params": {"k": 0, "eps": -1}}, '
                '"canonical_a": "3", "canonical_b": "-5"}]}\n',
            ),
        ],
    )
    def test_verify_discrepancies(self, run_cli, monkeypatch, fmt, want):
        monkeypatch.setattr(harness, "verify_table", lambda n, bound, jobs=1: self.REPORT)
        assert run_cli("verify", "5", "--bound", "9", "--format", fmt) == (2, want, "")

    @pytest.mark.parametrize(
        "fmt, want",
        [
            (
                "text",
                "n=5 bound=9 entries=2\n"
                "row=N5_PSI params=k=0,eps=1 raw=(3, -5) canonical=(3, -5)\n"
                "row=N5_PSI params=k=1,eps=1 raw=(-1, -5) canonical=(1, 5)\n",
            ),
            (
                "tsv",
                "# n\trow\tk\tl\tq\teps\traw_a\traw_b\tcanon_a\tcanon_b\tprovenance\n"
                "5\tN5_PSI\t0\t-\t-\t1\t3\t-5\t3\t-5\tN5_PSI(k=0,eps=-1);N5_PHI(k=3,eps=-1)\n"
                "5\tN5_PSI\t1\t-\t-\t1\t-1\t-5\t1\t5\t-\n",
            ),
            (
                "json",
                '{"n": 5, "bound": 9, "count": 2, "entries": ['
                '{"row": "N5_PSI", "params": {"k": 0, "eps": 1}, "raw_a": "3", "raw_b": "-5", '
                '"canonical_a": "3", "canonical_b": "-5", "provenance": ['
                '{"row": "N5_PSI", "params": {"k": 0, "eps": -1}}, '
                '{"row": "N5_PHI", "params": {"k": 3, "eps": -1}}]}, '
                '{"row": "N5_PSI", "params": {"k": 1, "eps": 1}, "raw_a": "-1", "raw_b": "-5", '
                '"canonical_a": "1", "canonical_b": "5", "provenance": []}]}\n',
            ),
        ],
    )
    def test_family_provenance(self, run_cli, monkeypatch, fmt, want):
        monkeypatch.setattr(families, "table_records", lambda n, bound: _as_records(self.ENTRIES))
        assert run_cli("family", "5", "--bound", "9", "--format", fmt) == (0, want, "")

    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_family_negative_bound(self, run_cli, fmt):
        assert run_cli("family", "3", "--bound", "-1", "--format", fmt) == (
            1, "", "error: bound must be nonnegative, got -1\n"
        )


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_digest(run_cli, argv):
    # Exit code and SHA-256 of stdout of family/verify n --bound 700 and of
    # audit, in every format: every output byte is pinned.
    code, out, _ = run_cli(*argv.split())
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == GOLDEN[argv]


class TestDeterminism:
    def test_verify_jobs_byte_identical(self, run_cli):
        runs = {}
        for jobs in ("1", "3"):
            for fmt in ("json", "tsv", "text"):
                code, out, _ = run_cli(
                    "verify", "5", "--bound", "120", "--jobs", jobs, "--format", fmt
                )
                assert code == 0
                runs.setdefault(fmt, set()).add(out)
        assert all(len(outputs) == 1 for outputs in runs.values())

    def test_search_checkpoint_cli(self, run_cli, tmp_path):
        path = tmp_path / "cli.ckpt"
        code1, out1, _ = run_cli(
            "search", "5", "--bound", "100", "--checkpoint", str(path), "--format", "tsv"
        )
        assert code1 == 0 and path.exists()
        code2, out2, _ = run_cli("search", "5", "--bound", "100", "--format", "tsv")
        assert out1 == out2

    def test_jobs_env_default(self, run_cli, monkeypatch):
        monkeypatch.setenv("LEHMERDEFECT_JOBS", "2")
        code, out, _ = run_cli("search", "5", "--bound", "60", "--format", "tsv")
        assert code == 0
        code1, out1, _ = run_cli(
            "search", "5", "--bound", "60", "--jobs", "1", "--format", "tsv"
        )
        assert out == out1

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_jobs_env_invalid_is_named(self, run_cli, monkeypatch, value):
        monkeypatch.setenv("LEHMERDEFECT_JOBS", value)
        code, out, err = run_cli("search", "5", "--bound", "10")
        assert (code, out) == (1, "")
        assert err == f"error: LEHMERDEFECT_JOBS must be an integer, got {value!r}\n"

    def test_jobs_flag_does_not_read_env(self, run_cli, monkeypatch):
        monkeypatch.setenv("LEHMERDEFECT_JOBS", "abc")
        code, out, err = run_cli("search", "5", "--bound", "10", "--jobs", "2")
        assert (code, err) == (0, "")
        monkeypatch.delenv("LEHMERDEFECT_JOBS")
        assert run_cli("search", "5", "--bound", "10", "--jobs", "1") == (0, out, "")


@pytest.fixture
def perfbench_layers(monkeypatch):
    """perfbench/layers.py imported from this checkout; sys.path and the
    perfbench modules' entries in sys.modules are put back afterwards."""
    names = ("layers", "oracle", "run", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        yield importlib.import_module("layers")
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_benchmark_trace_mode_finds_its_names(perfbench_layers, run_cli):
    # The untraced benchmark never touches the names that perfbench/run.py
    # --trace 1 wraps and probes, so only this catches a rename of one.
    tracer = perfbench_layers.Tracer()
    try:
        tracer.install()
        for argv in (["verify", "5", "--bound", "30"], ["family", "6", "--bound", "30"],
                     ["audit"], ["check", "5", "1", "5"]):
            assert run_cli(*argv)[0] == 0, argv
    finally:
        with contextlib.suppress(ValueError):  # an install cut short adds no gc callback
            tracer.uninstall()
    assert {"cli.run", "harness.verify_table", "harness.search_defective",
            "harness.audit_changes", "primdiv.defect_witness"} <= {s["name"] for s in tracer.spans}
    assert perfbench_layers.per_candidate_probes(12)["pairs.valid"] > 0
