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
from lehmerdefect import cli, families, harness, pairs, primdiv
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


def _nested_parse(argv):
    """argv through the top-level parser, which hands the rest to the
    subcommand's parser: the parse that cli._parse does in one step."""
    return cli._parser().parse_args(argv)


class TestDirectDispatch:
    """cli._parse gives what the nested parse gives: the namespace, and for
    usage errors and --help the exit code and every byte written."""

    PARSED = [
        ["seq", "phi", "40"],
        ["u", "1", "5", "30"],
        ["u", "-1", "-5", "5"],
        ["u", "--", "-1", "-5", "5"],
        ["check", "1", "5", "5"],
        ["check", "1", "5", "5", "--form", "json"],
        ["check", "1", "5", "5", "--format", "tsv", "--format", "json"],
        ["family", "6", "--bound=60", "--format", "tsv"],
        ["search", "5", "--bound=60"],
        ["search", "6", "--bound", "10", "--jobs", "2", "--checkpoint", "x.ckpt"],
        ["verify", "4", "--format", "json", "--bound", "30", "--jobs", "1"],
        ["audit"],
        ["audit", "--format", "tsv"],
    ]
    REFUSED = [
        [],
        ["bogus"],
        ["--help"],
        ["-h"],
        ["--help", "check"],
        ["check", "1", "5", "5", "-h"],
        ["search", "--help"],
        ["check", "1", "5"],
        ["family", "5", "--bound", "x"],
        ["check", "1", "5", "5", "--format", "xml"],
        ["search", "5", "--bound", "10", "--frob"],
        ["u", "1", "5", "5", "6"],
    ]

    def test_namespaces(self):
        for argv in self.PARSED:
            assert vars(cli._parse(list(argv))) == vars(_nested_parse(list(argv))), argv

    def test_usage_errors_and_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width
        for argv in self.REFUSED:
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, stdout=out, stderr=err)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_parse", _nested_parse)
                nested_out, nested_err = io.StringIO(), io.StringIO()
                nested = cli.run(argv, stdout=nested_out, stderr=nested_err)
            assert (code, out.getvalue(), err.getvalue()) == (
                nested, nested_out.getvalue(), nested_err.getvalue()
            ), argv
            assert code == 0 if "-h" in argv or "--help" in argv else code == 1, argv

    def test_one_parse_per_call(self, monkeypatch):
        # The top-level parser reads only a call that names no subcommand.
        calls, parse_known_args = [], cli._Parser.parse_known_args

        def counted(parser, *args):
            calls.append(parser)
            return parse_known_args(parser, *args)

        monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
        top = cli._parser()
        assert cli.run(["u", "1", "5", "12"], stdout=io.StringIO()) == 0
        assert calls == [top.commands["u"]]
        calls.clear()
        assert cli.run(["bogus"], stdout=io.StringIO(), stderr=io.StringIO()) == 1
        assert calls == [top]


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

    def test_check_unfactored_only_past_the_budget(self, run_cli, monkeypatch):
        # The residual of (1001, -999) at n = 97 has 130 digits and no prime
        # factor below 4096; with no rho step allowed it is left whole.
        r = primdiv.defect_witness(require_pair(1001, -999), 97).residual
        monkeypatch.setattr(primdiv, "RHO_BUDGET", 0)
        argv = ("check", "1001", "-999", "97", "--format")
        code, out, err = run_cli(*argv, "json")
        assert (code, err) == (0, "")
        assert out.endswith('"defective": false, "primitive_primes": [], "unfactored": "%d"}\n' % r)
        code, out, err = run_cli(*argv, "tsv")
        head, row = out.splitlines()
        assert (code, err) == (0, "")
        assert head == "# a\tb\tn\tu_n\tnonprim_product\tresidual\tdefective\tprimitive_primes\tunfactored"
        assert row.endswith("\tfalse\t\t%d" % r)
        code, out, err = run_cli(*argv, "text")
        assert (code, err) == (0, "")
        assert out.endswith("defective: false\nprimitive_primes: []\nunfactored: %d\n" % r)

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
    """families.table_records' (records, anomalies) holding these entries,
    each entry's provenance as its later views."""

    def view(e):
        return e.row, (e.params.k, e.params.l, e.params.q, e.params.eps), e.raw_ab

    return {e.canonical_ab: [view(x) for x in (e, *e.provenance)] for e in entries}, []


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
        monkeypatch.setattr(harness, "verify_table", lambda n, bound: self.REPORT)
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
    @pytest.mark.parametrize("n", ["3", "4", "6", "5"])
    def test_family_negative_bound(self, run_cli, n, fmt):
        # n = 3, 4, 6 take the streamed path, n = 5 the records one.
        assert run_cli("family", n, "--bound", "-1", "--format", fmt) == (
            1, "", "error: bound must be nonnegative, got -1\n"
        )


class TestLinearFamily:
    """family 3|4|6 renders the rows' own walks (families.table_walks); the
    same renderer on the checked records of table_records is its oracle."""

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_streamed_equals_records(self, monkeypatch, run_cli, n):
        argvs = [
            ("family", str(n), "--bound", str(bound), "--format", fmt)
            for bound in [*range(65), 700, 3000]
            for fmt in cli.FORMATS
        ]
        got = {argv: run_cli(*argv) for argv in argvs}
        for argv, (code, out, _) in got.items():
            size, fmt = families.linear_table(n, int(argv[3]))[0], argv[5]
            if fmt == "tsv":
                assert len(out.splitlines()) - 1 == size, argv
            elif fmt == "text":
                assert out.startswith(f"n={n} bound={argv[3]} entries={size}\n"), argv
            else:
                assert json.loads(out)["count"] == size, argv
        # The oracle: the records source, through the same renderer.
        records = families.table_records
        calls = []
        monkeypatch.setattr(families, "_linear", lambda n: False)
        monkeypatch.setattr(families, "table_records", lambda n, b: calls.append(b) or records(n, b))
        for argv in argvs:
            assert run_cli(*argv) == got[argv], argv
        assert len(calls) == len(argvs)

    def test_skips_the_record_machinery(self, monkeypatch, run_cli):
        # No pair rule per tuple and no records.  The text header's count
        # (linear_table) checks only the in-bound exclusions.
        argvs = [
            ("family", str(n), "--bound", "700", "--format", fmt)
            for n in (3, 4, 6)
            for fmt in cli.FORMATS
        ]
        want = {argv: run_cli(*argv) for argv in argvs}

        def refuse(*args, **kwargs):
            raise AssertionError("the streamed family used the record machinery")

        for module, name in (
            (pairs, "pair_failure"),
            (families, "table_records"),
        ):
            monkeypatch.setattr(module, name, refuse)
        checked = []
        rule = families.pair_failure
        monkeypatch.setattr(families, "pair_failure", lambda a, b: checked.append((a, b)) or rule(a, b))
        for argv in argvs:
            checked.clear()
            assert run_cli(*argv) == want[argv], argv
            rows = families.family_rows(int(argv[1]))
            assert len(checked) <= sum(len(families._ROWS[row].excluded) for row in rows), argv


    def test_block_boundaries(self, monkeypatch, run_cli):
        # Blocks 1, 2 and 3 q wide cut the power terms at every offset, and
        # at every place where a changes sign.
        argvs = [
            ("family", str(n), "--bound", str(bound), "--format", fmt)
            for n in (3, 4, 6)
            for bound in [*range(65), 700]
            for fmt in ("text", "tsv")
        ]
        want = _records_rendering(run_cli, argvs)
        for block in (1, 2, 3):
            monkeypatch.setattr(families, "_BLOCK", block)
            for argv in argvs:
                assert run_cli(*argv) == want[argv], (block, argv)

    def test_term_longer_than_a_block(self, run_cli):
        # N6_Q's one power term holds about 8.7k entries at 13000: several
        # segments, none longer than a block.
        _, segments, _ = families.table_walks(6, 13000)
        sizes = [len(a_s) for row, *_, a_s, _ in segments if row is families.FamilyRowId.N6_Q]
        assert len(sizes) > 4 and max(sizes) == families._BLOCK
        argv = ("family", "6", "--bound", "13000", "--format", "tsv")
        assert run_cli(*argv) == _records_rendering(run_cli, [argv])[argv]

    def test_edges(self, monkeypatch, run_cli):
        # At 64 N3_Q's a column changes sign inside one segment; 1 q wide
        # blocks give N6_POW6 a segment with no entries at each q divisible
        # by 6; at bound 0 there is no segment.
        def columns(n, bound):
            return [a_s for *_, a_s, _ in families.table_walks(n, bound)[1]]

        assert any(a_s[0] < 0 < a_s[-1] for a_s in columns(3, 64))
        assert all(columns(n, 0) == [] for n in (3, 4, 6))
        argvs = [
            ("family", str(n), "--bound", str(bound), "--format", fmt)
            for n, bound in ((3, 64), (6, 64), (3, 0), (4, 0), (6, 0))
            for fmt in cli.FORMATS
        ]
        want = _records_rendering(run_cli, argvs)
        for argv in argvs:
            assert run_cli(*argv) == want[argv], argv
        monkeypatch.setattr(families, "_BLOCK", 1)
        assert [] in columns(6, 64)
        for argv in argvs:
            assert run_cli(*argv) == want[argv], argv
        assert want[("family", "6", "--bound", "0", "--format", "json")] == (
            0, '{"n": 6, "bound": 0, "count": 0, "entries": []}\n', ""
        )

def _records_rendering(run_cli, argvs) -> dict:
    """The family output of each argv from the records source (table_records,
    one entry per segment), through the same renderer: the oracle of the
    linear segments."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "_linear", lambda n: False)
        return {argv: run_cli(*argv) for argv in argvs}


class _Writes(io.StringIO):
    """A stdout that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


class TestStreamedJson:
    """family --format json is written piecewise, with json.dumps' bytes."""

    @pytest.mark.parametrize("n", families.SUPPORTED_N)
    def test_bytes_of_one_dumps(self, run_cli, n):
        for bound in [*range(65), 700]:
            code, out, _ = run_cli("family", str(n), "--bound", str(bound), "--format", "json")
            assert code == 0 and out == json.dumps(json.loads(out)) + "\n", bound

    @pytest.mark.parametrize("n", [6, 5])
    def test_written_piecewise(self, n):
        out = _Writes()
        assert cli.run(["family", str(n), "--bound", "3000", "--format", "json"], stdout=out) == 0
        assert json.loads(out.getvalue())["count"] > 1
        assert len(out.sizes) > 1 and max(out.sizes) <= 512


def _pair_rendering(result: harness.SearchResult, fmt: str) -> str:
    """search's output as it was rendered from the pairs: json.dumps of the
    document, or one f-string line per pair."""
    if fmt == "json":
        doc = {
            "n": result.n,
            "bound": result.bound,
            "count": len(result.pairs),
            "pairs": [[str(a), str(b)] for a, b in result.pairs],
        }
        return json.dumps(doc) + "\n"
    if fmt == "tsv":
        head, sep = "# a\tb\n", "\t"
    else:
        head, sep = f"n={result.n} bound={result.bound} count={len(result.pairs)}\n", " "
    return head + "".join(f"{a}{sep}{b}\n" for a, b in result.pairs)


class TestSearchRendering:
    """search prints hit-line bytes; every format equals the pair rendering."""

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_equals_the_pair_rendering(self, run_cli, tmp_path, fmt):
        for n in families.SUPPORTED_N:
            for bound in (1, 5, 64, 1000):
                want = _pair_rendering(harness.search_defective(n, bound), fmt)
                argv = ("search", str(n), "--bound", str(bound), "--format", fmt)
                assert run_cli(*argv) == (0, want, ""), (n, bound)
                path = tmp_path / f"{n}-{bound}.ckpt"
                assert run_cli(*argv, "--checkpoint", str(path)) == (0, want, ""), (n, bound)
                # All chunks committed: the output is read from the files alone.
                assert run_cli(*argv, "--checkpoint", str(path)) == (0, want, ""), (n, bound)

    def test_empty_result(self, run_cli):
        code, out, _ = run_cli("search", "8", "--bound", "1", "--format", "json")
        assert (code, out) == (0, '{"n": 8, "bound": 1, "count": 0, "pairs": []}\n')

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_sliced_checkpoint(self, tmp_path, fmt):
        # 4-chunk slices of search 6 --bound 1000 (32 chunks), finished by
        # the CLI; no write holds the whole output.
        path = tmp_path / "sliced.ckpt"
        for _ in range(7):
            assert harness.search_with_checkpoint(6, 1000, path, stop_after_chunks=4) is None
        out = _Writes()
        argv = ["search", "6", "--bound", "1000", "--checkpoint", str(path), "--format", fmt]
        assert cli.run(argv, stdout=out) == 0
        assert out.getvalue() == _pair_rendering(harness.search_defective(6, 1000), fmt)
        assert max(out.sizes) < len(out.getvalue()) / 8


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

    @staticmethod
    def _assert_env_ignored(run_cli, monkeypatch, value, *extra):
        # LEHMERDEFECT_JOBS is not read: search and verify with it set to
        # value, and the extra arguments, give the exit code and bytes of
        # --jobs 1 without the variable.
        for cmd in ("search", "verify"):
            argv = (cmd, "5", "--bound", "60", "--format", "tsv")
            want = run_cli(*argv, "--jobs", "1")
            assert want[0] == 0
            monkeypatch.setenv("LEHMERDEFECT_JOBS", value)
            assert run_cli(*argv, *extra) == want
            monkeypatch.delenv("LEHMERDEFECT_JOBS")

    def test_jobs_env_default(self, run_cli, monkeypatch):
        self._assert_env_ignored(run_cli, monkeypatch, "2")

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_jobs_env_invalid_is_ignored(self, run_cli, monkeypatch, value):
        self._assert_env_ignored(run_cli, monkeypatch, value)

    def test_jobs_flag_does_not_read_env(self, run_cli, monkeypatch):
        self._assert_env_ignored(run_cli, monkeypatch, "abc", "--jobs", "2")


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
