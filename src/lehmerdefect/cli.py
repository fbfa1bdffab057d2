"""Command-line surface for the classification, search and audit operations.

Subcommand grammar:

    seq <phi|psi|pi|rho|zeta0..zeta3> <k>
    u <a> <b> <n>
    check <a> <b> <n> [--format F]
    family <n> --bound N [--format F]
    search <n> --bound N [--jobs J] [--checkpoint PATH] [--format F]
    verify <n> --bound N [--jobs J] [--format F]
    audit [--format F]

Formats: text (default), tsv (tab separated, one record per line, "#" header
line), json (a single document per invocation).  Values that can exceed 64
bits (a, b, sequence elements, products, residuals, primes) are serialized as
decimal strings in json and as plain decimal in text/tsv.

Exit codes: 0 success with no discrepancy; 1 usage or validation error;
2 when a verify/audit run completes but reports a non-empty discrepancy.

LEHMERDEFECT_JOBS sets the default worker count; --jobs wins.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import groupby
from operator import attrgetter
from typing import IO, Sequence

from . import families, harness, pairs, primdiv, sequences

FORMATS = ("text", "tsv", "json")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lehmerdefect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print one sequence element")
    p.add_argument("id", choices=[s.value for s in sequences.SequenceId])
    p.add_argument("k", type=int)

    p = sub.add_parser("u", help="print the n-th element of the pair (a, b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("check", help="defectiveness witness for (a, b) at n")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=FORMATS, default="text")

    def common(p):
        p.add_argument("n", type=int)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("family", help="enumerate family table entries")
    common(p)

    p = sub.add_parser("search", help="find every defective pair up to the bound")
    common(p)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("verify", help="compare search against the family table")
    common(p)
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("audit", help="re-verify the table corrections")
    p.add_argument("--format", choices=FORMATS, default="text")
    return parser


# Building the parser costs most of a quick call such as check; parsing
# leaves it unchanged, so one per process serves every run.
_parser = functools.cache(build_parser)


def _jobs_of(ns) -> int:
    if getattr(ns, "jobs", None) is not None:
        return max(1, ns.jobs)
    env = os.environ.get("LEHMERDEFECT_JOBS", "1")
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"LEHMERDEFECT_JOBS must be an integer, got {env!r}") from None


def _row_doc(x, **rest) -> dict:
    """JSON of x's row and params (x a FamilyEntry or TableFailure), then rest."""
    return {"row": x.row.value, "params": x.params.as_dict(), **rest}


def _emit_check(w: primdiv.DefectWitness, fmt: str, out: IO[str]) -> None:
    primes = w.primitive_primes
    if fmt == "json":
        doc = {
            "a": str(w.pair.a),
            "b": str(w.pair.b),
            "n": w.n,
            "u_n": str(w.u_n),
            "nonprim_product": str(w.nonprim_product),
            "residual": str(w.residual),
            "defective": w.defective,
            "primitive_primes": [str(p) for p in primes],
        }
        out.write(json.dumps(doc) + "\n")
        return
    fields = {
        "n": w.n,
        "u_n": w.u_n,
        "nonprim_product": w.nonprim_product,
        "residual": w.residual,
        "defective": str(w.defective).lower(),
    }
    if fmt == "tsv":
        out.write("# a\tb\t" + "\t".join(fields) + "\tprimitive_primes\n")
        cells = (w.pair.a, w.pair.b, *fields.values(), ",".join(map(str, primes)))
        out.write("\t".join(map(str, cells)) + "\n")
    else:
        out.write(f"pair: ({w.pair.a}, {w.pair.b})\n")
        out.write("".join(f"{name}: {v}\n" for name, v in fields.items()))
        out.write(f"primitive_primes: {list(primes)}\n")


def _emit_family(n: int, bound: int, entries, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        doc = {
            "n": n,
            "bound": bound,
            "count": len(entries),
            "entries": [
                _row_doc(
                    e,
                    raw_a=str(e.raw_ab[0]),
                    raw_b=str(e.raw_ab[1]),
                    canonical_a=str(e.canonical_ab[0]),
                    canonical_b=str(e.canonical_ab[1]),
                    provenance=[_row_doc(s) for s in e.provenance],
                )
                for e in entries
            ],
        }
        out.write(json.dumps(doc) + "\n")
    elif fmt == "tsv":
        lines = ["# n\trow\tk\tl\tq\teps\traw_a\traw_b\tcanon_a\tcanon_b\tprovenance\n"]
        # Entries come in row order, so each row's label is read once.
        for row, group in groupby(entries, attrgetter("row")):
            head = f"{n}\t{row.value}\t"
            for e in group:
                p, (ra, rb), (ca, cb) = e.params, e.raw_ab, e.canonical_ab
                prov = ";".join([s.row.label(s.params) for s in e.provenance]) or "-"
                lines.append(
                    f"{head}{'-' if p.k is None else p.k}\t{'-' if p.l is None else p.l}\t"
                    f"{'-' if p.q is None else p.q}\t{'-' if p.eps is None else p.eps}\t"
                    f"{ra}\t{rb}\t{ca}\t{cb}\t{prov}\n"
                )
        out.write("".join(lines))
    else:
        out.write(f"n={n} bound={bound} entries={len(entries)}\n")
        for e in entries:
            out.write(
                f"row={e.row.value} params={e.params.compact()} raw={e.raw_ab} "
                f"canonical={e.canonical_ab}\n"
            )


def _emit_search(result: harness.SearchResult, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        doc = {
            "n": result.n,
            "bound": result.bound,
            "count": len(result.pairs),
            "pairs": [[str(a), str(b)] for a, b in result.pairs],
        }
        out.write(json.dumps(doc) + "\n")
        return
    if fmt == "tsv":
        head, sep = "# a\tb\n", "\t"
    else:
        head, sep = f"n={result.n} bound={result.bound} count={len(result.pairs)}\n", " "
    out.write(head)
    out.writelines(f"{a}{sep}{b}\n" for a, b in result.pairs)


def _emit_verify(report: harness.DiscrepancyReport, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        doc = {
            "n": report.n,
            "bound": report.bound,
            "matched_count": report.matched_count,
            "exact_agreement": report.exact_agreement,
            "missing_from_table": [[str(a), str(b)] for a, b in report.missing_from_table],
            "table_failures": [
                _row_doc(f, raw_a=str(f.raw_ab[0]), raw_b=str(f.raw_ab[1]), reason=f.reason)
                for f in report.table_failures
            ],
            "equivalent_duplicates": [
                {
                    "kept": _row_doc(kept),
                    "shadow": _row_doc(sh),
                    "canonical_a": str(kept.canonical_ab[0]),
                    "canonical_b": str(kept.canonical_ab[1]),
                }
                for kept, sh in report.equivalent_duplicates
            ],
        }
        out.write(json.dumps(doc) + "\n")
        return
    summary = (
        f"n={report.n} bound={report.bound} matched={report.matched_count} "
        f"exact_agreement={str(report.exact_agreement).lower()}"
    )
    if fmt == "tsv":
        out.write(f"# kind\ta\tb\tdetail\nsummary\t-\t-\t{summary}\n")
        for a, b in report.missing_from_table:
            out.write(f"missing\t{a}\t{b}\t-\n")
        for f in report.table_failures:
            out.write(
                f"table_failure\t{f.raw_ab[0]}\t{f.raw_ab[1]}\t{f.row.label(f.params)} {f.reason}\n"
            )
        for kept, sh in report.equivalent_duplicates:
            out.write(
                f"equivalent_duplicate\t{kept.canonical_ab[0]}\t{kept.canonical_ab[1]}\t"
                f"kept={kept.row.label(kept.params)} shadow={sh.row.label(sh.params)}\n"
            )
    else:
        out.write(f"{summary}\n")
        for a, b in report.missing_from_table:
            out.write(f"missing from table: ({a}, {b})\n")
        for f in report.table_failures:
            out.write(f"table failure: {f.row.label(f.params)} raw={f.raw_ab} {f.reason}\n")
        for kept, sh in report.equivalent_duplicates:
            out.write(
                f"equivalent duplicate: kept {kept.row.label(kept.params)} "
                f"shadow {sh.row.label(sh.params)} at {kept.canonical_ab}\n"
            )


def _emit_audit(items, fmt: str, out: IO[str]) -> None:
    all_passed = all(i.passed for i in items)
    if fmt == "json":
        doc = {
            "all_passed": all_passed,
            "changes": [
                {"id": i.change_id, "passed": i.passed, "evidence": i.evidence}
                for i in items
            ],
        }
        out.write(json.dumps(doc) + "\n")
    elif fmt == "tsv":
        out.write("# change\tpassed\tevidence\n")
        for i in items:
            out.write(f"{i.change_id}\t{str(i.passed).lower()}\t{i.evidence}\n")
    else:
        for i in items:
            out.write(f"{i.change_id} {'PASS' if i.passed else 'FAIL'} {i.evidence}\n")
        out.write(f"all_passed: {str(all_passed).lower()}\n")


def run(argv: Sequence[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    # Values are exact at any size: lift the int/str digit limit (Python
    # 3.11+, 4300 digits by default) for the run, in both directions.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _run(argv, stdout, stderr)
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv, stdout, stderr)
    finally:
        sys.set_int_max_str_digits(old)


def _run(argv: Sequence[str], stdout: IO[str] | None, stderr: IO[str] | None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):
            ns = _parser().parse_args(list(argv))
    except _UsageError as e:
        err.write(f"error: {e}\n")
        return 1
    except SystemExit:  # --help, printed to out; usage errors raise _UsageError
        return 0

    try:
        if ns.command == "seq":
            out.write(f"{sequences.seq_eval(sequences.SequenceId(ns.id), ns.k)}\n")
        elif ns.command == "u":
            out.write(f"{pairs.lehmer_number(pairs.require_pair(ns.a, ns.b), ns.n)}\n")
        elif ns.command == "check":
            pair = pairs.require_pair(ns.a, ns.b)
            _emit_check(primdiv.defect_witness(pair, ns.n), ns.format, out)
        elif ns.command == "family":
            entries = families.enumerate_families(ns.n, ns.bound)
            _emit_family(ns.n, ns.bound, entries, ns.format, out)
        elif ns.command == "search":
            if ns.checkpoint is not None:
                result = harness.search_with_checkpoint(
                    ns.n, ns.bound, ns.checkpoint, jobs=_jobs_of(ns)
                )
            else:
                result = harness.search_defective(ns.n, ns.bound, jobs=_jobs_of(ns))
            _emit_search(result, ns.format, out)
        elif ns.command == "verify":
            report = harness.verify_table(ns.n, ns.bound, jobs=_jobs_of(ns))
            _emit_verify(report, ns.format, out)
            return 0 if report.exact_agreement else 2
        else:  # audit, the one command left
            items = harness.audit_changes()
            _emit_audit(items, ns.format, out)
            return 0 if all(i.passed for i in items) else 2
        return 0
    # The package's own errors (invalid pair, unsupported n or index, ...)
    # subclass ValueError.
    except (ValueError, OSError, harness.CheckpointMismatchError) as e:
        err.write(f"error: {e}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
