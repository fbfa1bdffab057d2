"""Command-line surface for the classification, search and audit operations.

Subcommand grammar:

    seq <phi|psi|pi|rho|zeta0..zeta3> <k>
    u <a> <b> <n>
    check <a> <b> <n> [--format F]
    family <n> --bound N [--format F]
    search <n> --bound N [--jobs J] [--checkpoint PATH] [--format F]
    verify <n> --bound N [--jobs J] [--format F]
    audit [--format F]

A call is parsed once, by its subcommand's own parser (_parse), not by the
top-level parser and then again by the subcommand's; the top-level parser
reads only a call that names no subcommand.

Formats: text (default), tsv (tab separated, one record per line, "#" header
line), json (a single document per invocation).  Values that can exceed 64
bits (a, b, sequence elements, products, residuals, primes) are serialized as
decimal strings in json and as plain decimal in text/tsv.

One renderer, _emit_family, writes every family table in every format from
the segments families.table_walks, which alone picks their source, hands
over: columns of q, a and b, at most families._BLOCK entries of one power
term of a linear n or one record of the others each.  Every format is
written one % format per segment (two where a changes sign), JSON in slices
of at most _JSON_SLICE characters.  One renderer, _emit_search, writes
every search result in every format from the bytes of its hit lines, per
chunk, as harness.hit_lines or, with --checkpoint, harness.checkpoint_lines
hands them over; no pair is parsed.

Exit codes: 0 success with no discrepancy; 1 usage or validation error;
2 when a verify/audit run completes but reports a non-empty discrepancy.

--jobs is accepted, as an integer, only because existing callers pass it; it
has no effect: every search runs in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from bisect import bisect_right
from itertools import repeat
from operator import neg
from typing import IO, Iterable, Sequence

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
    parser.commands = sub.choices  # each command's own parser, for _parse
    return parser


# Building the parser costs most of a quick call such as check; parsing
# leaves it unchanged, so one per process serves every run.
_parser = functools.cache(build_parser)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: by its command's own parser when argv[0] names a
    command, which is what the top-level parser would hand the rest to, or
    else (no argv, --help, an unknown command) by the top-level parser."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    ns = command.parse_args(argv[1:])
    ns.command = argv[0]
    return ns


def _row_doc(row: families.FamilyRowId, params: dict[str, int], **rest) -> dict:
    """JSON of a row and its parameters, then rest."""
    return {"row": row.value, "params": params, **rest}


def _emit_check(w: primdiv.DefectWitness, fmt: str, out: IO[str]) -> None:
    # The composite part of the residual that factorize's budget left
    # unsplit is printed, as "unfactored", only when there is one.
    try:
        primes, extra = w.primitive_primes, {}
    except primdiv.FactorBudgetError as e:
        primes, extra = tuple(e.primes), {"unfactored": e.cofactor}
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
            **{name: str(v) for name, v in extra.items()},
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
        out.write("# a\tb\t" + "\t".join([*fields, "primitive_primes", *extra]) + "\n")
        cells = (w.pair.a, w.pair.b, *fields.values(), ",".join(map(str, primes)), *extra.values())
        out.write("\t".join(map(str, cells)) + "\n")
    else:
        out.write(f"pair: ({w.pair.a}, {w.pair.b})\n")
        out.write("".join(f"{name}: {v}\n" for name, v in fields.items()))
        out.write(f"primitive_primes: {list(primes)}\n")
        out.write("".join(f"{name}: {v}\n" for name, v in extra.items()))


def _parts(qs, a_s, b_s):
    """A segment's columns (qs, as, bs, canonical as, canonical bs), qs None
    when it has no q, in two parts, each left out when empty: the entries
    where a <= 0, whose canonical pair (the a > 0 one of (a, b) and
    (-a, -b)) is (-a, -b), then the others, whose canonical pair is (a, b).
    The a column rises, so one bisect finds the cut."""
    split = bisect_right(a_s, 0)
    for lo, hi, negate in ((0, split, True), (split, len(a_s), False)):
        if lo < hi:
            a, b = a_s[lo:hi], b_s[lo:hi]
            canon = (list(map(neg, a)), list(map(neg, b))) if negate else (a, b)
            yield None if qs is None else qs[lo:hi], a, b, *canon


def _format_block(template: str, columns: list) -> str:
    """template once per entry, filled from the columns (one value each) by
    one % format, its arguments laid out by strided slice assignment."""
    width, size = len(columns), len(columns[0])
    flat = [None] * (width * size)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return template * size % tuple(flat)


# The longest write of family's JSON, which has no line breaks.
_JSON_SLICE = 512


def _emit_family(n: int, bound: int, fmt: str, out: IO[str]) -> None:
    """Render the table of n as families.table_walks hands it over, segment
    by segment (at most families._BLOCK entries of one power term of a
    linear n, one record of the others), each in the two parts of _parts.
    Every format writes a part with one % format of a template built once
    per segment, whose %s spells each int as str() does; a pair with
    shadows names them in TSV's and JSON's provenance column.  JSON has the
    bytes json.dumps gives for the whole document, written in slices of at
    most _JSON_SLICE characters."""
    count, segments, provenance = families.table_walks(n, bound)
    labels, unlabelled = {}, ""
    if fmt == "json":
        out.write(f'{{"n": {n}, "bound": {bound}, "count": {count}, "entries": [')
        labels = {
            key: json.dumps([_row_doc(r, families.params_dict(v)) for r, v in shadows])
            for key, shadows in provenance.items()
        }
        unlabelled, skip = "[]", 2  # the first entry has no ", " before it
    elif fmt == "tsv":
        out.write("# n\trow\tk\tl\tq\teps\traw_a\traw_b\tcanon_a\tcanon_b\tprovenance\n")
        labels = {
            key: ";".join([f"{r.value}({families.params_text(v)})" for r, v in shadows])
            for key, shadows in provenance.items()
        }
        unlabelled = "-"
    else:
        out.write(f"n={n} bound={bound} entries={count}\n")
    cell = "%s" if labels else unlabelled  # the provenance column's template
    for row, (k, l, eps), qs, a_s, b_s in segments:
        if fmt == "json":
            # The params object up to q's value: q is the last key when there is one.
            fixed = json.dumps(families.params_dict((k, l, None, eps)))[:-1]
            if qs is not None:
                fixed += ', "q": %s' if len(fixed) > 1 else '"q": %s'
            template = (
                f', {{"row": {json.dumps(row.value)}, "params": {fixed}}}, "raw_a": "%s", '
                f'"raw_b": "%s", "canonical_a": "%s", "canonical_b": "%s", '
                f'"provenance": {cell}}}'
            )
        elif fmt == "tsv":
            template = (
                f"{n}\t{row.value}\t{'-' if k is None else k}\t{'-' if l is None else l}\t"
                f"{'-' if qs is None else '%s'}\t{'-' if eps is None else eps}\t"
                f"%s\t%s\t%s\t%s\t{cell}\n"
            )
        else:
            fixed = families.params_text((k, l, None, eps))
            if qs is not None:
                fixed += ",q=%s" if fixed else "q=%s"
            template = f"row={row.value} params={fixed} raw=(%s, %s) canonical=(%s, %s)\n"
        for part in _parts(qs, a_s, b_s):
            columns = [column for column in part if column is not None]
            if labels:
                columns.append(list(map(labels.get, zip(part[3], part[4]), repeat(unlabelled))))
            text = _format_block(template, columns)
            if fmt == "json":
                for i in range(skip, len(text), _JSON_SLICE):
                    out.write(text[i : i + _JSON_SLICE])
                skip = 0
            else:
                out.write(text)
    if fmt == "json":
        out.write("]}\n")


def _emit_search(n: int, bound: int, lines: Iterable[bytes], fmt: str, out: IO[str]) -> None:
    """Render the search's hits, given as blocks of "a <tab> b" lines
    (harness.hit_lines, harness.checkpoint_lines), one block at a time: TSV
    is the bytes, text has a space for each tab, and JSON is the bytes
    json.dumps gives for the whole document.  Text and JSON print the count
    first, so they keep the blocks (bytes, not pairs) until it is known; TSV
    writes each block as it comes."""
    if fmt == "tsv":
        out.write("# a\tb\n")
        for block in lines:
            out.write(block.decode())
        return
    lines = list(lines)
    count = sum(block.count(b"\n") for block in lines)
    if fmt == "text":
        out.write(f"n={n} bound={bound} count={count}\n")
        for block in lines:
            out.write(block.replace(b"\t", b" ").decode())
        return
    out.write(f'{{"n": {n}, "bound": {bound}, "count": {count}, "pairs": [')
    sep = ""
    for block in filter(None, lines):
        pairs = block[:-1].replace(b"\t", b'", "').replace(b"\n", b'"], ["').decode()
        out.write(f'{sep}["{pairs}"]')
        sep = ", "
    out.write("]}\n")


def _emit_verify(report: harness.DiscrepancyReport, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        doc = {
            "n": report.n,
            "bound": report.bound,
            "matched_count": report.matched_count,
            "exact_agreement": report.exact_agreement,
            "missing_from_table": [[str(a), str(b)] for a, b in report.missing_from_table],
            "table_failures": [
                _row_doc(
                    f.row, f.params.as_dict(),
                    raw_a=str(f.raw_ab[0]), raw_b=str(f.raw_ab[1]), reason=f.reason,
                )
                for f in report.table_failures
            ],
            "equivalent_duplicates": [
                {
                    "kept": _row_doc(kept.row, kept.params.as_dict()),
                    "shadow": _row_doc(sh.row, sh.params.as_dict()),
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
            ns = _parse(list(argv))
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
            _emit_family(ns.n, ns.bound, ns.format, out)
        elif ns.command == "search":
            if ns.checkpoint is not None:
                lines, _ = harness.checkpoint_lines(ns.n, ns.bound, ns.checkpoint)
            else:
                lines = harness.hit_lines(ns.n, ns.bound)
            _emit_search(ns.n, ns.bound, lines, ns.format, out)
        elif ns.command == "verify":
            report = harness.verify_table(ns.n, ns.bound)
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
