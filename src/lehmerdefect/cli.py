"""Command-line surface for the classification, search and audit operations.

Subcommand grammar:

    seq <phi|psi|pi|rho|zeta0..zeta3> <k>
    u <a> <b> <n>
    check <a> <b> <n> [--format F]
    family <n> --bound N [--format F]
    search <n> --bound N [--jobs J] [--checkpoint PATH] [--format F]
    verify <n> --bound N [--jobs J] [--format F]
    audit [--format F]

One ordered table, _GRAMMAR, holds this grammar: each subcommand's help
text, positionals and options.  build_parser builds the argparse parsers
from it, and _parse reads a well-formed call straight from it, with no
argparse parser built: argv[0] names a subcommand; every other token is a
positional's value or an exact flag followed by its value; a value does
not start with "-" unless it is a negative number by argparse's own pattern;
every value passes its type and choices; and no positional is missing or
extra and no required option missing.  A repeated option keeps its last
value, as in argparse.  Any other call (no argv, -h or --help, --flag=value,
an abbreviated flag, "--", a bad value, a missing or extra argument) is
parsed by the top-level argparse parser, which hands the rest to the
subcommand's parser.  So argparse alone prints help and usage errors.

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
every search result in every format from the bytes of its hit lines, in one
loop that writes each chunk's lines as harness.hit_lines or, with
--checkpoint, harness.checkpoint_lines hands them over; no pair is parsed
and no chunk is kept.  Text and JSON print the count first.  It is read
from harness.verify_table's report, matched_count plus the pairs missing
from the table: where families.certificate proves the table, as it does
for every shipped n, the table's size plus its gaps, counted from the rows
with no search, and otherwise the count of the search's own pairs.  The
lines are counted as they stream, and a total that differs from the
printed count is an error (exit 1), so a listing that loses or adds a pair
against the proved table fails.  TSV prints no count, and computes none.

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
import re
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


# Options that several subcommands share, as (flag, dest, type, choices,
# default, required), and the int positionals of u and check.
_FORMAT = ("--format", "format", None, FORMATS, "text", False)
_BOUNDED = (("--bound", "bound", int, None, None, True), _FORMAT)
_JOBS = ("--jobs", "jobs", int, None, None, False)
_INTS = tuple((dest, int, None) for dest in ("a", "b", "n"))

# The grammar, in --help's order: for each subcommand its help text, its
# positionals as (dest, type, choices) and its options as (flag, dest, type,
# choices, default, required).  A type of None keeps the string.
_GRAMMAR = {
    "seq": (
        "print one sequence element",
        (("id", None, tuple(s.value for s in sequences.SequenceId)), ("k", int, None)),
        (),
    ),
    "u": ("print the n-th element of the pair (a, b)", _INTS, ()),
    "check": ("defectiveness witness for (a, b) at n", _INTS, (_FORMAT,)),
    "family": ("enumerate family table entries", (("n", int, None),), _BOUNDED),
    "search": (
        "find every defective pair up to the bound",
        (("n", int, None),),
        (*_BOUNDED, _JOBS, ("--checkpoint", "checkpoint", None, None, None, False)),
    ),
    "verify": ("compare search against the family table", (("n", int, None),), (*_BOUNDED, _JOBS)),
    "audit": ("re-verify the table corrections", (), (_FORMAT,)),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parsers of _GRAMMAR, one per subcommand under the
    top-level parser."""
    parser = _Parser(prog="lehmerdefect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for dest, type_, choices in positionals:
            p.add_argument(dest, type=type_, choices=choices)
        for flag, dest, type_, choices, default, required in options:
            p.add_argument(flag, dest=dest, type=type_, choices=choices, default=default, required=required)
    return parser


# Building the parser costs more than a quick call such as check; parsing
# leaves it unchanged, so one per process serves every run.
_parser = functools.cache(build_parser)

# argparse's own test for a token that starts with "-" yet is a value, when
# no option looks like a negative number.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dashed(token: str) -> bool:
    """Whether argparse could read token as an option string."""
    return token[:1] == "-" and not _NEGATIVE.match(token)


def _read(command: str, args: list[str]) -> argparse.Namespace | None:
    """The Namespace of command's well-formed call with args, read straight
    from _GRAMMAR (see the module docstring), or None for any other call."""
    _, positionals, options = _GRAMMAR[command]
    values = {dest: default for _, dest, _, _, default, required in options if not required}
    todo = iter(positionals)
    tokens = iter(args)
    for token in tokens:
        if _dashed(token):
            spec = next((option[1:4] for option in options if option[0] == token), None)
            token = next(tokens, None)
            if spec is None or token is None or _dashed(token):
                return None
        else:
            spec = next(todo, None)
            if spec is None:
                return None
        dest, type_, choices = spec
        try:
            value = token if type_ is None else type_(token)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value  # a repeated option keeps its last value
    if next(todo, None) is not None or any(option[1] not in values for option in options):
        return None
    return argparse.Namespace(command=command, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: straight from _GRAMMAR when it is a well-formed call
    of a command (_read), else by the argparse parser, which alone prints
    help and usage errors."""
    ns = _read(argv[0], argv[1:]) if argv and argv[0] in _GRAMMAR else None
    return ns if ns is not None else _parser().parse_args(argv)


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


def _emit_search(
    n: int, bound: int, lines: Iterable[bytes | memoryview], count: int | None, fmt: str, out: IO[str]
) -> None:
    """Render the search's hits, given as blocks of "a <tab> b" lines
    (harness.hit_lines, harness.checkpoint_lines), writing each block as it
    is drawn: TSV is the text of the bytes, text has a space for each tab,
    and JSON is the bytes json.dumps gives for the whole document.  Text and
    JSON print count first, and a total of lines other than count raises
    ValueError before the output ends.  TSV prints no count (count is
    None)."""
    if fmt == "tsv":
        out.write("# a\tb\n")
    elif fmt == "text":
        out.write(f"n={n} bound={bound} count={count}\n")
    else:
        out.write(f'{{"n": {n}, "bound": {bound}, "count": {count}, "pairs": [')
    seen, sep = 0, ""
    for block in lines:
        text = str(block, "utf-8")
        if count is not None:
            seen += text.count("\n")
        if fmt != "json":
            out.write(text if fmt == "tsv" else text.replace("\t", " "))
        elif text:
            out.write(sep + '["' + text[:-1].replace("\t", '", "').replace("\n", '"], ["') + '"]')
            sep = ", "
        del text  # not held while the next block is searched
    if count is not None and seen != count:
        raise ValueError(f"search listed {seen} pairs, not the {count} its table counts")
    if fmt == "json":
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
    # Each item as (kind, a, b, TSV's detail, text's line).
    items = [("missing", a, b, "-", f"missing from table: ({a}, {b})") for a, b in report.missing_from_table]
    for f in report.table_failures:
        label = f.row.label(f.params)
        text = f"table failure: {label} raw={f.raw_ab} {f.reason}"
        items.append(("table_failure", *f.raw_ab, f"{label} {f.reason}", text))
    for kept, sh in report.equivalent_duplicates:
        k, s = kept.row.label(kept.params), sh.row.label(sh.params)
        text = f"equivalent duplicate: kept {k} shadow {s} at {kept.canonical_ab}"
        items.append(("equivalent_duplicate", *kept.canonical_ab, f"kept={k} shadow={s}", text))
    if fmt == "tsv":
        out.write(f"# kind\ta\tb\tdetail\nsummary\t-\t-\t{summary}\n")
        out.write("".join(f"{kind}\t{a}\t{b}\t{detail}\n" for kind, a, b, detail, _ in items))
    else:
        out.write(f"{summary}\n")
        out.write("".join(f"{line}\n" for *_, line in items))


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
            # After the lines, so that their argument errors and checkpoint
            # refusals come first; TSV prints no count and computes none.
            report = harness.verify_table(ns.n, ns.bound) if ns.format != "tsv" else None
            count = None if report is None else report.matched_count + len(report.missing_from_table)
            _emit_search(ns.n, ns.bound, lines, count, ns.format, out)
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
