"""Search for n-defective pairs in a bounded box, and table-vs-search verification.

The box holds the canonical representatives (a > 0, so each equivalence
class {(a, b), (-a, -b)} appears once) with a <= bound, |b| <= bound and
a == b mod 4; in companion coordinates p = a and q = (a - b) / 4.

The search solves for defective pairs instead of scanning the box.  Every
primitive divisor of u_n divides Phi_n(alpha, beta), and a prime of
Phi_n(alpha, beta) that does not divide n is a primitive divisor of u_n
(primdiv.CYCLOTOMIC_FORMS).  So a pair is n-defective only if
Phi_n(a, q) = +-T with T a product of primes of n.  For n = 3, 4, 6 the
form is linear, and families.certificate proves, for every bound,
that these pairs are exactly the family table's and the gaps its row
exclusions name.  So the search lists the rows' own instances
(families.linear_pairs): the same range pieces (families._Row.terms) that
family walks and verify counts, checked with the pair rules only where an
exclusion sits.  It lists them once per group of consecutive chunks, for the
group's whole a-span, and cuts the sorted hits at the chunk ends.  Each
piece is cut to its window in the span at a cost that hardly depends on the
hits the window holds (about 2.7 a non-empty window for n = 6 at bound
1000), and the chunks are at least 32 values of a wide, so below bound 4096
a listing per chunk paid that cost up to 32 times over.  A group is the
chunks the caller asked for whose first a lies in one _GROUP_SPAN-wide
stretch from the first one's, so at large bounds each chunk is its own
group.

A hit travels from its listing to its rendering as one int, the key
a W + b + bound with W = 2 bound + 1 (families._key_width): as
0 <= b + bound < W the key is one pair, a = key // W and b = key % W - bound,
and key order is (a, b) order.  A piece's keys are a progression in q, so a
window is listed as one range of keys, the group's keys are sorted as plain
ints, a chunk's slice starts at the key lo W and ends before (hi + 1) W, and
the hit lines are formatted from the quotients and remainders.  Only
search_defective builds (a, b) tuples, from each group's keys uncut, and it
interns each a through {}.setdefault, so the pairs of one a share one int.

For n = 5, 8, 10, 12 the form is quadratic, Phi_n(p, q) = p^2 + c1 p q +
c2 q^2 with D = c1^2 - 4 c2 = 5, 8, 5, 12.  A valid pair (gcd(a, b) = 1, so
gcd(a, q) = 1) caps the exponent of each prime in T (primdiv.
CYCLOTOMIC_FORMS; each cap is proved by enumerating residues mod
prime^(cap + 1)), so the targets are a fixed set whatever the bound: +-1, +-5
for n = 5 and 10, +-1, +-2 for n = 8 and +-1, +-2, +-3, +-6 for n = 12.  T = 0
is never a target: Phi_n vanishes only when alpha / beta is a root of unity.
The roots of each target are walked along orbits, which is complete at every
bound:

  * With X = 2p + c1 q and Y = q, X^2 - D Y^2 = 4t, so a root of
    Phi_n = t is xi = X + Y sqrt(D) with xi xi' = 4t, xi' = X - Y sqrt(D).
  * (T0, U0), the least positive solution of T^2 - D U^2 = 4, is (3, 1),
    (6, 2), (3, 1), (4, 1).  eps = (T0 + U0 sqrt(D)) / 2 has norm 1 and
    1 < eps < T0, and xi -> eps xi is (p, q) -> M (p, q), with the
    integral matrix M = [[(T0 - c1 U0) / 2, -c2 U0], [U0, (T0 + c1 U0) / 2]]
    of determinant 1: [[3, -1], [1, 0]], [[7, -4], [2, -1]], [[4, -5],
    [1, -1]] and [[4, -1], [1, 0]].
  * Along an orbit xi_k = eps^k xi_0, |xi_k / xi'_k| grows by eps^2 a step,
    so |xi_k| >= |xi'_k|, which is X Y >= 0, holds from one k0 on and fails
    before it.  The representative xi_k0 is the one point with X Y >= 0
    whose M^-1 image has X Y < 0, and it has sqrt|4t| <= |xi| < eps
    sqrt|4t|.  So |Y| <= (|xi| + |xi'|) / (2 sqrt(D)) < (eps + 1)
    sqrt(|t| / D): every orbit has its representative in the box
    D Y^2 < |t| (T0 + 1)^2, where |Y| <= 3 for every capped target, and
    primdiv._orbits solves X^2 = 4t + D Y^2 there.  (X == c1 Y mod 2 holds
    by itself, as X^2 == D Y^2 == c1^2 Y^2 mod 4, so p is an integer.)  It
    finds 8 representatives for each n.
  * For k >= k0, |Y| sqrt(D) = |xi_k - xi'_k| / 2 is (|xi_k| -+ |xi'_k|) / 2
    (- for t > 0, + for t < 0), and a step to k + 1 changes it by
    ((eps - 1) |xi_k| +- (1 - 1 / eps) |xi'_k|) / 2 >= 0.  So |q| does not
    decrease along the walk by M from xi_k0, nor, with xi and xi' swapped,
    along the walk by M^-1 from xi_(k0-1).  Each walk stops at the first
    point with 2|q| > bound: no later point has |q| <= bound / 2, as every
    pair in the search box has (4|q| = |a - b| <= 2 bound).
  * A root with p > 0 lies on one orbit (its negation, on the orbit of
    -xi, has p < 0 and is not canonical), so it is found once.

The walk runs once per search (under 2 ms at bound 10^6), and each chunk gets
its slice of the hits, packed into keys and cut as the linear groups are.  The
per-a solve it replaced (isqrt and a perfect-square test for each a and
target) is the tests' oracle, conftest.per_a_search.

Each orbit point is checked with the pair rules (pairs.pair_failure, which
builds no pair) and kept only if primdiv.residual_after_stripping is 1, so
the definition decides every reported quadratic pair and the theorem is
needed only for completeness.  The tests hold the search equal to a scan of
the whole box by the definition (the pair rules plus the gcd strip) for
every n at every bound up to 64, at 1000 and at 5000; the linear search
equal to a root search per a, with the strip, at bound 10000, and chunk for
chunk (whole chunk lists, their tails and 3-chunk windows, with groups of one
chunk, as shipped and of all chunks) at every bound up to 69, at 1000, 4095,
4096, 4097 and 20000; the orbit walk equal to the per-a solve at every bound
up to 64, at 1000, 5000 and 20000; and the capped per-a solve equal to the
uncapped one at bound 20000.

verify_table counts wherever families.certificate(n) is proved, as it is
for every n of the shipped table.  The certificate proves, for every bound,
that the n-defective pairs are exactly the table's pairs and the gaps the
row exclusions name, with no invalid tuple or duplicate in the table: for
n = 3, 4, 6 as the progressions the linear search lists, for n = 5, 8, 10,
12 as the half-orbits the orbit walk above follows, each one sequence row
at one eps.  So the report is read from families.table_count, which sums
the lengths of the linear rows' range pieces (families._Row.terms), counts
the in-bound (k, eps) of each sequence row's walk, and searches and
enumerates nothing.  The certificate runs at run time, once per process
for each distinct set of rows, so an edited row is proved afresh.  A table
whose certificate fails is compared by enumeration:
_compare_with_search runs the search and matches it against the family
table as records (families.table_records: canonical pair -> its (row,
(k, l, q, eps), raw pair) views, the first the entry, the later ones its
shadows): every search pair is looked up by canonical pair, and the records
are checked against the search's pairs only when some record is left
unmatched.  FamilyParams, FamilyEntry and TableFailure objects are built
only for what the report lists: invalid tuples, unmatched records and the
table's internal duplicates.  The tests hold the counted report equal to the
enumerated one for every n.

Every search runs in the calling process: with the linear chunks listed as
range progressions, a 2-worker pool over the same chunks was no faster at any
bound measured (search 6 on a 2-core host, B = 1000 to 3 10^5; see README).
search_defective and search_with_checkpoint accept a jobs argument only
because existing callers pass one; it has no effect.  The contiguous
a-chunks exist for the checkpoints: their boundaries depend only on the
bound, so the checkpoint files of interrupted runs line up with any resume,
and the hits are written in chunk order.

Checkpoint format: the state file opens with a "# n <tab> bound" header
(chunk boundaries for different bounds can coincide, so the header is what
makes a wrong-bound resume detectable) followed by one line per completed
chunk, "n <tab> a_from <tab> a_to <tab> hit-count <tab> crc", where crc is
the CRC-32 of the chunk's hit lines as 8 lowercase hex digits; a sibling
"<path>.hits" file carries the corresponding "a <tab> b" lines, the bytes
search prints (hit_lines).  The writer appends bytes, each integer spelled by
b"%d", and writes a state line only after its hits are flushed, so the state
file is the commit record.  Only newline-terminated lines count.  Loading
drops a torn last line, every state line whose hits are not all present and
every hit past the committed chunks, so those chunks are recomputed.  A
complete state line outside the grammar of b"%d" and b"%08x" (_INT: ASCII
digits, no "+", no sign on 0, no leading zero; no spaces, "_" or carriage
returns) raises CheckpointMismatchError, and so does a committed chunk whose
hit lines do not have the CRC-32 its state line gives: an edited hit line
that still parses is refused, not trusted or recomputed.  Every committed
byte is checked on every load, a slice's included, at C speed: the hits
file is read once, each chunk's end found by counting its newlines
(_lines_end), and the CRC, zlib.crc32, taken of a memoryview slice, which
is what the load hands on, so the hits are held once: resuming a finished
search 6 --bound 100000 peaks at 47 MB, against 81 MB when each chunk's
lines were joined into a copy and 216 MB for one split of the whole file
at its newlines.  (Importing zlib adds about 0.1 MB of peak RSS to a bare
interpreter; hashlib loads OpenSSL, about 3.8 MB, a sixth of a resumed
search 6 --bound 1000.)  The kept hit lines are parsed only by a call that
returns them as pairs (one json.loads of the lines with their tabs and
newlines made commas), not by a slice that stops early, nor by the CLI,
which prints the bytes.  What is kept is a prefix of each file (the header
and the first committed state lines, the first hit lines), so a repair cuts
the file in place to that prefix with os.truncate, which writes no data;
otherwise new chunks are appended.  (Writing a temporary file and renaming
it over the old one is slower: on ext4 that rename waits for the new file's
data to reach the disk, which made a torn resume of search 6 --bound 1000
take about 110 ms against 15 ms for the cuts on a 2-core ext4 host.)  The
load is idempotent on prefixes, so a crash between the two cuts still
resumes.
"""

from __future__ import annotations

import json
import os
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import floordiv, mod, sub
from pathlib import Path
from typing import Iterator
from zlib import crc32

# enumerate_with_anomalies is not called here; it stays importable from
# harness, where perfbench/layers.py times it.
from .families import (
    DuplicateOf,
    FamilyEntry,
    FamilyParams,
    FamilyRowId,
    _key_width,
    _linear,
    audit_exclusion,
    certificate,
    enumerate_with_anomalies,
    family_rows,
    instantiate,
    linear_pairs,
    raw_ab,
    record_entry,
    table_count,
    table_records,
)
from .pairs import FailureKind, ValidationFailure, lehmer_prefix, pair_failure
from .primdiv import _apply, _orbits, _walk, residual_after_stripping


@dataclass(frozen=True)
class SearchResult:
    """Canonical n-defective pairs with max(|a|, |b|) <= bound, (a, b)-lex order."""

    n: int
    bound: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TableFailure:
    row: FamilyRowId
    params: FamilyParams
    raw_ab: tuple[int, int]
    reason: str


@dataclass(frozen=True)
class DiscrepancyReport:
    """Outcome of comparing the search against the family tables.

    A table failure's reason is "invalid:<kind>" for an in-bound tuple whose
    pair breaks a pair rule (pairs.pair_failure), "not_defective:residual=<r>"
    for an entry the gcd strip leaves r > 1, or "missed_by_search" for a
    defective entry the search did not find.
    """

    n: int
    bound: int
    missing_from_table: tuple[tuple[int, int], ...]
    table_failures: tuple[TableFailure, ...]
    equivalent_duplicates: tuple[tuple[FamilyEntry, FamilyEntry], ...]
    matched_count: int

    @property
    def exact_agreement(self) -> bool:
        return (
            not self.missing_from_table
            and not self.table_failures
            and not self.equivalent_duplicates
        )


@dataclass(frozen=True)
class AuditItem:
    change_id: str
    passed: bool
    evidence: str


class CheckpointMismatchError(RuntimeError):
    """Checkpoint file does not match this (n, bound) chunking."""


def _check_args(n: int, bound: int) -> None:
    family_rows(n)  # raises UnsupportedNError for an n with no classified families
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")


def _roots(n: int, a_from: int, a_to: int, bound: int):
    """(a, b) in the chunk's box on the orbits of the quadratic form of n,
    each once (see the module docstring)."""
    m, reps = _orbits(n)
    back = (m[3], -m[1], -m[2], m[0])  # M^-1
    for r, s in reps:
        for a, q in chain(_walk(m, r, s, bound), _walk(back, *_apply(back, r, s), bound)):
            if a_from <= a <= a_to and abs(a - 4 * q) <= bound:
                yield a, a - 4 * q


def _chunks(bound: int) -> list[tuple[int, int]]:
    # Chunking is a function of the bound alone so resumes agree on boundaries.
    width = max(32, bound // 128)
    out = []
    a = 1
    while a <= bound:
        out.append((a, min(a + width - 1, bound)))
        a += width
    return out


# The linear search lists its chunks in groups: those whose first a lies in
# one _GROUP_SPAN-wide stretch from the first chunk's (see the module
# docstring).  That is 128 chunks at the 32-wide floor.
_GROUP_SPAN = 4096


def _cut(keys, chunks, w):
    """Each chunk's slice of the ascending keys a w + b + bound, whose a lie
    in the contiguous chunks' span."""
    for lo, hi in chunks:
        yield keys[bisect_left(keys, lo * w) : bisect_left(keys, (hi + 1) * w)]


def _groups(n, chunks, bound):
    """(group, keys) for each group of the contiguous chunks, in order: the
    group's chunks, and its defective canonical pairs as an ascending list
    of keys a W + b + bound (W = families._key_width(bound)), whose order is
    (a, b) order.  Only the given chunks are listed, so a checkpointed slice
    lists its own chunks and no others.

    For a linear n these are the table's pairs there and its gaps, which
    families.certificate proves defective.  A group is the chunks
    whose first a lies in one _GROUP_SPAN-wide stretch, listed for its whole
    a-span (families.linear_pairs).  For a quadratic n all the chunks are one
    group: one orbit walk over their span (under 2 ms even at bound 10^6),
    packed into keys, where a point is kept when it passes the pair rules
    (pair_failure; no LehmerPair is built) and the gcd strip leaves 1."""
    if not _linear(n):
        w = _key_width(bound)
        roots = _roots(n, chunks[0][0], chunks[-1][1], bound)
        keys = sorted(
            a * w + b + bound for a, b in roots if pair_failure(a, b) is None and residual_after_stripping(a, b, n) == 1
        )
        return [(chunks, keys)]
    first = chunks[0][0]
    groups = [list(g) for _, g in groupby(chunks, lambda c: (c[0] - first) // _GROUP_SPAN)]
    return zip(groups, linear_pairs(n, [(group[0][0], group[-1][1]) for group in groups], bound))


def _run_chunks(n, chunks, bound):
    """The keys of each of the contiguous chunks, in chunk order: each
    group's keys (_groups) cut at its chunks' ends."""
    w = _key_width(bound)
    for group, keys in _groups(n, chunks, bound):
        yield from _cut(keys, group, w)


def search_defective(n: int, bound: int, jobs: int = 1) -> SearchResult:
    """Every n-defective (a, b), 0 < a <= bound, |b| <= bound, a == b mod 4.

    Each group's keys (_groups) are decoded to pairs here and nowhere else,
    with no cut at the chunk ends, and the pairs of one a share one int
    object (28 bytes a pair otherwise), interned by a {}.setdefault per
    group, as no two groups share an a.  jobs is accepted only because
    existing callers pass it, and has no effect: every search runs in this
    process."""
    _check_args(n, bound)
    pairs: list[tuple[int, int]] = []
    for _, keys in _groups(n, _chunks(bound), bound):
        a_s, b_s = _decode(keys, bound)
        # setdefault(a, a), with a decoded twice rather than held in a list.
        pairs.extend(zip(map({}.setdefault, a_s, _decode(keys, bound)[0]), b_s))
    return SearchResult(n, bound, tuple(pairs))


def _decode(keys, bound):
    """The a and the b of the keys a W + b + bound, as two iterators: a is
    key // W and b is key % W - bound."""
    w = _key_width(bound)
    return map(floordiv, keys, repeat(w)), map(sub, map(mod, keys, repeat(w)), repeat(bound))


def _lines(keys, bound) -> bytes:
    """The "a <tab> b" lines of the keys a W + b + bound, each integer
    spelled by b"%d"."""
    fields = [0] * (2 * len(keys))
    fields[::2], fields[1::2] = _decode(keys, bound)
    return b"%d\t%d\n" * len(keys) % tuple(fields)


def hit_lines(n: int, bound: int) -> Iterator[bytes]:
    """search_defective's pairs as each chunk's "a <tab> b" lines, in chunk
    order: the bytes search prints and a checkpoint stores, formatted from
    the chunk's keys with no (a, b) tuple built.  The arguments are checked
    before this returns; each chunk is searched as it is read."""
    _check_args(n, bound)
    return map(_lines, _run_chunks(n, _chunks(bound), bound), repeat(bound))


def _committed(path: Path) -> tuple[bytes, int]:
    """path's bytes, and the end of their newline-terminated lines (0 if none)."""
    data = path.read_bytes() if path.exists() else b""
    return data, data.rfind(b"\n") + 1


def _lines_end(data: bytes, pos: int, count: int, end: int) -> int:
    """The offset just past the next count lines of data from pos, or -1
    when data[pos:end] holds fewer, counted at C speed a stretch at a time.
    A hit line is at least 4 bytes ("1 <tab> 5"), so a stretch of 4 bytes
    for each line still sought holds no newline past the last of them; on
    shorter lines, which the writer never writes, the stretch is 1 byte a
    line."""
    step = 4
    while count:
        stop = min(pos + step * count, end)
        found = data.count(b"\n", pos, stop)
        if found > count:
            step = 1
        elif found == count:
            return data.rindex(b"\n", pos, stop) + 1
        elif stop == end:
            return -1
        else:
            pos, count = stop, count - found
    return pos


# Exactly what b"%d" and b"%08x" write.
_INT = rb"(?:0|-?[1-9][0-9]*)"
_STATE_LINE = re.compile(rb"(%s)\t(%s)\t(%s)\t(%s)\t([0-9a-f]{8})" % ((_INT,) * 4))


def _load_checkpoint(
    state_path: Path, hits_path: Path, n: int, bound: int, chunks: list[tuple[int, int]]
) -> list[memoryview]:
    """The hit lines of each committed chunk, as slices of one read of the
    hits file, after checking every committed line and cutting the files to
    what is kept."""
    header = b"# %d\t%d\n" % (n, bound)
    data, end = _committed(state_path)
    state, state_tail = data[:end], data[end:]
    if not state and header.startswith(state_tail):
        # No checkpoint yet, or one torn before its header was committed.
        hits_path.write_bytes(b"")
        state_path.write_bytes(header)
        return []
    if not state.startswith(header):
        first = state[: state.find(b"\n")] if state else state_tail
        raise CheckpointMismatchError(
            f"checkpoint header {first!r} does not match n={n} bound={bound}"
        )
    state_lines = state[len(header) :].split(b"\n")[:-1]
    hits, hits_committed = _committed(hits_path)
    view = memoryview(hits)
    state_end = len(header)
    hits_end = 0
    kept = []
    for i, line in enumerate(state_lines):
        match = _STATE_LINE.fullmatch(line)
        if not match:
            raise CheckpointMismatchError(f"malformed checkpoint line {line!r}")
        rn, lo, hi, cnt = map(int, match.groups()[:4])
        if i >= len(chunks) or rn != n or (lo, hi) != chunks[i] or cnt < 0:
            raise CheckpointMismatchError(
                f"checkpoint line {i + 1} ({line!r}) does not match chunk "
                f"{chunks[i] if i < len(chunks) else 'past end'} for n={n}"
            )
        chunk_end = _lines_end(hits, hits_end, cnt, hits_committed)
        if chunk_end < 0:
            break  # state line committed before its hits landed; drop it
        lines = view[hits_end:chunk_end]
        if crc32(lines) != int(match[5], 16):
            raise CheckpointMismatchError(
                f"checkpoint line {i + 1} ({line!r}) does not match the CRC-32 of its hits"
            )
        kept.append(lines)
        state_end += len(line) + 1
        hits_end = chunk_end
    if state_end < len(data):
        os.truncate(state_path, state_end)
    if hits_end < len(hits):
        os.truncate(hits_path, hits_end)
    return kept


def checkpoint_lines(
    n: int, bound: int, path: str | Path, stop_after_chunks: int | None = None
) -> tuple[Iterator[bytes | memoryview], bool]:
    """Resume the checkpoint at path: (each chunk's hit lines, the bytes
    hit_lines gives, and whether these finish the search).  The committed
    chunks come first, as memoryview slices of one read of the hits file;
    each chunk still to do, up to stop_after_chunks of them, is searched,
    written and committed as it is read, as bytes.  The files are checked
    and repaired before this returns."""
    _check_args(n, bound)
    if stop_after_chunks is not None and stop_after_chunks < 0:
        raise ValueError(f"stop_after_chunks must be nonnegative, got {stop_after_chunks}")
    chunks = _chunks(bound)
    state_path = Path(path)
    hits_path = Path(f"{path}.hits")
    committed = _load_checkpoint(state_path, hits_path, n, bound, chunks)
    todo = chunks[len(committed) :][:stop_after_chunks]
    new = _append(state_path, hits_path, n, todo, bound)
    return chain(committed, new), len(committed) + len(todo) == len(chunks)


def _append(
    state_path: Path, hits_path: Path, n: int, todo: list[tuple[int, int]], bound: int
) -> Iterator[bytes]:
    """Search the chunks in todo, appending each one's hit lines and then its
    state line, and yield the lines once they are committed."""
    if not todo:
        return
    with open(state_path, "ab") as sf, open(hits_path, "ab") as hf:
        for (lo, hi), keys in zip(todo, _run_chunks(n, todo, bound)):
            lines = _lines(keys, bound)
            hf.write(lines)
            hf.flush()
            sf.write(b"%d\t%d\t%d\t%d\t%08x\n" % (n, lo, hi, len(keys), crc32(lines)))
            sf.flush()
            yield lines


def search_with_checkpoint(
    n: int,
    bound: int,
    path: str | Path,
    jobs: int = 1,
    stop_after_chunks: int | None = None,
) -> SearchResult | None:
    """search_defective with resumable progress in a checkpoint file pair.

    Completed chunks found in the files are not recomputed.  With
    stop_after_chunks set, at most that many new chunks are processed and
    None is returned if work remains (used to exercise interruption); a
    negative value raises ValueError before either file is touched.  jobs
    is accepted and has no effect, as in search_defective.
    """
    lines, complete = checkpoint_lines(n, bound, path, stop_after_chunks)
    lines = list(lines)  # searches and commits the chunks still to do
    if not complete:
        return None
    # The lines as one JSON array of ints: a C-level parse.
    fields = iter(json.loads(b"[%s]" % b"".join(lines)[:-1].replace(b"\t", b",").replace(b"\n", b",")))
    return SearchResult(n, bound, tuple(zip(fields, fields)))


def verify_table(n: int, bound: int) -> DiscrepancyReport:
    """Compare the n-defective pairs with the family table up to equivalence.

    Mismatches are classified, never raised: pairs the search finds with no
    table entry, table failures (in-bound tuples that fail validation as
    "invalid:<kind>", entries that are not defective as
    "not_defective:residual=<r>", defective entries the search did not find
    as "missed_by_search") and equivalent duplicates within the table.

    Where families.certificate(n) is proved, for every bound, nothing is
    searched or enumerated: the table is counted and its gaps read from the
    certificate (families.table_count), which are what the search would
    find, with no table failure or duplicate.  Otherwise the search is run
    and matched against the table records (_compare_with_search; see the
    module docstring), in this process.
    """
    _check_args(n, bound)
    if certificate(n).proved:
        matched, gaps = table_count(n, bound)
        return DiscrepancyReport(n, bound, gaps, (), (), matched)
    return _compare_with_search(n, bound)


def _compare_with_search(n: int, bound: int) -> DiscrepancyReport:
    """verify_table by enumeration: search_defective against table_records.

    The path of a table whose certificate fails, and the tests' oracle for
    the counted report.
    """
    result = search_defective(n, bound)
    records, anomalies = table_records(n, bound)
    failures = [
        TableFailure(row, FamilyParams(*values), raw, f"invalid:{fail.describe()}")
        for row, values, raw, fail in anomalies
    ]
    missing = tuple(p for p in result.pairs if p not in records)
    matched = len(result.pairs) - len(missing)
    # The search's pairs are distinct, so when as many matched as there are
    # records, every record matched and the search set is not needed.
    if matched < len(records):
        found = set(result.pairs)
        for key, views in records.items():
            if key in found:
                # The search found residual 1 for this class; |u_n| and |ab|
                # are unchanged by (a, b) -> (-a, -b), so the strip would agree.
                continue
            row, values, raw = views[0]
            residual = residual_after_stripping(raw[0], raw[1], n)
            reason = "missed_by_search" if residual == 1 else f"not_defective:residual={residual}"
            failures.append(TableFailure(row, FamilyParams(*values), raw, reason))
    duplicates = []  # in the order of the kept records
    for views in records.values():
        if len(views) > 1:
            kept = record_entry(views)
            duplicates.extend((kept, shadow) for shadow in kept.provenance)
    return DiscrepancyReport(
        n=n,
        bound=bound,
        missing_from_table=missing,
        table_failures=tuple(failures),
        equivalent_duplicates=tuple(duplicates),
        matched_count=matched,
    )


# ---------------------------------------------------------------------------
# Changes audit
# ---------------------------------------------------------------------------


def _expect_excluded(n, row, params, want) -> tuple[bool, str]:
    """audit_exclusion re-derives exactly want for this excluded tuple."""
    got = audit_exclusion(n, row, params)
    if isinstance(got, ValidationFailure):
        detail = got.describe()
    elif isinstance(got, DuplicateOf):
        detail = f"duplicate of {got.row.label(got.params)} at {got.canonical_ab}"
    else:
        detail = f"{got!r}"
    return got == want, f"{row.label(params)} -> (a,b)={raw_ab(row, params)}: {detail}"


def _expect_boundary_invalid(n, row, ks) -> tuple[bool, str]:
    notes = []
    ok = True
    for k in ks:
        for eps in (1, -1):
            params = FamilyParams(k=k, eps=eps)
            ab = raw_ab(row, params)
            failure = pair_failure(*ab)
            if failure is None:
                ok = False
                notes.append(f"{params.compact()}:{ab} UNEXPECTEDLY VALID")
            else:
                notes.append(f"{params.compact()}:{ab}={failure.describe()}")
    return ok, f"{row.value}: " + " ".join(notes)


def _expect_added(n, row, params, raw, canonical, evidence, prefix=None) -> tuple[bool, str]:
    """The added instance is admitted with this raw and canonical pair, is
    n-defective (raw and canonical), is enumerated at the bound max(|a|, |b|),
    and has the given u_0..u_n when prefix is set."""
    entry = instantiate(row, params)
    ok = (
        isinstance(entry, FamilyEntry)
        and entry.raw_ab == raw
        and entry.canonical_ab == canonical
        and canonical in table_records(n, max(map(abs, raw)))[0]
        and (prefix is None or lehmer_prefix(entry.pair, n) == list(prefix))
        and residual_after_stripping(*raw, n) == 1
        and residual_after_stripping(*canonical, n) == 1
    )
    return ok, evidence


def _note(n, text) -> tuple[bool, str]:
    return True, text


_R, _P, _K, _X = FamilyRowId, FamilyParams, FailureKind, _expect_excluded

# Each correction baked into the family tables, as (change id, n, checks);
# a check is (function, *args) and is called as function(n, *args).  The
# item passes when every check does; its evidence joins theirs with "; ".
_CHANGES = (
    ("n=3(1)", 3, [(_X, _R.N3_Q, _P(q=-1), ValidationFailure(_K.ZERO_A))]),
    ("n=4(1)", 4, [(_X, _R.N4_Q, _P(q=-1), ValidationFailure(_K.DEGENERATE_RATIO, (-1, -1)))]),
    ("n=4(2)", 4, [(_X, _R.N4_POW2, _P(k=1, q=-1), ValidationFailure(_K.ZERO_A))]),
    ("n=5(1)", 5, [(
        _expect_added, _R.N5_PSI, _P(k=1, eps=1), (-1, -5), (1, 5),
        "N5_PSI(k=1,eps=1) -> (a,b)=(-1,-5): valid, u_0..u_5=[0,1,1,-2,-3,5], 5-defective",
        (0, 1, 1, -2, -3, 5),
    )]),
    ("n=5(2)", 5, [(_X, _R.N5_PSI, _P(k=0, eps=-1), DuplicateOf(_R.N5_PSI, _P(k=0, eps=1), (3, -5)))]),
    ("n=6(1)", 6, [(_X, _R.N6_Q, _P(q=-1), ValidationFailure(_K.DEGENERATE_RATIO, (-2, -1)))]),
    ("n=6(2)", 6, [
        (_X, _R.N6_POW3, _P(l=1, q=-1), ValidationFailure(_K.ZERO_A)),
        (_X, _R.N6_POW2, _P(k=1, q=-1), ValidationFailure(_K.DEGENERATE_RATIO, (-1, -1))),
    ]),
    ("n=8", 8, [
        (_note, "no changes"),
        (_expect_boundary_invalid, _R.N8_RHO, (0, 1)),
        (_expect_boundary_invalid, _R.N8_PI, (0, 1)),
    ]),
    ("n=10(1)", 10, [(
        _expect_added, _R.N10_PSI, _P(k=1, eps=1), (-5, -1), (5, 1),
        "N10_PSI(k=1,eps=1) -> (a,b)=(-5,-1), canonical (5,1): valid, 10-defective",
    )]),
    ("n=10(2)", 10, [(_X, _R.N10_PSI, _P(k=0, eps=-1), DuplicateOf(_R.N10_PSI, _P(k=0, eps=1), (5, -3)))]),
    ("n=12(2)", 12, [
        (_X, _R.N12_ZETA0, _P(k=0, eps=1), ValidationFailure(_K.ZERO_Q)),
        (_X, _R.N12_ZETA0, _P(k=0, eps=-1), ValidationFailure(_K.ZERO_Q)),
        (_X, _R.N12_ZETA0, _P(k=1, eps=1), ValidationFailure(_K.ZERO_A)),
        (_X, _R.N12_ZETA0, _P(k=1, eps=-1), ValidationFailure(_K.ZERO_B)),
        (_X, _R.N12_ZETA1, _P(k=0, eps=1), ValidationFailure(_K.DEGENERATE_RATIO, (2, 1))),
        (_X, _R.N12_ZETA1, _P(k=0, eps=-1), ValidationFailure(_K.DEGENERATE_RATIO, (2, 1))),
        (_X, _R.N12_ZETA2, _P(k=0, eps=1), ValidationFailure(_K.DEGENERATE_RATIO, (1, 1))),
        (_X, _R.N12_ZETA2, _P(k=0, eps=-1), ValidationFailure(_K.DEGENERATE_RATIO, (3, 1))),
    ]),
    ("n=12(3)", 12, [(
        _expect_added, _R.N12_ZETA3, _P(k=0, eps=1), (-1, -5), (1, 5),
        "N12_ZETA3(k=0,eps=1) -> (a,b)=(-1,-5), canonical (1,5): enumerated at bound 5, 12-defective",
    )]),
)


def audit_changes() -> list[AuditItem]:
    """Re-verify each correction baked into the family tables.

    Every item recomputes the claimed fact from first principles: the
    excluded tuple really produces an invalid pair (with the recorded
    failure kind), the excluded duplicate really collides with the kept
    tuple, and the added instances really are valid and defective.
    """
    items = []
    for change_id, n, checks in _CHANGES:
        results = [check(n, *args) for check, *args in checks]
        items.append(
            AuditItem(change_id, all(ok for ok, _ in results), "; ".join(ev for _, ev in results))
        )
    return items
