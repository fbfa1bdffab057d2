"""Search for n-defective pairs in a bounded box, and table-vs-search verification.

The box holds the canonical representatives (a > 0, so each equivalence
class {(a, b), (-a, -b)} appears once) with a <= bound, |b| <= bound and
a == b mod 4; in companion coordinates p = a and q = (a - b) / 4.

The search solves for defective pairs instead of scanning the box.  Every
primitive divisor of u_n divides Phi_n(alpha, beta), and a prime of
Phi_n(alpha, beta) that does not divide n is a primitive divisor of u_n
(primdiv.CYCLOTOMIC_FORMS).  So a pair is n-defective only if
Phi_n(a, q) = +-T with T a product of primes of n; the targets are those
+-T up to the largest |Phi_n| in the chunk's box.  For n = 3, 4, 6 the
form is linear, Phi_n(a, q) = a - m*q with m = 1, 2, 3, so the roots of a
target t are a = t + m*q, b = t - (4 - m)*q.  The search steps q through
the one interval that puts a in the chunk and |b| <= bound, and only
through the residues coprime to the primes of n that divide t: a valid
pair has gcd(a, q) = 1, and gcd(a, q) = gcd(t, q).  So every in-box root
with gcd(a, q) = 1 is visited once, with no per-a division, and each
chunk's hits are sorted into (a, b) order.  For n = 5, 8, 10, 12 the form
is quadratic in q, and the roots are solved for each a and target with
isqrt and a perfect-square test.  For the quadratic forms a valid pair
(gcd(a, b) = 1, so gcd(a, q) = 1) caps the exponent of each prime in T
(primdiv.CYCLOTOMIC_FORMS; each cap is proved by enumerating residues mod
prime^(cap + 1)), so their targets are a fixed set whatever the bound:
+-1, +-5 for n = 5 and 10, +-1, +-2 for n = 8 and +-1, +-2, +-3, +-6 for
n = 12.  T = 0 is never a target: Phi_n vanishes only when alpha / beta is
a root of unity.  Each root is checked with the pair rules
(pairs.pair_failure, which builds no pair) and kept only if
primdiv.residual_after_stripping is 1, so the definition decides every
reported pair and the theorem is needed only for completeness.  The tests
hold the search equal to a scan of the whole box by the definition (the
pair rules plus the gcd strip) for every n at every bound up to 64, at
1000 and at 5000, the linear steps equal to a root search per a at bound
10000, and the capped solve equal to the uncapped one at bound 20000.

verify_table compares the search with the family table as records
(families.table_records): every search pair is looked up by canonical pair,
and the records are checked against the search's pairs only when some record
is left unmatched.  FamilyParams, FamilyEntry and TableFailure objects are
built only for what the report lists: invalid tuples, unmatched records and
the table's internal duplicates.

Searches fan out over contiguous a-chunks, one worker at most per chunk.
Chunk boundaries depend only on the bound, not on the worker count, and
results are merged in chunk order, so output is byte-identical for any --jobs
value and the checkpoint files of interrupted runs line up with any resume.

Checkpoint format: the state file opens with a "# n <tab> bound" header
(chunk boundaries for different bounds can coincide, so the header is what
makes a wrong-bound resume detectable) followed by one line per completed
chunk, "n <tab> a_from <tab> a_to <tab> hit-count"; a sibling "<path>.hits"
file carries the corresponding "a <tab> b" lines.  The writer appends bytes,
each integer spelled by b"%d", and writes a state line only after its hits
are flushed, so the state file is the commit record.  Only newline-terminated
lines count.  Loading drops a torn last line, every state line whose hits are
not all present and every hit past the committed chunks, so those chunks are
recomputed; a complete line outside the grammar of b"%d" (_INT: ASCII digits,
no "+", no sign on 0, no leading zero; no spaces, "_" or carriage returns)
raises CheckpointMismatchError.  What is kept is a prefix of each file (the
header and the first committed state lines, the first hit lines), so a
repair cuts the file in place to that prefix with os.truncate, which writes
no data; otherwise new chunks are appended.  (Writing a temporary file and
renaming it over the old one is slower: on ext4 that rename waits for the
new file's data to reach the disk, which made a torn resume of search 6
--bound 1000 take about 110 ms against 15 ms for the cuts on a 2-core ext4
host.)  The load is idempotent on prefixes, so a crash between the two cuts
still resumes.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt, prod
from pathlib import Path

# enumerate_with_anomalies is not called here; it stays importable from
# harness, where perfbench/layers.py times it.
from .families import (
    DuplicateOf,
    FamilyEntry,
    FamilyParams,
    FamilyRowId,
    audit_exclusion,
    enumerate_with_anomalies,
    family_rows,
    instantiate,
    raw_ab,
    record_entry,
    record_view,
    table_records,
)
from .pairs import FailureKind, ValidationFailure, lehmer_prefix, pair_failure
from .primdiv import CYCLOTOMIC_FORMS, residual_after_stripping


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


def _products_up_to(prime_caps: tuple[tuple[int, int | None], ...], limit: int) -> list[int]:
    """Every product of p^e up to limit, e <= cap (any e if cap is None), 1 included."""
    out = [1]
    for p, cap in prime_caps:
        for m in list(out):
            e = 0
            while (cap is None or e < cap) and m * p <= limit:
                m *= p
                e += 1
                out.append(m)
    return out


def _roots(n: int, a_from: int, a_to: int, bound: int):
    """(a, q) in the chunk's box with Phi_n(a, q) = +-T, each once; for the
    linear forms only those with gcd(a, q) = 1.

    T runs over the products of primes of n, within the primes' caps, up to
    the largest |Phi_n| in the chunk's box (see the module docstring).
    """
    coeffs, prime_caps = CYCLOTOMIC_FORMS[n]
    q_max = (a_to + bound) // 4  # largest |q| in the chunk's box
    deg = len(coeffs) - 1
    # t_max >= |Phi_n(a, q)| anywhere in the chunk's box (triangle inequality).
    t_max = sum(abs(c) * a_to ** (deg - i) * q_max**i for i, c in enumerate(coeffs))
    targets = [s * t for t in _products_up_to(prime_caps, t_max) for s in (1, -1)]
    if deg == 1:  # a - m q = t, so a = t + m q and b = t - (4 - m) q
        m = -coeffs[1]
        k = 4 - m
        for t in targets:
            # a_from <= a <= a_to and -bound <= b <= bound, as bounds on q.
            q_from = max(-((t - a_from) // m), -((bound - t) // k))
            q_to = min((a_to - t) // m, (t + bound) // k)
            # gcd(a, q) = gcd(t, q): step q through the residues coprime to
            # the primes of n that divide t.
            rad = prod(p for p, _ in prime_caps if t % p == 0)
            for r in range(rad):
                if gcd(r, rad) == 1:
                    for q in range(q_from + (r - q_from) % rad, q_to + 1, rad):
                        yield t + m * q, q
        return
    c0, c1, c2 = coeffs  # c2 q^2 + c1 a q + c0 a^2 - t = 0
    for a in range(a_from, a_to + 1):
        q_lo, q_hi = -((bound - a) // 4), (a + bound) // 4
        disc_a = (c1 * c1 - 4 * c0 * c2) * a * a
        qs = set()
        for t in targets:
            disc = disc_a + 4 * c2 * t
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            for num in (r - c1 * a, -r - c1 * a):
                q, rem = divmod(num, 2 * c2)
                if not rem and q_lo <= q <= q_hi:
                    qs.add(q)
        for q in qs:
            yield a, q


def _scan_range(n: int, a_from: int, a_to: int, bound: int) -> list[tuple[int, int]]:
    """Defective canonical pairs with a_from <= a <= a_to, ordered by (a, b);
    1 <= a_from <= a_to <= bound, as _chunks makes them.  A root is kept when
    it passes the pair rules (pair_failure; no LehmerPair is built) and the
    gcd strip leaves 1."""
    # Hits are kept per a, so the hits of one a share one int object (_roots
    # builds a afresh for each root: 28 bytes a hit otherwise) and only each
    # a's b values are sorted.
    hit_bs: dict[int, list[int]] = {}
    for a, q in _roots(n, a_from, a_to, bound):
        b = a - 4 * q
        if pair_failure(a, b) is None and residual_after_stripping(a, b, n) == 1:
            hit_bs.setdefault(a, []).append(b)
    return [(a, b) for a in sorted(hit_bs) for b in sorted(hit_bs[a])]


def _chunks(bound: int) -> list[tuple[int, int]]:
    # Chunking is a function of the bound alone so resumes and differing
    # worker counts agree on boundaries.
    width = max(32, bound // 128)
    out = []
    a = 1
    while a <= bound:
        out.append((a, min(a + width - 1, bound)))
        a += width
    return out


def _run_chunks(n, chunks, bound, jobs):
    # A fork-started pool starts all max_workers processes at its first
    # submit, so ask for no more than there are chunks.
    workers = min(jobs, len(chunks))
    if workers <= 1:
        for lo, hi in chunks:
            yield _scan_range(n, lo, hi, bound)
    else:
        los, his = zip(*chunks)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(_scan_range, repeat(n), los, his, repeat(bound))


def search_defective(n: int, bound: int, jobs: int = 1) -> SearchResult:
    """Every n-defective (a, b), 0 < a <= bound, |b| <= bound, a == b mod 4."""
    _check_args(n, bound)
    pairs: list[tuple[int, int]] = []
    for chunk_hits in _run_chunks(n, _chunks(bound), bound, jobs):
        pairs.extend(chunk_hits)
    return SearchResult(n, bound, tuple(pairs))


def _committed(path: Path) -> tuple[bytes, bytes]:
    """path's newline-terminated lines, and the torn tail after them (b"" if none)."""
    data = path.read_bytes() if path.exists() else b""
    end = data.rfind(b"\n") + 1
    return data[:end], data[end:]


# Exactly what b"%d" writes.  _BAD_HIT_LINE finds the start of the first line
# that is not "a <tab> b": a search for the first bad line, not a match of
# (?:line)* over all of them, since sre keeps backtracking state for every
# repetition of a group, 3.4 MB for the 10,857 hits of n = 6 at bound 1000
# (possessive *+ needs Python 3.11).
_INT = rb"(?:0|-?[1-9][0-9]*)"
_STATE_LINE = re.compile(rb"(%s)\t(%s)\t(%s)\t(%s)" % ((_INT,) * 4))
_BAD_HIT_LINE = re.compile(rb"^(?!%s\t%s\n|\Z)" % (_INT, _INT), re.M)


def _load_checkpoint(
    state_path: Path, hits_path: Path, n: int, bound: int, chunks: list[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]]]:
    header = b"# %d\t%d\n" % (n, bound)
    state, state_tail = _committed(state_path)
    if not state and header.startswith(state_tail):
        # No checkpoint yet, or one torn before its header was committed.
        hits_path.write_bytes(b"")
        state_path.write_bytes(header)
        return 0, []
    if not state.startswith(header):
        first = state[: state.find(b"\n")] if state else state_tail
        raise CheckpointMismatchError(
            f"checkpoint header {first!r} does not match n={n} bound={bound}"
        )
    state_lines = state[len(header) :].split(b"\n")[:-1]
    hit_data, hits_tail = _committed(hits_path)
    hit_count = hit_data.count(b"\n")
    state_end = len(header)
    done = 0
    need = 0
    for i, line in enumerate(state_lines):
        match = _STATE_LINE.fullmatch(line)
        if not match:
            raise CheckpointMismatchError(f"malformed checkpoint line {line!r}")
        rn, lo, hi, cnt = map(int, match.groups())
        if i >= len(chunks) or rn != n or (lo, hi) != chunks[i] or cnt < 0:
            raise CheckpointMismatchError(
                f"checkpoint line {i + 1} ({line!r}) does not match chunk "
                f"{chunks[i] if i < len(chunks) else 'past end'} for n={n}"
            )
        if need + cnt > hit_count:
            break  # state line committed before its hits landed; drop it
        state_end += len(line) + 1
        done += 1
        need += cnt
    hits_end = len(hit_data)
    for _ in range(hit_count - need):
        hits_end = hit_data.rfind(b"\n", 0, hits_end - 1) + 1
    bad = _BAD_HIT_LINE.search(hit_data, 0, hits_end)
    if bad:
        line = hit_data[bad.start() : hit_data.find(b"\n", bad.start())]
        raise CheckpointMismatchError(f"malformed checkpoint line {line!r}")
    fields = map(int, hit_data[:hits_end].split())
    hits = list(zip(fields, fields))
    if state_end < len(state) + len(state_tail):
        os.truncate(state_path, state_end)
    if hits_end < len(hit_data) + len(hits_tail):
        os.truncate(hits_path, hits_end)
    return done, hits


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
    negative value raises ValueError before either file is touched.
    """
    _check_args(n, bound)
    if stop_after_chunks is not None and stop_after_chunks < 0:
        raise ValueError(f"stop_after_chunks must be nonnegative, got {stop_after_chunks}")
    chunks = _chunks(bound)
    state_path = Path(path)
    hits_path = Path(str(path) + ".hits")
    done, hits = _load_checkpoint(state_path, hits_path, n, bound, chunks)
    todo = chunks[done:]
    if stop_after_chunks is not None:
        todo = todo[:stop_after_chunks]
    if todo:
        with open(state_path, "ab") as sf, open(hits_path, "ab") as hf:
            for (lo, hi), chunk_hits in zip(todo, _run_chunks(n, todo, bound, jobs)):
                hf.write(b"".join(b"%d\t%d\n" % ab for ab in chunk_hits))
                hf.flush()
                sf.write(b"%d\t%d\t%d\t%d\n" % (n, lo, hi, len(chunk_hits)))
                sf.flush()
                hits.extend(chunk_hits)
    if done + len(todo) < len(chunks):
        return None
    return SearchResult(n, bound, tuple(hits))


def _table_failure(key: tuple[int, int], rec: tuple, reason: str) -> TableFailure:
    row, values, raw = record_view(key, rec)
    return TableFailure(row, FamilyParams(*values), raw, reason)


def verify_table(n: int, bound: int, jobs: int = 1) -> DiscrepancyReport:
    """Compare search_defective against the family table up to equivalence.

    Mismatches are classified, never raised: pairs the search found with no
    table entry, table failures (in-bound tuples that fail validation as
    "invalid:<kind>", entries that are not defective as
    "not_defective:residual=<r>", defective entries the search did not find
    as "missed_by_search") and equivalent duplicates within the table.  The
    table is matched as records (see the module docstring).
    """
    result = search_defective(n, bound, jobs)
    records, shadows, anomalies = table_records(n, bound)
    failures = [
        _table_failure(raw, rec, f"invalid:{fail.describe()}") for raw, rec, fail in anomalies
    ]
    missing = tuple(p for p in result.pairs if p not in records)
    matched = len(result.pairs) - len(missing)
    # The search's pairs are distinct, so when as many matched as there are
    # records, every record matched and the search set is not needed.
    if matched < len(records):
        found = set(result.pairs)
        for key, rec in records.items():
            if key in found:
                # The search found residual 1 for this class; |u_n| and |ab|
                # are unchanged by (a, b) -> (-a, -b), so the strip would agree.
                continue
            raw = record_view(key, rec)[2]
            residual = residual_after_stripping(raw[0], raw[1], n)
            reason = "missed_by_search" if residual == 1 else f"not_defective:residual={residual}"
            failures.append(_table_failure(key, rec, reason))
    duplicates = []
    if shadows:  # in the order of the kept records
        for key, rec in records.items():
            if key in shadows:
                kept = record_entry(key, rec, shadows[key])
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
