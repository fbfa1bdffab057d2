"""Parametric families of defective pairs: the classification rows as data.

Each supported index n in {3, 4, 5, 6, 8, 10, 12} has a fixed list of rows.
A row is one record (_Row) from which its parameter names, its formula, its
side conditions and its enumeration are all derived.  A row is one of two
kinds:

    linear    (t + m_a q, t + m_b q), t the product of base^e over the
              row's power fields (k, l; each e >= 1; t = 1 when there are
              none), q coprime to the product of the bases
    sequence  a = scale s(k - stride eps), b = a - 4 qs(k), k >= k_min,
              components swapped for n = 10

Row shapes:

    n=3   (1+q, 1-3q)                 and (3^k+q, 3^k-3q)
    n=4   (1+2q, 1-2q)                and (2^k+2q, 2^k-2q)
    n=5   (phi(k-2e), phi(k-2e)-4 phi(k)) and the psi analogue
    n=6   (1+3q, 1-q), (3^l+3q, 3^l-q), (2^k+3q, 2^k-q), (2^k 3^l+3q, 2^k 3^l-q)
    n=8   (rho(k-e), rho(k-e)-4 pi(k)) and (2 pi(k-e), 2 pi(k-e)-4 rho(k))
    n=10  the n=5 formulas with components swapped
    n=12  (zeta_i(k-e), -zeta_i(k+e)) for i in 0..3

The n=12 rows are sequence rows with s = qs = zeta_i: every zeta sequence
satisfies zeta(k-1) + zeta(k+1) = 4 zeta(k), so zeta(k-e) - 4 zeta(k) =
-zeta(k+e).  Each row also lists a finite set of explicitly excluded
parameter tuples whose pairs would be invalid or would duplicate another
row instance; audit_exclusion re-derives the reason for each: the pair
rule's own ValidationFailure (as pair_failure returns it) for an invalid
pair, DuplicateOf for a duplicate, and Unexplained for neither.

For every row, q(pair) = (a-b)/4 equals a fixed sequence value or the free
parameter q, so max(|a|, |b|) >= 2|q| bounds the enumeration: sequence rows
stop at the first index whose value exceeds bound/2, and linear rows stop
once the power term alone exceeds twice the bound.

One enumeration core, table_records, walks each row as plain ints, checks
every tuple with the pair rules and files the valid ones under their
canonical pair as records: flat tuples (row position, sign, k, l, q, eps)
that hold nothing the cyclic GC tracks.  enumerate_with_anomalies builds its
FamilyEntry list from the records; verify_table (harness) and the family
command (cli) match and render the records themselves, and build FamilyEntry
and FamilyParams objects only for what they report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from math import gcd, prod
from typing import Iterator, Sequence

from .pairs import LehmerPair, ValidationFailure, pair_failure
from .sequences import SequenceId, seq_eval

SUPPORTED_N = (3, 4, 5, 6, 8, 10, 12)


class UnsupportedNError(ValueError):
    """Index n outside the classified set {3, 4, 5, 6, 8, 10, 12}."""


class NotAnExclusionError(ValueError):
    """The parameter tuple is not on the row's explicit exclusion list."""


class FamilyRowId(str, Enum):
    N3_Q = "N3_Q"
    N3_POW3 = "N3_POW3"
    N4_Q = "N4_Q"
    N4_POW2 = "N4_POW2"
    N5_PHI = "N5_PHI"
    N5_PSI = "N5_PSI"
    N6_Q = "N6_Q"
    N6_POW3 = "N6_POW3"
    N6_POW2 = "N6_POW2"
    N6_POW6 = "N6_POW6"
    N8_RHO = "N8_RHO"
    N8_PI = "N8_PI"
    N10_PHI = "N10_PHI"
    N10_PSI = "N10_PSI"
    N12_ZETA0 = "N12_ZETA0"
    N12_ZETA1 = "N12_ZETA1"
    N12_ZETA2 = "N12_ZETA2"
    N12_ZETA3 = "N12_ZETA3"

    def label(self, params: FamilyParams) -> str:
        return f"{self.value}({params.compact()})"


def params_dict(values: tuple[int | None, ...]) -> dict[str, int]:
    """(k, l, q, eps) values by name, in that order, leaving out the None ones."""
    return {name: v for name, v in zip(("k", "l", "q", "eps"), values) if v is not None}


def params_text(values: tuple[int | None, ...]) -> str:
    """The set (k, l, q, eps) values as "k=1,eps=-1"."""
    return ",".join(f"{name}={v}" for name, v in params_dict(values).items())


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """Parameters of one row instance; only the row's fields are set."""

    k: int | None = None
    l: int | None = None
    q: int | None = None
    eps: int | None = None

    def __post_init__(self):
        if self.eps is not None and self.eps not in (-1, 1):
            raise ValueError(f"eps must be -1 or +1, got {self.eps}")

    def as_dict(self) -> dict[str, int]:
        """The set fields by name, in (k, l, q, eps) order."""
        return params_dict((self.k, self.l, self.q, self.eps))

    def compact(self) -> str:
        return params_text((self.k, self.l, self.q, self.eps))


@dataclass(frozen=True, slots=True)
class FamilyEntry:
    """One realized row instance, validated and canonicalized.

    provenance lists later-enumerated entries of the same n whose canonical
    pair coincides with this one; it stays empty unless the table has an
    internal duplicate.
    """

    n: int
    row: FamilyRowId
    params: FamilyParams
    raw_ab: tuple[int, int]
    canonical_ab: tuple[int, int]
    provenance: tuple["FamilyEntry", ...] = field(default=(), compare=False)

    @property
    def pair(self) -> LehmerPair:
        """The raw pair; raw_ab passed the pair rules (pairs.pair_failure, which
        validate_ab wraps) when the entry was built."""
        return LehmerPair(*self.raw_ab)


@dataclass(frozen=True)
class ConstraintViolation:
    row: FamilyRowId
    params: FamilyParams
    reason: str


@dataclass(frozen=True)
class DuplicateOf:
    """Exclusion audit outcome: the tuple's pair duplicates a kept entry."""

    row: FamilyRowId
    params: FamilyParams
    canonical_ab: tuple[int, int]


@dataclass(frozen=True)
class Unexplained:
    """Exclusion audit outcome: the excluded tuple yields a valid pair that
    duplicates nothing.  Surfaced, never silently resolved."""

    raw_ab: tuple[int, int]
    canonical_ab: tuple[int, int]


# Exclusion audit outcome: the pair rule's own ValidationFailure when the
# tuple's pair breaks one, else DuplicateOf or Unexplained.
AuditReason = ValidationFailure | DuplicateOf | Unexplained


def _q_range(t: int, m_a: int, m_b: int, bound: int) -> range:
    """q with |t + m_a*q| <= bound and |t + m_b*q| <= bound (m_a, m_b != 0)."""
    qs = []
    for m in (m_a, m_b):
        lo, hi = -bound - t, bound - t
        if m < 0:
            lo, hi, m = -hi, -lo, -m
        qs.append((-((-lo) // m), hi // m + 1))
    return range(max(qs[0][0], qs[1][0]), min(qs[0][1], qs[1][1]))


def _power_terms(bases: tuple[int, ...], limit: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(exponents, t) for t = prod(base^e) <= limit, every e >= 1, exponents ascending
    lexicographically; ((), 1) when there are no bases."""
    if not bases:
        yield (), 1
        return
    e, t = 1, bases[0]
    while t <= limit:
        for rest, r in _power_terms(bases[1:], limit // t):
            yield (e, *rest), t * r
        e, t = e + 1, t * bases[0]


def _seq_ks(seq: SequenceId, k_min: int, bound: int) -> Iterator[int]:
    """Indices k >= k_min until the first k >= max(k_min, 2) with 2|s(k)| > bound.

    |s(k)| is strictly increasing from k = 2 on, and every row instance at
    index k satisfies max(|a|, |b|) >= 2|s(k)|, so nothing beyond the stop
    index can land inside the bound.
    """
    k = k_min
    while True:
        if k >= max(k_min, 2) and 2 * abs(seq_eval(seq, k)) > bound:
            return
        yield k
        k += 1


@dataclass(frozen=True)
class _Row:
    """One classification row; a sequence row when seq is set, else linear.

    excluded holds the explicitly excluded parameter tuples as values in
    field order, e.g. (k, q) or (k, eps).
    """

    n: int
    m: tuple[int, int] = (0, 0)  # linear: (m_a, m_b)
    powers: tuple[tuple[str, int], ...] = ()  # linear: (field, base) per power
    seq: SequenceId | None = None  # sequence: s
    qseq: SequenceId | None = None  # sequence: qs, s when unset
    scale: int = 1
    stride: int = 1
    k_min: int = 0
    swap: bool = False
    excluded: tuple[tuple[int, ...], ...] = ()

    @cached_property
    def fields(self) -> tuple[str, ...]:
        if self.seq is not None:
            return ("k", "eps")
        return tuple(name for name, _ in self.powers) + ("q",)

    @cached_property
    def coprime_to(self) -> int:
        """Linear rows: q must be coprime to this product of the bases."""
        return prod(base for _, base in self.powers)

    def values(self, p: FamilyParams) -> tuple[int, ...]:
        return tuple(getattr(p, name) for name in self.fields)

    def formula(self, values: tuple[int, ...]) -> tuple[int, int]:
        """The raw pair at the parameter values, given in field order."""
        if self.seq is None:
            t = prod(base**e for (_, base), e in zip(self.powers, values))
            return t + self.m[0] * values[-1], t + self.m[1] * values[-1]
        k, eps = values
        a = self.scale * seq_eval(self.seq, k - self.stride * eps)
        b = a - 4 * seq_eval(self.qseq or self.seq, k)
        return (b, a) if self.swap else (a, b)

    def constraint(self, values: tuple[int, ...]) -> str | None:
        """The failed side condition, or None; exclusions are checked apart."""
        if self.seq is not None:
            return f"k >= {self.k_min} required" if values[0] < self.k_min else None
        names = self.fields[:-1]
        if min(values[:-1], default=1) < 1:
            return " and ".join(f"{name} > 0" for name in names) + " required"
        c = self.coprime_to
        if gcd(c, values[-1]) != 1:
            return f"{c} must not divide q" if len(names) == 1 else f"q must be coprime to {c}"
        return None

    def walk(self, bound: int) -> Iterator[tuple[int | None, ...]]:
        """(k, l, q, eps, a, b) of every admissible tuple with max(|a|, |b|) <=
        bound, in (k/l, q, eps) order; the fields the row lacks are None."""
        if self.seq is not None:
            for k in _seq_ks(self.qseq or self.seq, self.k_min, bound):
                for eps in (1, -1):
                    if (k, eps) not in self.excluded:
                        a, b = self.formula((k, eps))
                        if abs(a) <= bound and abs(b) <= bound:
                            yield k, None, None, eps, a, b
            return
        c = self.coprime_to
        m_a, m_b = self.m
        for exps, t in _power_terms(tuple(base for _, base in self.powers), 2 * bound):
            powers = dict(zip(self.fields, exps))
            k, l = powers.get("k"), powers.get("l")
            skip = {v[-1] for v in self.excluded if v[:-1] == exps}
            for q in _q_range(t, m_a, m_b, bound):
                if gcd(c, q) == 1 and q not in skip:
                    yield k, l, q, None, t + m_a * q, t + m_b * q


_N5_PHI = _Row(5, seq=SequenceId.PHI, stride=2, k_min=3)
_N5_PSI = _Row(5, seq=SequenceId.PSI, stride=2, excluded=((0, -1), (1, -1)))
_FREE_Q_EXCL = ((-1,), (0,), (1,))

_ROWS: dict[FamilyRowId, _Row] = {
    FamilyRowId.N3_Q: _Row(3, m=(1, -3), excluded=_FREE_Q_EXCL),
    FamilyRowId.N3_POW3: _Row(3, m=(1, -3), powers=(("k", 3),), excluded=((1, 1),)),
    FamilyRowId.N4_Q: _Row(4, m=(2, -2), excluded=_FREE_Q_EXCL),
    # (k, q) = (2, 1) gives (6, 2), a valid 4-defective pair equivalent to no
    # other entry: audit_exclusion reports it Unexplained and verify_table
    # reports (6, 2) missing.  The open question is surfaced, not patched out.
    FamilyRowId.N4_POW2: _Row(4, m=(2, -2), powers=(("k", 2),), excluded=((1, -1), (1, 1), (2, 1))),
    FamilyRowId.N5_PHI: _N5_PHI,
    FamilyRowId.N5_PSI: _N5_PSI,
    FamilyRowId.N6_Q: _Row(6, m=(3, -1), excluded=_FREE_Q_EXCL),
    FamilyRowId.N6_POW3: _Row(6, m=(3, -1), powers=(("l", 3),), excluded=((1, -1),)),
    FamilyRowId.N6_POW2: _Row(6, m=(3, -1), powers=(("k", 2),), excluded=((1, -1),)),
    FamilyRowId.N6_POW6: _Row(6, m=(3, -1), powers=(("k", 2), ("l", 3))),
    FamilyRowId.N8_RHO: _Row(8, seq=SequenceId.RHO, qseq=SequenceId.PI, k_min=2),
    FamilyRowId.N8_PI: _Row(8, seq=SequenceId.PI, qseq=SequenceId.RHO, scale=2, k_min=2),
    FamilyRowId.N10_PHI: replace(_N5_PHI, n=10, swap=True),
    FamilyRowId.N10_PSI: replace(_N5_PSI, n=10, swap=True),
    FamilyRowId.N12_ZETA0: _Row(12, seq=SequenceId.ZETA0, excluded=((0, 1), (0, -1), (1, 1), (1, -1))),
    FamilyRowId.N12_ZETA1: _Row(12, seq=SequenceId.ZETA1, excluded=((0, 1), (0, -1))),
    FamilyRowId.N12_ZETA2: _Row(12, seq=SequenceId.ZETA2, excluded=((0, 1), (0, -1))),
    FamilyRowId.N12_ZETA3: _Row(12, seq=SequenceId.ZETA3),
}


def family_rows(n: int) -> list[FamilyRowId]:
    """The rows for index n, in table order."""
    if n not in SUPPORTED_N:
        raise UnsupportedNError(f"no classified families for n={n}")
    return [row for row, d in _ROWS.items() if d.n == n]


def _check_shape(row: FamilyRowId, params: FamilyParams) -> None:
    want = _ROWS[row].fields
    if params.as_dict().keys() != set(want):
        raise ValueError(
            f"{row.value} takes parameters ({', '.join(want)}); got {params.compact() or 'none'}"
        )


def _entry(row: FamilyRowId, params: FamilyParams, raw: Pair, provenance: tuple = ()) -> FamilyEntry:
    """The entry of a row instance whose raw pair passed the pair rules."""
    a, b = raw  # canonical: the a > 0 one of (a, b), (-a, -b), as in pairs.canonicalize
    return FamilyEntry(_ROWS[row].n, row, params, raw, raw if a > 0 else (-a, -b), provenance)


def instantiate(
    row: FamilyRowId, params: FamilyParams
) -> FamilyEntry | ConstraintViolation | ValidationFailure:
    """Apply a row formula at params, enforcing the row's side conditions.

    ConstraintViolation reports a failed side condition.  A ValidationFailure
    on a tuple that passed its side conditions is a table-correctness signal
    and is handed through untouched.
    """
    _check_shape(row, params)
    d = _ROWS[row]
    values = d.values(params)
    reason = d.constraint(values)
    if reason is None and values in d.excluded:
        reason = f"({params.compact()}) is explicitly excluded"
    if reason is not None:
        return ConstraintViolation(row, params, reason)
    raw = d.formula(values)
    return pair_failure(*raw) or _entry(row, params, raw)


# A record is a flat tuple (row position, sign, k, l, q, eps), None for the
# fields its row lacks: the row is _ROW_IDS[position], and the raw pair is
# sign times the canonical pair the record is filed under.  Holding nothing
# the cyclic GC tracks, a record and its key are untracked at the first
# collection that sees them, so a large table costs later collections nothing.
_ROW_IDS = tuple(_ROWS)
Record = tuple[int | None, ...]
Pair = tuple[int, int]


def table_records(n: int, bound: int) -> tuple[
    dict[Pair, Record], dict[Pair, list[Record]], list[tuple[Pair, Record, ValidationFailure]]
]:
    """The table for n with max(|a|, |b|) <= bound on the raw pair, as records.

    Every in-bound tuple is checked with the pair rules (pair_failure), in
    deterministic (row, k/l, q, eps) order.  Returns

        records     canonical pair -> the first record with that pair, in order
        shadows     canonical pair -> the later records with that pair (the
                    table's internal duplicates; empty for the shipped table)
        anomalies   (raw pair, record with sign 1, failure) for each tuple
                    whose pair breaks a pair rule, in order
    """
    family_rows(n)  # raises UnsupportedNError for an n with no classified families
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    records: dict[Pair, Record] = {}
    shadows: dict[Pair, list[Record]] = {}
    anomalies: list[tuple[Pair, Record, ValidationFailure]] = []
    for pos, row in enumerate(_ROWS.values()):
        if row.n != n:
            continue
        for k, l, q, eps, a, b in row.walk(bound):
            failure = pair_failure(a, b)
            if failure is not None:
                anomalies.append(((a, b), (pos, 1, k, l, q, eps), failure))
                continue
            if a > 0:
                key, rec = (a, b), (pos, 1, k, l, q, eps)
            else:
                key, rec = (-a, -b), (pos, -1, k, l, q, eps)
            if records.setdefault(key, rec) is not rec:
                shadows.setdefault(key, []).append(rec)
    return records, shadows, anomalies


def record_view(key: Pair, rec: Record) -> tuple[FamilyRowId, Record, Pair]:
    """(row, (k, l, q, eps), raw pair) of the record filed under key."""
    return _ROW_IDS[rec[0]], rec[2:], key if rec[1] == 1 else (-key[0], -key[1])


def record_entry(key: Pair, rec: Record, shadows: Sequence[Record] = ()) -> FamilyEntry:
    """The FamilyEntry of a record, with the given shadow records as its provenance."""
    row, values, raw = record_view(key, rec)
    provenance = tuple([record_entry(key, s) for s in shadows]) if shadows else ()
    return _entry(row, FamilyParams(*values), raw, provenance)


def enumerate_with_anomalies(
    n: int, bound: int
) -> tuple[list[FamilyEntry], list[tuple[FamilyRowId, FamilyParams, tuple[int, int], ValidationFailure]]]:
    """Families for n with max(|a|, |b|) <= bound on the raw pair.

    Returns the deduplicated entries in deterministic (row, k/l, q, eps)
    order plus any in-bound tuples that failed pair validation.  Duplicate
    canonical pairs keep the first entry; later hits land in its provenance.
    """
    records, shadows, bad = table_records(n, bound)
    anomalies = []
    for raw, rec, failure in bad:
        row, values, _ = record_view(raw, rec)
        anomalies.append((row, FamilyParams(*values), raw, failure))
    # Records are popped as their entries are built, last first, so the
    # records and the entries do not both stay whole.
    entries = []
    while records:
        key, rec = records.popitem()
        entries.append(record_entry(key, rec, shadows.get(key, ())))
    entries.reverse()
    return entries, anomalies


def enumerate_families(n: int, bound: int) -> list[FamilyEntry]:
    """enumerate_with_anomalies, entries only (anomalies do not occur for the
    shipped table; verify_table reports them if they ever do)."""
    return enumerate_with_anomalies(n, bound)[0]


def raw_ab(row: FamilyRowId, params: FamilyParams) -> tuple[int, int]:
    """The row formula evaluated at params, ignoring side conditions."""
    _check_shape(row, params)
    d = _ROWS[row]
    return d.formula(d.values(params))


def audit_exclusion(n: int, row: FamilyRowId, params: FamilyParams) -> AuditReason:
    """Machine-check why an explicitly excluded tuple is excluded.

    The pair rule's own ValidationFailure (as pair_failure returns it) when
    the tuple's pair breaks one, DuplicateOf when it validates but coincides
    (up to equivalence) with a kept entry of the same n, and Unexplained
    otherwise.  Unexplained is a discrepancy report, not a judgment;
    verify_table is the arbiter of whether such a pair is missing.
    """
    d = _ROWS[row]
    values = d.values(params)
    if d.n != n or values not in d.excluded:
        raise NotAnExclusionError(
            f"({params.compact()}) is not an explicit exclusion of {row.value} at n={n}"
        )
    raw = d.formula(values)
    failure = pair_failure(*raw)
    if failure is not None:
        return failure
    key = _entry(row, params, raw).canonical_ab
    rec = table_records(n, max(abs(raw[0]), abs(raw[1])))[0].get(key)
    if rec is None:
        return Unexplained(raw, key)
    kept_row, kept_values, _ = record_view(key, rec)
    return DuplicateOf(kept_row, FamilyParams(*kept_values), key)
