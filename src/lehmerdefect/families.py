"""Parametric families of defective pairs, one generator per classification row.

Each supported index n in {3, 4, 5, 6, 8, 10, 12} has a fixed list of rows.
A row is a formula producing (a, b) from a small parameter tuple, together
with side conditions: range constraints (such as k > 0 or 3 not dividing q)
and a finite list of explicitly excluded parameter tuples whose pairs would
be invalid or would duplicate another row instance.

Row shapes:

    n=3   (1+q, 1-3q)                 and (3^k+q, 3^k-3q)
    n=4   (1+2q, 1-2q)                and (2^k+2q, 2^k-2q)
    n=5   (phi(k-2e), phi(k-2e)-4 phi(k)) and the psi analogue
    n=6   (1+3q, 1-q), (3^l+3q, 3^l-q), (2^k+3q, 2^k-q), (2^k 3^l+3q, 2^k 3^l-q)
    n=8   (rho(k-e), rho(k-e)-4 pi(k)) and (2 pi(k-e), 2 pi(k-e)-4 rho(k))
    n=10  the n=5 formulas with components swapped
    n=12  (zeta_i(k-e), -zeta_i(k+e)) for i in 0..3

For every row, q(pair) = (a-b)/4 equals a fixed sequence value or the free
parameter q, so max(|a|, |b|) >= 2|q| bounds the enumeration: sequence rows
stop at the first index whose value exceeds bound/2, and power rows stop once
the power term alone exceeds twice the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from math import gcd
from typing import Callable, Iterator

from .pairs import (
    LehmerPair,
    ValidationFailure,
    canonicalize,
    validate_ab,
)
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

    def compact(self) -> str:
        parts = []
        for name in ("k", "l", "q", "eps"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return ",".join(parts)


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
        """The raw pair; raw_ab passed validate_ab when the entry was built."""
        return LehmerPair(*self.raw_ab)


@dataclass(frozen=True)
class ConstraintViolation:
    row: FamilyRowId
    params: FamilyParams
    reason: str


@dataclass(frozen=True)
class InvalidPair:
    """Exclusion audit outcome: the tuple's pair fails validation."""

    failure: ValidationFailure


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


AuditReason = InvalidPair | DuplicateOf | Unexplained


def _q_interval(c0: int, c1: int, bound: int) -> range:
    """Integer q with |c0 + c1*q| <= bound, c1 != 0."""
    lo, hi = -bound - c0, bound - c0
    if c1 < 0:
        lo, hi, c1 = -hi, -lo, -c1
    return range(-((-lo) // c1), hi // c1 + 1)


def _q_candidates(t_a: int, m_a: int, t_b: int, m_b: int, bound: int) -> Iterator[int]:
    """q with |t_a + m_a*q| <= bound and |t_b + m_b*q| <= bound, ascending."""
    ra = _q_interval(t_a, m_a, bound)
    rb = _q_interval(t_b, m_b, bound)
    lo, hi = max(ra.start, rb.start), min(ra.stop, rb.stop)
    return iter(range(lo, hi))


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
class _RowDef:
    n: int
    fields: tuple[str, ...]
    formula: Callable[[FamilyParams], tuple[int, int]]
    constraint: Callable[[FamilyParams], str | None]
    excluded: tuple[FamilyParams, ...]
    params_within: Callable[[int], Iterator[FamilyParams]]


def _swapped(formula: Callable[[FamilyParams], tuple[int, int]]):
    def f(params: FamilyParams) -> tuple[int, int]:
        a, b = formula(params)
        return b, a

    return f


# --- row formulas -----------------------------------------------------------


def _f_n3_q(p: FamilyParams) -> tuple[int, int]:
    return 1 + p.q, 1 - 3 * p.q


def _f_n3_pow3(p: FamilyParams) -> tuple[int, int]:
    t = 3**p.k
    return t + p.q, t - 3 * p.q


def _f_n4_q(p: FamilyParams) -> tuple[int, int]:
    return 1 + 2 * p.q, 1 - 2 * p.q


def _f_n4_pow2(p: FamilyParams) -> tuple[int, int]:
    t = 2**p.k
    return t + 2 * p.q, t - 2 * p.q


def _f_seq_row(seq: SequenceId, scale: int, qseq: SequenceId):
    # (scale * s(k - 2eps_or_eps), same - 4 * qs(k)); eps stride is 2 for the
    # Fibonacci/Lucas rows and 1 for the Pell rows, inferred from min_index.
    stride = 2 if seq in (SequenceId.PHI, SequenceId.PSI) else 1

    def f(p: FamilyParams) -> tuple[int, int]:
        a = scale * seq_eval(seq, p.k - stride * p.eps)
        return a, a - 4 * seq_eval(qseq, p.k)

    return f


def _f_n6_q(p: FamilyParams) -> tuple[int, int]:
    return 1 + 3 * p.q, 1 - p.q


def _f_n6_pow3(p: FamilyParams) -> tuple[int, int]:
    t = 3**p.l
    return t + 3 * p.q, t - p.q


def _f_n6_pow2(p: FamilyParams) -> tuple[int, int]:
    t = 2**p.k
    return t + 3 * p.q, t - p.q


def _f_n6_pow6(p: FamilyParams) -> tuple[int, int]:
    t = 2**p.k * 3**p.l
    return t + 3 * p.q, t - p.q


def _f_n12(seq: SequenceId):
    def f(p: FamilyParams) -> tuple[int, int]:
        return seq_eval(seq, p.k - p.eps), -seq_eval(seq, p.k + p.eps)

    return f


# --- constraints and enumeration per row ------------------------------------


def _free_q_constraint(p: FamilyParams) -> str | None:
    return None


def _pow_constraint(kname: str, div: int):
    def c(p: FamilyParams) -> str | None:
        kv = getattr(p, kname)
        if kv < 1:
            return f"{kname} > 0 required"
        if p.q % div == 0:
            return f"{div} must not divide q"
        return None

    return c


def _n6_pow6_constraint(p: FamilyParams) -> str | None:
    if p.k < 1 or p.l < 1:
        return "k > 0 and l > 0 required"
    if gcd(6, p.q) != 1:
        return "q must be coprime to 6"
    return None


def _k_min_constraint(k_min: int):
    def c(p: FamilyParams) -> str | None:
        if p.k < k_min:
            return f"k >= {k_min} required"
        return None

    return c


def _qp(q: int) -> FamilyParams:
    return FamilyParams(q=q)


def _kq(k: int, q: int) -> FamilyParams:
    return FamilyParams(k=k, q=q)


def _ke(k: int, eps: int) -> FamilyParams:
    return FamilyParams(k=k, eps=eps)


def _gen_free_q(m_a: int, m_b: int, excluded: tuple[FamilyParams, ...]):
    skip = {p.q for p in excluded}

    def gen(bound: int) -> Iterator[FamilyParams]:
        for q in _q_candidates(1, m_a, 1, m_b, bound):
            if q not in skip:
                yield FamilyParams(q=q)

    return gen


def _gen_pow(base: int, kname: str, m_a: int, m_b: int, div: int, excluded):
    skip = {(getattr(p, kname), p.q) for p in excluded}

    def gen(bound: int) -> Iterator[FamilyParams]:
        k = 1
        t = base
        while t <= 2 * bound:
            for q in _q_candidates(t, m_a, t, m_b, bound):
                if q % div != 0 and (k, q) not in skip:
                    yield FamilyParams(**{kname: k, "q": q})
            k += 1
            t *= base
        return

    return gen


def _gen_n6_pow6(bound: int) -> Iterator[FamilyParams]:
    k = 1
    while 2**k * 3 <= 2 * bound:
        l = 1
        while 2**k * 3**l <= 2 * bound:
            t = 2**k * 3**l
            for q in _q_candidates(t, 3, t, -1, bound):
                if gcd(6, q) == 1:
                    yield FamilyParams(k=k, l=l, q=q)
            l += 1
        k += 1


def _gen_seq(qseq: SequenceId, k_min: int, excluded: tuple[FamilyParams, ...]):
    skip = {(p.k, p.eps) for p in excluded}

    def gen(bound: int) -> Iterator[FamilyParams]:
        for k in _seq_ks(qseq, k_min, bound):
            for eps in (1, -1):
                if (k, eps) not in skip:
                    yield FamilyParams(k=k, eps=eps)

    return gen


def _exc_ke(*pairs: tuple[int, int]) -> tuple[FamilyParams, ...]:
    return tuple(_ke(k, e) for k, e in pairs)


_N5_PSI_EXCL = _exc_ke((0, -1), (1, -1))
_N12_EXCL = {
    SequenceId.ZETA0: _exc_ke((0, 1), (0, -1), (1, 1), (1, -1)),
    SequenceId.ZETA1: _exc_ke((0, 1), (0, -1)),
    SequenceId.ZETA2: _exc_ke((0, 1), (0, -1)),
    SequenceId.ZETA3: (),
}


def _row_n12(row: FamilyRowId, seq: SequenceId) -> tuple[FamilyRowId, _RowDef]:
    return row, _RowDef(
        n=12,
        fields=("k", "eps"),
        formula=_f_n12(seq),
        constraint=_k_min_constraint(0),
        excluded=_N12_EXCL[seq],
        params_within=_gen_seq(seq, 0, _N12_EXCL[seq]),
    )


_F_N5_PHI = _f_seq_row(SequenceId.PHI, 1, SequenceId.PHI)
_F_N5_PSI = _f_seq_row(SequenceId.PSI, 1, SequenceId.PSI)

_ROWS: dict[FamilyRowId, _RowDef] = dict(
    (
        (
            FamilyRowId.N3_Q,
            _RowDef(3, ("q",), _f_n3_q, _free_q_constraint,
                    (_qp(-1), _qp(0), _qp(1)), _gen_free_q(1, -3, (_qp(-1), _qp(0), _qp(1)))),
        ),
        (
            FamilyRowId.N3_POW3,
            _RowDef(3, ("k", "q"), _f_n3_pow3, _pow_constraint("k", 3),
                    (_kq(1, 1),), _gen_pow(3, "k", 1, -3, 3, (_kq(1, 1),))),
        ),
        (
            FamilyRowId.N4_Q,
            _RowDef(4, ("q",), _f_n4_q, _free_q_constraint,
                    (_qp(-1), _qp(0), _qp(1)), _gen_free_q(2, -2, (_qp(-1), _qp(0), _qp(1)))),
        ),
        (
            FamilyRowId.N4_POW2,
            _RowDef(4, ("k", "q"), _f_n4_pow2, _pow_constraint("k", 2),
                    (_kq(1, -1), _kq(1, 1), _kq(2, 1)),
                    _gen_pow(2, "k", 2, -2, 2, (_kq(1, -1), _kq(1, 1), _kq(2, 1)))),
        ),
        (
            FamilyRowId.N5_PHI,
            _RowDef(5, ("k", "eps"), _F_N5_PHI, _k_min_constraint(3),
                    (), _gen_seq(SequenceId.PHI, 3, ())),
        ),
        (
            FamilyRowId.N5_PSI,
            _RowDef(5, ("k", "eps"), _F_N5_PSI, _k_min_constraint(0),
                    _N5_PSI_EXCL, _gen_seq(SequenceId.PSI, 0, _N5_PSI_EXCL)),
        ),
        (
            FamilyRowId.N6_Q,
            _RowDef(6, ("q",), _f_n6_q, _free_q_constraint,
                    (_qp(-1), _qp(0), _qp(1)), _gen_free_q(3, -1, (_qp(-1), _qp(0), _qp(1)))),
        ),
        (
            FamilyRowId.N6_POW3,
            _RowDef(6, ("l", "q"), _f_n6_pow3, _pow_constraint("l", 3),
                    (FamilyParams(l=1, q=-1),), _gen_pow(3, "l", 3, -1, 3, (FamilyParams(l=1, q=-1),))),
        ),
        (
            FamilyRowId.N6_POW2,
            _RowDef(6, ("k", "q"), _f_n6_pow2, _pow_constraint("k", 2),
                    (_kq(1, -1),), _gen_pow(2, "k", 3, -1, 2, (_kq(1, -1),))),
        ),
        (
            FamilyRowId.N6_POW6,
            _RowDef(6, ("k", "l", "q"), _f_n6_pow6, _n6_pow6_constraint,
                    (), _gen_n6_pow6),
        ),
        (
            FamilyRowId.N8_RHO,
            _RowDef(8, ("k", "eps"), _f_seq_row(SequenceId.RHO, 1, SequenceId.PI),
                    _k_min_constraint(2), (), _gen_seq(SequenceId.PI, 2, ())),
        ),
        (
            FamilyRowId.N8_PI,
            _RowDef(8, ("k", "eps"), _f_seq_row(SequenceId.PI, 2, SequenceId.RHO),
                    _k_min_constraint(2), (), _gen_seq(SequenceId.RHO, 2, ())),
        ),
        (
            FamilyRowId.N10_PHI,
            _RowDef(10, ("k", "eps"), _swapped(_F_N5_PHI), _k_min_constraint(3),
                    (), _gen_seq(SequenceId.PHI, 3, ())),
        ),
        (
            FamilyRowId.N10_PSI,
            _RowDef(10, ("k", "eps"), _swapped(_F_N5_PSI), _k_min_constraint(0),
                    _N5_PSI_EXCL, _gen_seq(SequenceId.PSI, 0, _N5_PSI_EXCL)),
        ),
        _row_n12(FamilyRowId.N12_ZETA0, SequenceId.ZETA0),
        _row_n12(FamilyRowId.N12_ZETA1, SequenceId.ZETA1),
        _row_n12(FamilyRowId.N12_ZETA2, SequenceId.ZETA2),
        _row_n12(FamilyRowId.N12_ZETA3, SequenceId.ZETA3),
    )
)


def family_rows(n: int) -> list[FamilyRowId]:
    """The rows for index n, in table order."""
    if n not in SUPPORTED_N:
        raise UnsupportedNError(f"no classified families for n={n}")
    return [row for row, d in _ROWS.items() if d.n == n]


def _check_shape(row: FamilyRowId, params: FamilyParams) -> None:
    want = _ROWS[row].fields
    for name in ("k", "l", "q", "eps"):
        have = getattr(params, name) is not None
        if have != (name in want):
            raise ValueError(
                f"{row.value} takes parameters ({', '.join(want)}); got {params.compact() or 'none'}"
            )


def _build_entry(row: FamilyRowId, params: FamilyParams) -> FamilyEntry | ValidationFailure:
    d = _ROWS[row]
    raw = d.formula(params)
    res = validate_ab(*raw)
    if isinstance(res, ValidationFailure):
        return res
    canon = canonicalize(res)
    return FamilyEntry(d.n, row, params, raw, raw if canon is res else (canon.a, canon.b))


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
    reason = d.constraint(params)
    if reason is None and params in d.excluded:
        reason = f"({params.compact()}) is explicitly excluded"
    if reason is not None:
        return ConstraintViolation(row, params, reason)
    return _build_entry(row, params)


def enumerate_with_anomalies(
    n: int, bound: int
) -> tuple[list[FamilyEntry], list[tuple[FamilyRowId, FamilyParams, tuple[int, int], ValidationFailure]]]:
    """Families for n with max(|a|, |b|) <= bound on the raw pair.

    Returns the deduplicated entries in deterministic (row, k/l, q, eps)
    order plus any in-bound tuples that failed pair validation.  Duplicate
    canonical pairs keep the first entry; later hits land in its provenance.
    """
    if n not in SUPPORTED_N:
        raise UnsupportedNError(f"no classified families for n={n}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    entries: list[FamilyEntry] = []
    anomalies: list[tuple[FamilyRowId, FamilyParams, tuple[int, int], ValidationFailure]] = []
    index: dict[tuple[int, int], int] = {}
    for row in family_rows(n):
        d = _ROWS[row]
        for params in d.params_within(bound):
            built = _build_entry(row, params)
            if isinstance(built, ValidationFailure):
                raw = d.formula(params)
                if max(abs(raw[0]), abs(raw[1])) <= bound:
                    anomalies.append((row, params, raw, built))
                continue
            if max(abs(built.raw_ab[0]), abs(built.raw_ab[1])) > bound:
                continue
            at = index.get(built.canonical_ab)
            if at is None:
                index[built.canonical_ab] = len(entries)
                entries.append(built)
            else:
                kept = entries[at]
                entries[at] = replace(kept, provenance=kept.provenance + (built,))
    return entries, anomalies


def enumerate_families(n: int, bound: int) -> list[FamilyEntry]:
    """enumerate_with_anomalies, entries only (anomalies do not occur for the
    shipped table; verify_table reports them if they ever do)."""
    return enumerate_with_anomalies(n, bound)[0]


def raw_ab(row: FamilyRowId, params: FamilyParams) -> tuple[int, int]:
    """The row formula evaluated at params, ignoring side conditions."""
    _check_shape(row, params)
    return _ROWS[row].formula(params)


def audit_exclusion(n: int, row: FamilyRowId, params: FamilyParams) -> AuditReason:
    """Machine-check why an explicitly excluded tuple is excluded.

    InvalidPair when the tuple's pair fails validation, DuplicateOf when it
    validates but coincides (up to equivalence) with a kept entry of the same
    n, and Unexplained otherwise.  Unexplained is a discrepancy report, not a
    judgment; verify_table is the arbiter of whether such a pair is missing.
    """
    d = _ROWS[row]
    if d.n != n or params not in d.excluded:
        raise NotAnExclusionError(
            f"({params.compact()}) is not an explicit exclusion of {row.value} at n={n}"
        )
    raw = d.formula(params)
    res = validate_ab(*raw)
    if isinstance(res, ValidationFailure):
        return InvalidPair(res)
    canon = canonicalize(res)
    for entry in enumerate_families(n, max(abs(raw[0]), abs(raw[1]))):
        if entry.canonical_ab == (canon.a, canon.b):
            return DuplicateOf(entry.row, entry.params, entry.canonical_ab)
    return Unexplained(raw, (canon.a, canon.b))
