from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations, repeat
from bisect import bisect_right
from math import gcd, isqrt, prod
from multiprocessing import get_context

import pytest
from hypothesis import assume, strategies as st

from lehmerdefect import cli
from lehmerdefect.harness import search_defective
from lehmerdefect.pairs import LehmerPair, pair_failure
from lehmerdefect.primdiv import CYCLOTOMIC_FORMS, residual_after_stripping


def fib(n: int) -> int:
    """Independent Fibonacci oracle (direct recurrence, no package code)."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def valid_pairs(draw, limit: int = 10_000) -> LehmerPair:
    """Validated pairs with |a|, |b| <= limit."""
    a = draw(st.integers(-limit, limit).filter(bool))
    q = draw(st.integers(-((limit - a) // 4), (limit + a) // 4).filter(bool))
    b = a - 4 * q
    assume(pair_failure(a, b) is None)
    return LehmerPair(a, b)


@pytest.fixture
def run_cli():
    def runner(*argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    return runner


def _definitional_range(a_from: int, a_to: int, bound: int, ns) -> dict[int, list[tuple[int, int]]]:
    """definitional_search's hits with a_from <= a <= a_to, per n in ns."""
    hits: dict[int, list[tuple[int, int]]] = {n: [] for n in ns}
    top = max(ns)
    for a in range(a_from, a_to + 1):
        for q in range((a + bound) // 4, -((bound - a) // 4) - 1, -1):
            b = a - 4 * q
            if pair_failure(a, b) is not None:
                continue
            d, prev, cur = a * b, 0, 1
            for i in range(2, top + 1):
                d *= cur
                prev, cur = cur, (a * cur if i & 1 else cur) - q * prev
                if i in hits:
                    m, g = cur, gcd(cur, d)
                    while g > 1:
                        m //= g
                        g = gcd(m, d)
                    if m in (1, -1):
                        hits[i].append((a, b))
    return hits


def definitional_search(bound: int, ns) -> dict[int, tuple[tuple[int, int], ...]]:
    """The n-defective pairs of the search box, found by scanning all of it.

    Every (a, b) with 0 < a <= bound, |b| <= bound and a == b mod 4 is
    checked with the pair rules (pair_failure).  Each valid pair's elements
    u_1..u_max(ns) are walked once by the parity recurrence, keeping the
    running product a*b*u_1*...*u_{i-1}; at each n in ns, u_n is stripped by
    gcd with that product until coprime, and the pair is n-defective when +-1
    is left.
    Neither primdiv nor a cyclotomic form is used.  Pairs come in (a, b)-lex
    order, like search_defective.  Every a costs about the same (bound / 2
    values of q), so from bound 200 on the box is cut into 16 contiguous
    a-ranges, scanned by 2 spawned worker processes and merged in a order;
    below it, starting the workers would cost more than the scan.
    """
    if bound < 200:
        parts = [_definitional_range(1, bound, bound, ns)]
    else:
        cuts = [1 + bound * i // 16 for i in range(17)]
        los, his = cuts[:-1], [c - 1 for c in cuts[1:]]
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as ex:
            parts = list(ex.map(_definitional_range, los, his, repeat(bound), repeat(ns)))
    return {n: tuple(pair for part in parts for pair in part[n]) for n in ns}


def uncapped_search(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """per_a_search with the valuation caps lifted: every product of primes
    of n up to the largest |Phi_n(a, q)| of each a is tried as a target, as
    if no cap in CYCLOTOMIC_FORMS had been proved."""
    return per_a_search(n, bound, capped=False)


def per_a_search(n: int, bound: int, capped: bool = True) -> tuple[tuple[int, int], ...]:
    """search_defective(n, bound).pairs, by a root search per a.

    For each a and each target t = +-T, T a product of primes of n up to
    the largest |Phi_n(a, q)| in the box (within the primes' caps in
    CYCLOTOMIC_FORMS unless capped is False), the roots q of
    Phi_n(a, q) = t in the box are solved for: by exact division for a
    linear form p + c1*q, by isqrt and a perfect-square test for a quadratic
    form p^2 + c1*p*q + c2*q^2.  The roots are checked with the pair rules
    (pair_failure) and the gcd strip.
    """
    coeffs, prime_caps = CYCLOTOMIC_FORMS[n]
    deg, c1, c2 = len(coeffs) - 1, coeffs[1], coeffs[-1]  # c2: a quadratic form's q^2 coefficient

    def phi_max(a: int) -> int:  # >= |Phi_n(a, q)| for every q of a in the box
        q_abs = (a + bound) // 4
        return sum(abs(c) * a ** (deg - i) * q_abs**i for i, c in enumerate(coeffs))

    t_max = phi_max(bound)
    products = [1]
    for p, cap in prime_caps:
        for m in list(products):
            e = 0
            while (cap is None or not capped or e < cap) and m * p <= t_max:
                m *= p
                e += 1
                products.append(m)
    products.sort()
    targets = [s * size for size in products for s in (1, -1)]
    hits = []
    for a in range(1, bound + 1):
        q_lo, q_hi = -((bound - a) // 4), (a + bound) // 4
        disc_a = (c1 * c1 - 4 * c2) * a * a
        roots = set()
        for t in targets[: 2 * bisect_right(products, phi_max(a))]:
            if deg == 1:
                nums = (t - a,)
            else:  # c2 q^2 + c1 a q + a^2 - t = 0
                disc = disc_a + 4 * c2 * t
                if disc < 0:
                    continue
                r = isqrt(disc)
                if r * r != disc:
                    continue
                nums = (r - c1 * a, -r - c1 * a)
            for num in nums:
                q, rem = divmod(num, c1 if deg == 1 else 2 * c2)
                if not rem and q_lo <= q <= q_hi:
                    roots.add(q)
        for q in sorted(roots, reverse=True):  # descending q = ascending b
            b = a - 4 * q
            if pair_failure(a, b) is None and residual_after_stripping(a, b, n) == 1:
                hits.append((a, b))
    return tuple(hits)


def counted_linear_table(n: int, bound: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """families.table_count(n, bound) of a linear n, counted by
    inclusion-exclusion.

    Only the rows' data is read (m, bases, exclusions).  For each row and
    power term t = prod(base^e) <= 2 bound, every e >= 1, the q with
    |t + m_a q| <= bound and |t + m_b q| <= bound form one interval; the q
    there that no base divides are counted by inclusion-exclusion over the
    sets of bases (the bases are distinct primes), less the excluded q of t
    there that no base divides.  The gaps are the canonical pairs of those
    excluded q whose pair passes the pair rules, ascending.
    """
    from lehmerdefect.families import _ROWS, family_rows

    size, gaps = 0, []
    for row in family_rows(n):
        d = _ROWS[row]
        terms = [((), 1)]
        for base in d.bases:
            terms = [
                ((*exps, e), t * base**e)
                for exps, t in terms
                for e in range(1, (2 * bound).bit_length())  # base^e >= 2^e
                if t * base**e <= 2 * bound
            ]
        c = prod(d.bases)
        for exps, t in terms:
            spans = []
            for m in d.m:  # -bound <= t + m q <= bound, as lo_m <= |m| q <= hi_m
                lo_m, hi_m = (-bound - t, bound - t) if m > 0 else (t - bound, t + bound)
                spans.append((-(-lo_m // abs(m)), hi_m // abs(m)))
            (lo_a, hi_a), (lo_b, hi_b) = spans
            lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
            if lo > hi:
                continue
            for k in range(len(d.bases) + 1):
                for sub in combinations(d.bases, k):
                    step = prod(sub)
                    size += (-1) ** k * (hi // step - (lo - 1) // step)
            for *e, q in d.excluded:
                if tuple(e) == exps and lo <= q <= hi and gcd(c, q) == 1:
                    size -= 1
                    a, b = t + d.m[0] * q, t + d.m[1] * q
                    if pair_failure(a, b) is None:
                        gaps.append((a, b) if a > 0 else (-a, -b))
    return size, tuple(sorted(gaps))
