from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from math import gcd
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
    """search_defective(n, bound).pairs with the valuation caps lifted.

    Every product of primes of n up to the largest |Phi_n| of each chunk is
    tried as a target, as if no cap in CYCLOTOMIC_FORMS had been proved.
    """
    form = CYCLOTOMIC_FORMS[n]
    coeffs, prime_caps = form
    CYCLOTOMIC_FORMS[n] = (coeffs, tuple((p, None) for p, _ in prime_caps))
    try:
        return search_defective(n, bound).pairs
    finally:
        CYCLOTOMIC_FORMS[n] = form


def per_a_search(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """search_defective(n, bound).pairs for a linear n, by a root search per a.

    Phi_n(p, q) = p + c1*q (CYCLOTOMIC_FORMS).  For each a and each target
    t = +-T, T a product of primes of n up to the largest |Phi_n| in the
    box, the root q = (t - a) / c1 is kept when it divides exactly and lies
    in the box; the roots are checked with the pair rules (pair_failure) and
    the gcd strip.
    """
    (c0, c1), prime_caps = CYCLOTOMIC_FORMS[n]
    t_max = c0 * bound + abs(c1) * (2 * bound // 4)
    products = [1]
    for p, _ in prime_caps:
        for m in list(products):
            while m * p <= t_max:
                m *= p
                products.append(m)
    targets = [s * t for t in products for s in (1, -1)]
    hits = []
    for a in range(1, bound + 1):
        q_lo, q_hi = -((bound - a) // 4), (a + bound) // 4
        roots = set()
        for t in targets:
            q, rem = divmod(t - c0 * a, c1)
            if not rem and q_lo <= q <= q_hi:
                roots.add(q)
        for q in sorted(roots, reverse=True):  # descending q = ascending b
            b = a - 4 * q
            if pair_failure(a, b) is None and residual_after_stripping(a, b, n) == 1:
                hits.append((a, b))
    return tuple(hits)
