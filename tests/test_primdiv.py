import math
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_pairs
from lehmerdefect import primdiv
from lehmerdefect.pairs import lehmer_prefix, require_pair, validate_ab, LehmerPair
from lehmerdefect.primdiv import (
    CYCLOTOMIC_FORMS,
    FactorBudgetError,
    UnsupportedIndexError,
    _strong_lucas,
    defect_witness,
    factorize,
    is_prime,
    residual_after_stripping,
)


def _phi(coeffs: tuple[int, ...], p: int, q: int) -> int:
    deg = len(coeffs) - 1
    return sum(c * p ** (deg - i) * q**i for i, c in enumerate(coeffs))


class TestCyclotomicForms:
    def test_forms_multiply_to_u_n(self):
        # Over the divisors d > 1 of odd n and d >= 3 of even n, the product
        # of Phi_d(p, q) is u_n; primes of n as listed.
        checked = 0
        for a in range(-60, 61):
            for b in range(-60, 61):
                pair = validate_ab(a, b)
                if not isinstance(pair, LehmerPair):
                    continue
                u = lehmer_prefix(pair, 12)
                for n, (_, prime_caps) in CYCLOTOMIC_FORMS.items():
                    assert tuple(p for p, _ in prime_caps) == tuple(sympy.primefactors(n))
                    product = 1
                    for d in range(3 if n % 2 == 0 else 2, n + 1):
                        if n % d == 0:
                            product *= _phi(CYCLOTOMIC_FORMS[d][0], pair.p, pair.q)
                    assert product == u[n], (a, b, n)
                    checked += 1
        assert checked > 7 * 1000

    def test_valuation_caps(self):
        # Phi_n(p, q) mod prime^e depends only on (p, q) mod prime^e, and
        # gcd(p, q) = 1 leaves out exactly the residues with the prime
        # dividing both.  So a capped prime must reach prime^(cap + 1) on no
        # such residue pair; an uncapped one reaches prime^4 on some.
        capped = set()
        for n, (coeffs, prime_caps) in CYCLOTOMIC_FORMS.items():
            for p, cap in prime_caps:
                m = p ** (4 if cap is None else cap + 1)
                reached = any(
                    _phi(coeffs, x, y) % m == 0
                    for x in range(m)
                    for y in range(m)
                    if x % p or y % p
                )
                assert reached == (cap is None), (n, p, cap)
                if cap is not None:
                    capped.add(n)
        assert capped == {5, 8, 10, 12}

    def test_linear_form_shape(self):
        # The linear rows are the progressions a = t + m*q, b = t - (4 - m)*q
        # with m = -c1 (families.certificate, step 1), which needs
        # c0 = 1 and 0 < m < 4.
        linear = {n: coeffs for n, (coeffs, _) in CYCLOTOMIC_FORMS.items() if len(coeffs) == 2}
        assert set(linear) == {3, 4, 6}
        for n, (c0, c1) in linear.items():
            assert c0 == 1 and -4 < c1 < 0, n


class TestWitness:
    def test_minus1_minus5_defective_at_5(self):
        w = defect_witness(require_pair(-1, -5), 5)
        assert w.defective and w.residual == 1
        assert w.u_n == 5
        assert w.nonprim_product == 5 * 1 * 1 * 2 * 3

    def test_5_1_not_defective_at_5(self):
        w = defect_witness(require_pair(5, 1), 5)
        assert not w.defective
        assert (w.u_n, w.nonprim_product, w.residual) == (11, 60, 11)
        assert w.primitive_primes == (11,)

    def test_fibonacci_pair_defective_at_12(self):
        # u_12 = 144 = 2^4 * 3^2; 2 | u_3 = 2 and 3 | u_4 = 3
        assert defect_witness(require_pair(1, 5), 12).defective

    def test_unit_element_trivially_defective(self):
        # (3, -5) has u_3 = p - q = 1: no prime divisors at all
        w = defect_witness(require_pair(3, -5), 3)
        assert w.defective and abs(w.u_n) == 1

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_low_indices_unsupported(self, n):
        with pytest.raises(UnsupportedIndexError):
            defect_witness(require_pair(1, 5), n)
        with pytest.raises(UnsupportedIndexError):
            residual_after_stripping(1, 5, n)

    @pytest.mark.parametrize(
        "a,b,n,primes",
        [
            (5, 1, 5, (11,)),
            (-1, -5, 5, ()),
            (1, 5, 12, ()),
        ],
    )
    def test_primitive_divisors(self, a, b, n, primes):
        assert defect_witness(require_pair(a, b), n).primitive_primes == primes

    @given(pair=valid_pairs(limit=500), n=st.sampled_from((3, 4, 5, 6, 8, 10, 12)))
    @settings(max_examples=80)
    def test_witness_invariants(self, pair, n):
        w = defect_witness(pair, n)
        assert w.u_n == lehmer_prefix(pair, n)[n]
        prefix = lehmer_prefix(pair, n - 1)
        expected_product = abs(pair.a * pair.b)
        for u in prefix[1:]:
            expected_product *= abs(u)
        assert w.nonprim_product == expected_product
        assert w.residual >= 1
        assert abs(w.u_n) % w.residual == 0
        assert gcd(w.residual, w.nonprim_product) == 1
        assert w.defective is (w.residual == 1)
        assert residual_after_stripping(pair.a, pair.b, n) == w.residual


class TestOracleAgreement:
    def test_stripping_matches_factorization_small_grid(self):
        # Exhaustive |a|, |b| <= 60; the full 200 sweep runs in acceptance.
        seen_non_defective = set()
        for a in range(-60, 61):
            if a == 0:
                continue
            for q in range(-30, 31):
                b = a - 4 * q
                if abs(b) > 60:
                    continue
                pair = validate_ab(a, b)
                if not isinstance(pair, LehmerPair):
                    continue
                for n in (3, 4, 5, 6, 8, 10, 12):
                    w = defect_witness(pair, n)
                    by_factoring = all(
                        w.nonprim_product % p == 0 for p in factorize(abs(w.u_n))
                    )
                    assert w.defective == by_factoring, (a, b, n)
                    if not w.defective:
                        seen_non_defective.add(n)
        assert seen_non_defective == {3, 4, 5, 6, 8, 10, 12}


class TestFactorize:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (144, {2: 4, 3: 2}),
            (1, {}),
            (10403, {101: 1, 103: 1}),  # 101 * 103
            (2**31 - 1, {2**31 - 1: 1}),
            (600851475143, {71: 1, 839: 1, 1471: 1, 6857: 1}),
        ],
    )
    def test_known_factorizations(self, m, expected):
        assert factorize(m) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(m=st.integers(1, 10**14))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, m):
        assert factorize(m) == sympy.factorint(m)

    @given(p=st.integers(2, 10**7), r=st.integers(2, 10**7))
    @settings(max_examples=30, deadline=None)
    def test_semiprimes(self, p, r):
        p, r = sympy.nextprime(p), sympy.nextprime(r)
        expected = {p: 2} if p == r else {min(p, r): 1, max(p, r): 1}
        assert factorize(p * r) == expected

    @given(m=st.integers(1, 10**12))
    @settings(max_examples=40, deadline=None)
    def test_product_reconstructs(self, m):
        out = factorize(m)
        prod = 1
        for p, e in out.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == m
        assert list(out) == sorted(out)


def _trial_division(m: int) -> dict[int, int]:
    """The oracle: m's factorization by trial division by every d >= 2."""
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class TestTrialDivisionShortcut:
    """Trial division stops at the first prime p with p * p > m, and what is
    left of m is then 1 or a prime, recorded with no primality test."""

    # 4093 is the last trial prime (_TRIAL_LIMIT = 4096); 4099, 4111, 4127
    # and 4129 are the first primes past it.
    EDGES = (
        4093, 4099, 4111, 4127, 4129,
        4093**2, 4099**2, 4093 * 4099, 4099**3, 4091 * 4093 * 4099,
        4093**2 - 2, 4093**2 + 2, 2 * 4099**2, 4111 * 4127,
    )

    def test_matches_trial_division(self):
        assert primdiv._small_primes()[-1] == 4093 <= primdiv._TRIAL_LIMIT < 4099
        for m in [*range(1, 20000), *self.EDGES]:
            assert list(factorize(m).items()) == list(_trial_division(m).items()), m

    def test_no_primality_test_below_the_last_trial_prime_squared(self, monkeypatch):
        calls = []

        def tested(n):
            if n < 4093**2:
                raise AssertionError(f"is_prime({n}) after trial division proved it")
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(primdiv, "is_prime", tested)
        for m in [*range(1, 20000), *(m for m in self.EDGES if m < 4093**2)]:
            assert factorize(m) == _trial_division(m), m
        assert calls == []
        # A cofactor left after every trial prime still takes the test.
        prime = sympy.nextprime(4093**2)
        assert factorize(prime) == {prime: 1} and calls == [prime]


class TestFactorBudget:
    def test_unsplit_cofactor_is_reported_composite(self, monkeypatch):
        p, r = 1000003, 1000033  # both past trial division, so rho must split them
        assert factorize(8 * p * r) == {2: 3, p: 1, r: 1}
        monkeypatch.setattr(primdiv, "RHO_BUDGET", 16)
        for _ in range(2):  # the budget is a count: the same stop every time
            with pytest.raises(FactorBudgetError) as caught:
                factorize(8 * p * r)
            assert (caught.value.primes, caught.value.cofactor) == ({2: 3}, p * r)
            assert not is_prime(caught.value.cofactor)
        assert factorize(8 * 4099) == {2: 3, 4099: 1}  # no rho needed: within any budget

    def test_large_residual_stops_within_the_budget(self):
        # The residual of (1001, -999) at n = 97 has 130 digits; within the
        # budget rho finds these three primes and leaves a 109-digit composite.
        w = defect_witness(require_pair(1001, -999), 97)
        with pytest.raises(FactorBudgetError) as caught:
            w.primitive_primes
        primes, cofactor = caught.value.primes, caught.value.cofactor
        assert list(primes) == [50053, 80572663, 352174019]
        assert not is_prime(cofactor) and len(str(cofactor)) == 109
        assert w.residual == cofactor * math.prod(p**e for p, e in primes.items())


class TestIsPrime:
    def test_small_values(self):
        primes_to_100 = {p for p in range(101) if sympy.isprime(p)}
        assert {p for p in range(101) if is_prime(p)} == primes_to_100
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    @pytest.mark.parametrize("n", [561, 1105, 41041, 825265, 321197185])
    def test_carmichael_numbers_rejected(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2**61 - 1, True),
            (2**62 - 1, False),
            (10**18 + 9, True),
            (3317044064679887385961981, False),  # the proven-bound value itself
        ],
    )
    def test_large_values(self, n, expected):
        assert is_prime(n) is expected

    @given(n=st.integers(2, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @given(n=st.integers(5, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_strong_lucas_never_rejects_a_prime(self, n):
        # The Lucas stage only runs above the Miller-Rabin proven bound;
        # exercise it directly.  Primes must always pass (composites may
        # rarely pass too; Miller-Rabin screens those in is_prime).
        n = sympy.nextprime(n | 1)
        assert _strong_lucas(n)

    def test_strong_lucas_rejects_mr_base2_pseudoprimes(self):
        # Strong base-2 Fermat pseudoprimes that a Lucas stage must catch.
        for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341):
            assert not sympy.isprime(n)
            assert not _strong_lucas(n)
