import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootparity import numtheory
from rootparity.numtheory import (
    _lucas_lehmer,
    euler_phi,
    factorize,
    is_mersenne_prime,
    is_prime,
    mersenne_status,
    multiplicative_order,
    primitive_roots,
    smallest_mersenne_factor,
    verify_mersenne_factor,
)


def brute_order(a, m):
    x, k = a % m, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def brute_primitive_roots(p):
    return [g for g in range(1, p) if brute_order(g, p) == p - 1]


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(6619)

    def test_agrees_with_sieve_below_10000(self):
        sieve = [True] * 10000
        sieve[0] = sieve[1] = False
        for i in range(2, 100):
            if sieve[i]:
                for j in range(i * i, 10000, i):
                    sieve[j] = False
        for n in range(10000):
            assert is_prime(n) == sieve[n], n

    def test_large_composites(self):
        # Carmichael numbers and strong-pseudoprime bait
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not is_prime(n)
        assert is_prime(2 ** 61 - 1)

    def test_rejects_inputs_from_the_proven_bound(self):
        # psi_12 = 399165290221 * 798330580441 passes all 12 witnesses <= 37
        psi_12 = 318665857834031151167461
        assert 399165290221 * 798330580441 == psi_12
        assert is_prime(399165290221) and is_prime(798330580441)
        for n in (psi_12, psi_12 + 2, 2 ** 89 - 1):
            with pytest.raises(ValueError):
                is_prime(n)


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(12).divisor_count == 6
        assert factorize(2203).factors == ((2203, 1),)
        assert factorize(2203).divisor_count == 2
        assert factorize(178).factors == ((2, 1), (89, 1))
        assert factorize(178).divisor_count == 4

    @pytest.mark.parametrize("factors", [
        ((9973, 1),),  # largest trial prime
        ((99999989, 1),),  # largest prime below 10^8: no trial factor, no rho
        ((100000007, 1),),  # smallest prime above 10^8
        ((9973, 1), (10007, 1)),
        ((10007, 2),),  # smallest cofactor that trial division cannot split
        ((3, 1), (10007, 1), (10009, 1)),
    ])
    def test_cofactors_around_the_trial_bound(self, factors):
        n = 1
        for p, e in factors:
            n *= p ** e
        assert factorize(n).factors == factors

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(ValueError):
            factorize(0)

    def test_roundtrip_random_64bit(self):
        rng = random.Random(12345)
        for _ in range(10000):
            n = rng.getrandbits(64)
            if n < 2:
                continue
            info = factorize(n)
            prod = 1
            for p, e in info.factors:
                assert e >= 1
                assert is_prime(p)
                prod *= p ** e
            assert prod == n
            assert list(info.primes()) == sorted(info.primes())
            tau = 1
            for _, e in info.factors:
                tau *= e + 1
            assert tau == info.divisor_count

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, n):
        info = factorize(n)
        prod = 1
        for p, e in info.factors:
            prod *= p ** e
        assert prod == n


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(18) == 6

    def test_against_gcd_count(self):
        from math import gcd

        for n in range(1, 300):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_phi_bound_for_odd_primes(self):
        # p/2 > phi(p-1) for every odd prime p >= 5
        for p in range(5, 10000):
            if is_prime(p):
                assert 2 * euler_phi(p - 1) < p


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 3) == 2
        assert multiplicative_order(2, 31) == 5
        for m in (2, 7, 12, 100):
            assert multiplicative_order(1, m) == 1

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 12)

    def test_matches_brute_force(self):
        from math import gcd

        for m in range(2, 200):
            for a in range(1, m):
                if gcd(a, m) == 1:
                    assert multiplicative_order(a, m) == brute_order(a, m)


class TestPrimitiveRoots:
    def test_examples(self):
        assert primitive_roots(11) == (2, 6, 7, 8)
        assert primitive_roots(13) == (2, 6, 7, 11)
        assert primitive_roots(19) == (2, 3, 10, 13, 14, 15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            primitive_roots(10)
        with pytest.raises(ValueError):
            primitive_roots(2)

    def test_full_brute_force_below_500(self):
        for p in range(3, 500):
            if is_prime(p):
                assert list(primitive_roots(p)) == brute_primitive_roots(p)

    def test_count_is_phi_of_p_minus_1(self):
        for p in range(3, 10000):
            if is_prime(p):
                roots = primitive_roots(p)
                assert len(roots) == euler_phi(p - 1)
                assert list(roots) == sorted(set(roots))


class TestMersenne:
    def test_examples(self):
        assert is_mersenne_prime(7)
        assert not is_mersenne_prime(11)
        assert is_mersenne_prime(1279)

    def test_rejects_composite_exponent(self):
        with pytest.raises(ValueError):
            is_mersenne_prime(9)

    def test_agrees_with_direct_primality(self):
        for t in range(2, 62):
            if is_prime(t):
                assert is_mersenne_prime(t) == is_prime(2 ** t - 1)

    def test_table_agrees_with_lucas_lehmer(self):
        for t in range(2, 1300):  # 1279 is the largest exponent in range
            if is_prime(t):
                assert is_mersenne_prime(t) == _lucas_lehmer(t), t

    def test_lucas_lehmer_decides_above_the_table_bound(self, monkeypatch):
        tested = []
        monkeypatch.setattr(numtheory, "_MERSENNE_TABLE_BOUND", 100)
        monkeypatch.setattr(
            numtheory, "_lucas_lehmer", lambda t: tested.append(t) or _lucas_lehmer(t))
        assert [is_mersenne_prime(t) for t in (89, 107, 127, 131)] == [
            True, True, True, False]
        assert tested == [107, 127, 131]

    def test_sieved_hunt_matches_the_unsieved_loop(self):
        # The unsieved loop's first divisor within 10^4 candidates gives the
        # answer for every smaller budget: q = 2kT + 1 is found iff k <= k_max.
        for t in range(3, 3000):
            if not is_prime(t):
                continue
            q = next((q for q in range(2 * t + 1, 2 * t * 10 ** 4 + 2, 2 * t)
                      if q % 8 in (1, 7) and pow(2, t, q) == 1), None)
            for k_max in (1, 7, 100, 10 ** 4):
                want = q if q is not None and (q - 1) // (2 * t) <= k_max else None
                assert smallest_mersenne_factor(t, k_max) == want, (t, k_max)

    def test_mersenne_period_is_not_hunted(self):
        assert smallest_mersenne_factor(3, 1) == 7  # 2^3 - 1 itself
        assert mersenne_status(3, 10 ** 6) == (True, None)
        assert mersenne_status(11, 10 ** 6) == (False, 23)
        assert mersenne_status(199, 100) == (False, None)

    def test_no_budget_finds_nothing(self):
        assert smallest_mersenne_factor(11, 0) is None
        assert smallest_mersenne_factor(11, -5) is None

    def test_smallest_factor_examples(self):
        assert smallest_mersenne_factor(11, 100) == 23
        assert smallest_mersenne_factor(83, 100) == 167
        assert smallest_mersenne_factor(43, 100) == 431

    def test_smallest_factor_budget_miss(self):
        assert smallest_mersenne_factor(199, 100) is None

    def test_found_factor_properties(self):
        for t in (11, 23, 29, 37, 41, 43, 47, 53, 59):
            q = smallest_mersenne_factor(t, 10 ** 5)
            assert q is not None
            assert verify_mersenne_factor(t, q)
            assert q % (2 * t) == 1
            assert is_prime(q)

    def test_verify_examples(self):
        assert verify_mersenne_factor(199, 164504919713)
        assert verify_mersenne_factor(167, 2349023)
        assert not verify_mersenne_factor(11, 5)

    def test_verify_rejects_even_q(self):
        with pytest.raises(ValueError):
            verify_mersenne_factor(11, 4)
