import os
import random
import subprocess
import sys
import tracemalloc
from itertools import compress, islice
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootparity import numtheory
from rootparity.numtheory import (
    euler_phi,
    factorize,
    is_mersenne_prime,
    is_prime,
    multiplicative_order,
    period_facts,
    primitive_roots,
    root_indicator,
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


def gcd_sort_primitive_roots(p):
    """g^k for every k coprime to p - 1, by one gcd per k, then sorted."""
    exps = [(p - 1) // q for q in factorize(p - 1).primes()]
    g = next(g for g in range(2, p) if all(pow(g, e, p) != 1 for e in exps))
    roots, acc = [], 1
    for k in range(1, p - 1):
        acc = acc * g % p
        if gcd(k, p - 1) == 1:
            roots.append(acc)
    return tuple(sorted(roots))


def every_exponent_root_indicator(p):
    """The walk over all p - 1 powers g^k, each marked by whether k is coprime
    to p - 1 (cleared by slices, one per prime factor of p - 1)."""
    pm1_primes = factorize(p - 1).primes()
    g = numtheory._find_generator(p, pm1_primes)
    coprime = bytearray(b"\1") * (p - 1)
    for q in pm1_primes:
        coprime[::q] = bytes((p - 1) // q)
    is_root = bytearray(p)
    acc = 1
    for k_coprime in coprime:
        is_root[acc] = k_coprime
        acc = acc * g % p
    return bytes(is_root)


def _lucas_lehmer(t):
    """Lucas-Lehmer test of 2^t - 1 for prime t: the exponent table's oracle."""
    if t == 2:
        return True
    n = (1 << t) - 1
    s = 4
    for _ in range(t - 2):
        s = (s * s - 2) % n
    return s == 0


def plain_hunt(t, k_max):
    """The first q = 2kt + 1, k <= k_max, q = +-1 (mod 8), that divides 2^t - 1."""
    return next((q for q in range(2 * t + 1, 2 * t * k_max + 2, 2 * t)
                 if q % 8 in (1, 7) and pow(2, t, q) == 1), None)


def reference_hunt(t, k_max):
    """The hunt before the wheel index: each block of k = 1..k_max is sieved
    by k mod 4 and by the odd primes below 1000, the survivors are read from
    range(lo, lo + n), and groups of them are tested by one pow and a gcd."""
    step = 2 * t
    drops = [(4, c, c) for c in range(4) if (c * step + 1) % 8 not in (1, 7)]
    for r in numtheory._SIEVE_PRIMES:
        if step % r:
            k0 = -pow(step, -1, r) % r
            drops.append((r, k0, k0 + r if k0 * step + 1 == r else k0))
    for lo in range(1, k_max + 1, 65536):
        n = min(65536, k_max + 1 - lo)
        alive = bytearray(b"\1") * n
        for m, k0, first in drops:
            i = max(first - lo, (k0 - lo) % m)
            alive[i::m] = bytes(len(range(i, n, m)))
        ks = compress(range(lo, lo + n), alive)
        while group := [k * step + 1 for k in islice(ks, 64)]:
            Q = prod(group)
            x = pow(2, t, Q)
            if gcd(x - 1, Q) > 1:
                for q in group:
                    if x % q == 1:
                        return q
    return None


HUNT_BUDGETS = (0, 1, 2, 3, 4, 5, 7, 100, 10 ** 4, 65535, 65536, 65537)


@pytest.fixture
def small_hunt(monkeypatch):
    """Blocks of 128 candidates and groups of 3 survivors, with a cold cache."""
    monkeypatch.setattr(numtheory, "_HUNT_BLOCK", 128)
    monkeypatch.setattr(numtheory, "_HUNT_GROUP", 3)
    numtheory._hunt.cache_clear()
    yield
    numtheory._hunt.cache_clear()


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

    def test_matches_the_gcd_and_sort_oracle(self):
        # 2311 - 1 = 2*3*5*7*11; 300017 and 999983 are large
        primes = [p for p in range(3, 3000) if is_prime(p)] + [2311, 300017, 999983]
        for p in primes:
            assert primitive_roots(p) == gcd_sort_primitive_roots(p)

    def test_count_is_phi_of_p_minus_1(self):
        for p in range(3, 10000):
            if is_prime(p):
                roots = primitive_roots(p)
                assert len(roots) == euler_phi(p - 1)
                assert list(roots) == sorted(set(roots))


class TestRootIndicator:
    def test_matches_the_every_exponent_walk_below_20000(self):
        for p in range(3, 20000, 2):
            if is_prime(p):
                assert root_indicator(p) == every_exponent_root_indicator(p), p

    # the four complexity-ladder primes, and 999983 (p - 1 = 2 * 79 * 6329)
    @pytest.mark.parametrize("p", [6607, 50021, 100019, 300017, 999983])
    def test_matches_the_every_exponent_walk_at_large_p(self, p):
        assert root_indicator(p) == every_exponent_root_indicator(p)

    def test_peak_memory_is_under_2_1_bytes_per_residue(self):
        p = 100019
        tracemalloc.start()
        try:
            root_indicator(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * p


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

    def test_above_the_table_bound_only_a_found_factor_decides(self, monkeypatch):
        monkeypatch.setattr(numtheory, "_MERSENNE_TABLE_BOUND", 100)
        assert [is_mersenne_prime(t) for t in (89, 107, 127, 131)] == [
            True, None, None, None]
        assert period_facts(131, 10 ** 4) == (130, False, 263)
        assert period_facts(107, 10 ** 4) == (106, None, None)  # 2^107 - 1 is prime

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

    @pytest.mark.parametrize("block, group, t_below, budgets", [
        (numtheory._HUNT_BLOCK, numtheory._HUNT_GROUP, 2000, HUNT_BUDGETS),
        (128, 3, 1000, (*HUNT_BUDGETS[:8], 127, 128, 129, 255, 256, 1000)),  # small_hunt's
        (1002, 3, 1000, (*HUNT_BUDGETS[:9], 999, 1000, 1001, 1002)),  # 1000 k per block
        (6, 3, 300, HUNT_BUDGETS[:8]),  # 4 k per block: two indices
    ])
    def test_wheel_hunt_matches_the_reference_hunt(self, small_hunt, monkeypatch,
                                                   block, group, t_below, budgets):
        # The reference runs once at the largest budget: its first divisor
        # q = 2kT + 1 is the answer for every budget from k on, and None below.
        monkeypatch.setattr(numtheory, "_HUNT_BLOCK", block)
        monkeypatch.setattr(numtheory, "_HUNT_GROUP", group)
        for t in range(2, t_below):
            if not is_prime(t):
                continue
            q = reference_hunt(t, max(budgets))
            for k_max in budgets:
                want = q if q is not None and (q - 1) // (2 * t) <= k_max else None
                assert smallest_mersenne_factor(t, k_max) == want, (t, k_max)

    def test_offset_table_follows_the_block_size(self, small_hunt, monkeypatch):
        lengths = []
        wheel = numtheory._wheel
        monkeypatch.setattr(numtheory, "_wheel",
                            lambda n: lengths.append(len(wheel(n)[0])) or wheel(n))
        t = 2309  # the smallest factor is 2kT + 1 at k = 13347
        q = reference_hunt(t, 10 ** 5)
        assert (q - 1) // (2 * t) == 13347
        for block, want in ((65536, 32768), (128, 64), (65536, 32768)):
            monkeypatch.setattr(numtheory, "_HUNT_BLOCK", block)
            numtheory._hunt.cache_clear()
            assert smallest_mersenne_factor(t, 10 ** 5) == q, block
            assert lengths[-1] == want, block  # never a table left from the last size
        assert numtheory._wheel(64)[0] == tuple(4 * m + e for m in range(32) for e in (0, 1))

    @pytest.mark.parametrize("n", [2, 6, 128, 1002, 32768, 1001])
    def test_offset_table_by_slices_is_the_index_formula(self, n):
        offsets, zeros = numtheory._wheel.__wrapped__(n)
        assert offsets == tuple(2 * i - (i & 1) for i in range(n))
        assert zeros == bytearray(n)

    def test_importing_the_cli_builds_no_offset_table(self):
        code = ("import rootparity.cli, rootparity.numtheory as n; "
                "print(n._wheel.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": str(Path(numtheory.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr

    def test_small_groups_and_blocks_match_the_plain_loop(self, small_hunt, monkeypatch):
        # Every hit above 1000 (a smaller one is tried before any group) must land
        # first, in the middle, last and alone in a group of 3, and in a group cut
        # short by the end of a block or budget.
        groups = []
        monkeypatch.setattr(numtheory, "prod", lambda g: groups.append(g) or prod(g))
        seen = set()
        for t in range(3, 3000):
            if not is_prime(t):
                continue
            q = plain_hunt(t, 10 ** 4)
            for k_max in (1, 7, 100, 10 ** 4):
                want = q if q is not None and (q - 1) // (2 * t) <= k_max else None
                assert smallest_mersenne_factor(t, k_max) == want, (t, k_max)
                if want is not None and want > numtheory._SIEVE_LIMIT:  # found in a group
                    seen.add((groups[-1].index(want), len(groups[-1])))
        assert {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)} <= seen

    def test_group_walk_goes_on_past_a_false_hit(self, small_hunt, monkeypatch):
        # With a gcd that reports a hit in every group, only the walk decides.
        monkeypatch.setattr(numtheory, "gcd", lambda a, b: b)
        for t in range(3, 3000):
            if is_prime(t):
                assert smallest_mersenne_factor(t, 100) == plain_hunt(t, 100), t

    def test_mersenne_period_is_not_hunted(self):
        assert smallest_mersenne_factor(3, 1) == 7  # 2^3 - 1 itself
        assert period_facts(3, 10 ** 6) == (2, True, None)
        assert period_facts(11, 10 ** 6) == (10, False, 23)
        assert period_facts(199, 100) == (99, False, None)

    def test_composite_period_is_not_hunted(self, monkeypatch):
        def hunt(T, k_max):
            raise AssertionError(f"hunted composite T = {T}")

        monkeypatch.setattr(numtheory, "smallest_mersenne_factor", hunt)
        monkeypatch.setattr(numtheory, "_hunt", hunt)
        assert period_facts(15, 10 ** 6) == (None, False, None)
        assert period_facts(2195, 10 ** 6) == (None, False, None)

    def test_public_functions_reject_a_composite_exponent(self):
        for call in (is_mersenne_prime, lambda t: smallest_mersenne_factor(t, 10)):
            with pytest.raises(ValueError, match="must be prime, got 15"):
                call(15)

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
