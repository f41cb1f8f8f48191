import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from rootparity.numtheory import is_prime, primitive_roots
from rootparity.sequence import (
    _window_counts,
    balance,
    block_count,
    build_context,
    build_s_sequence,
    build_t_sequence,
    cz_bound_check,
    pattern_stats,
)

PRIMES_2000 = [p for p in range(11, 2001) if is_prime(p)]


class TestBuildContext:
    def test_p13(self):
        ctx = build_context(13)
        assert (ctx.phi, ctx.T, ctx.eta) == (4, 3, Fraction(4, 13))
        assert ctx.roots == (2, 6, 7, 11)

    def test_p11(self):
        ctx = build_context(11)
        assert (ctx.phi, ctx.T, ctx.eta) == (4, 3, Fraction(4, 11))
        assert ctx.roots == (2, 6, 7, 8)

    def test_p31(self):
        ctx = build_context(31)
        assert (ctx.phi, ctx.T) == (8, 7)
        assert ctx.eta == Fraction(8, 31)

    def test_rejects_small_or_composite(self):
        for bad in (9, 7, 12, 1):
            with pytest.raises(ValueError):
                build_context(bad)

    def test_cache_is_bounded_and_evicts_the_oldest(self):
        for cached in (build_context, primitive_roots):
            size = cached.cache_info().maxsize
            assert size is not None and size <= 8
        build_context.cache_clear()
        primes = PRIMES_2000[: build_context.cache_info().maxsize + 1]
        for p in primes:
            build_context(p)
        assert build_context.cache_info().currsize == len(primes) - 1
        misses = build_context.cache_info().misses
        build_context(primes[-1])
        assert build_context.cache_info().misses == misses
        build_context(primes[0])
        assert build_context.cache_info().misses == misses + 1

    def test_invariants_sweep(self):
        for p in PRIMES_2000[:100]:
            ctx = build_context(p)
            assert ctx.T == len(ctx.roots) - 1 >= 3
            assert ctx.T % 2 == 1
            assert 0 < ctx.eta < Fraction(1, 2)


class TestSequences:
    def test_s_examples(self):
        assert build_s_sequence(build_context(13)).bits == (0, 1, 0)
        assert build_s_sequence(build_context(11)).bits == (0, 1, 1)
        # p = 19: consecutive-root sums 5, 13, 23, 27, 29 are all odd
        assert build_s_sequence(build_context(19)).bits == (1, 1, 1, 1, 1)

    def test_t_examples(self):
        assert build_t_sequence(build_context(13)).bits == (0, 1, 0)
        assert build_t_sequence(build_context(11)).bits == (0, 1, 1)
        assert build_t_sequence(build_context(19)).bits == (1, 0, 0, 1, 1)

    def test_period_matches_context(self):
        for p in PRIMES_2000:
            ctx = build_context(p)
            assert build_s_sequence(ctx).period == ctx.T
            assert build_t_sequence(ctx).period == ctx.T

    def test_parity_telescope_to_10000(self):
        # mod-2 sum of the bits collapses to (first root + last root) mod 2
        for p in range(11, 10001):
            if not is_prime(p):
                continue
            ctx = build_context(p)
            seq = build_s_sequence(ctx)
            assert sum(seq.bits) % 2 == (ctx.roots[0] + ctx.roots[-1]) % 2


class TestBalance:
    def test_p13(self):
        ctx = build_context(13)
        rep = balance(build_s_sequence(ctx), ctx)
        assert (rep.n0, rep.n1) == (2, 1)
        assert rep.predicted_frac1 == Fraction(13, 22)

    def test_prediction_identity(self):
        for p in PRIMES_2000[:50]:
            ctx = build_context(p)
            rep = balance(build_s_sequence(ctx), ctx)
            assert rep.predicted_frac0 + rep.predicted_frac1 == 1
            assert rep.n0 + rep.n1 == ctx.T


class TestWindowCounts:
    def test_matches_naive_slice_counting(self):
        rng = random.Random(2021)
        for n in range(1, 41):
            for _ in range(3):
                bits = tuple(rng.getrandbits(1) for _ in range(n))
                for ell in range(1, n + 1):
                    naive = Counter(bits[i:i + ell] for i in range(n - ell + 1))
                    assert _window_counts(bits, ell) == naive
                    assert _window_counts(bytearray(bits), ell) == naive


class TestPatternStats:
    def test_ell1_degenerates_to_balance(self):
        ctx = build_context(13)
        rep = pattern_stats(build_s_sequence(ctx), ctx, 1)
        assert rep.weight_counts == {0: 2, 1: 1}

    def test_ell2_direct(self):
        ctx = build_context(13)
        rep = pattern_stats(build_s_sequence(ctx), ctx, 2)
        assert rep.counts == {"00": 0, "01": 1, "10": 1, "11": 0}

    def test_rejects_bad_ell(self):
        ctx = build_context(13)
        seq = build_s_sequence(ctx)
        with pytest.raises(ValueError):
            pattern_stats(seq, ctx, 4)
        with pytest.raises(ValueError):
            pattern_stats(seq, ctx, 0)

    def test_counts_sum_to_window_count(self):
        for p in (31, 67, 103, 211):
            ctx = build_context(p)
            seq = build_s_sequence(ctx)
            for ell in (1, 2, 3, 4):
                rep = pattern_stats(seq, ctx, ell)
                assert sum(rep.counts.values()) == ctx.T - ell + 1
                for w, c in rep.weight_counts.items():
                    assert c == sum(
                        v for k, v in rep.counts.items() if k.count("1") == w
                    )

    def test_window_extension_inequality(self):
        # count of a short window >= sum of its two extensions, minus the
        # single window lost at the right boundary
        for p in (103, 211, 499):
            ctx = build_context(p)
            seq = build_s_sequence(ctx)
            for ell in (2, 3, 4):
                short = pattern_stats(seq, ctx, ell - 1).counts
                long = pattern_stats(seq, ctx, ell).counts
                for pat, c in short.items():
                    assert c >= long[pat + "0"] + long[pat + "1"] >= c - 1


class TestBlockCount:
    def test_examples(self):
        assert block_count(13, [1]) == 4
        assert block_count(13, [-1]) == 8
        assert block_count(11, [1, 1]) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            block_count(13, [])
        with pytest.raises(ValueError):
            block_count(13, [1] * 13)
        with pytest.raises(ValueError):
            block_count(13, [1, 0])

    def test_total_over_all_vectors(self):
        for p in [q for q in range(11, 201) if is_prime(q)]:
            for s in (1, 2, 3, 4):
                total = sum(
                    block_count(p, list(eps))
                    for eps in product((1, -1), repeat=s)
                )
                assert total == p - s

    def test_brute_force_small(self):
        for p in (11, 13, 19, 23):
            roots = set(primitive_roots(p))
            c = {i: (1 if i in roots else -1) for i in range(1, p)}
            for s in (1, 2, 3):
                for eps in product((1, -1), repeat=s):
                    expect = sum(
                        1
                        for j in range(1, p - s + 1)
                        if all(c[j + i] == eps[i] for i in range(s))
                    )
                    assert block_count(p, list(eps)) == expect


class TestCzBound:
    def test_p13_single_one(self):
        chk = cz_bound_check(13, [1])
        assert chk.m == 4
        assert abs(chk.main_term - 4.0) < 1e-12
        assert chk.holds

    def test_p11_pair(self):
        chk = cz_bound_check(11, [1, 1])
        assert chk.m == 2
        assert chk.holds
