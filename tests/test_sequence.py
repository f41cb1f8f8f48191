import io
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice, pairwise, product

import pytest

from rootparity import cli, sequence
from rootparity.numtheory import is_prime, primitive_roots
from rootparity.sequence import (
    BitSequence,
    _block_windows,
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


def zip_windows(bits, ell):
    """The window histogram by zip over ell shifted iterators, without byte slots."""
    return Counter(zip(*(islice(bits, i, None) for i in range(ell))))


def by_code(windows):
    """A tuple-keyed window histogram keyed by each window's code, first bit highest."""
    return Counter({int("".join(map(str, t)), 2): n for t, n in windows.items()})


def random_bits(seed, n):
    """n random bits as 0/1 bytes and as "0"/"1" text."""
    rng = random.Random(seed)
    bits = bytes(rng.getrandbits(1) for _ in range(n))
    return bits, bits.translate(bytes.maketrans(b"\0\1", b"01")).decode()


class TestBuildContext:
    def test_p13(self):
        ctx = build_context(13)
        assert (ctx.phi, ctx.T, ctx.eta) == (4, 3, Fraction(4, 13))
        assert primitive_roots(13) == (2, 6, 7, 11)

    def test_p11(self):
        ctx = build_context(11)
        assert (ctx.phi, ctx.T, ctx.eta) == (4, 3, Fraction(4, 11))
        assert primitive_roots(11) == (2, 6, 7, 8)

    def test_p31(self):
        ctx = build_context(31)
        assert (ctx.phi, ctx.T) == (8, 7)
        assert ctx.eta == Fraction(8, 31)

    def test_rejects_small_or_composite(self):
        for bad in (9, 7, 12, 1, 86225233):  # the first prime above MAX_P
            with pytest.raises(ValueError):
                build_context(bad)

    def test_cache_is_bounded_and_evicts_the_oldest(self):
        for cached in (build_context, primitive_roots, _block_windows):
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
            assert ctx.T == len(primitive_roots(p)) - 1 >= 3
            assert ctx.T % 2 == 1
            assert 0 < ctx.eta < Fraction(1, 2)

    def test_context_holds_about_one_byte_per_residue(self):
        # A tuple of the roots, kept by primitive_roots' cache, would cost
        # about 36 B per root: 15 B per residue at this p.
        p = 50021
        primitive_roots.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctx = build_context.__wrapped__(p)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ctx.phi == 19200
        assert held < 2 * p


class TestSequences:
    def test_s_examples(self):
        assert build_s_sequence(build_context(13)).bits == "010"
        assert build_s_sequence(build_context(11)).bits == "011"
        # p = 19: consecutive-root sums 5, 13, 23, 27, 29 are all odd
        assert build_s_sequence(build_context(19)).bits == "11111"

    def test_t_examples(self):
        assert build_t_sequence(build_context(13)).bits == "010"
        assert build_t_sequence(build_context(11)).bits == "011"
        assert build_t_sequence(build_context(19)).bits == "10011"

    def test_builders_match_the_definitions(self):
        for p in [*PRIMES_2000, 50021]:
            ctx = build_context(p)
            roots = primitive_roots(p)
            assert type(ctx.is_root) is bytes
            assert ctx.phi == len(roots)
            s_bits = "".join("01"[(a + b) & 1] for a, b in pairwise(roots))
            t_bits = "".join("01"[b == a + 1] for a, b in pairwise(roots))
            assert build_s_sequence(ctx).bits == s_bits
            assert build_t_sequence(ctx).bits == t_bits

    def test_period_matches_context(self):
        for p in PRIMES_2000:
            ctx = build_context(p)
            assert build_s_sequence(ctx).period == ctx.T
            assert build_t_sequence(ctx).period == ctx.T

    def test_period_is_the_length_of_bits(self):
        assert BitSequence("0110").period == 4
        with pytest.raises(TypeError):
            BitSequence(bits="0110", period=3)
        with pytest.raises(TypeError):
            BitSequence("0110", 3)

    def test_parity_telescope_to_10000(self):
        # mod-2 sum of the bits collapses to (first root + last root) mod 2
        for p in range(11, 10001):
            if not is_prime(p):
                continue
            ctx = build_context(p)
            seq = build_s_sequence(ctx)
            roots = primitive_roots(p)
            assert seq.bits.count("1") % 2 == (roots[0] + roots[-1]) % 2


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
                bits = [rng.getrandbits(1) for _ in range(n)]
                for ell in range(1, min(n, sequence.MAX_ELL) + 1):
                    naive = Counter(tuple(bits[i:i + ell]) for i in range(n - ell + 1))
                    assert _window_counts(bytearray(bits), ell) == by_code(naive)

    @pytest.mark.parametrize("chunk", [sequence._WINDOW_CHUNK, 7], ids=["one-chunk", "chunk-7"])
    @pytest.mark.parametrize("ell", [1, 4, 5, 8, 9, 15, 16])
    def test_slot_widths_and_counters_match_zip(self, ell, chunk, monkeypatch):
        # 1-byte slots to ell = 8, 2-byte slots to MAX_ELL = 16; bytes.count
        # to ell = 4, then a Counter; chunk-7 cuts the windows into chunks
        monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
        bits, _ = random_bits(ell, 5000)
        assert _window_counts(bits, ell) == by_code(zip_windows(bits, ell))


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

    def test_ell_above_max_ell_raises_though_t_allows_it(self):
        ctx = build_context(6607)  # T = 2195
        seq = build_s_sequence(ctx)
        rep = pattern_stats(seq, ctx, 16)
        assert len(rep.counts) == 1 << 16 and sum(rep.counts.values()) == ctx.T - 15
        with pytest.raises(ValueError, match=r"ell must lie in \[1, 16\], got 17"):
            pattern_stats(seq, ctx, 17)

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

    @pytest.mark.parametrize("chunk", [sequence._WINDOW_CHUNK, 7], ids=["one-chunk", "chunk-7"])
    @pytest.mark.parametrize("ell", range(1, 13))
    def test_matches_string_slice_counting(self, ell, chunk, monkeypatch):
        # the text of test_slot_widths_and_counters_match_zip, then short texts
        monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
        ctx = build_context(13)
        rng = random.Random(2021)
        short = ["".join(str(rng.getrandbits(1)) for _ in range(n)) for n in range(ell, 41)]
        patterns = ["".join(pat) for pat in product("01", repeat=ell)]
        for text in [random_bits(ell, 5000)[1], *short]:
            rep = pattern_stats(BitSequence(bits=text), ctx, ell)
            naive = Counter(text[i:i + ell] for i in range(len(text) - ell + 1))
            assert list(rep.counts.items()) == [(pat, naive[pat]) for pat in patterns]
            assert rep.weight_counts == {
                w: sum(n for pat, n in naive.items() if pat.count("1") == w)
                for w in range(ell + 1)
            }


class TestBlockCount:
    def test_examples(self):
        assert block_count(13, [1]) == 4
        assert block_count(13, [-1]) == 8
        assert block_count(11, [1, 1]) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            block_count(13, [])
        with pytest.raises(ValueError, match="block length 13 must be < p = 13"):
            block_count(13, [1] * 13)  # s <= MAX_ELL, but not below p
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

    def test_every_sign_vector_to_s_15_at_p_50021(self):
        indicator = build_context(50021).is_root[1:]  # c(1..p-1) as 0/1 bytes
        for s in range(1, 16):
            windows = zip_windows(indicator, s)
            for eps in product((1, -1), repeat=s):
                want = windows[tuple(int(e == 1) for e in eps)]
                assert block_count(50021, list(eps)) == want, eps

    @pytest.mark.parametrize("s", [16, 17])
    def test_sign_vectors_past_s_16_at_p_50021(self, s):
        # s = 16 = MAX_ELL is the last 2-byte slot width; a longer block raises,
        # even where it occurs in the indicator
        indicator = build_context(50021).is_root[1:]  # c(1..p-1) as 0/1 bytes
        windows = zip_windows(indicator, s)
        rng = random.Random(s)
        drawn = [[rng.choice((1, -1)) for _ in range(s)] for _ in range(200)]
        seen = [  # vectors that occur, so that some counts are not 0
            [1 if b else -1 for b in indicator[j:j + s]]
            for j in rng.sample(range(len(indicator) - s + 1), 200)
        ]
        for eps in [[1] * s, [-1] * s, *drawn, *seen]:
            if s > sequence.MAX_ELL:
                for check in (block_count, cz_bound_check):
                    with pytest.raises(ValueError, match=r"\[1, 16\], got 17"):
                        check(50021, eps)
                continue
            want = windows[tuple(int(e == 1) for e in eps)]
            assert block_count(50021, eps) == want, eps

    def test_czcheck_walks_the_indicator_once_per_block_length(self, monkeypatch):
        calls = []

        def counted(bits, ell):
            calls.append(ell)
            return _window_counts(bits, ell)

        _block_windows.cache_clear()
        monkeypatch.setattr(sequence, "_window_counts", counted)
        assert cli.run(["czcheck", "--p", "103", "--s-max", "3"], out=io.StringIO()) == 0
        assert calls == [1, 2, 3]


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

    def test_the_bound_at_the_cap_is_a_finite_float(self, monkeypatch):
        # 768 is the largest divisor count below MAX_P; s = MAX_ELL, z = 0 is the largest bound
        monkeypatch.setattr(sequence, "_divisor_count", lambda n: 768)
        chk = cz_bound_check(50021, [-1] * sequence.MAX_ELL)
        assert math.isfinite(chk.bound)
        assert chk.holds == (abs(chk.m - chk.main_term) <= chk.bound)

    @pytest.mark.parametrize("s_max", ["1", "6"])
    def test_czcheck_factors_p_minus_1_once_whatever_s_max(self, s_max, monkeypatch):
        calls = []
        factorize = sequence.factorize
        monkeypatch.setattr(sequence, "factorize", lambda n: calls.append(n) or factorize(n))
        sequence._divisor_count.cache_clear()
        assert cli.run(["czcheck", "--p", "103", "--s-max", s_max], out=io.StringIO()) == 0
        assert calls == [102]
