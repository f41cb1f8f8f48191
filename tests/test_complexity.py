import io
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootparity import cli, complexity
from rootparity.complexity import (
    InconsistencyError,
    c_lower_bound,
    epsilon_of,
    full_report,
    lc_lower_bound,
    linear_complexity_bm,
    linear_complexity_gcd,
    s_one,
    two_adic_complexity,
)
from rootparity.numtheory import factorize, is_prime, multiplicative_order
from rootparity.sequence import BitSequence, build_context, build_s_sequence


def bitseq(bits):
    """The 0/1 ints bits as a BitSequence, whose bits are "0"/"1" text."""
    return BitSequence(bits="".join(map(str, bits)))


def bit_serial_bm(bits):
    """Bit-serial Berlekamp-Massey over 2T terms of the repeated sequence."""
    C = B = 1  # connection polynomials, bit i = coefficient of X^i
    L = 0
    m = -1
    rev = 0  # bit i = s_{n-i}, so the discrepancy is popcount(C & rev) mod 2
    for n, bit in enumerate(tuple(bits) * 2):
        rev = (rev << 1) | bit
        if (C & rev).bit_count() & 1:
            if 2 * L <= n:
                C, B = C ^ (B << (n - m)), C
                L = n + 1 - L
                m = n
            else:
                C ^= B << (n - m)
    return L


def reference_bm(seq):
    """Euclid-form Berlekamp-Massey on the full 2T-term remainders, none of their
    bits dropped, over the window s_h ... s_(h+2T-1), h = T // 2: (L, quotient degrees)."""
    T, N, h = seq.period, 2 * seq.period, seq.period // 2
    r = int(seq.bits[h:] + seq.bits[:h], 2)
    a, b = 1 << N, (r << T) | r
    chain = []
    while b and a.bit_length() + b.bit_length() - 2 >= N:
        chain.append(a.bit_length() - b.bit_length())
        a, b = b, complexity._gf2_mod(a, b)
    return N + 1 - a.bit_length(), chain


def bm_chain(seq, monkeypatch):
    """linear_complexity_bm(seq) and the degrees of its quotients, read by a spy on _gf2_mod."""
    chain = []
    mod = complexity._gf2_mod

    def spy(a, b):
        chain.append(a.bit_length() - b.bit_length())
        return mod(a, b)

    with monkeypatch.context() as m:
        m.setattr(complexity, "_gf2_mod", spy)
        return linear_complexity_bm(seq), chain


def reference_mod(a, b):
    """The plain remainder loop: one shift per quotient term, b << 0 included."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def test_gf2_mod_matches_the_plain_loop():
    rng = random.Random(15)
    kinds = ["a < b", "equal degrees", "quotient of degree 1", "b = 1", "any"]
    for i in range(3000):
        kind = kinds[i % len(kinds)]
        db = 1 if kind == "b = 1" else rng.randrange(1, 1500)
        b = rng.getrandbits(db - 1) | (1 << (db - 1))  # degree db - 1
        da = {"a < b": rng.randrange(0, db), "equal degrees": db,
              "quotient of degree 1": db + 1}.get(kind, rng.randrange(0, 3000))
        a = rng.getrandbits(da) | (1 << da >> 1)  # degree da - 1, or a = 0
        want = reference_mod(a, b)
        assert want.bit_length() < db
        assert complexity._gf2_mod(a, b) == want, (kind, a, b)


class TestLinearComplexityGcd:
    def test_examples(self):
        assert linear_complexity_gcd(bitseq([0, 1, 0])) == 3
        assert linear_complexity_gcd(bitseq([0, 0, 0, 0, 0])) == 0
        assert linear_complexity_gcd(bitseq([1, 0, 0, 0, 0])) == 5

    def test_constants(self):
        for t in (1, 3, 7, 19):
            assert linear_complexity_gcd(bitseq([0] * t)) == 0
            assert linear_complexity_gcd(bitseq([1] * t)) == 1


class TestLinearComplexityBm:
    def test_examples(self):
        assert linear_complexity_bm(bitseq([0, 1, 0])) == 3
        assert linear_complexity_bm(bitseq([1, 1, 1])) == 1
        assert linear_complexity_bm(bitseq([0] * 5)) == 0

    def test_matches_gcd_on_random_sequences(self):
        rng = random.Random(2024)
        for _ in range(500):
            t = rng.randrange(1, 51) * 2 + 1  # odd period <= 101
            bits = [rng.randint(0, 1) for _ in range(t)]
            seq = bitseq(bits)
            assert linear_complexity_bm(seq) == linear_complexity_gcd(seq)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_gcd_property(self, bits):
        seq = bitseq(bits)
        assert linear_complexity_bm(seq) == linear_complexity_gcd(seq)


class TestEuclidBmAgainstBitSerialBm:
    def test_every_sequence_of_period_up_to_12(self):
        for t in range(1, 13):
            for bits in product((0, 1), repeat=t):
                assert linear_complexity_bm(bitseq(bits)) == bit_serial_bm(bits), bits

    def test_random_periods_up_to_400(self):
        rng = random.Random(8)
        for _ in range(300):
            bits = [rng.randint(0, 1) for _ in range(rng.randrange(1, 401))]
            assert linear_complexity_bm(bitseq(bits)) == bit_serial_bm(bits), bits

    def test_parity_sequences_of_every_prime_below_3000(self):
        for p in range(11, 3000):
            if is_prime(p):
                seq = build_s_sequence(build_context(p))
                assert linear_complexity_bm(seq) == bit_serial_bm(map(int, seq.bits)), p

    def test_parity_sequence_at_t_19199(self):
        seq = build_s_sequence(build_context(50021))
        assert linear_complexity_bm(seq) == bit_serial_bm(map(int, seq.bits))


RANDOM_KINDS = ["random bits", "repeated block", "all zeros", "all ones"]


class TestBmQuotientChainAgainstFullRemainders:
    @pytest.mark.parametrize("residue", [1, 3], ids=["p=1 mod 4", "p=3 mod 4"])
    def test_parity_sequences_of_every_prime_below_3000(self, residue, monkeypatch):
        for p in range(11, 3000):
            if p % 4 == residue and is_prime(p):
                seq = build_s_sequence(build_context(p))
                assert bm_chain(seq, monkeypatch) == reference_bm(seq), p

    @pytest.mark.parametrize("p", [6607, 50021, 100019])
    def test_parity_sequences_of_the_ladder(self, p, monkeypatch):
        seq = build_s_sequence(build_context(p))
        assert bm_chain(seq, monkeypatch) == reference_bm(seq)

    @pytest.mark.parametrize("kind", RANDOM_KINDS)
    def test_random_periodic_sequences(self, kind, monkeypatch):
        rng = random.Random(17)
        for i in range(2400):  # the same 2400 draws for every kind
            this_kind, t = RANDOM_KINDS[i % 4], rng.randrange(1, 600)
            if this_kind == "random bits":
                bits = "".join(rng.choice("01") for _ in range(t))
            elif this_kind == "repeated block":  # L <= the block length
                block = "".join(rng.choice("01") for _ in range(rng.randrange(1, 12)))
                bits = block * rng.randrange(1, 50)
            else:
                bits = ("0" if this_kind == "all zeros" else "1") * t
            if this_kind == kind:
                seq = BitSequence(bits=bits)
                assert bm_chain(seq, monkeypatch) == reference_bm(seq), bits


class TestBmAndGcdRunDifferentEuclids:
    """The BM <=> gcd check catches a _gf2_mod fault only if the two run on different inputs."""

    def test_the_sequence_is_a_palindrome_for_p_1_mod_4(self):
        for p in range(13, 3000, 4):
            if is_prime(p):
                bits = build_s_sequence(build_context(p)).bits
                assert bits == bits[::-1], p

    def test_bm_euclid_input_differs_from_the_gcds_except_at_p_11_and_19(self, monkeypatch):
        calls = []
        lc = complexity._lc
        monkeypatch.setattr(complexity, "_lc", lambda T, poly: calls.append((T, poly)) or lc(T, poly))
        for p in range(11, 3000):
            if is_prime(p):
                seq = build_s_sequence(build_context(p))
                calls.clear()
                linear_complexity_bm(seq)
                [(T, poly)] = calls
                assert T == seq.period, p
                assert (poly == complexity._pack(seq)) == (p in (11, 19)), p

    def test_a_data_dependent_gf2_mod_fault_exits_3(self, monkeypatch, capsys):
        seq = build_s_sequence(build_context(1229))  # T = 611, a palindrome
        T = seq.period
        assert linear_complexity_gcd(seq) == 611
        mod = complexity._gf2_mod

        def faulty(a, b):
            r = mod(a, b)
            return r ^ 1 if b & 0xFF == 0x5A else r

        monkeypatch.setattr(complexity, "_gf2_mod", faulty)
        # BM on the unrotated period would repeat the gcd's Euclid and its error
        unrotated = complexity._lc(T, int(seq.bits, 2))
        assert (linear_complexity_gcd(seq), linear_complexity_bm(seq), unrotated) == (607, 611, 607)
        assert cli.run(["analyze", "--p", "1229"], io.StringIO()) == 3
        assert "bm=611 gcd=607" in capsys.readouterr().err


class TestCyclotomicIdentity:
    @pytest.mark.parametrize("t", [3, 5, 7, 11])
    def test_every_sequence_of_prime_period(self, t):
        # T - L = deg gcd(X^T - 1, S) = [S(1) = 0] (mod ord_T(2))
        d = multiplicative_order(2, t)
        for bits in product((0, 1), repeat=t):
            seq = bitseq(bits)
            assert (t - linear_complexity_gcd(seq)) % d == 1 - s_one(seq), bits


class TestSOne:
    def test_examples(self):
        assert s_one(build_s_sequence(build_context(13))) == 1
        assert s_one(build_s_sequence(build_context(11))) == 0
        assert s_one(build_s_sequence(build_context(19))) == 1


class TestEpsilon:
    def test_examples(self):
        assert epsilon_of(13) == 1
        assert epsilon_of(11) == 0
        assert epsilon_of(5281) == 1

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            epsilon_of(2)


class TestLcLowerBound:
    def test_examples(self):
        assert lc_lower_bound(factorize(3), 1) == 3
        assert lc_lower_bound(factorize(11), 0) == 10
        assert lc_lower_bound(factorize(31), 0) == 5

    def test_rejects_even_period(self):
        with pytest.raises(ValueError):
            lc_lower_bound(factorize(6), 0)


class TestTwoAdic:
    def test_examples(self):
        res = two_adic_complexity(bitseq([0, 1, 0]))
        assert (res.S2, res.C) == (2, 2)
        res = two_adic_complexity(bitseq([0, 0, 0]))
        assert (res.S2, res.C) == (0, 0)
        res = two_adic_complexity(bitseq([1, 1, 1]))
        assert (res.S2, res.C) == (7, 0)

    def test_mersenne_period_dichotomy(self):
        # 2^T - 1 prime: the gcd with S(2) is 1 unless S(2) is 0 or 2^T - 1,
        # so C = T - 1 for every non-constant sequence and 0 for the constant
        for t in (3, 5, 7):
            for bits in product((0, 1), repeat=t):
                expected = t - 1 if len(set(bits)) == 2 else 0
                assert two_adic_complexity(bitseq(bits)).C == expected, bits

    def test_upper_limit(self):
        rng = random.Random(7)
        for _ in range(100):
            t = rng.randrange(1, 40)
            bits = [rng.randint(0, 1) for _ in range(t)]
            res = two_adic_complexity(bitseq(bits))
            assert 0 <= res.C <= max(t - 1, 0)

    def test_single_one_max(self):
        # only non-zero entry in a period: max linear and 2-adic complexity
        seq = bitseq([1] + [0] * 30)
        assert linear_complexity_gcd(seq) == 31
        assert two_adic_complexity(seq).C == 30


@pytest.mark.parametrize(
    "measure", [linear_complexity_gcd, linear_complexity_bm, two_adic_complexity])
def test_peak_memory_is_under_8_bytes_per_bit_at_t_48803(measure):
    # a tuple of ints costs 8 bytes per bit before any conversion; the text
    # is parsed to one integer of T bits
    seq = build_s_sequence(build_context(100019))
    tracemalloc.start()
    try:
        measure(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * seq.period, f"{peak / seq.period:.2f} bytes per bit"


class TestCLowerBound:
    def test_examples(self):
        assert c_lower_bound(23) == 4
        assert c_lower_bound(2351) == 11
        assert c_lower_bound(164504919713) == 37

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            c_lower_bound(2)


class TestFullReport:
    def test_p13(self):
        rep = full_report(build_context(13))
        assert rep.L == 3
        assert rep.s1 == 1
        assert rep.epsilon == 1
        assert rep.L_lower == 3
        assert rep.C == 2
        assert rep.C_lower == 2  # 2^3 - 1 is prime

    def test_p43(self):
        rep = full_report(build_context(43))
        assert rep.L_lower == 10
        assert rep.C_lower == 4

    def test_p11(self):
        rep = full_report(build_context(11))
        assert rep.epsilon == 0
        assert rep.L >= rep.L_lower

    def test_bm_gcd_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(
            complexity, "linear_complexity_bm", lambda seq: linear_complexity_gcd(seq) + 1
        )
        with pytest.raises(InconsistencyError):
            full_report(build_context(43))

    def test_a_period_above_max_lc_t_raises_before_any_work(self, monkeypatch):
        assert complexity.MAX_LC_T == 2 ** 21
        ctx = build_context(43)  # T = 11
        monkeypatch.setattr(complexity, "MAX_LC_T", 11)
        assert full_report(ctx).L == linear_complexity_gcd(build_s_sequence(ctx))
        monkeypatch.setattr(complexity, "MAX_LC_T", 10)
        monkeypatch.setattr(complexity, "build_s_sequence",
                            lambda ctx: pytest.fail("the sequence was built"))
        with pytest.raises(ValueError, match="period T = 11 of p = 43 exceeds MAX_LC_T = 10"):
            full_report(ctx)

    def test_composite_period_has_no_c_lower(self):
        rep = full_report(build_context(41))  # T = 15 composite
        assert rep.C_lower is None

    def test_gcd_forks_from_the_threshold_on_two_cpus(self, monkeypatch):
        periods = []
        fork = complexity._bm_beside_forked_gcd
        monkeypatch.setattr(complexity, "_bm_beside_forked_gcd",
                            lambda seq: periods.append(seq.period) or fork(seq))
        monkeypatch.setattr(complexity, "_two_cpus", lambda: True)
        assert complexity.FORK_MIN_T == 10_000
        full_report(build_context(6607))  # T = 2195
        rep = full_report(build_context(50021))  # T = 19199
        assert periods == [19199] and rep.L == 19199
        monkeypatch.setattr(complexity, "_two_cpus", lambda: False)
        assert full_report(build_context(50021)) == rep
        assert periods == [19199]

    def test_budget_miss_gives_none(self):
        rep = full_report(build_context(751), factor_budget=100)  # T = 199
        assert rep.C_lower is None
        rep = full_report(build_context(751), factor_budget=10 ** 6)
        assert rep.C_lower is None  # factor is beyond any desk budget
