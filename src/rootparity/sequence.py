"""Parity sequences of consecutive primitive roots and their statistics.

For a prime p >= 11 with ordered primitive roots g_1 < ... < g_phi, the
studied sequence has period T = phi(p-1) - 1 and entries
(g_{n+1} + g_{n+2}) mod 2.  A variant marks positions where consecutive
primitive roots differ by exactly 1.
"""

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle
from typing import NamedTuple

from .bounds import predicted_balance_fracs, predicted_pattern_frac
from .numtheory import _MERSENNE_TABLE_BOUND, factorize, is_prime, root_indicator

_TO_TEXT = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to "0"/"1" text
_FROM_TEXT = bytes.maketrans(b"01", b"\0\1")
# The windows _window_counts packs into one slot integer, so that its
# temporaries stay within a few MB.  At p = 9999991 one walk at ell = 3 took
# 0.20 s where one integer for all windows took 0.27 s, and czcheck --s-max 3
# peaked at 50 MB max RSS where it peaked at 75 MB (Python 3.11.7, 2 vCPU).
_WINDOW_CHUNK = 1 << 18


class PrimeContext(NamedTuple):
    """A prime p with the derived quantities the analysis needs."""

    p: int
    phi: int
    T: int
    eta: Fraction
    is_root: bytes  # is_root[r] is 1 when the residue r is a primitive root, else 0


class BitSequence(NamedTuple):
    """One period of a binary sequence as "0"/"1" text: bits[n] is s_n."""

    bits: str

    @property
    def period(self) -> int:
        return len(self.bits)


class BalanceReport(NamedTuple):
    n0: int
    n1: int
    predicted_frac1: Fraction
    predicted_frac0: Fraction


class PatternReport(NamedTuple):
    ell: int
    counts: dict[str, int]
    weight_counts: dict[int, int]
    predicted: dict[int, Fraction]  # per-pattern main-term fraction by weight


class CzCheck(NamedTuple):
    m: int
    main_term: float
    bound: float
    holds: bool


# The longest pattern_stats window: it holds one entry per pattern, 2^ell of
# them.  At p = 6607, ell = 16, 18 and 20 took 0.07, 0.20 and 1.10 s in a
# process of 20, 41 and 123 MB max RSS (Python 3.11.7, 2 vCPU).
MAX_ELL = 16

# The largest p with a context.  phi(p - 1) <= (p - 1)/2 gives
# T <= (p - 3)/2, so up to MAX_P the exponent table decides whether 2^T - 1
# is prime.
MAX_P = 2 * _MERSENNE_TABLE_BOUND + 3


# A command reuses only the context of its current p; one context holds
# about 1 B per residue (1.0 MB at p ~ 10^6), and the cache keeps a handful.
@lru_cache(maxsize=4)
def build_context(p: int) -> PrimeContext:
    """Check that p is a prime in [11, MAX_P]; mark its roots, count phi, T and eta."""
    if not 11 <= p <= MAX_P or not is_prime(p):
        raise ValueError(f"p must be a prime in [11, {MAX_P}], got {p}")
    is_root = root_indicator(p)
    phi = is_root.count(1)
    return PrimeContext(p=p, phi=phi, T=phi - 1, eta=Fraction(phi, p), is_root=is_root)


def build_s_sequence(ctx: PrimeContext) -> BitSequence:
    """Parities of sums of consecutive primitive roots."""
    # One byte per root, its parity; s_n is the xor of bytes n and n + 1.
    parity = bytes(compress(cycle(b"\0\1"), ctx.is_root))
    s = int.from_bytes(parity[:-1], "big") ^ int.from_bytes(parity[1:], "big")
    bits = s.to_bytes(ctx.T, "big").translate(_TO_TEXT).decode()
    return BitSequence(bits)


def build_t_sequence(ctx: PrimeContext) -> BitSequence:
    """Indicator of consecutive primitive roots at distance exactly 1."""
    adjacent = bytes(compress(ctx.is_root[1:], ctx.is_root))[:ctx.T]  # is g + 1 a root
    return BitSequence(adjacent.translate(_TO_TEXT).decode())


def balance(seq: BitSequence, ctx: PrimeContext) -> BalanceReport:
    """Exact zero/one counts with the predicted main-term fractions."""
    n1 = seq.bits.count("1")
    frac1, frac0 = predicted_balance_fracs(ctx.eta)
    return BalanceReport(
        n0=seq.period - n1, n1=n1, predicted_frac1=frac1, predicted_frac0=frac0
    )


def _window_counts(bits, ell: int) -> Counter:
    """Occurrences of each length-ell window code of bits, n = 0..len(bits)-ell.

    bits is 0/1 bytes-like, 1 <= ell <= MAX_ELL, and a window's code is its
    bits read in binary, the first bit the highest.  Each code fills one
    w-bit slot (w = 8 or 16) of W = OR_i (B >> w i) << (ell - 1 - i), where
    bit w k of B is bits[k]; the slots are counted at C speed, one chunk of
    windows at a time.  Codes that no window has may be absent or counted 0.
    """
    w = 8 if ell <= 8 else 16
    codes = Counter()
    for start in range(0, len(bits) - ell + 1, _WINDOW_CHUNK):
        chunk = bits[start:start + _WINDOW_CHUNK + ell - 1]
        data = bytearray(w // 8 * len(chunk))
        data[::w // 8] = chunk
        B = int.from_bytes(data, "little")
        W = 0
        for i in range(ell):
            W |= (B >> w * i) << (ell - 1 - i)
        m = len(chunk) - ell + 1  # the windows; the slots above are cut short
        slots = (W & ((1 << w * m) - 1)).to_bytes(w // 8 * m, sys.byteorder)
        if ell <= 4:
            codes.update({c: slots.count(c) for c in range(1 << ell)})
        else:
            codes.update(memoryview(slots).cast("B" if w == 8 else "H"))
    return codes


def pattern_stats(seq: BitSequence, ctx: PrimeContext, ell: int) -> PatternReport:
    """Counts of every length-ell pattern over the windows n = 0..T-ell.

    Windows do not wrap; the index range matches the main-term prediction
    (1/(2-eta))^w ((1-eta)/(2-eta))^(ell-w) per pattern of weight w.  ell
    must lie in [1, min(T, MAX_ELL)], as every one of the 2^ell patterns
    gets an entry; ValueError otherwise.
    """
    if not 1 <= ell <= min(seq.period, MAX_ELL):
        raise ValueError(f"ell must lie in [1, {min(seq.period, MAX_ELL)}], got {ell}")
    windows = _window_counts(seq.bits.encode().translate(_FROM_TEXT), ell)
    spec = f"0{ell}b"  # a code as its pattern
    counts = {format(c, spec): windows[c] for c in range(1 << ell)}
    weight_counts = dict.fromkeys(range(ell + 1), 0)
    for c, n in windows.items():
        weight_counts[c.bit_count()] += n
    predicted = {w: predicted_pattern_frac(ctx.eta, ell, w) for w in range(ell + 1)}
    return PatternReport(
        ell=ell, counts=counts, weight_counts=weight_counts, predicted=predicted
    )


# czcheck asks for all 2^s vectors of one s in turn; a histogram has <= 2^s keys.
@lru_cache(maxsize=1)
def _block_windows(p: int, s: int) -> Counter:
    return _window_counts(memoryview(build_context(p).is_root)[1:], s)  # c(1..p-1)


def block_count(p: int, epsilons: list[int]) -> int:
    """Count j = 1..p-s where the primitive-root indicator matches epsilons.

    The indicator c(i) is +1 when i is a primitive root mod p and -1
    otherwise; epsilons is a +-1 vector of length s in [1, MAX_ELL].
    """
    s = len(epsilons)
    if not 1 <= s <= MAX_ELL:
        raise ValueError(f"block length must lie in [1, {MAX_ELL}], got {s}")
    if s >= p:
        raise ValueError(f"block length {s} must be < p = {p}")
    if any(e not in (1, -1) for e in epsilons):
        raise ValueError("epsilons entries must be +1 or -1")
    return _block_windows(p, s)[int(bytes(e == 1 for e in epsilons).translate(_TO_TEXT), 2)]


# czcheck checks up to 2^16 - 2 sign vectors of one p, all with the same tau.
@lru_cache(maxsize=1)
def _divisor_count(n: int) -> int:
    return factorize(n).divisor_count


def cz_bound_check(p: int, epsilons: list[int]) -> CzCheck:
    """Check |M - p eta^z (1-eta)^(s-z)| <= 2^(s-z+1) s sqrt(p) log(p) tau^s.

    Uses the natural logarithm, the exact block count and tau, the divisor
    count of p - 1.  As s <= MAX_ELL and tau <= 768 below MAX_P (the most
    divisors, at 73513440), the bound is below 5.3e57, a finite float.
    """
    m = block_count(p, epsilons)
    s = len(epsilons)
    z = sum(1 for e in epsilons if e == 1)
    tau = _divisor_count(p - 1)
    eta = build_context(p).phi / p
    main_term = p * eta ** z * (1 - eta) ** (s - z)
    bound = 2 ** (s - z + 1) * s * math.sqrt(p) * math.log(p) * tau ** s
    return CzCheck(
        m=m, main_term=main_term, bound=bound, holds=abs(m - main_term) <= bound
    )
