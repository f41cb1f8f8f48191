"""Parity sequences of consecutive primitive roots and their statistics.

For a prime p >= 11 with ordered primitive roots g_1 < ... < g_phi, the
studied sequence has period T = phi(p-1) - 1 and entries
(g_{n+1} + g_{n+2}) mod 2.  A variant marks positions where consecutive
primitive roots differ by exactly 1.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from .bounds import predicted_balance_fracs, predicted_pattern_frac
from .numtheory import factorize, is_prime, primitive_roots


@dataclass(frozen=True)
class PrimeContext:
    """A prime p with the derived quantities the analysis needs."""

    p: int
    phi: int
    T: int
    eta: Fraction
    roots: tuple[int, ...]


@dataclass(frozen=True)
class BitSequence:
    bits: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class BalanceReport:
    n0: int
    n1: int
    predicted_frac1: Fraction
    predicted_frac0: Fraction


@dataclass(frozen=True)
class PatternReport:
    ell: int
    counts: dict[str, int]
    weight_counts: dict[int, int]
    predicted: dict[int, Fraction]  # per-pattern main-term fraction by weight


@dataclass(frozen=True)
class CzCheck:
    m: int
    main_term: float
    bound: float
    holds: bool


# A command reuses only the context of its current p; at p ~ 10^6 one
# context holds about 19 MB, so the cache keeps a handful.
@lru_cache(maxsize=4)
def build_context(p: int) -> PrimeContext:
    """Validate p and assemble roots, phi, period and eta."""
    if not is_prime(p) or p < 11:
        raise ValueError(f"p must be a prime >= 11, got {p}")
    roots = primitive_roots(p)
    phi = len(roots)
    return PrimeContext(p=p, phi=phi, T=phi - 1, eta=Fraction(phi, p), roots=roots)


def build_s_sequence(ctx: PrimeContext) -> BitSequence:
    """Parities of sums of consecutive primitive roots."""
    r = ctx.roots
    bits = tuple((r[n] + r[n + 1]) & 1 for n in range(ctx.T))
    return BitSequence(bits=bits, period=ctx.T)


def build_t_sequence(ctx: PrimeContext) -> BitSequence:
    """Indicator of consecutive primitive roots at distance exactly 1."""
    r = ctx.roots
    bits = tuple(1 if r[n + 1] == r[n] + 1 else 0 for n in range(ctx.T))
    return BitSequence(bits=bits, period=ctx.T)


def balance(seq: BitSequence, ctx: PrimeContext) -> BalanceReport:
    """Exact zero/one counts with the predicted main-term fractions."""
    n1 = sum(seq.bits)
    frac1, frac0 = predicted_balance_fracs(ctx.eta)
    return BalanceReport(
        n0=seq.period - n1, n1=n1, predicted_frac1=frac1, predicted_frac0=frac0
    )


def _window_counts(bits, ell: int) -> Counter:
    """Occurrences of each length-ell window tuple of bits, n = 0..len(bits)-ell."""
    return Counter(zip(*(islice(bits, i, None) for i in range(ell))))


def pattern_stats(seq: BitSequence, ctx: PrimeContext, ell: int) -> PatternReport:
    """Counts of every length-ell pattern over the windows n = 0..T-ell.

    Windows do not wrap; the index range matches the main-term prediction
    (1/(2-eta))^w ((1-eta)/(2-eta))^(ell-w) per pattern of weight w.
    """
    if not 1 <= ell <= seq.period:
        raise ValueError(f"ell must lie in [1, {seq.period}], got {ell}")
    windows = _window_counts(seq.bits, ell)
    counts = {"".join(map(str, pat)): windows[pat] for pat in product((0, 1), repeat=ell)}
    weight_counts = {w: 0 for w in range(ell + 1)}
    for pat, c in counts.items():
        weight_counts[pat.count("1")] += c
    predicted = {w: predicted_pattern_frac(ctx.eta, ell, w) for w in range(ell + 1)}
    return PatternReport(
        ell=ell, counts=counts, weight_counts=weight_counts, predicted=predicted
    )


def block_count(p: int, epsilons: list[int]) -> int:
    """Count j = 1..p-s where the primitive-root indicator matches epsilons.

    The indicator c(i) is +1 when i is a primitive root mod p and -1
    otherwise; epsilons is a +-1 vector of length s.
    """
    s = len(epsilons)
    if s < 1:
        raise ValueError("epsilons must be non-empty")
    if s >= p:
        raise ValueError(f"block length {s} must be < p = {p}")
    if any(e not in (1, -1) for e in epsilons):
        raise ValueError("epsilons entries must be +1 or -1")
    is_root = bytearray(p)
    for g in primitive_roots(p):
        is_root[g] = 1
    return _window_counts(is_root[1:], s)[tuple(int(e == 1) for e in epsilons)]


def cz_bound_check(p: int, epsilons: list[int]) -> CzCheck:
    """Check |M - p eta^z (1-eta)^(s-z)| <= 2^(s-z+1) s sqrt(p) log(p) tau^s.

    Uses the natural logarithm, the exact block count and tau, the divisor
    count of p - 1.
    """
    m = block_count(p, epsilons)
    s = len(epsilons)
    z = sum(1 for e in epsilons if e == 1)
    tau = factorize(p - 1).divisor_count
    eta = len(primitive_roots(p)) / p
    main_term = p * eta ** z * (1 - eta) ** (s - z)
    bound = 2 ** (s - z + 1) * s * math.sqrt(p) * math.log(p) * tau ** s
    return CzCheck(
        m=m, main_term=main_term, bound=bound, holds=abs(m - main_term) <= bound
    )
