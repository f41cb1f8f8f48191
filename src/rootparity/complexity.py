"""Exact linear and 2-adic complexity with the corresponding lower bounds.

Linear complexity is computed twice, by polynomial gcd over GF(2) and by
Berlekamp-Massey, and the two must agree.  Polynomials over GF(2) are
bit-packed into Python integers (bit i = coefficient of X^i).
"""

from dataclasses import dataclass
from math import gcd

from .numtheory import (
    DEFAULT_SCAN_FACTOR_K_MAX,
    FactorizationInfo,
    factorize,
    is_prime,
    mersenne_status,
    multiplicative_order,
)
from .sequence import BitSequence, PrimeContext, build_s_sequence


class InconsistencyError(RuntimeError):
    """The two independent linear-complexity algorithms disagreed."""


@dataclass(frozen=True)
class TwoAdicResult:
    S2: int
    C: int


@dataclass(frozen=True)
class ComplexityReport:
    T: int
    L: int
    s1: int
    epsilon: int
    L_lower: int  # the paper's bound; holds only for a non-constant sequence
    S2: int
    C: int
    # The paper's bound, which holds only for a non-constant sequence;
    # None means unknown within the factor budget
    C_lower: int | None


def _gf2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _pack(seq: BitSequence) -> int:
    """The bits as one integer with bit n = s_n: S(X) over GF(2) and S(2).
    One base-2 parse is linear in T; base 2 has no int/str digit limit."""
    return int("".join(map(str, reversed(seq.bits))), 2)


def linear_complexity_gcd(seq: BitSequence) -> int:
    """T - deg(gcd(X^T - 1, S(X))) over GF(2); the all-zero sequence gives 0."""
    T = seq.period
    s_poly = _pack(seq)
    if s_poly == 0:
        return 0
    g = _gf2_gcd((1 << T) | 1, s_poly)
    return T - (g.bit_length() - 1)


def linear_complexity_bm(seq: BitSequence) -> int:
    """Berlekamp-Massey over 2T terms of the periodically repeated sequence."""
    bits = seq.bits * 2
    C = B = 1  # connection polynomials, bit i = coefficient of X^i
    L = 0
    m = -1
    rev = 0  # bit i = s_{n-i}, so the discrepancy is popcount(C & rev) mod 2
    for n, bit in enumerate(bits):
        rev = (rev << 1) | bit
        if (C & rev).bit_count() & 1:
            if 2 * L <= n:
                C, B = C ^ (B << (n - m)), C
                L = n + 1 - L
                m = n
            else:
                C ^= B << (n - m)
    return L


def s_one(seq: BitSequence) -> int:
    """The generating polynomial evaluated at 1 over GF(2)."""
    return sum(seq.bits) & 1


def epsilon_of(p: int) -> int:
    """1 when p = 1 (mod 4), else 0."""
    if p == 2 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    return 1 if p % 4 == 1 else 0


def lc_lower_bound(T_fact: FactorizationInfo, eps: int) -> int:
    """min over prime divisors q of T of ord_q(2), plus eps."""
    if T_fact.n % 2 == 0:
        raise ValueError(f"period must be odd, got {T_fact.n}")
    return min(multiplicative_order(2, q) for q in T_fact.primes()) + eps


def two_adic_complexity(seq: BitSequence) -> TwoAdicResult:
    """floor(log2((2^T - 1) / gcd(2^T - 1, S(2)))), exactly in integers.

    The constant sequences give C = 0: S(2) is 0 or 2^T - 1.
    """
    s2 = _pack(seq)
    modulus = (1 << seq.period) - 1
    d = gcd(modulus, s2) if s2 else modulus
    return TwoAdicResult(S2=s2, C=(modulus // d).bit_length() - 1)


def c_lower_bound(q: int) -> int:
    """floor(log2(q)) for a known prime factor q of 2^T - 1."""
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    return q.bit_length() - 1


def full_report(
    ctx: PrimeContext, factor_budget: int = DEFAULT_SCAN_FACTOR_K_MAX
) -> ComplexityReport:
    """Assemble every exact value and lower bound for the parity sequence.

    L_lower and C_lower are the paper's bounds for a non-constant sequence
    and are reported whatever the sequence is. A constant sequence falls
    below them: at p = 19 the sequence is all ones, so L = 1 and C = 0
    while L_lower = C_lower = 4.
    """
    seq = build_s_sequence(ctx)
    l_gcd = linear_complexity_gcd(seq)
    l_bm = linear_complexity_bm(seq)
    if l_bm != l_gcd:
        raise InconsistencyError(
            f"linear complexity mismatch for p={ctx.p}: bm={l_bm} gcd={l_gcd}"
        )
    eps = epsilon_of(ctx.p)
    two_adic = two_adic_complexity(seq)
    c_lower: int | None = None
    if is_prime(ctx.T):
        mersenne, q = mersenne_status(ctx.T, factor_budget)
        if mersenne:
            c_lower = ctx.T - 1
        elif q is not None:
            c_lower = c_lower_bound(q)
    return ComplexityReport(
        T=ctx.T,
        L=l_gcd,
        s1=s_one(seq),
        epsilon=eps,
        L_lower=lc_lower_bound(factorize(ctx.T), eps),
        S2=two_adic.S2,
        C=two_adic.C,
        C_lower=c_lower,
    )
