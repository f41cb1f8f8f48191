"""Exact linear and 2-adic complexity with the corresponding lower bounds.

Linear complexity is computed twice, and the two must agree: each is _lc,
Euclid on (X^T + 1, poly) through _gf2_mod, on its own packing of one period,
S(X) for the gcd and the period rotated by T // 2 and read backwards for
Berlekamp-Massey.  For prime T a third check, independent of _gf2_mod,
asserts T - L = [S(1) = 0] (mod ord_T(2)) from the cyclotomic factors of
X^T - 1.  Polynomials over GF(2) are bit-packed into Python integers (bit i
= coefficient of X^i).

Where the two run: BM always runs in the calling process.  From
T >= FORK_MIN_T, when the process may run on two CPUs and os.fork exists,
full_report forks once and the gcd runs in the child at the same time;
otherwise the gcd runs first in the same process.  BM and the gcd take about
as long as each other, 40-80 ms each at T = 48803 (Python 3.11.7, 2 vCPU),
so the pair takes the longer of the two.  Fork, exit and wait cost about
4 ms: at T = 19199 the forked pair took 20-34 ms against 17-35 ms serial,
and at T = 141055, 0.39-0.42 s against 0.58-0.78 s.
"""

import os
from math import gcd
from typing import NamedTuple, NoReturn

from .numtheory import (
    DEFAULT_SCAN_FACTOR_K_MAX,
    FactorizationInfo,
    factorize,
    multiplicative_order,
    period_facts,
)
from .sequence import BitSequence, PrimeContext, build_s_sequence


class InconsistencyError(RuntimeError):
    """The linear-complexity checks disagreed."""


class TwoAdicResult(NamedTuple):
    S2: int
    C: int


class ComplexityReport(NamedTuple):
    L: int
    L_lower: int  # the paper's bound; holds only for a non-constant sequence
    s1: int
    epsilon: int
    S2: int
    C: int
    # The paper's bound, which holds only for a non-constant sequence; None
    # for a composite T, which is never hunted (p = 41, T = 15), and for a
    # prime T when no factor of 2^T - 1 is known within the factor budget
    C_lower: int | None


# The period from which full_report runs the gcd in a forked child
FORK_MIN_T = 10_000
# The longest period full_report takes, as each linear complexity is
# quadratic in T: under it, the worst `analyze`, p = 4194287 (T = 2097141),
# took 84-115 s over 3 runs (Python 3.11.7, 2 vCPU)
MAX_LC_T = 2 ** 21


def _gf2_mod(a: int, b: int) -> int:
    # One shift per quotient term, so b << 1 at most once; the X^0 term,
    # the last, needs none (b << 0 would copy b)
    db = b.bit_length()
    while (d := a.bit_length() - db) > 0:
        a ^= b << d
    return a ^ b if d == 0 else a


def _lc(T: int, poly: int) -> int:
    """T - deg gcd(X^T + 1, poly), the last non-zero Euclid remainder; 0 at poly = 0."""
    a, b = (1 << T) | 1, poly
    while b:
        a, b = b, _gf2_mod(a, b)
    return T + 1 - a.bit_length()


def _pack(seq: BitSequence) -> int:
    """S(X) over GF(2) and S(2): the text reversed, so bit n = s_n = bits[n].
    One base-2 parse is linear in T; base 2 has no int/str digit limit."""
    return int(seq.bits[::-1], 2)


def linear_complexity_gcd(seq: BitSequence) -> int:
    """T - deg(gcd(X^T - 1, S(X))) over GF(2); the all-zero sequence gives 0."""
    return _lc(seq.period, _pack(seq))


def linear_complexity_bm(seq: BitSequence) -> int:
    """Berlekamp-Massey on the 2T terms u_j = s_(h+j), h = T // 2, as Euclid.

    BM is a continued fraction (Welch-Scholtz 1979; Dornstetter 1987): on
    u_0 ... u_(2T-1) it is Euclid on (X^2T, u*), u* = sum u_j X^(2T-1-j),
    stopped at the first pair whose degrees sum below 2T, and L is the sum
    of the quotient degrees.  Any 2T consecutive terms of a T-periodic
    sequence give its L.  As u is T-periodic, u*/X^2T agrees in its first 2T
    coefficients with R/(X^T + 1), R = sum_(j<T) u_j X^(T-1-j), and every
    convergent BM reaches has a denominator of degree at most L <= T; so its
    partial quotients are those of R/(X^T + 1).  This runs Euclid on
    (X^T + 1, R) until the remainder is 0, on T-bit remainders where the
    2T-term form starts at 2T bits, and L = T - deg of the last non-zero one.

    Why h = T // 2: for p = 1 (mod 4), g -> p - g permutes the primitive
    roots, so the parity sequence is a palindrome and R at h = 0 would be
    _pack(seq), the gcd's own input: the BM <=> gcd check would run one
    Euclid twice.  Rotated by T // 2, the two inputs coincide below p = 20000
    only at p = 11 and p = 19 (the constant sequence).
    """
    h = seq.period // 2
    return _lc(seq.period, int(seq.bits[h:] + seq.bits[:h], 2))


def s_one(seq: BitSequence) -> int:
    """The generating polynomial evaluated at 1 over GF(2)."""
    return seq.bits.count("1") & 1


def epsilon_of(p: int) -> int:
    """1 when p = 1 (mod 4), else 0."""
    if p % 2 == 0:
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
    d = gcd(modulus, s2)
    return TwoAdicResult(S2=s2, C=(modulus // d).bit_length() - 1)


def c_lower_bound(q: int) -> int:
    """floor(log2(q)) for a known prime factor q of 2^T - 1."""
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    return q.bit_length() - 1


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _exit_at_eof(fd: int) -> None:
    os.read(fd, 1)  # nothing is written: this returns at EOF
    os._exit(1)


def _gcd_child(seq: BitSequence, reply_fd: int, lifeline_fd: int) -> NoReturn:
    """The forked side: write linear_complexity_gcd(seq), or the error, and exit.

    os._exit skips the buffers shared with the parent, such as stdout's.  A
    thread ends the child when the lifeline reaches EOF, as it does when the
    parent dies, so a killed command leaves no process behind.
    """
    code = 1
    try:
        try:
            import threading

            threading.Thread(target=_exit_at_eof, args=(lifeline_fd,), daemon=True).start()
            reply, code = str(linear_complexity_gcd(seq)), 0
        except BaseException as e:
            reply = repr(e)[:1000]
        os.write(reply_fd, reply.encode())
    finally:
        os._exit(code)


def _bm_beside_forked_gcd(seq: BitSequence) -> tuple[int, int]:
    """(BM, gcd) linear complexities, the gcd computed in a forked child."""
    import signal

    reply_r, reply_w = os.pipe()
    lifeline_r, lifeline_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(reply_r)
        os.close(lifeline_w)
        _gcd_child(seq, reply_w, lifeline_r)
    os.close(reply_w)
    os.close(lifeline_r)
    # the lifeline is held open until the child is reaped
    with open(reply_r, "rb") as reply, open(lifeline_w, "wb"):
        try:
            l_bm = linear_complexity_bm(seq)
            text = reply.read().decode()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not text.isdigit():
        raise RuntimeError(f"the forked gcd ended with exit code {code}: {text}")
    return l_bm, int(text)


def full_report(
    ctx: PrimeContext,
    factor_budget: int = DEFAULT_SCAN_FACTOR_K_MAX,
    seq: BitSequence | None = None,
) -> ComplexityReport:
    """Assemble every exact value and lower bound for the parity sequence.

    seq is build_s_sequence(ctx), built here unless the caller has it.
    factor_budget is period_facts' hunt budget k_max: by default
    DEFAULT_SCAN_FACTOR_K_MAX (10^4), where `analyze` passes 10^6.
    L_lower and C_lower are the paper's bounds for a non-constant sequence
    and are reported whatever the sequence is. A constant sequence falls
    below them: at p = 19 the sequence is all ones, so L = 1 and C = 0
    while L_lower = C_lower = 4.  A period above MAX_LC_T raises ValueError.
    """
    if ctx.T > MAX_LC_T:
        raise ValueError(f"period T = {ctx.T} of p = {ctx.p} exceeds MAX_LC_T = {MAX_LC_T}")
    if seq is None:
        seq = build_s_sequence(ctx)
    if seq.period >= FORK_MIN_T and hasattr(os, "fork") and _two_cpus():
        l_bm, l_gcd = _bm_beside_forked_gcd(seq)
    else:
        l_gcd = linear_complexity_gcd(seq)
        l_bm = linear_complexity_bm(seq)
    if l_bm != l_gcd:
        raise InconsistencyError(
            f"linear complexity mismatch for p={ctx.p}: bm={l_bm} gcd={l_gcd}"
        )
    s1 = s_one(seq)
    ord_t, mersenne, q = period_facts(ctx.T, factor_budget)
    # For prime T, X^T - 1 = (X + 1) Phi_T, and Phi_T splits into irreducibles
    # of degree d = ord_T(2), so T - L = deg gcd(X^T - 1, S) = [S(1) = 0] (mod d)
    if ord_t is not None and (ctx.T - l_gcd) % ord_t != 1 - s1:
        raise InconsistencyError(
            f"linear complexity {l_gcd} for p={ctx.p} breaks T - L = [S(1) = 0] "
            f"(mod ord_T(2)) at T={ctx.T}"
        )
    eps = epsilon_of(ctx.p)
    two_adic = two_adic_complexity(seq)
    return ComplexityReport(
        L=l_gcd,
        L_lower=lc_lower_bound(factorize(ctx.T), eps),
        s1=s1,
        epsilon=eps,
        S2=two_adic.S2,
        C=two_adic.C,
        C_lower=ctx.T - 1 if mersenne else None if q is None else c_lower_bound(q),
    )
