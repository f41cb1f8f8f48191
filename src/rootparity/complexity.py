"""Exact linear and 2-adic complexity with the corresponding lower bounds.

Linear complexity is computed twice, by gcd(X^T - 1, S(X)) over one period
and by Berlekamp-Massey over 2T terms, and the two must agree.  BM runs in
Euclid form (Dornstetter 1987): both are remainder sequences through
_gf2_mod.  For prime T a third check, independent of _gf2_mod, asserts
T - L = [S(1) = 0] (mod ord_T(2)) from the cyclotomic factors of X^T - 1.
Polynomials over GF(2) are bit-packed into Python integers (bit i =
coefficient of X^i).

Where the two run: BM always runs in the calling process.  From
T >= FORK_MIN_T, when the process may run on two CPUs and os.fork exists,
full_report forks once and the gcd runs in the child at the same time;
otherwise the gcd runs first in the same process.  The threshold weighs
the fork against the gcd it hides: fork, exit and wait took a median of
3.8-4.0 ms in a process holding four contexts, and the gcd 1.0 ms at
T = 2195, 18-22 ms at T = 19199 and 83-90 ms at T = 48803 (Python 3.11.7,
2 vCPU).  BM took 1.8-3.2 times as long as the gcd at T = 141055 and
493583, since its remainders start at 2T bits, so the child is the
shorter side.
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

# The fewest low bits linear_complexity_bm drops from its remainders at once,
# so that it does not pay two shifts for a few bits
BM_MIN_DROP = 64


def _gf2_mod(a: int, b: int) -> int:
    # One shift per quotient term, so b << 1 at most once; the X^0 term,
    # the last, needs none (b << 0 would copy b)
    db = b.bit_length()
    while (d := a.bit_length() - db) > 0:
        a ^= b << d
    return a ^ b if d == 0 else a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _pack(seq: BitSequence) -> int:
    """S(X) over GF(2) and S(2): the text reversed, so bit n = s_n = bits[n].
    One base-2 parse is linear in T; base 2 has no int/str digit limit."""
    return int(seq.bits[::-1], 2)


def linear_complexity_gcd(seq: BitSequence) -> int:
    """T - deg(gcd(X^T - 1, S(X))) over GF(2); the all-zero sequence gives 0."""
    T = seq.period
    g = _gf2_gcd((1 << T) | 1, _pack(seq))
    return T - (g.bit_length() - 1)


def linear_complexity_bm(seq: BitSequence) -> int:
    """Berlekamp-Massey on 2T terms, as Euclid (Dornstetter 1987).

    With N = 2T and s* = sum s_j X^(N-1-j), an LFSR of length l is a pair
    t s* = r (mod X^N) with deg r < deg t = l. As 2L - 1 < N, the shortest
    is the first Euclid pair of (X^N, s*) with deg r_(k-1) + deg r_k < N,
    and deg t_k = N - deg r_(k-1) = L. A zero remainder has degree -inf.

    Only high bits are read.  Let the bits of a and b below X^j be unknown,
    with j <= N - deg a.  While the loop runs, deg b >= N - deg a >= j, and
    deg b >= N - L >= T, because every b it reads becomes an a and L <= T
    for a T-periodic sequence.  So the degree test and the quotient a div b,
    which reads a from X^(deg b) up and b from X^(2 deg b - deg a) >=
    X^(N - deg a) up, are exact, and the remainder's unknown bits lie below
    X^(j + deg a - deg b) <= X^(N - deg b), the bound for the next pair.
    Hence the N - deg a low bits of both are dropped once they number at
    least BM_MIN_DROP and an eighth of a's bits; off counts the bits dropped.
    """
    T, N = seq.period, 2 * seq.period
    r = int(seq.bits, 2)  # bit T-1-j = s_j
    a, b = 1 << N, (r << T) | r
    n, off = N, 0  # a and b are the remainders >> off, and n = N - 2 off
    while b and a.bit_length() + b.bit_length() - 2 >= n:
        a, b = b, _gf2_mod(a, b)
        if (k := n + 1 - a.bit_length()) >= BM_MIN_DROP and k >= a.bit_length() >> 3:
            a, b, n, off = a >> k, b >> k, n - 2 * k, off + k
    return N + 1 - off - a.bit_length()


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
    while L_lower = C_lower = 4.
    """
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
