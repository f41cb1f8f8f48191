"""Exact linear and 2-adic complexity with the corresponding lower bounds.

Linear complexity is computed twice, and the two must agree: each is _lc,
Euclid on (X^T + 1, poly) through _gf2_mod, on its own packing of one period,
S(X) for the gcd and the period rotated by T // 2 and read backwards for
Berlekamp-Massey.  For prime T a third check, independent of _gf2_mod,
asserts T - L = [S(1) = 0] (mod ord_T(2)) from the cyclotomic factors of
X^T - 1.  Polynomials over GF(2) are bit-packed into Python integers (bit i
= coefficient of X^i).

Where the two run: BM always runs in the calling process.  From
T >= FORK_MIN_T, when _can_fork() holds (the process may run on two CPUs,
os.fork exists, and the process is neither side of a fork already),
full_report forks once through _forked: the child computes the gcd while BM
and then the 2-adic gcd run here.  Otherwise the gcd, BM and the 2-adic gcd
run one after the other.  BM and the gcd take about as long as each other,
40-80 ms each at T = 48803 (Python 3.11.7, 2 vCPU), so the pair takes the
longer of the two.  Fork, exit and wait cost about 4 ms: at T = 19199 the
forked pair took 20-34 ms against 17-35 ms serial, and at T = 141055,
0.39-0.42 s against 0.58-0.78 s.  The command line's `analyze --p-range`
forks through _forked too, once for the range, and then the pair runs
serially in both processes.
"""

import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
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


def _can_fork() -> bool:
    """Whether a forked child may run beside this process: os.fork exists, the
    process may run on two CPUs, and it is neither side of a fork already."""
    return not _forking and hasattr(os, "fork") and _two_cpus()


# True while a process is either side of a fork, so that neither forks again:
# both CPUs are busy, and a child that holds its lifeline thread must not fork
_forking = False


def _exit_at_eof(fd: int) -> None:
    os.read(fd, 1)  # nothing is written: this returns at EOF
    os._exit(1)


def _child(work: Callable[[], Iterable], reply_fd: int, lifeline_fd: int) -> NoReturn:
    """The forked side: send each item of work(), or the exception that stopped
    it, pickled, and exit, with code 0 once every item is sent.

    os._exit skips the buffers shared with the parent, such as stdout's.  A
    thread ends the child when the lifeline reaches EOF, as it does when the
    parent dies, so a killed command leaves no process behind.
    """
    code = 1
    try:
        import pickle
        import threading

        threading.Thread(target=_exit_at_eof, args=(lifeline_fd,), daemon=True).start()
        with open(reply_fd, "wb") as replies:
            try:
                for item in work():
                    replies.write(pickle.dumps((False, item)))
                    replies.flush()
                code = 0
            except BaseException as e:  # raised again in the parent
                replies.write(pickle.dumps((True, e)))
    finally:
        os._exit(code)


@contextmanager
def _forked(work: Callable[[], Iterable]) -> Iterator[tuple[Iterator, Callable[[], bool]]]:
    """Fork once, run work() in the child and yield (items, waiting).

    items gives the child's items as it sends them, raises here the exception
    that stopped the child, as itself, and raises RuntimeError if the child
    ended without either; waiting() is whether next(items) would wait for the
    child.  A thread drains the pipe as the child writes, so the child never
    stalls on a full pipe, however long this process leaves its items unread.
    However the block ends, leaving it kills the child if it may still run,
    waits for the drain to end and reaps the child, once; the pipe and the
    lifeline are held open until then.
    """
    import pickle
    import signal
    import threading
    from queue import SimpleQueue

    global _forking
    reply_r, reply_w = os.pipe()
    lifeline_r, lifeline_w = os.pipe()
    _forking = True
    try:
        pid = os.fork()
        if pid == 0:
            os.close(reply_r)
            os.close(lifeline_w)
            _child(work, reply_w, lifeline_r)
        os.close(reply_w)
        os.close(lifeline_r)
        exit_code = []
        replies = SimpleQueue()  # (raised, value) per reply, then None at EOF

        def reap() -> int:
            if not exit_code:
                exit_code.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            return exit_code[0]

        def drain(pipe) -> None:
            try:
                while True:
                    replies.put(pickle.load(pipe))
            except EOFError:
                replies.put(None)
            except BaseException as e:  # a reply that cannot be read: raised in items
                replies.put((True, e))

        def items() -> Iterator:
            while (reply := replies.get()) is not None:
                raised, value = reply
                if raised:
                    raise value
                yield value
            if (code := reap()) != 0:
                raise RuntimeError(f"the forked child ended with exit code {code}")

        with open(reply_r, "rb") as pipe, open(lifeline_w, "wb"):
            drainer = threading.Thread(target=drain, args=(pipe,), daemon=True)
            try:
                drainer.start()
                yield items(), replies.empty
            finally:
                if not exit_code:
                    os.kill(pid, signal.SIGKILL)
                if drainer.is_alive():  # ends at EOF, as the child is gone
                    drainer.join()
                reap()
    finally:
        _forking = False


def _bm_beside_forked_gcd(seq: BitSequence) -> tuple[int, int, TwoAdicResult]:
    """(BM, gcd, 2-adic): BM and then the 2-adic complexity here, while a forked
    child computes the gcd."""
    with _forked(lambda: [linear_complexity_gcd(seq)]) as (replies, _):
        l_bm = linear_complexity_bm(seq)
        two_adic = two_adic_complexity(seq)
        l_gcd, = replies
    return l_bm, l_gcd, two_adic


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
    if seq.period >= FORK_MIN_T and _can_fork():
        l_bm, l_gcd, two_adic = _bm_beside_forked_gcd(seq)
    else:
        l_gcd = linear_complexity_gcd(seq)
        l_bm = linear_complexity_bm(seq)
        two_adic = None
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
    if two_adic is None:
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
