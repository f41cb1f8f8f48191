"""Exact integer number theory, with primality proven below psi_12 ~ 3.19e23.

Deterministic primality, factorization (trial division + Brent's rho),
totient, multiplicative order, primitive root enumeration, the Mersenne
prime test (a table of known exponents, unknown above it), a sieved
Mersenne-factor hunt, and period_facts: ord_T(2) with both for a period T.
is_prime raises ValueError from psi_12 up, and so does every function that
asks it about such a number.
"""

from functools import lru_cache
from itertools import compress, islice
from math import gcd, prod
from typing import NamedTuple

# Miller-Rabin with the 12 prime bases up to 37 is deterministic below
# psi_12 = 318665857834031151167461 ~ 3.19 * 10^23 (Sorenson-Webster 2015),
# and no further; psi_12 itself is a strong pseudoprime to them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461

# Trial-division ceiling before switching to Brent's rho.  10^4 keeps the
# worst case (large prime cofactor) under a millisecond; rho covers the rest.
_TRIAL_LIMIT = 10 ** 4


class FactorizationInfo(NamedTuple):
    """Prime factorization n = p1^e1 * ... * pr^er with tau(n)."""

    n: int
    factors: tuple[tuple[int, int], ...]
    divisor_count: int

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < psi_12;
    ValueError from psi_12 up, where the witnesses prove nothing."""
    if n >= PSI_12:
        raise ValueError(f"is_prime is proven only below {PSI_12}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite n (n odd, not a prime power of 2)."""
    y0 = 2
    c = 1
    while True:
        y, r, q = y0, 1, 1
        g, x, ys = 1, y0, y0
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with a different polynomial


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorize(n: int) -> FactorizationInfo:
    """Factor n >= 2 by trial division by the primes below 10^4, then Brent's rho."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    acc: dict[int, int] = {}
    m = n
    while m % 2 == 0:
        m //= 2
        acc[2] = acc.get(2, 0) + 1
    for r in _ODD_PRIMES:
        if r * r > m:
            break
        while m % r == 0:
            m //= r
            acc[r] = acc.get(r, 0) + 1
    if m > 1:
        # m has no prime factor up to sqrt(m) if the loop broke, and none below
        # _TRIAL_LIMIT if it ran out: either way m < _TRIAL_LIMIT^2 is prime.
        if m < _TRIAL_LIMIT ** 2:
            acc[m] = acc.get(m, 0) + 1
        else:
            _factor_into(m, acc)
    factors = tuple(sorted(acc.items()))
    tau = 1
    for _, e in factors:
        tau *= e + 1
    return FactorizationInfo(n=n, factors=factors, divisor_count=tau)


def euler_phi(n: int) -> int:
    """Euler's totient, computed from the factorization of n."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    phi = 1
    for p, e in factorize(n).factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(a: int, m: int) -> int:
    """Smallest k >= 1 with a^k = 1 (mod m); requires gcd(a, m) = 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1, order undefined")
    order = euler_phi(m)
    if order == 1:
        return 1
    for p, _ in factorize(order).factors:
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def _find_generator(p: int, phi_factors: tuple[int, ...]) -> int:
    exps = [(p - 1) // q for q in phi_factors]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in exps):
            return g
    raise RuntimeError(f"no primitive root found mod {p}")  # unreachable for prime p


def root_indicator(p: int) -> bytes:
    """The primitive roots modulo an odd prime p as bytes: byte r is 1 iff r is one."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    pm1_primes = factorize(p - 1).primes()
    g = _find_generator(p, pm1_primes)
    # g^k is a primitive root iff no prime factor of p - 1 divides k.  2 always
    # does, so only odd k = 2i + 1 are walked, and an odd q | p - 1 divides
    # 2i + 1 iff i = q // 2 (mod q); pm1_primes[0] is 2.
    coprime = bytearray(b"\1") * (p // 2)
    for q in pm1_primes[1:]:
        coprime[q // 2::q] = bytes(p // 2 // q)
    is_root = bytearray(p)
    step = g * g % p
    acc = g
    for k_coprime in coprime:  # acc = g^(2i + 1) meets every non-square once
        is_root[acc] = k_coprime
        acc = acc * step % p
    del coprime  # the peak is is_root and its copy: 2 B per residue
    return bytes(is_root)


# About 36 B per root, where sequence.build_context keeps root_indicator's 1 B per residue.
@lru_cache(maxsize=4)
def primitive_roots(p: int) -> tuple[int, ...]:
    """All primitive roots modulo an odd prime p, in increasing order."""
    return tuple(compress(range(p), root_indicator(p)))


# Exponents T of the Mersenne primes 2^T - 1 with T <= _MERSENNE_TABLE_BOUND.
# GIMPS (mersenne.org) has tested every prime exponent up to 43112609, the
# 47th Mersenne prime, and checked each result a second time, so the list is
# complete up to there.
_MERSENNE_TABLE_BOUND = 43112609
_MERSENNE_EXPONENTS = frozenset((
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
    3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
    110503, 132049, 216091, 756839, 859433, 1257787, 1398269, 2976221, 3021377,
    6972593, 13466917, 20996011, 24036583, 25964951, 30402457, 32582657,
    37156667, 42643801, 43112609,
))

# The factor hunt takes its candidates k in blocks of _HUNT_BLOCK consecutive
# k (rounded down to a multiple of 4), of which the half in the two classes
# mod 4 that give q = +-1 (mod 8) are indexed and sieved by the odd primes
# below _SIEVE_LIMIT; the sieve's cost is mostly a fixed ~340 slice
# assignments per block.  The survivors are tried _HUNT_GROUP at a time by
# one pow over their product.
_HUNT_BLOCK = 65536
_HUNT_GROUP = 64
_SIEVE_LIMIT = 1000


def _small_odd_primes(limit: int) -> tuple[int, ...]:
    composite = bytearray(limit)
    for i in range(3, int(limit ** 0.5) + 1, 2):
        if not composite[i]:
            composite[i * i::2 * i] = b"\1" * len(range(i * i, limit, 2 * i))
    return tuple(i for i in range(3, limit, 2) if not composite[i])


# The 1228 odd primes below _TRIAL_LIMIT: factorize trial-divides by all of
# them, the hunt sieves by those below _SIEVE_LIMIT.
_ODD_PRIMES = _small_odd_primes(_TRIAL_LIMIT)
_SIEVE_PRIMES = tuple(r for r in _ODD_PRIMES if r < _SIEVE_LIMIT)
# (r, 2r, 4^-1 mod r) for each sieve prime r.
_SIEVE = tuple((r, 2 * r, pow(4, -1, r)) for r in _SIEVE_PRIMES)

# Factor-hunt budgets k_max; the README says which command uses which.
DEFAULT_FACTOR_K_MAX = 10 ** 6
DEFAULT_SCAN_FACTOR_K_MAX = 10 ** 4


def is_mersenne_prime(T: int) -> bool | None:
    """Is 2^T - 1 prime?  T itself must be prime.

    Up to 43112609 (the 47th Mersenne prime exponent) the answer is a lookup
    in the embedded list of Mersenne prime exponents, which GIMPS has
    verified to be complete up to there.  Above it the answer is None,
    unknown: no test that finishes at such T is run.
    """
    _check_exponent(T)
    return _mersenne_verdict(T)


# The public Mersenne functions and period_facts test T for primality once and
# call the private helpers below, which take T to be prime.
def _check_exponent(T: int) -> None:
    if not is_prime(T):
        raise ValueError(f"Mersenne exponent must be prime, got {T}")


def _mersenne_verdict(T: int) -> bool | None:
    return T in _MERSENNE_EXPONENTS if T <= _MERSENNE_TABLE_BOUND else None


@lru_cache(maxsize=1)
def _wheel(n: int) -> tuple[tuple[int, ...], bytearray]:
    """The offsets k - k_b of the n indices of a hunt block that starts at k_b,
    4m + e for index 2m + e, and n zero bytes to clear sieve slices from.
    The zeros are never written: a slice of them is a new bytearray, which
    a bytearray slice assignment takes without another copy."""
    offsets = [0] * n  # for odd n, the last index has e = 0
    offsets[0::2], offsets[1::2] = range(0, 2 * n, 4), range(1, 2 * n - 1, 4)
    return tuple(offsets), bytearray(n)


def smallest_mersenne_factor(T: int, k_max: int) -> int | None:
    """Hunt the smallest prime factor of 2^T - 1 for prime T.

    Every prime factor q of 2^T - 1 is 2kT + 1 with q = +-1 (mod 8).  For odd
    T, k mod 4 decides q mod 8, and the two classes of k that give +-1 are
    consecutive mod 4: {0, 1} when T = 3 (mod 4), else {3, 0}.  With s the
    first of them, index j = 2m + e stands for k = s + 4m + e (e = 0, 1), so
    ascending indices are ascending k and ascending q, and no k outside the
    two classes has an index.  (T = 2 has no factor 4k + 1; any classes do.)
    A factor below 1000 is tried first, among the candidates that are odd
    primes below 1000.  Without one, every prime factor is above 1000, and
    the indices of k = 1..k_max are taken in blocks; a sieve drops those
    whose candidate has a prime factor r < 1000, and only the survivors are
    tried.  The first survivor that divides is the smallest prime factor:
    any smaller prime factor would be a smaller candidate of the two
    classes, which is prime and above 1000 and so is never sieved out, and
    a composite candidate that divides has its prime factors among the
    smaller candidates.  Returns None if nothing divides within the budget.

    The survivors are tried in ascending groups of 64 by one pow:
    x = 2^T mod Q, Q the product of the group, so x = 2^T (mod q) for each
    q in it.  gcd(x - 1, Q) > 1 exactly when some prime factor of 2^T - 1
    divides a member; the group is then walked in ascending order and the
    first q with x = 1 (mod q) is returned.  Every survivor below the group
    has already failed, so that q is still the first survivor that divides,
    hence the smallest prime factor.  The walk only tests what the gcd
    suggests: if it finds nothing, the hunt goes on with the next group.
    """
    _check_exponent(T)
    return _hunt(T, k_max)


# Many primes share a period: scan 11..7000 hunts 129 distinct T for 333
# prime periods.
@lru_cache(maxsize=1024)
def _hunt(T: int, k_max: int) -> int | None:
    """smallest_mersenne_factor for a T known to be prime."""
    step = 2 * T
    s = 0 if T % 4 == 3 else 3
    # A factor below _SIEVE_LIMIT is a sieve prime r = 2kT + 1, which the
    # sieve drops, so these are tried first.  Sparing each such r from the
    # sieve instead gives the same answers (every prime T < 6000, k_max 0 to
    # 10^4) but is slower, as a small T with a factor below 1000 then pays
    # the sieve set-up: the hunts of the 488 prime T < 3500 at k_max 10^4
    # took a median of 0.155 s with this pass and 0.163 s without, and those
    # of the 20 among them with such a factor 0.06 ms and 3.2 ms (11
    # interleaved runs in one process, Python 3.11.7, 2 vCPU).
    for r in _SIEVE_PRIMES:
        if r % step == 1 and r // step <= k_max and pow(2, T, r) == 1:
            return r
    # r divides 2kT + 1 for k = k0 = -(2T)^-1 (mod r), and for index 2m + e
    # of a block from k_b when m = (k0 - k_b - e) / 4 (mod r): two slices of
    # stride 2r, from a = k0 / 4 = -(8T)^-1 (mod r).
    sieve = [(r, r2, -pow(8 * T, -1, r) % r, inv4) for r, r2, inv4 in _SIEVE if T % r]
    n_block = max(2, _HUNT_BLOCK // 4 * 2)
    offsets, zeros = _wheel(n_block)
    # Indices 0..j_end - 1 are the k = s + 4m + e up to k_max.
    j_end = (k_max - s + 3) // 4 + (k_max - s + 4) // 4
    for j in range(0, j_end, n_block):
        n = min(n_block, j_end - j)
        kb = s + 2 * j
        alive = bytearray(b"\1") * n
        for r, r2, a, inv4 in sieve:
            m = (a - kb * inv4) % r
            alive[2 * m::r2] = zeros[2 * m:n:r2]  # e = 0
            i = 2 * ((m - inv4) % r) + 1
            alive[i::r2] = zeros[i:n:r2]  # e = 1
        if kb == 0:
            alive[0] = 0  # k = 0
        base = kb * step + 1
        survivors = compress(offsets, alive)  # no object for a dropped candidate
        while group := [base + step * d for d in islice(survivors, _HUNT_GROUP)]:
            Q = prod(group)
            x = pow(2, T, Q)
            if gcd(x - 1, Q) > 1:
                for q in group:
                    if x % q == 1:
                        return q
    return None


def period_facts(T: int, k_max: int) -> tuple[int | None, bool | None, int | None]:
    """(ord_T(2), 2^T - 1 is prime, its smallest prime factor q within the hunt
    budget k_max): the facts about a period T that decide maximal complexity.

    A composite T reads (None, False, None), never hunted.  A Mersenne prime
    of the table is not hunted either: its only prime factor is 2^T - 1
    itself (T = 3 would give q = 7), so it reads (ord, True, None).  Every
    other prime T is hunted, and a found factor gives (ord, False, q).  With
    none in the budget, a T the table rules out reads (ord, False, None), and
    a T above the table bound (ord, None, None): undecided.
    """
    if not is_prime(T):
        return None, False, None
    order, mersenne = multiplicative_order(2, T), _mersenne_verdict(T)
    q = None if mersenne else _hunt(T, k_max)
    return order, (mersenne if q is None else False), q


def verify_mersenne_factor(T: int, q: int) -> bool:
    """True iff q divides 2^T - 1, i.e. 2^T = 1 (mod q)."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 3, got {q}")
    return pow(2, T, q) == 1
