"""Exact integer number theory for inputs up to 64 bits.

Deterministic primality, factorization (trial division + Brent's rho),
totient, multiplicative order, primitive root enumeration, the Mersenne
prime test (a table of known exponents, Lucas-Lehmer above it) and a sieved
Mersenne-factor hunt.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd

# Miller-Rabin with the 12 prime bases up to 37 is deterministic below
# psi_12 = 318665857834031151167461 ~ 3.19 * 10^23 (Sorenson-Webster 2015),
# which covers 64-bit inputs; psi_12 itself is a strong pseudoprime to them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

# Trial-division ceiling before switching to Brent's rho.  10^4 keeps the
# worst case (large prime cofactor) under a millisecond; rho covers the rest.
_TRIAL_LIMIT = 10 ** 4


@dataclass(frozen=True)
class FactorizationInfo:
    """Prime factorization n = p1^e1 * ... * pr^er with tau(n)."""

    n: int
    factors: tuple[tuple[int, int], ...]
    divisor_count: int

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < psi_12;
    ValueError from psi_12 up, where the witnesses prove nothing."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is proven only below {_MR_BOUND}, got {n}")
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
    if n % 2 == 0:
        return 2
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


# Bounded like sequence.build_context, whose contexts hold these tuples.
@lru_cache(maxsize=4)
def primitive_roots(p: int) -> tuple[int, ...]:
    """All primitive roots modulo an odd prime p, in increasing order."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    pm1_primes = factorize(p - 1).primes()
    g = _find_generator(p, pm1_primes)
    roots = []
    acc = 1
    pm1 = p - 1
    for k in range(1, pm1):
        acc = acc * g % p
        if gcd(k, pm1) == 1:
            roots.append(acc)
    roots.sort()
    return tuple(roots)


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

# Candidates 2kT + 1 of the factor hunt are taken in blocks of this many k
# and sieved by the odd primes below _SIEVE_LIMIT.
_HUNT_BLOCK = 4096
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

# Factor-hunt budgets k_max; the README says which command uses which.
DEFAULT_FACTOR_K_MAX = 10 ** 6
DEFAULT_SCAN_FACTOR_K_MAX = 10 ** 4


def _lucas_lehmer(T: int) -> bool:
    """Lucas-Lehmer test of 2^T - 1 for prime T; O(T^2.6) with Python ints."""
    if T == 2:
        return True
    n = (1 << T) - 1
    s = 4
    for _ in range(T - 2):
        s = (s * s - 2) % n
    return s == 0


def is_mersenne_prime(T: int) -> bool:
    """Is 2^T - 1 prime?  T itself must be prime.

    Up to 43112609 (the 47th Mersenne prime exponent) the answer is a lookup
    in the embedded list of Mersenne prime exponents, which GIMPS has
    verified to be complete up to there.  Above it the Lucas-Lehmer test
    decides.
    """
    if not is_prime(T):
        raise ValueError(f"Mersenne exponent must be prime, got {T}")
    if T <= _MERSENNE_TABLE_BOUND:
        return T in _MERSENNE_EXPONENTS
    return _lucas_lehmer(T)


# Many primes share a period: scan 11..7000 hunts 129 distinct T for 333
# prime periods.
@lru_cache(maxsize=1024)
def smallest_mersenne_factor(T: int, k_max: int) -> int | None:
    """Hunt the smallest prime factor of 2^T - 1 for prime T.

    Every prime factor q of 2^T - 1 is 2kT + 1 with q = +-1 (mod 8).  The
    candidates k = 1..k_max are taken in increasing order, in blocks; a
    sieve drops those that are not +-1 (mod 8) or have a prime factor
    r < 1000 other than themselves, and only the survivors are tried.  The
    first survivor that divides is the smallest prime factor: any smaller
    prime factor would be a smaller candidate, which is prime and so is
    never sieved out, and a composite candidate that divides has its prime
    factors among the smaller candidates.  Returns None if nothing divides
    within the budget.
    """
    if not is_prime(T):
        raise ValueError(f"Mersenne exponent must be prime, got {T}")
    step = 2 * T
    # (m, k0, first): drop every k = k0 (mod m) from k = first on.  k mod 4
    # fixes 2kT + 1 mod 8; k = -(2T)^-1 (mod r) makes r divide 2kT + 1,
    # and the first such k is kept when the candidate is r itself, a prime.
    drops = [(4, c, c) for c in range(4) if (c * step + 1) % 8 not in (1, 7)]
    for r in _SIEVE_PRIMES:
        if step % r:
            k0 = -pow(step, -1, r) % r
            drops.append((r, k0, k0 + r if k0 * step + 1 == r else k0))
    for lo in range(1, k_max + 1, _HUNT_BLOCK):
        n = min(_HUNT_BLOCK, k_max + 1 - lo)
        alive = bytearray(b"\1") * n
        for m, k0, first in drops:
            i = max(first - lo, (k0 - lo) % m)
            alive[i::m] = bytes(len(range(i, n, m)))
        for k in compress(range(lo, lo + n), alive):
            q = k * step + 1
            if pow(2, T, q) == 1:
                return q
    return None


def mersenne_status(T: int, k_max: int) -> tuple[bool, int | None]:
    """(2^T - 1 is prime, its smallest prime factor within the hunt budget).

    T must be prime.  A Mersenne prime is never hunted: its only prime
    factor is 2^T - 1 itself (T = 3 would give q = 7), so it reads
    (True, None).
    """
    if is_mersenne_prime(T):
        return True, None
    return False, smallest_mersenne_factor(T, k_max)


def verify_mersenne_factor(T: int, q: int) -> bool:
    """True iff q divides 2^T - 1, i.e. 2^T = 1 (mod q)."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 3, got {q}")
    return pow(2, T, q) == 1
