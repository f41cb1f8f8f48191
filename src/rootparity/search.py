"""Reference-table reproduction and prime search.

Builds rows (T, p and numtheory.period_facts of T; derived ratio and flags),
regenerates the two published tables against an embedded fixture, and scans
prime ranges for candidates without undesirable features.
"""

import json
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple

from .complexity import c_lower_bound
from .numtheory import (
    DEFAULT_FACTOR_K_MAX,
    DEFAULT_SCAN_FACTOR_K_MAX,
    euler_phi,
    factorize,
    is_prime,
    period_facts,
    verify_mersenne_factor,
)

FLAG_SMALL_LOG2Q = "SMALL_LOG2Q"
FLAG_SMALL_ORD = "SMALL_ORD"
FLAG_LARGE_RATIO = "LARGE_RATIO"


class SearchRow(NamedTuple):
    """The measured values of one period; log2q, ratio and flags follow."""

    T: int
    p: int
    ord_T_2: int | None  # only when T is prime
    q: int | None  # smallest known prime factor of 2^T - 1
    mersenne: bool | None  # None: above the exponent table, no factor found
    q_source: str | None = None  # "discovered" or "verified"

    @property
    def log2q(self) -> int | None:
        return None if self.q is None else c_lower_bound(self.q)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.T + 1, self.p)  # phi(p-1)/p

    @property
    def flags(self) -> frozenset[str]:
        """The three undesirable-feature flags, compared exactly."""
        flags = set()
        if self.q is not None and 10 * self.log2q < self.T:
            flags.add(FLAG_SMALL_LOG2Q)
        if self.ord_T_2 is not None and 4 * self.ord_T_2 < self.T:
            flags.add(FLAG_SMALL_ORD)
        if self.ratio >= Fraction(1, 3):
            flags.add(FLAG_LARGE_RATIO)
        return frozenset(flags)

    def record(self) -> dict:
        """The row under its printed names, in print order; flags sorted."""
        return {
            "T": self.T, "p": self.p, "ord": self.ord_T_2, "q": self.q,
            "log2q": self.log2q, "ratio": self.ratio, "mersenne": self.mersenne,
            "flags": sorted(self.flags), "q_source": self.q_source,
        }


class Discrepancy(NamedTuple):
    T: int
    field: str
    expected: object
    actual: object


def _expected_tables() -> dict:
    from importlib import resources  # only tables reads the fixture: no start-up cost

    text = resources.files("rootparity").joinpath("data/tables_expected.json")
    return json.loads(text.read_text())


def largest_p_for_T(T: int) -> int | None:
    """Largest prime p with phi(p-1) = T + 1, or None: the n with phi(n) = T + 1
    are built from the primes q with q - 1 | T + 1, a finite set."""
    if T < 3 or T % 2 == 0:
        raise ValueError(f"T must be odd and >= 3, got {T}")
    divisors = [1]
    for q, e in factorize(T + 1).factors:
        divisors = [d * q ** k for d in divisors for k in range(e + 1)]
    primes = sorted((d + 1 for d in divisors if is_prime(d + 1)), reverse=True)
    candidates = (n + 1 for n in _phi_preimages(T + 1, primes))
    return max(filter(is_prime, candidates), default=None)


def _phi_preimages(m: int, primes: list[int], n: int = 1) -> Iterator[int]:
    """n * k for every k with phi(k) = m whose prime factors lie in primes,
    a descending list; each prime is used at most once along a path."""
    if m == 1:
        yield n
    for i, q in enumerate(primes):
        phi_k, power = q - 1, q  # phi(q^k) and q^k, from k = 1
        while m % phi_k == 0:
            yield from _phi_preimages(m // phi_k, primes[i + 1:], n * power)
            phi_k, power = phi_k * q, power * q


def build_row(p: int, factor_k_max: int = DEFAULT_SCAN_FACTOR_K_MAX) -> SearchRow:
    """Full quality row for one prime p, factor hunt within budget."""
    T = euler_phi(p - 1) - 1
    ord_t, mersenne, q = period_facts(T, factor_k_max)
    return SearchRow(T=T, p=p, ord_T_2=ord_t, q=q, mersenne=mersenne,
                     q_source=None if q is None else "discovered")


def _diff_fixture(
    table: str, factor_k_max: int
) -> tuple[list[SearchRow], list[Discrepancy]]:
    """Build the row of each fixture period's largest p and diff the fields
    the fixture lists; rows of table1 must be Mersenne, rows of table2 not.
    A factor beyond the budget is verified against the fixture value."""
    rows: list[SearchRow] = []
    issues: list[Discrepancy] = []
    fixture = _expected_tables()[table]
    for exp in fixture:
        T = exp["T"]
        p = largest_p_for_T(T)
        if p != exp["p"]:
            issues.append(Discrepancy(T, "p", exp["p"], p))
        if p is None:
            continue
        row = build_row(p, factor_k_max)
        if row.q is None and "q" in exp and verify_mersenne_factor(T, exp["q"]):
            row = row._replace(q=exp["q"], q_source="verified")
        want = {**exp, "ratio": Fraction(exp["ratio"]), "mersenne": table == "table1"}
        got = row.record()
        for field in ("ord", "ratio", "mersenne", "q", "log2q"):
            if field in want and got[field] != want[field]:
                issues.append(Discrepancy(T, field, want[field], got[field]))
        rows.append(row)
    return rows, issues


def reproduce_table1() -> tuple[list[SearchRow], list[Discrepancy]]:
    """Recompute the Mersenne-period table and diff it against the fixture."""
    return _diff_fixture("table1", DEFAULT_FACTOR_K_MAX)


def reproduce_table2(
    factor_k_max: int = DEFAULT_FACTOR_K_MAX,
) -> tuple[list[SearchRow], list[Discrepancy]]:
    """Recompute the composite-Mersenne table; oversized factors are verified
    against the fixture value instead of rediscovered."""
    return _diff_fixture("table2", factor_k_max)


class ScanCriteria(NamedTuple):
    require_t_prime: bool = False
    require_no_flags: bool = False
    require_two_primitive_root_mod_t: bool = False
    factor_k_max: int = DEFAULT_SCAN_FACTOR_K_MAX


def _passes(criteria: ScanCriteria, row: SearchRow) -> bool:
    if criteria.require_t_prime and row.ord_T_2 is None:
        return False
    if criteria.require_no_flags and row.flags:
        return False
    if criteria.require_two_primitive_root_mod_t and row.ord_T_2 != row.T - 1:
        return False
    return True


def scan(
    p_min: int, p_max: int, criteria: ScanCriteria = ScanCriteria()
) -> Iterator[SearchRow]:
    """Rows for every prime in [p_min, p_max] passing the criteria filter.

    Deterministic: rows come in ascending p, and each prime is tested when
    its row is asked for. p_min is checked when scan is called, before the
    first row is asked for.
    """
    if p_min < 11:
        raise ValueError(f"p_min must be >= 11, got {p_min}")
    primes = filter(is_prime, range(p_min | 1, p_max + 1, 2))
    row_of = partial(build_row, factor_k_max=criteria.factor_k_max)
    return filter(partial(_passes, criteria), map(row_of, primes))
