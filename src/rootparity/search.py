"""Reference-table reproduction and prime search.

Builds rows (T, p, ord_T(2), smallest Mersenne factor; derived ratio and flags),
regenerates the two published tables against an embedded fixture, and scans
prime ranges for candidates without undesirable features.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from importlib import resources
from typing import Callable, Iterator

from .numtheory import (
    DEFAULT_FACTOR_K_MAX,
    DEFAULT_SCAN_FACTOR_K_MAX,
    euler_phi,
    is_prime,
    mersenne_status,
    multiplicative_order,
    verify_mersenne_factor,
)

FLAG_SMALL_LOG2Q = "SMALL_LOG2Q"
FLAG_SMALL_ORD = "SMALL_ORD"
FLAG_LARGE_RATIO = "LARGE_RATIO"


@dataclass(frozen=True)
class SearchRow:
    """The measured values of one period; log2q, ratio and flags follow."""

    T: int
    p: int
    ord_T_2: int | None  # only when T is prime
    q: int | None  # smallest known prime factor of 2^T - 1
    mersenne: bool
    q_source: str | None = None  # "discovered" or "verified"

    @property
    def log2q(self) -> int | None:
        return None if self.q is None else self.q.bit_length() - 1

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


@dataclass(frozen=True)
class Discrepancy:
    T: int
    field: str
    expected: object
    actual: object


def _expected_tables() -> dict:
    text = resources.files("rootparity").joinpath("data/tables_expected.json")
    return json.loads(text.read_text())


def default_p_cap(T: int) -> int:
    """Search ceiling for the largest p with a given period;
    largest_p_for_T(p_cap=...) overrides it."""
    return int(10 * T * math.log(T))


def _phi_sieve(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


def largest_p_for_T(T: int, p_cap: int | None = None) -> int | None:
    """Largest prime p <= p_cap with phi(p-1) = T + 1, by descending scan.

    Called by the tests and by perfbench/traced_cli.py, which rebinds it by
    name; the tables use _largest_p over one shared sieve."""
    if T < 3 or T % 2 == 0:
        raise ValueError(f"T must be odd and >= 3, got {T}")
    if p_cap is None:
        p_cap = default_p_cap(T)
    return _largest_p(T, p_cap, _phi_sieve(p_cap))


def _largest_p(T: int, p_cap: int, phi: list[int]) -> int | None:
    """largest_p_for_T over a phi sieve that reaches at least p_cap - 1."""
    for p in range(p_cap if p_cap % 2 else p_cap - 1, 10, -2):
        if phi[p - 1] == T + 1 and is_prime(p):
            return p
    return None


def build_row(p: int, factor_k_max: int = DEFAULT_SCAN_FACTOR_K_MAX) -> SearchRow:
    """Full quality row for one prime p, factor hunt within budget."""
    T = euler_phi(p - 1) - 1
    ord_t = q = None
    mersenne = False
    if is_prime(T):
        ord_t = multiplicative_order(2, T)
        mersenne, q = mersenne_status(T, factor_k_max)
    return SearchRow(
        T=T,
        p=p,
        ord_T_2=ord_t,
        q=q,
        mersenne=mersenne,
        q_source=None if q is None else "discovered",
    )


def _diff_fixture(
    table: str, factor_k_max: int
) -> tuple[list[SearchRow], list[Discrepancy]]:
    """Build the row of each fixture period's largest p and diff the fields
    the fixture lists; rows of table1 must be Mersenne, rows of table2 not.
    A factor beyond the budget is verified against the fixture value.  One
    phi sieve, sized to the largest period's cap, serves every period."""
    rows: list[SearchRow] = []
    issues: list[Discrepancy] = []
    fixture = _expected_tables()[table]
    phi = _phi_sieve(max(default_p_cap(exp["T"]) for exp in fixture))
    for exp in fixture:
        T = exp["T"]
        p = _largest_p(T, default_p_cap(T), phi)
        if p != exp["p"]:
            issues.append(Discrepancy(T, "p", exp["p"], p))
        if p is None:
            continue
        row = build_row(p, factor_k_max)
        if row.q is None and "q" in exp and verify_mersenne_factor(T, exp["q"]):
            row = replace(row, q=exp["q"], q_source="verified")
        want = {**exp, "ratio": Fraction(exp["ratio"]), "mersenne": table == "table1"}
        got = {
            "ord": row.ord_T_2,
            "ratio": row.ratio,
            "mersenne": row.mersenne,
            "q": row.q,
            "log2q": row.log2q,
        }
        for field, value in got.items():
            if field in want and value != want[field]:
                issues.append(Discrepancy(T, field, want[field], value))
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


@dataclass(frozen=True)
class ScanCriteria:
    require_t_prime: bool = False
    require_no_flags: bool = False
    require_two_primitive_root_mod_t: bool = False
    factor_k_max: int = DEFAULT_SCAN_FACTOR_K_MAX
    workers: int = 1


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

    Deterministic and order-stable: rows are emitted in ascending p even
    when the per-prime work is spread over multiple workers. The arguments
    are checked when scan is called, before the first row is asked for.
    """
    if p_min < 11:
        raise ValueError(f"p_min must be >= 11, got {p_min}")
    primes = [p for p in range(p_min | 1, p_max + 1, 2) if is_prime(p)]
    row_of = partial(build_row, factor_k_max=criteria.factor_k_max)
    if criteria.workers > 1:
        rows = _pool_rows(row_of, primes, criteria.workers)
    else:
        rows = map(row_of, primes)
    return filter(partial(_passes, criteria), rows)


def _pool_rows(row_of: Callable, primes: list[int], workers: int) -> Iterator[SearchRow]:
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(row_of, primes, chunksize=16)
