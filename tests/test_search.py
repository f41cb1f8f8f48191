import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rootparity import numtheory, search
from rootparity.numtheory import euler_phi, is_prime
from rootparity.search import (
    FLAG_LARGE_RATIO,
    FLAG_SMALL_LOG2Q,
    FLAG_SMALL_ORD,
    ScanCriteria,
    SearchRow,
    build_row,
    default_p_cap,
    largest_p_for_T,
    reproduce_table1,
    reproduce_table2,
    scan,
)


class TestLargestP:
    def test_examples(self):
        assert largest_p_for_T(3, 10 ** 4) == 13
        assert largest_p_for_T(107, 10 ** 4) == 379
        assert largest_p_for_T(11, 10 ** 4) == 43

    def test_default_cap(self):
        assert largest_p_for_T(3) == 13
        assert largest_p_for_T(19) == 67

    def test_absent(self):
        assert largest_p_for_T(3, 10) is None
        assert largest_p_for_T(3, 12) == 11  # phi(10) = 4

    def test_rejects_even_or_tiny(self):
        with pytest.raises(ValueError):
            largest_p_for_T(4)
        with pytest.raises(ValueError):
            largest_p_for_T(1)

    def test_fixture_periods_on_one_shared_sieve(self):
        fixture = search._expected_tables()
        periods = [(exp["T"], exp["p"]) for exp in fixture["table1"] + fixture["table2"]]
        phi = search._phi_sieve(max(default_p_cap(T) for T, _ in periods))
        for T, p in periods:
            assert largest_p_for_T(T) == search._largest_p(T, default_p_cap(T), phi) == p

    @pytest.mark.parametrize("table", [reproduce_table1, reproduce_table2])
    def test_one_phi_sieve_per_table(self, monkeypatch, table):
        built = []
        real = search._phi_sieve
        monkeypatch.setattr(search, "_phi_sieve", lambda n: built.append(n) or real(n))
        table()
        assert len(built) == 1


def make_row(T, p, ord_t=None, q=None):
    return SearchRow(T=T, p=p, ord_T_2=ord_t, q=q, mersenne=False)


class TestFlagRow:
    def test_t131(self):
        row = make_row(131, 269, ord_t=130, q=263)
        assert row.flags == {FLAG_SMALL_LOG2Q, FLAG_LARGE_RATIO}

    def test_t127(self):
        row = make_row(127, 409, ord_t=7)
        assert row.flags == {FLAG_SMALL_ORD}

    def test_t107_clean(self):
        row = make_row(107, 379, ord_t=106)
        assert row.flags == frozenset()

    def test_ratio_threshold_is_exact(self):
        # 2204/6619 = 0.3329... sits just below 1/3
        row = make_row(2203, 6619, ord_t=734)
        assert FLAG_LARGE_RATIO not in row.flags
        row = make_row(3, 11)  # 4/11 > 1/3
        assert FLAG_LARGE_RATIO in row.flags

    def test_replacing_q_updates_log2q_and_flags(self):
        row = make_row(107, 379, ord_t=106)
        assert (row.log2q, row.flags) == (None, frozenset())
        row = replace(row, q=2 ** 9 + 1, q_source="verified")  # 10 * 9 < 107
        assert row.log2q == 9
        assert row.flags == {FLAG_SMALL_LOG2Q}
        assert row.ratio == Fraction(108, 379)

    @pytest.mark.parametrize("derived", ["log2q", "ratio", "flags"])
    def test_derived_values_are_not_arguments(self, derived):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            SearchRow(T=107, p=379, ord_T_2=106, q=None, mersenne=False, **{derived: None})


class TestTables:
    def test_table1(self):
        rows, issues = reproduce_table1()
        assert issues == []
        assert len(rows) == 9
        assert [r.T for r in rows] == [3, 5, 7, 19, 31, 107, 127, 1279, 2203]
        assert all(r.mersenne for r in rows)
        assert all(r.q is None for r in rows)

    def test_table2(self):
        rows, issues = reproduce_table2(factor_k_max=10 ** 6)
        assert issues == []
        assert len(rows) == 15
        by_t = {r.T: r for r in rows}
        assert (by_t[59].q, by_t[59].log2q, by_t[59].p, by_t[59].ord_T_2) == (
            179951, 17, 199, 58)
        assert by_t[191].q == 383 and FLAG_SMALL_LOG2Q in by_t[191].flags
        assert by_t[199].q == 164504919713
        assert by_t[199].q_source == "verified"
        assert all(
            r.q_source == "discovered" for r in rows if r.T != 199
        )

    def test_missing_p_is_a_discrepancy_without_a_row(self, monkeypatch):
        import rootparity.search as search

        found = search._largest_p
        monkeypatch.setattr(
            search, "_largest_p",
            lambda T, p_cap, phi: None if T == 7 else found(T, p_cap, phi))
        rows, issues = reproduce_table1()
        assert [r.T for r in rows] == [3, 5, 19, 31, 107, 127, 1279, 2203]
        assert [(d.T, d.field, d.expected, d.actual) for d in issues] == [
            (7, "p", 31, None)]

    def test_budget_miss_falls_back_to_the_fixture_factor(self):
        rows, issues = reproduce_table2(factor_k_max=1)
        assert issues == []
        by_t = {r.T: r for r in rows}
        assert by_t[11].q_source == "discovered"  # 23 = 2*1*11 + 1
        # 431 = 2*5*43 + 1 lies beyond a budget of one candidate
        assert (by_t[43].q, by_t[43].log2q, by_t[43].q_source) == (431, 8, "verified")


class TestScan:
    def test_single_prime_row(self):
        rows = list(scan(11, 12))
        assert len(rows) == 1
        row = rows[0]
        assert (row.p, row.T) == (11, 3)
        assert row.ratio == Fraction(4, 11)
        assert FLAG_LARGE_RATIO in row.flags

    def test_contains_p13(self):
        rows = {r.p: r for r in scan(11, 20)}
        assert rows[13].T == 3
        assert rows[13].mersenne

    def test_filtered_contains_table_survivors(self):
        crit = ScanCriteria(require_t_prime=True, require_no_flags=True)
        got = {r.p for r in scan(11, 500, crit)}
        assert {43, 79, 211} <= got

    def test_rows_internally_consistent(self):
        for row in scan(11, 300):
            assert row.T == euler_phi(row.p - 1) - 1
            assert is_prime(row.p)
            assert row.ratio == Fraction(row.T + 1, row.p)
            if row.mersenne:
                assert row.q is None
            if row.q is not None:
                assert pow(2, row.T, row.q) == 1

    def test_two_primitive_root_criterion(self):
        crit = ScanCriteria(require_two_primitive_root_mod_t=True)
        for row in scan(11, 300, crit):
            assert row.ord_T_2 == row.T - 1

    def test_deterministic(self):
        a = list(scan(11, 200))
        b = list(scan(11, 200))
        assert a == b

    def test_workers_match_serial(self):
        crit = ScanCriteria(workers=2)
        par = list(scan(11, 150, crit))
        ser = list(scan(11, 150))
        assert par == ser

    def test_rejects_small_p_min(self):
        # on the call itself, before any row is asked for
        with pytest.raises(ValueError):
            scan(5, 100)
        with pytest.raises(ValueError):
            scan(5, 100, ScanCriteria(workers=2))

    def test_rows_are_built_as_they_are_asked_for(self, monkeypatch):
        built = []
        real = search.build_row
        monkeypatch.setattr(search, "build_row",
                            lambda p, factor_k_max: built.append(p) or real(p, factor_k_max))
        rows = scan(11, 100)
        assert built == []
        assert next(rows).p == 11
        assert built == [11]


class TestLucasLehmerStaysOffTheHotPath:
    """Rows and tables must not run Lucas-Lehmer: the exponent table answers.
    perfbench/expected.json holds the rows as built with Lucas-Lehmer."""

    @pytest.fixture(autouse=True)
    def no_lucas_lehmer(self, monkeypatch):
        def refuse(T):
            raise AssertionError(f"Lucas-Lehmer run for T={T}")
        monkeypatch.setattr(numtheory, "_lucas_lehmer", refuse)

    @pytest.fixture(scope="class")
    def expected(self):
        path = Path(__file__).parents[1] / "perfbench" / "expected.json"
        return json.loads(path.read_text())

    @staticmethod
    def assert_rows(rows, want):
        got = [{"T": r.T, "p": r.p, "ord": r.ord_T_2, "q": r.q, "log2q": r.log2q,
                "ratio": f"{r.ratio.numerator}/{r.ratio.denominator}",
                "flags": sorted(r.flags), "mersenne": r.mersenne} for r in rows]
        assert got == want

    def test_scan_rows_up_to_7000(self, expected):
        want = [r for r in expected["scan"]["rows"] if r["p"] <= 7000]
        self.assert_rows([build_row(p) for p in range(11, 7001) if is_prime(p)], want)

    def test_tables(self, expected):
        for table, want in ((reproduce_table1, expected["tables"]["1"]),
                            (reproduce_table2, expected["tables"]["2"])):
            rows, issues = table()
            assert issues == []
            self.assert_rows(rows, want)
