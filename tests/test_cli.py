import argparse
import csv
import decimal
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from decimal import Decimal
from itertools import product
from pathlib import Path

import pytest

from rootparity import cli, complexity, sequence
from rootparity.numtheory import PSI_12, is_prime
from rootparity.search import build_row, scan


# the options with a fixed cap that does not depend on p
CAPPED = [
    (["patterns", "--p", "1009", "--ell"], sequence.MAX_ELL),
    (["czcheck", "--p", "1009", "--s-max"], cli.MAX_S_MAX),
]


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def emitted_row(row):
    """A row's json-lines record, parsed back."""
    out = io.StringIO()
    cli._emit_rows(out, "json-lines", [row])
    return json.loads(out.getvalue())


class TestGenerate:
    def test_p13_text(self):
        code, text = run(["generate", "--p", "13"])
        assert code == 0
        assert "bits = 010" in text
        assert "T = 3" in text

    def test_p13_variant_t(self):
        code, text = run(["generate", "--p", "13", "--variant", "t"])
        assert code == 0
        assert "bits = 010" in text

    def test_invalid_p(self):
        code, _ = run(["generate", "--p", "9"])
        assert code == cli.EXIT_USAGE

    def test_json(self):
        code, text = run(["generate", "--p", "19", "--format", "json-lines"])
        doc = json.loads(text)
        assert doc["bits"] == "11111"
        assert doc["eta"] == "6/19"


class TestAnalyze:
    def test_p13(self):
        code, text = run(["analyze", "--p", "13", "--format", "json-lines"])
        assert code == 0
        doc = json.loads(text)
        assert (doc["L"], doc["C"], doc["n1"], doc["n0"]) == (3, 2, 1, 2)

    def test_p43_bounds(self):
        code, text = run(["analyze", "--p", "43", "--format", "json-lines"])
        doc = json.loads(text)
        assert (doc["L_lower"], doc["C_lower"]) == (10, 4)

    def test_range_csv(self):
        code, text = run(["analyze", "--p-range", "11..60", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == cli.ANALYZE_CSV_HEADER
        assert [r[0] for r in rows[1:]] == [
            str(p) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
        ]

    def test_csv_header_and_text_keys_are_the_record_keys(self):
        code, text = run(["analyze", "--p", "103", "--format", "json-lines"])
        assert code == 0
        keys = list(json.loads(text))
        header = keys.copy()
        header.insert(keys.index("eta") + 1, "eta_frac")
        assert header == cli.ANALYZE_CSV_HEADER
        code, text = run(["analyze", "--p", "103"])
        assert code == 0
        assert [line.split(" = ")[0] for line in text.splitlines() if line] == keys
        code, text = run(["analyze", "--p", "103", "--format", "csv"])
        assert code == 0
        assert [len(row) for row in csv.reader(io.StringIO(text))] == [len(header)] * 2

    def test_range_primes_are_tested_as_the_records_are_written(self, monkeypatch):
        class ClosedOut(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        tested = []
        monkeypatch.setattr(cli, "is_prime", lambda n: tested.append(n) or is_prime(n))
        with pytest.raises(BrokenPipeError):
            cli.run(["analyze", "--p-range", "11..1000000"], ClosedOut())
        assert 0 < len(tested) < 100

    def test_big_s2_serialized_as_string(self):
        code, text = run(["analyze", "--p", "751", "--format", "json-lines"])
        doc = json.loads(text)
        assert isinstance(doc["S2"], str)
        assert int(doc["S2"]) > 2 ** 53

    def test_s2_beyond_the_int_str_digit_limit(self):
        # T = 19199: S2 has 5780 decimal digits, past str(int)'s 4300
        want = complexity.full_report(sequence.build_context(50021)).S2
        code, text = run(["analyze", "--p", "50021", "--format", "json-lines"])
        assert code == 0
        assert int(Decimal(json.loads(text)["S2"])) == want
        code, text = run(["analyze", "--p", "50021"])
        assert code == 0
        doc = dict(line.split(" = ") for line in text.splitlines() if line)
        assert int(Decimal(doc["S2"])) == want

    def test_bm_gcd_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            complexity, "linear_complexity_bm",
            lambda seq: complexity.linear_complexity_gcd(seq) + 1,
        )
        assert run(["analyze", "--p", "43"]) == (cli.EXIT_INCONSISTENT, "")
        assert "internal inconsistency" in capsys.readouterr().err

    def test_bm_and_gcd_agreeing_on_a_wrong_l_exit_3(self, monkeypatch, capsys):
        # p = 43: T = 11 is prime, ord_11(2) = 10, so L - 1 fails the
        # cyclotomic check T - L = [S(1) = 0] (mod 10)
        seq = sequence.build_s_sequence(sequence.build_context(43))
        wrong = complexity.linear_complexity_gcd(seq) - 1
        for name in ("linear_complexity_bm", "linear_complexity_gcd"):
            monkeypatch.setattr(complexity, name, lambda seq: wrong)
        assert run(["analyze", "--p", "43"]) == (cli.EXIT_INCONSISTENT, "")
        assert "(mod ord_T(2)) at T=11" in capsys.readouterr().err


class TestJsonInt:
    def test_the_2_53_rule(self):
        assert cli._json_int(None) is None
        assert cli._json_int(2 ** 53) == 2 ** 53
        assert cli._json_int(-2 ** 53) == -2 ** 53
        assert cli._json_int(2 ** 53 + 1) == "9007199254740993"

    @pytest.mark.parametrize("n", [
        2 ** 2999, 2 ** 3000 - 1, 2 ** 3000 + 1, 2 ** 3001 - 1,
        10 ** 4000, 10 ** 5000 - 1, -(3 ** 7001),
    ], ids=["2^2999", "2^3000-1", "2^3000+1", "2^3001-1", "10^4000", "10^5000-1", "-3^7001"])
    def test_split_is_str_of_decimal_at_the_leaf_edges(self, n):
        # 2^2999 and 2^3000 - 1 are single 3000-bit leaves; 2^3000 + 1 and 2^3001 - 1 split once
        assert cli._json_int(n) == str(Decimal(n))

    def test_split_is_str_of_decimal_on_random_ints(self):
        rng = random.Random(20210517)
        for _ in range(40):
            bits = int(10 ** rng.uniform(3.4, 5.7))  # 2500 to 5e5 bits
            n = rng.getrandbits(bits) * rng.choice((1, -1))
            if abs(n) > 2 ** 53:
                assert cli._json_int(n) == str(Decimal(n)), bits

    def test_leaves_the_callers_context_untouched(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            assert cli._json_int(7 ** 20000) == str(Decimal(7 ** 20000))
            assert decimal.getcontext() is ctx and ctx.prec == 5
            assert not any(ctx.flags.values())


class TestPatterns:
    def test_p13_ell2(self):
        code, text = run(
            ["patterns", "--p", "13", "--ell", "2", "--format", "json-lines"]
        )
        doc = json.loads(text)
        assert doc["counts"] == {"00": 0, "01": 1, "10": 1, "11": 0}

    @pytest.mark.parametrize("ell", ["0", "-2"])
    def test_ell_below_1_fails_at_the_parser(self, ell, monkeypatch, capsys):
        monkeypatch.setattr(cli.sequence, "build_context",
                            lambda p: pytest.fail("a context was built"))
        assert run(["patterns", "--p", "13", "--ell", ell]) == (cli.EXIT_USAGE, "")
        assert f"argument --ell: must be >= 1, got {ell}" in capsys.readouterr().err


class TestCzCheck:
    def test_p13(self):
        code, text = run(["czcheck", "--p", "13", "--format", "json-lines"])
        assert code == 0
        docs = [json.loads(line) for line in text.splitlines()]
        assert len(docs) == 2 + 4 + 8
        assert all(d["holds"] for d in docs)

    def test_csv(self):
        code, text = run(["czcheck", "--p", "13", "--s-max", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["p", "epsilons", "m", "main_term", "bound", "holds"]
        assert [r[1] for r in rows[1:]] == ["+", "-", "++", "+-", "-+", "--"]
        assert [r[2] for r in rows[1:3]] == ["4", "8"]
        assert all(r[0] == "13" and r[5] == "True" for r in rows[1:])

    def test_json_lines_and_csv_carry_the_checks_exactly(self):
        # both sides compute the floats on the same libm
        vectors = [list(eps) for s in (1, 2, 3) for eps in product((1, -1), repeat=s)]
        want = [sequence.cz_bound_check(103, eps) for eps in vectors]
        argv = ["czcheck", "--p", "103", "--s-max", "3", "--format"]
        code, text = run([*argv, "json-lines"])
        assert code == 0
        docs = [json.loads(line) for line in text.splitlines()]
        assert [(d["p"], d["epsilons"]) for d in docs] == [(103, eps) for eps in vectors]
        assert [sequence.CzCheck(d["m"], d["main_term"], d["bound"], d["holds"])
                for d in docs] == want
        assert all(type(d["holds"]) is bool for d in docs)
        code, text = run([*argv, "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["epsilons"] for r in rows] == [cli._signs(eps) for eps in vectors]
        assert [sequence.CzCheck(int(r["m"]), float(r["main_term"]), float(r["bound"]),
                                 {"True": True, "False": False}[r["holds"]])
                 for r in rows] == want

    @pytest.mark.parametrize("s_max", ["0", "13"])
    def test_s_max_outside_1_to_p_minus_1_fails_before_any_check(
        self, s_max, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli.sequence, "cz_bound_check",
                            lambda p, eps: calls.append(eps))
        argv = ["czcheck", "--p", "13", "--s-max", s_max, "--format", "csv"]
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert calls == []
        expected = {"0": "argument --s-max: must be >= 1, got 0",
                    "13": "s_max must lie in [1, 12], got 13"}
        assert expected[s_max] in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["-5", "9", "7", "15"])
    def test_p_must_be_a_prime_of_at_least_11(self, p, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.sequence, "cz_bound_check",
                            lambda p, eps: calls.append(eps))
        assert run(["czcheck", "--p", p, "--s-max", "3"]) == (cli.EXIT_USAGE, "")
        assert calls == []
        err = capsys.readouterr().err
        assert "--p" in err and f"got {p}" in err

    def test_ignores_the_removed_environment_overrides(self, monkeypatch):
        expected = run(["czcheck", "--p", "13"])
        monkeypatch.setenv("ROOTPARITY_FACTOR_K_MAX", "abc")
        monkeypatch.setenv("ROOTPARITY_WORKERS", "-3")
        assert run(["czcheck", "--p", "13"]) == expected
        assert expected[0] == cli.EXIT_OK

    def test_violation_exits_3_after_every_record(self, monkeypatch):
        from rootparity.sequence import CzCheck

        monkeypatch.setattr(
            cli.sequence, "cz_bound_check",
            lambda p, eps: CzCheck(m=1, main_term=0.0, bound=0.5, holds=len(eps) != 1),
        )
        code, text = run(["czcheck", "--p", "13", "--s-max", "2", "--format", "json-lines"])
        assert code == cli.EXIT_INCONSISTENT
        assert [json.loads(line)["holds"] for line in text.splitlines()] == [
            False, False, True, True, True, True]


class TestTables:
    def test_table1(self):
        code, text = run(["tables", "--which", "1", "--format", "json-lines"])
        assert code == 0
        docs = [json.loads(line) for line in text.splitlines()]
        assert len(docs) == 9
        assert docs[0]["p"] == 13

    def test_table2_csv_header(self):
        code, text = run(["tables", "--which", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == cli.ROW_CSV_HEADER
        assert len(rows) == 16


class TestScanCommand:
    def test_scan_json_roundtrip(self):
        code, text = run(
            ["scan", "--p-min", "11", "--p-max", "100", "--format", "json-lines"]
        )
        assert code == 0
        rows = list(scan(11, 100))
        docs = [json.loads(line) for line in text.splitlines()]
        assert docs == [emitted_row(r) for r in rows]

    def test_small_p_min_fails_before_the_csv_header(self, capsys):
        argv = ["scan", "--p-min", "5", "--p-max", "30", "--format", "csv"]
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert "argument --p-min: must be >= 11, got 5" in capsys.readouterr().err

    def test_big_q_roundtrip(self):
        # a q beyond 2^53 must survive the string serialization
        from rootparity.search import SearchRow

        row = SearchRow(
            T=199,
            p=751,
            ord_T_2=99,
            q=2 ** 60 + 33,
            mersenne=False,
            q_source="verified",
        )
        doc = emitted_row(row)
        assert isinstance(doc["q"], str)
        assert int(doc["q"]) == row.q
        assert (doc["log2q"], doc["ratio"]) == (60, "200/751")
        assert doc == row.record() | {"q": str(row.q), "ratio": "200/751"}

    def test_p_beyond_2_53_is_the_decimal_string_of_the_text(self):
        # p = 10^16 + 61, the one prime in the range, is above 2^53
        argv = ["scan", "--p-min", "10000000000000060", "--p-max", "10000000000000062"]
        code, text = run(argv)
        assert code == 0
        fields = dict(f.split("=", 1) for f in text.split() if "=" in f)
        code, line = run(argv + ["--format", "json-lines"])
        assert code == 0
        assert json.loads(line)["p"] == fields["p"] == "10000000000000061"

    def test_every_row_integer_beyond_2_53_is_a_string(self):
        from rootparity.search import SearchRow

        big = 2 ** 53 + 1
        row = SearchRow(T=big + 2, p=big + 4, ord_T_2=big, q=big + 6, mersenne=False)
        doc = emitted_row(row)
        assert [doc[k] for k in ("T", "p", "ord", "q")] == [
            str(big + 2), str(big + 4), str(big), str(big + 6)]
        assert emitted_row(row._replace(ord_T_2=2 ** 53))["ord"] == 2 ** 53

    @pytest.mark.parametrize("argv", [
        ["scan", "--p-min", "11", "--p-max", "100"],
        ["tables", "--which", "1"],
        ["tables", "--which", "2"],
    ])
    def test_json_keys_and_csv_header_are_the_record_keys(self, argv):
        code, text = run(argv + ["--format", "json-lines"])
        assert code == 0
        keys = list(build_row(43).record())
        assert {tuple(json.loads(line)) for line in text.splitlines()} == {tuple(keys)}
        header = keys.copy()
        header.insert(keys.index("ratio") + 1, "ratio_frac")
        assert header == cli.ROW_CSV_HEADER


class TestEmptyRanges:
    @pytest.mark.parametrize("argv", [
        ["scan", "--p-min", "24", "--p-max", "28"],
        ["analyze", "--p-range", "24..28"],
    ])
    def test_csv_prints_only_the_header(self, argv):
        header = cli.ROW_CSV_HEADER if argv[0] == "scan" else cli.ANALYZE_CSV_HEADER
        code, text = run(argv + ["--format", "csv"])
        assert code == 0
        assert list(csv.reader(io.StringIO(text))) == [header]
        for fmt in ("json-lines", "text"):
            assert run(argv + ["--format", fmt]) == (0, "")

    def test_emitter_writes_the_csv_header_before_the_first_record(self):
        docs_seen = []

        def docs():
            docs_seen.append(out.getvalue())
            yield {"a": 1, "b": None}

        out = io.StringIO()
        cli._emit(out, "csv", docs(), str, ["a", "b"])
        assert docs_seen == ["a,b\r\n"]
        assert out.getvalue() == "a,b\r\n1,\r\n"
        out = io.StringIO()
        cli._emit(out, "csv", iter(()), str, ["a", "b"])
        assert out.getvalue() == "a,b\r\n"


FORMAT = {"--format": (False, "text", ("text", "json-lines", "csv"))}
REQUIRED = (True, None, None)


def _budget(default):
    return {"--factor-k-max": (False, default, None)}


# Each command's options as {option: (required, default, choices)}, help left
# out, and the option sets of its required mutually exclusive groups.
PARSER_SURFACE = {
    "generate": ({"--p": REQUIRED, "--variant": (False, "s", ("s", "t")), **FORMAT},
                 []),
    "analyze": ({"--p": (False, None, None), "--p-range": (False, None, None),
                 **_budget(10 ** 6), **FORMAT},
                [{"--p", "--p-range"}]),
    "patterns": ({"--p": REQUIRED, "--ell": REQUIRED, **FORMAT}, []),
    "czcheck": ({"--p": REQUIRED, "--s-max": (False, 3, None), **FORMAT}, []),
    "tables": ({"--which": (True, None, (1, 2)), **_budget(10 ** 6), **FORMAT}, []),
    "scan": ({"--p-min": REQUIRED, "--p-max": REQUIRED,
              "--t-prime": (False, False, None), "--no-flags": (False, False, None),
              "--two-primitive-root": (False, False, None),
              **_budget(10 ** 4), **FORMAT},
             []),
}


class TestParserSurface:
    @staticmethod
    def _commands():
        sub, = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_the_six_commands(self):
        assert set(self._commands()) == set(PARSER_SURFACE)

    @pytest.mark.parametrize("command", PARSER_SURFACE)
    def test_options_defaults_choices_and_required_flags(self, command):
        parser = self._commands()[command]
        options = {
            action.option_strings[0]: (
                action.required, action.default,
                None if action.choices is None else tuple(action.choices))
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert all(len(a.option_strings) == 1 for a in parser._actions
                   if not isinstance(a, argparse._HelpAction))
        groups = [{a.option_strings[0] for a in g._group_actions}
                  for g in parser._mutually_exclusive_groups if g.required]
        assert (options, groups) == PARSER_SURFACE[command]

    @pytest.mark.parametrize("command", PARSER_SURFACE)
    def test_help_exits_0(self, command, capsys):
        code, text = run([command, "--help"])
        assert code == cli.EXIT_OK and "--format" in text
        assert capsys.readouterr().out == ""


class TestUsageErrors:
    def test_missing_command(self):
        code, _ = run([])
        assert code == cli.EXIT_USAGE

    def test_bad_range(self):
        code, _ = run(["analyze", "--p-range", "100..11"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["analyze", "--p", "43"],
        ["tables", "--which", "2"],
        ["scan", "--p-min", "11", "--p-max", "30"],
    ])
    def test_negative_factor_budget(self, argv, capsys):
        assert run(argv + ["--factor-k-max", "-5"]) == (cli.EXIT_USAGE, "")
        assert "--factor-k-max" in capsys.readouterr().err

    # 86225233 is the first prime above sequence.MAX_P
    @pytest.mark.parametrize("p", ["-5", "9", "7", str(4 * 10 ** 23), "1000000007",
                                   "86225233"])
    @pytest.mark.parametrize("argv", [
        ["generate"], ["analyze"], ["patterns", "--ell", "2"], ["czcheck"],
    ])
    def test_p_must_be_a_prime_of_at_least_11_below_psi_12(
        self, argv, p, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.sequence, "build_context",
                            lambda p: pytest.fail("a context was built"))
        assert run(argv + ["--p", p]) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert "argument --p" in err and f"got {p}" in err

    def test_workers_is_not_an_option(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.search, "scan", lambda *args: pytest.fail("scan ran"))
        argv = ["scan", "--p-min", "11", "--p-max", "30", "--workers", "2"]
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_ell_and_s_max_above_the_cap_fail_at_the_parser(
        self, argv, cap, monkeypatch, capsys
    ):
        for name in ("build_context", "cz_bound_check"):
            monkeypatch.setattr(cli.sequence, name,
                                lambda *args: pytest.fail("the command ran"))
        assert run(argv + [str(cap + 1)]) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: must be <= {cap}, got {cap + 1}" in err

    @pytest.mark.parametrize("argv, cap", CAPPED)
    def test_ell_and_s_max_caps_are_accepted(self, argv, cap):
        args = cli.build_parser().parse_args(argv + [str(cap)])
        assert (args.ell if argv[0] == "patterns" else args.s_max) == cap

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--p-range", "5..20"],
         "argument --p-range: lower end must be >= 11, got 5"),
        (["analyze", "--p-range", f"{PSI_12 - 2}..{PSI_12}"],
         f"argument --p-range: upper end must be <= {cli.MAX_ANALYZE_P}, got {PSI_12}"),
        (["scan", "--p-min", "11", "--p-max", str(PSI_12)],
         f"argument --p-max: must be below psi_12 ~ 3.19e23, got {PSI_12}"),
        (["analyze", "--p-range", f"11..{cli.MAX_ANALYZE_P + 1}"],
         f"argument --p-range: upper end must be <= {cli.MAX_ANALYZE_P}, "
         f"got {cli.MAX_ANALYZE_P + 1}"),
    ])
    def test_prime_range_outside_11_to_psi_12_fails_at_the_parser(
        self, argv, message, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.sequence, "build_context",
                            lambda p: pytest.fail("a context was built"))
        monkeypatch.setattr(cli.search, "scan", lambda *args: pytest.fail("scan ran"))
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["analyze", "--p", "86225219"], "--p"),
        (["analyze", "--p-range", "11..4194309"], "--p-range"),
    ])
    def test_analyze_past_its_ceiling_exits_1_at_once(self, argv, option, capsys):
        # 86225219 is under sequence.MAX_P, where analyze would run for hours
        start = time.monotonic()
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert time.monotonic() - start < 1
        assert f"argument {option}: " in capsys.readouterr().err

    def test_analyze_ceiling_keeps_periods_within_max_lc_t(self):
        # T <= (p - 3)/2; 4194287 = 2q + 1 with q prime gives T = q - 2 = 2097141
        assert cli.MAX_ANALYZE_P == 2 * complexity.MAX_LC_T + 3 == 4194307
        args = cli.build_parser().parse_args(["analyze", "--p", "4194287"])
        assert args.p == 4194287 and (args.p - 3) // 2 <= complexity.MAX_LC_T

    @pytest.mark.parametrize("argv, option, value", [
        (["generate", "--p", "abc"], "--p", "abc"),
        (["analyze", "--p", "43", "--factor-k-max", "1e3"], "--factor-k-max", "1e3"),
        (["czcheck", "--p", "13", "--s-max", "two"], "--s-max", "two"),
        (["analyze", "--p-range", "a..b"], "--p-range", "a"),
        (["scan", "--p-min", "11", "--p-max", "x"], "--p-max", "x"),
    ])
    def test_non_integer_names_the_option_and_the_value(
        self, argv, option, value, capsys
    ):
        assert run(argv) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert f"argument {option}: must be an integer, got {value!r}" in err
        assert "invalid" not in err

    def test_zero_factor_budget_is_allowed(self):
        code, text = run(["analyze", "--p", "43", "--factor-k-max", "0",
                          "--format", "json-lines"])
        assert code == cli.EXIT_OK
        assert json.loads(text)["C_lower"] is None


class TestInternalFaults:
    # only an argument the parser cannot check is a usage error
    def test_value_error_inside_analyze_exits_3(self, monkeypatch, capsys):
        def factorize(n):
            raise ValueError("no factors today")

        monkeypatch.setattr(cli.complexity, "factorize", factorize)
        assert run(["analyze", "--p", "103"]) == (cli.EXIT_INCONSISTENT, "")
        assert capsys.readouterr().err.splitlines() == [
            "internal error in analyze: ValueError('no factors today')"]

    def test_value_error_inside_patterns_exits_3(self, monkeypatch, capsys):
        def predicted_pattern_frac(eta, ell, w):
            raise ValueError("internal bug")

        monkeypatch.setattr(sequence, "predicted_pattern_frac", predicted_pattern_frac)
        assert run(["patterns", "--p", "13", "--ell", "2"]) == (cli.EXIT_INCONSISTENT, "")
        assert capsys.readouterr().err.splitlines() == [
            "internal error in patterns: ValueError('internal bug')"]

    def test_memory_error_inside_generate_exits_3(self, monkeypatch, capsys):
        def build_context(p):
            raise MemoryError

        monkeypatch.setattr(cli.sequence, "build_context", build_context)
        assert run(["generate", "--p", "103"]) == (cli.EXIT_INCONSISTENT, "")
        assert capsys.readouterr().err.splitlines() == [
            "internal error in generate: MemoryError()"]

    def test_ell_above_t_stays_a_usage_error(self, capsys):
        assert run(["patterns", "--p", "13", "--ell", "4"]) == (cli.EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: ell must lie in [1, 3], got 4\n"


def _package_env():
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def _python(*args, env=None):
    """Run a new interpreter on the package under test, for at most 60 s."""
    return subprocess.run([sys.executable, *args], env=env or _package_env(),
                          capture_output=True, text=True, timeout=60)


def test_import_loads_no_worker_pool_or_dataclasses():
    # every command pays for its imports at start-up, and scan runs in one
    # process: neither importing the CLI nor scanning loads a pool
    code = ("import io, sys, rootparity.cli; "
            "assert rootparity.cli.run(['scan', '--p-min', '11', '--p-max', '3000'],"
            " io.StringIO()) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'dataclasses')))")
    result = _python("-c", code)
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_each_import_loads_only_what_it_needs():
    # -S: no site module, so nothing such as a .pth file imports the stdlib
    # modules first; the package root loads no module of its own
    code = ("import sys\n"
            "def ours(): return sorted(m for m in sys.modules if m.startswith('rootparity.'))\n"
            "import rootparity; print(ours())\n"
            "import rootparity.numtheory; print(ours())\n"
            "import rootparity.cli; print('importlib.resources' in sys.modules)\n")
    result = _python("-S", "-c", code)
    assert (result.returncode, result.stdout) == (0, "[]\n['rootparity.numtheory']\nFalse\n")


@pytest.mark.parametrize("fmt", ["json-lines", "csv", "text"])
def test_scan_above_the_exponent_table_ends_with_undecided_rows(fmt):
    # p = 1000000033 has the prime period T = 330704639, above the exponent
    # table, and 2^T - 1 has no factor within the scan budget
    result = _python("-m", "rootparity.cli", "scan", "--p-min", "1000000000",
                     "--p-max", "1000002000", "--format", fmt)
    assert result.returncode == cli.EXIT_OK
    lines = result.stdout.splitlines()
    if fmt == "json-lines":
        docs = [json.loads(line) for line in lines]
        undecided = [doc["p"] for doc in docs if doc["mersenne"] is None]
        assert len(docs) == 99 and len(undecided) == 7 and 1000000033 in undecided
    elif fmt == "csv":
        rows = list(csv.DictReader(lines))
        assert len(rows) == 99
        assert next(r for r in rows if r["p"] == "1000000033")["mersenne"] == ""
    else:
        assert len(lines) == 99
        assert "mersenne=None" in next(line for line in lines if " p=1000000033 " in line)


@pytest.mark.parametrize("argv", [
    ["generate", "--p", "999983"],
    ["scan", "--p-min", "11", "--p-max", "300000"],
])
def test_closed_stdout_ends_the_command_by_sigpipe_without_a_message(argv):
    # the output overruns the pipe buffer, so the command is still writing
    # when the reader goes away, as under `| head -c 16`
    proc = subprocess.Popen([sys.executable, "-m", "rootparity.cli", *argv],
                            env=_package_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(16)) == 16
    proc.stdout.close()
    proc.stdout = None  # so that communicate() reads stderr alone
    # stderr ends only when the command has exited
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()  # nothing to do once the command has ended
    assert (proc.returncode, stderr) == (-signal.SIGPIPE, b"")


# Runs the CLI in process, so a range is not split, with the gcd forked for
# every period, as on two CPUs, then reports the forks and whether a child of
# this process is left, on stderr
FORKED_CLI = """
import os, sys
from rootparity import cli, complexity

forks = []
fork = complexity._bm_beside_forked_gcd
complexity._bm_beside_forked_gcd = lambda seq: forks.append(seq) or fork(seq)
complexity.FORK_MIN_T = 1
complexity._two_cpus = lambda: True
gcd = complexity.linear_complexity_gcd
{patch}
code = cli.run(sys.argv[1:])
sys.stdout.flush()
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(f"forks={{len(forks)}} left={{left}}", file=sys.stderr)
raise SystemExit(code)
"""


def _buffered_env():
    """_package_env() with stdout block-buffered, as it is on a pipe by default."""
    return {k: v for k, v in _package_env().items() if k != "PYTHONUNBUFFERED"}


def _forked_cli(argv, patch=""):
    return _python("-c", FORKED_CLI.format(patch=patch), *argv, env=_buffered_env())


@pytest.mark.parametrize("fmt", ["json-lines", "csv", "text"])
def test_forked_gcd_leaves_the_output_byte_identical(fmt):
    # stdout is a pipe, so it is block-buffered: a child that flushed it on
    # the way out would print the records written before its fork again
    argv = ["analyze", "--p-range", "11..400", "--format", fmt]
    serial = _python("-m", "rootparity.cli", *argv, env=_buffered_env())
    forked = _forked_cli(argv)
    primes = sum(map(is_prime, range(11, 401)))
    assert (forked.returncode, forked.stdout) == (serial.returncode, serial.stdout)
    assert serial.returncode == cli.EXIT_OK and serial.stdout.count("\n") >= primes
    assert forked.stderr == f"forks={primes} left=None\n"


def test_forked_gcd_mismatch_exits_3_with_one_line():
    result = _forked_cli(["analyze", "--p", "1009"],
                         "complexity.linear_complexity_gcd = lambda seq: gcd(seq) + 1")
    assert (result.returncode, result.stdout) == (cli.EXIT_INCONSISTENT, "")
    message, tally = result.stderr.splitlines()
    assert message.startswith("internal inconsistency: linear complexity mismatch "
                              "for p=1009: bm=")
    assert tally == "forks=1 left=None"


def test_forked_gcd_that_raises_exits_3_and_leaves_no_child():
    patch = ("def boom(seq):\n    raise ValueError('no gcd today')\n"
             "complexity.linear_complexity_gcd = boom")
    result = _forked_cli(["analyze", "--p", "1009"], patch)
    assert (result.returncode, result.stdout) == (cli.EXIT_INCONSISTENT, "")
    assert result.stderr.splitlines() == [
        "internal error in analyze: ValueError('no gcd today')",
        "forks=1 left=None",
    ]


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return [int(c) for c in f.read().split()]


def _running(pid):
    """Whether pid is a live process: neither gone nor a zombie (read from /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
                    or not complexity._two_cpus(),
                    reason="needs /proc children lists and two CPUs")
def test_sigterm_during_bm_leaves_no_forked_gcd_behind():
    # p = 999983: T = 493583, so the gcd is forked, and it would run for
    # seconds after the parent had gone if the lifeline did not end it
    proc = subprocess.Popen([sys.executable, "-m", "rootparity.cli", "analyze",
                             "--p", "999983"], env=_package_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (children := _children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.terminate()
        assert proc.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 1
        while _running(children[0]) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(children[0])
    finally:
        proc.kill()
        proc.wait()


def _left():
    """A child of this process left to reap, or None: it has none."""
    try:
        return os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None


def _child_owned_p(lo, hi):
    """The first prime in lo..hi whose records the forked child makes."""
    return next(p for p, share in cli._by_period(filter(is_prime, range(lo, hi + 1)))
                if share)


class TestRangeSplit:
    """analyze --p-range as its own process on two CPUs: each period's records
    are made in one of two processes, and the output is that of one CPU."""

    @staticmethod
    def _run(argv, monkeypatch, capsys, two_cpus):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(complexity, "_two_cpus", lambda: two_cpus)
        out = io.StringIO()
        code = cli.run(argv, out, own_process=True)
        assert _left() is None
        return code, out.getvalue(), capsys.readouterr().err, len(forks)

    @pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
    @pytest.mark.parametrize("p_range", ["11..400", "30000..30200"])
    def test_two_cpus_print_what_one_cpu_prints(self, p_range, fmt, monkeypatch, capsys):
        argv = ["analyze", "--p-range", p_range, "--format", fmt]
        split = self._run(argv, monkeypatch, capsys, True)
        serial = self._run(argv, monkeypatch, capsys, False)
        assert split[:3] == serial[:3] and serial[0] == cli.EXIT_OK
        assert (split[3], serial[3]) == (1, 0)
        assert not complexity._forking

    def test_in_process_callers_and_single_primes_keep_one_process(
        self, monkeypatch, capsys
    ):
        # an in-process caller, such as a tracer that wraps the layers, and
        # analyze --p keep every record in this process
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setattr(complexity, "_two_cpus", lambda: True)
        assert run(["analyze", "--p-range", "11..100"])[0] == cli.EXIT_OK
        assert cli.run(["analyze", "--p", "103"], io.StringIO(),
                       own_process=True) == cli.EXIT_OK

    def test_by_period_alternates_new_periods_and_keeps_each(self):
        shares = dict(cli._by_period(p for p in range(11, 2000) if is_prime(p)))
        first = {}
        for p, share in shares.items():
            first.setdefault(sequence.build_context(p).T, share)
        assert list(first.values()) == [i % 2 for i in range(len(first))]
        assert all(shares[p] == first[sequence.build_context(p).T] for p in shares)

    def test_mismatch_in_a_child_record_exits_3_as_on_one_cpu(self, monkeypatch, capsys):
        p = _child_owned_p(11, 400)
        T = sequence.build_context(p).T
        gcd = complexity.linear_complexity_gcd
        monkeypatch.setattr(complexity, "linear_complexity_bm",
                            lambda seq: gcd(seq) + (seq.period == T))
        argv = ["analyze", "--p-range", "11..400", "--format", "csv"]
        split = self._run(argv, monkeypatch, capsys, True)
        serial = self._run(argv, monkeypatch, capsys, False)
        assert split[:3] == serial[:3] and split[3] == 1
        code, text, err, _ = serial
        assert code == cli.EXIT_INCONSISTENT and text.count("\n") > 1
        message, = err.splitlines()
        assert message.startswith(
            f"internal inconsistency: linear complexity mismatch for p={p}: bm=")

    def test_child_killed_by_sigkill_exits_3_with_one_line(self, monkeypatch, capsys):
        parent, p = os.getpid(), _child_owned_p(11, 400)
        doc = cli._analyze_doc

        def killed_in_the_child(q, factor_k_max):
            if q == p and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return doc(q, factor_k_max)

        monkeypatch.setattr(cli, "_analyze_doc", killed_in_the_child)
        code, _, err, forks = self._run(["analyze", "--p-range", "11..400"],
                                        monkeypatch, capsys, True)
        assert (code, forks) == (cli.EXIT_INCONSISTENT, 1)
        assert err.splitlines() == [
            "internal error in analyze: RuntimeError('the forked child ended "
            f"with exit code {-signal.SIGKILL}')"]

    def test_closed_stdout_leaves_no_child(self, monkeypatch):
        class ClosedOut(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(complexity, "_two_cpus", lambda: True)
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(BrokenPipeError):
            cli.run(["analyze", "--p-range", "11..1000000"], ClosedOut(), own_process=True)
        assert _left() is None
        assert fds is None or set(os.listdir("/proc/self/fd")) == fds
        assert not complexity._forking


# Runs the CLI as its own process, with the range split on or off, whatever the CPUs
SPLIT_CLI = """
from rootparity import cli, complexity

complexity._two_cpus = lambda: {two_cpus}
cli.main()
"""


@pytest.mark.parametrize("fmt", ["json-lines", "csv", "text"])
def test_range_split_leaves_buffered_stdout_byte_identical(fmt):
    argv = ["analyze", "--p-range", "11..400", "--format", fmt]
    split, serial = (_python("-c", SPLIT_CLI.format(two_cpus=on), *argv, env=_buffered_env())
                     for on in (True, False))
    assert (split.returncode, split.stdout, split.stderr) == (
        serial.returncode, serial.stdout, serial.stderr)
    assert serial.returncode == cli.EXIT_OK and serial.stdout


def test_import_loads_no_pickle_or_threading():
    # -S, as above: with site, a .pth file may import threading first
    code = ("import sys, rootparity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('pickle', '_pickle', 'threading', 'concurrent', 'multiprocessing')))")
    assert _python("-S", "-c", code).stdout == "[]\n"


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
                    or not complexity._two_cpus(),
                    reason="needs /proc children lists and two CPUs")
def test_sigterm_during_a_split_range_leaves_no_child_behind():
    # 100000..100400 takes seconds, so the child still has records to make
    # when the parent is killed, and would go on without the lifeline
    proc = subprocess.Popen([sys.executable, "-m", "rootparity.cli", "analyze",
                             "--p-range", "100000..100400"], env=_package_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (children := _children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.terminate()
        assert proc.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 1
        while _running(children[0]) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(children[0])
    finally:
        proc.kill()
        proc.wait()
