import csv
import io
import json
from decimal import Decimal

import pytest

from rootparity import cli, complexity, sequence
from rootparity.search import scan


def run(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


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


class TestPatterns:
    def test_p13_ell2(self):
        code, text = run(
            ["patterns", "--p", "13", "--ell", "2", "--format", "json-lines"]
        )
        doc = json.loads(text)
        assert doc["counts"] == {"00": 0, "01": 1, "10": 1, "11": 0}


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
        assert docs == [cli.row_to_json(r) for r in rows]

    def test_small_p_min_fails_before_the_csv_header(self, capsys):
        argv = ["scan", "--p-min", "5", "--p-max", "30", "--format", "csv"]
        assert run(argv) == (cli.EXIT_USAGE, "")
        assert "p_min must be >= 11" in capsys.readouterr().err

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
        doc = json.loads(json.dumps(cli.row_to_json(row)))
        assert isinstance(doc["q"], str)
        assert int(doc["q"]) == row.q
        assert (doc["log2q"], doc["ratio"]) == (60, "200/751")
        assert doc == cli.row_to_json(row)


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


class TestUsageErrors:
    def test_missing_command(self):
        code, _ = run([])
        assert code == cli.EXIT_USAGE

    def test_bad_range(self):
        code, _ = run(["analyze", "--p-range", "100..11"])
        assert code == cli.EXIT_USAGE
