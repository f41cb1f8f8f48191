"""Tests of the CLI benchmark itself: inputs, output checks and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import traced_cli  # noqa: E402
import workloads  # noqa: E402
from rootparity.numtheory import euler_phi, is_prime  # noqa: E402

DATA = workloads.load_expected()
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _cli(args, traced, tmp_path):
    if traced:
        argv = [sys.executable, str(run.TRACED_ENTRY), str(tmp_path / "spans.json"), "0", "--", *args]
    else:
        argv = [sys.executable, "-m", "rootparity.cli", *args]
    return subprocess.run(argv, env=run.child_env(), capture_output=True, cwd=run.ROOT)


def test_every_ladder_prime_has_composite_period():
    # keeps Lucas-Lehmer and the factor hunt out of complexity-ladder
    for rung in DATA["ladder"]:
        assert rung["candidates"][0]["p"] == rung["rung"]
        for cand in rung["candidates"]:
            T = euler_phi(cand["p"] - 1) - 1
            assert is_prime(cand["p"]) and T == cand["T"] and not is_prime(T)


def test_seed_zero_gives_the_documented_inputs():
    assert workloads.choose_inputs("search", 0, DATA) == {"p_max": 7000}
    assert workloads.choose_inputs("analyze-range", 0, DATA) == {"hi": 2000}
    assert workloads.choose_inputs("complexity-ladder", 0, DATA) == {
        "primes": [6607, 50021, 100019, 300017]
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_are_deterministic_and_stay_in_their_windows(name):
    for seed in range(1, 20):
        inputs = workloads.choose_inputs(name, seed, DATA)
        assert inputs == workloads.choose_inputs(name, seed, DATA)
        if name == "search":
            lo, hi = DATA["scan"]["p_max_window"]
            assert lo <= inputs["p_max"] <= hi
        elif name == "analyze-range":
            lo, hi = DATA["analyze_range"]["hi_window"]
            assert lo <= inputs["hi"] <= hi
        else:
            assert len(inputs["primes"]) == len(workloads.LADDER_RUNGS)


def test_checks_compare_s2_by_value_and_catch_wrong_values(tmp_path):
    out = _cli(["analyze", "--p-range", "11..60", "--format", "json-lines"], False, tmp_path)
    rows = [r for r in DATA["analyze_range"]["rows"] if r["p"] <= 60]
    check = workloads.Command("analyze", (), workloads._analyze_check(rows)).verify
    assert out.returncode == 0 and check(out.stdout) is None
    docs = [json.loads(line) for line in out.stdout.decode().splitlines()]
    as_hex = [dict(d, S2=hex(int(d["S2"]))) for d in docs]
    assert check("\n".join(map(json.dumps, as_hex)).encode()) is None
    wrong = [dict(d, L=d["L"] + 1) if i == 3 else d for i, d in enumerate(docs)]
    assert "row 3 differs in L" in check("\n".join(map(json.dumps, wrong)).encode())
    assert check(b"not json\n").startswith("malformed output")


def test_layer_totals_subtract_child_spans():
    doc = {
        "names": ["cli.run", "numtheory.is_prime", "bounds.classify_eta"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [1, 4.0, 5.0, 0], [2, 6.0, 6.5, 0]],
        "counters": {"numtheory.smallest_mersenne_factor": {"candidates": 7, "found": 1}},
        "cache": {"numtheory.primitive_roots": [3, 1]},
    }
    totals = traced_cli.layer_totals(doc)
    assert totals["cli.run.self_s"] == pytest.approx(6.5)
    assert totals["numtheory.is_prime.calls"] == 2
    assert totals["numtheory.is_prime.self_s"] == pytest.approx(3.0)
    assert totals["bounds.calls"] == 1 and totals["bounds.self_s"] == pytest.approx(0.5)
    assert totals["numtheory.smallest_mersenne_factor.candidates"] == 7
    assert totals["numtheory.primitive_roots.cache_hits"] == 3


@pytest.mark.parametrize("args", [
    ["tables", "--which", "1", "--format", "json-lines"],
    ["analyze", "--p-range", "11..200", "--format", "json-lines"],
    ["czcheck", "--p", "13", "--s-max", "2", "--format", "json-lines"],
    ["patterns", "--p", "31", "--ell", "2", "--format", "csv"],
    ["generate", "--p", "9"],
])
def test_traced_and_untraced_output_are_byte_identical(args, tmp_path):
    plain = _cli(args, False, tmp_path)
    traced = _cli(args, True, tmp_path)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_layer_self_times_fit_in_the_traced_wall_time(tmp_path):
    start = perf_counter()
    out = _cli(["analyze", "--p-range", "11..300", "--format", "json-lines"], True, tmp_path)
    wall = perf_counter() - start
    assert out.returncode == 0
    totals = traced_cli.layer_totals(json.loads((tmp_path / "spans.json").read_text()))
    assert totals["complexity.full_report.calls"] == sum(map(is_prime, range(11, 301)))
    assert 0 < sum(v for k, v in totals.items() if k.endswith(".self_s")) <= wall


def test_child_environment_cannot_change_the_workload(monkeypatch):
    for name in ("ROOTPARITY_FACTOR_K_MAX", "ROOTPARITY_WORKERS", "PYTHONINTMAXSTRDIGITS"):
        monkeypatch.setenv(name, "5")
    env = run.child_env()
    assert not set(env) & {"ROOTPARITY_FACTOR_K_MAX", "ROOTPARITY_WORKERS", "PYTHONINTMAXSTRDIGITS"}
    assert env["PYTHONPATH"] == str(run.SRC)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
