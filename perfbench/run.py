"""Benchmark of the rootparity command line, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory, so nothing has to be installed.  One closed-loop
client runs the workload's commands one at a time, each in a fresh
``python -m rootparity.cli`` process, and repeats the whole pass until
``--seconds`` are used up.  Every output is checked against
``expected.json``.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each command runs untraced and then through ``traced_cli.py``, and the
per-layer metrics of the traced passes are reported, with the tracing
overhead.  Each workload prints a readable report and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

A command fails when it exits non-zero or its output differs from the
expected values; ``failed`` counts both.  ``correct`` is false when a
command printed a wrong value (as opposed to failing visibly) or a
self-check of the benchmark does not hold: traced and untraced standard
output must be byte-identical, and the layers' self times must fit inside
the traced pass.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import traced_cli
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_ENTRY = HERE / "traced_cli.py"

# Settings a developer's shell could use to change the workload.
SCRUBBED_ENV = ("ROOTPARITY_FACTOR_K_MAX", "ROOTPARITY_WORKERS", "PYTHONINTMAXSTRDIGITS", "PYTHONPATH")
SETUP_PROBES = 21
MIN_PASSES = 2
SETUP_CODE = "import rootparity.cli as c; c.build_parser(); print(c.__file__)"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported beside the end-to-end metrics: the per-pass time of one command kind.
KIND_METRICS = {"scan_s": "scan", "tables_s": "tables", "analyze_s": "analyze", "czcheck_s": "czcheck"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {**traced_cli.metric_units(), "trace.wall_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, interpreter failure)."""


@dataclass
class Outcome:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], tmp: Path) -> Outcome:
    """Run one process to completion; time it from spawn to reap and take its max RSS."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out_f, open(err_path, "wb") as err_f:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out_f, stderr=err_f, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                   usage.ru_maxrss / 1024)


def setup_probe(env: dict[str, str], tmp: Path) -> float:
    o = spawn([sys.executable, "-c", SETUP_CODE], env, tmp)
    where = Path(o.stdout.decode().strip() or ".").resolve()
    if o.code != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"cannot import rootparity from {SRC}: {o.stderr.decode()[-500:]}")
    return o.seconds


def summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    tail = "-"
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            tail = f"p{q}={vals[math.ceil(n * q / 100) - 1]:.4f}"
            break
    return f"median={statistics.median(vals):.4f} {tail} n={n}"


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    by_kind: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # exit 0 with output that differs from the expected values
    selfcheck: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0


def run_command(i: int, cmd, into: Pass, env, tmp: Path, tally: Tally, reference: dict) -> None:
    if into.traced:
        spans = tmp / "spans.json"
        argv = [sys.executable, str(TRACED_ENTRY), str(spans), str(i), "--", *cmd.args]
    else:
        argv = [sys.executable, "-m", "rootparity.cli", *cmd.args]
    o = spawn(argv, env, tmp)
    into.wall += o.seconds
    into.by_kind[cmd.kind] = into.by_kind.get(cmd.kind, 0.0) + o.seconds
    tally.attempted += 1
    tally.peak_rss_mb = max(tally.peak_rss_mb, o.maxrss_mb)
    reason = cmd.verify(o.stdout) if o.code == 0 else f"exit {o.code}: {o.stderr.decode().strip()[-200:]}"
    if reason:
        tally.failed += 1
        tally.wrong += o.code == 0
        tally.reasons[f"{cmd.label()}: {reason}"] += 1
    if reference.setdefault(i, (o.code, o.stdout)) != (o.code, o.stdout):
        tally.selfcheck.append(f"output differs between passes: {cmd.label()}")
    if into.traced:
        for key, value in traced_cli.layer_totals(json.loads(spans.read_text())).items():
            into.layers[key] = into.layers.get(key, 0.0) + value


def run_pass(cmds, trace: bool, env, tmp: Path, tally: Tally, reference: dict) -> list[Pass]:
    """One pass over the commands.  With tracing each command runs untraced and
    then traced, so both passes see the machine in the same state."""
    passes = [Pass(False), Pass(True)] if trace else [Pass(False)]
    for i, cmd in enumerate(cmds):
        for p in passes:
            run_command(i, cmd, p, env, tmp, tally, reference)
    return passes


def layer_metrics(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Medians over the traced passes, plus the tracing overhead."""
    for p in traced:
        traced_cli.add_ratios(p.layers)
    metrics = {name: statistics.median(p.layers.get(name, 0.0) for p in traced)
               for name in traced_cli.metric_units()}
    metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall for p in untraced)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    data = workloads.load_expected()
    inputs = workloads.choose_inputs(name, seed, data)
    cmds = workloads.commands(name, inputs, data)
    env = child_env()
    print(f"workload {name} seed {seed} inputs {json.dumps(inputs)}")
    print(f"python {platform.python_version()} nproc {len(os.sched_getaffinity(0))} "
          f"trace {int(trace)} seconds {seconds:g}")

    start = perf_counter()
    setup_probe(env, tmp)  # warm-up: byte-compiles the package on a fresh checkout
    setups = [setup_probe(env, tmp) for _ in range(SETUP_PROBES)]

    tally = Tally()
    reference: dict = {}
    passes: list[Pass] = []
    # Closed loop: stop before a pass that would probably end past the
    # deadline, once there are MIN_PASSES (with tracing: an untraced and a traced one).
    while True:
        latest = run_pass(cmds, trace, env, tmp, tally, reference)
        passes += latest
        if len(passes) >= MIN_PASSES and perf_counter() - start + sum(p.wall for p in latest) > seconds:
            break
    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]

    walls = [p.wall for p in untraced]
    print(f"  {'wall_s':<14} s      {summary(walls)}")
    print(f"  {'setup_s':<14} s      {summary(setups)}")
    print(f"  {'peak_rss_mb':<14} MB     max over {tally.attempted} command processes "
          f"{tally.peak_rss_mb:.1f}")
    for metric, kind in KIND_METRICS.items():
        if any(c.kind == kind for c in cmds):
            print(f"  {metric:<14} s      {summary([p.by_kind[kind] for p in untraced])}")
        else:
            print(f"  {metric:<14} s      - (no {kind} command in this workload)")
    print(f"  {'fail_ratio':<14} 1      {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason, n in sorted(tally.reasons.items()):
        print(f"    failed x{n}: {reason}")

    if trace:
        for p in traced_passes:
            self_total = sum(v for k, v in p.layers.items() if k.endswith(".self_s"))
            if self_total > p.wall:
                tally.selfcheck.append(f"layer self times {self_total:.3f} s exceed the traced pass {p.wall:.3f} s")
        metrics_values = layer_metrics(traced_passes, untraced)
        units = per_layer_units()
        for k in units:
            print(f"  {k:<50} {units[k]:<6} {metrics_values[k]:.6g}")
        top = max((k for k in units if k.endswith(".self_s")), key=metrics_values.get)
        print(f"  largest self_s: {top} ({metrics_values[top]:.4f} s of "
              f"{metrics_values['trace.wall_s']:.4f} s traced, {len(traced_passes)} traced passes)")
    else:
        units = END_TO_END_UNITS
        metrics_values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                          "peak_rss_mb": tally.peak_rss_mb}
    for problem in tally.selfcheck:
        print(f"  self-check failed: {problem}")
    return {
        "correct": tally.wrong == 0 and not tally.selfcheck,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics_values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootparity" / "cli.py").is_file():
        print(f"error: no rootparity source tree at {SRC}", file=sys.stderr)
        return 2
    # The checker reads S2 from decimal text of any length; the limit guards
    # the program under test, whose environment does not inherit this.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
