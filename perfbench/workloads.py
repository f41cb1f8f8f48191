"""Workloads of the CLI benchmark: the seed's inputs, the commands and their output checks.

Every command runs with ``--format json-lines`` so its output can be parsed
and compared field by field with the values stored in ``expected.json``
(written by ``make_expected.py``).
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Inputs of seed 0.  Other seeds move each input inside a window around
# these, chosen by make_expected.py so that the expensive work stays the same.
SCAN_P_MAX = 7000
RANGE_HI = 2000
LADDER_RUNGS = (6607, 50021, 100019, 300017)
PATTERN_ELL = 4
CZ_S_MAX = 3
TABLE2_FACTOR_K_MAX = 10 ** 6  # the CLI default once ROOTPARITY_FACTOR_K_MAX is unset
ANALYZE_FACTOR_K_MAX = 10 ** 6

WHY = {
    "search": (
        "tables 1 and 2 plus scan 11..7000: Lucas-Lehmer is most of scan; "
        "never calls sequence or complexity, the no-change side for LC and window work"
    ),
    "analyze-range": (
        "analyze --p-range 11..2000: 299 tiny full_report calls; the factor hunt "
        "exhausts its 1e6 budget on 13 of 114 prime periods and dominates"
    ),
    "complexity-ladder": (
        "generate/analyze/patterns/czcheck at p near 6607, 50021, 100019, 300017 with "
        "composite T: Berlekamp-Massey, GF(2) gcd, block counts; no Lucas-Lehmer"
    ),
}
NAMES = tuple(WHY)

# Semantic fields compared for analyze rows; normalize_row lists those of
# table and scan rows.
ANALYZE_FIELDS = ("p", "T", "n0", "n1", "L", "L_lower", "s1", "epsilon", "S2", "C", "C_lower")
GENERATE_FIELDS = ("p", "T", "eta", "regime", "variant")
CZ_EXACT_FIELDS = ("p", "epsilons", "m", "holds")
CZ_FLOAT_FIELDS = ("main_term", "bound")
CZ_REL_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    kind: str  # the CLI subcommand; the per-kind timings sum over it
    args: tuple[str, ...]
    check: Callable[[bytes], str | None]  # None when the output is right, else why not

    def label(self) -> str:
        return " ".join(a for a in self.args if a not in ("--format", "json-lines"))

    def verify(self, stdout: bytes) -> str | None:
        """Why the output is wrong, or None; malformed output is a reason, not an exception."""
        try:
            return self.check(stdout)
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed output: {type(e).__name__}: {e}"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def s2_digest(value: int) -> str:
    return digest(format(value, "x"))


def _s2_value(raw, T: int) -> int:
    """S2 as an integer, whatever exact form the CLI prints it in."""
    if isinstance(raw, int):
        return raw
    if len(raw) == T and set(raw) <= {"0", "1"}:
        return int(raw[::-1], 2)  # bit string, index ascending like `generate`
    return int(raw, 0) if raw[:2] in ("0x", "0b") else int(raw)


def _optional_int(raw):
    return None if raw is None else int(raw)


def normalize_row(doc: dict) -> dict:
    return {
        "T": doc["T"],
        "p": doc["p"],
        "ord": doc["ord"],
        "q": _optional_int(doc["q"]),
        "log2q": doc["log2q"],
        "ratio": Fraction(doc["ratio"]),
        "flags": sorted(doc["flags"]),
        "mersenne": doc["mersenne"],
    }


def normalize_analyze(doc: dict) -> dict:
    out = {k: doc[k] for k in ANALYZE_FIELDS}
    out["S2"] = s2_digest(_s2_value(doc["S2"], doc["T"]))
    return out


def _parse(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines()]


def _compare_docs(got: list[dict], want: list[dict]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            bad = sorted(k for k in w if g.get(k) != w[k])
            return f"row {i} differs in {', '.join(bad)}"
    return None


def _rows_check(want: list[dict]):
    want = [normalize_row(w) for w in want]
    return lambda stdout: _compare_docs([normalize_row(d) for d in _parse(stdout)], want)


def _analyze_check(want: list[dict]):
    # stored rows hold exactly ANALYZE_FIELDS, with S2 as its digest
    return lambda stdout: _compare_docs([normalize_analyze(d) for d in _parse(stdout)], want)


def _generate_check(want: dict):
    def check(stdout):
        (doc,) = _parse(stdout)
        got = {k: doc[k] for k in GENERATE_FIELDS}
        got["bits_sha256"] = digest(doc["bits"])
        return None if got == want else "generate output differs"
    return check


def _patterns_check(want: dict):
    def check(stdout):
        (doc,) = _parse(stdout)
        got = {k: doc[k] for k in want}
        return None if got == want else "patterns output differs"
    return check


def _czcheck_check(want: list[dict]):
    def close(a, b):
        return abs(a - b) <= CZ_REL_TOL * max(abs(a), abs(b))

    def check(stdout):
        got = _parse(stdout)
        if len(got) != len(want):
            return f"{len(got)} rows, expected {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if any(g[k] != w[k] for k in CZ_EXACT_FIELDS) or not all(
                close(g[k], w[k]) for k in CZ_FLOAT_FIELDS
            ):
                return f"row {i} differs"
        return None
    return check


def choose_inputs(workload: str, seed: int, data: dict) -> dict:
    """The concrete inputs for a seed; seed 0 gives the defaults above."""
    rng = random.Random(seed)
    if workload == "search":
        lo, hi = data["scan"]["p_max_window"]
        return {"p_max": SCAN_P_MAX if seed == 0 else rng.randint(lo, hi)}
    if workload == "analyze-range":
        lo, hi = data["analyze_range"]["hi_window"]
        return {"hi": RANGE_HI if seed == 0 else rng.randint(lo, hi)}
    if workload == "complexity-ladder":
        return {
            "primes": [
                rung["candidates"][0]["p"] if seed == 0 else rng.choice(rung["candidates"])["p"]
                for rung in data["ladder"]
            ]
        }
    raise ValueError(f"unknown workload {workload!r}")


def _cli(*args) -> tuple[str, ...]:
    return tuple(str(a) for a in args) + ("--format", "json-lines")


def commands(workload: str, inputs: dict, data: dict) -> list[Command]:
    if workload == "search":
        p_max = inputs["p_max"]
        rows = [r for r in data["scan"]["rows"] if r["p"] <= p_max]
        return [
            Command("tables", _cli("tables", "--which", 1), _rows_check(data["tables"]["1"])),
            Command("tables", _cli("tables", "--which", 2), _rows_check(data["tables"]["2"])),
            Command("scan", _cli("scan", "--p-min", 11, "--p-max", p_max), _rows_check(rows)),
        ]
    if workload == "analyze-range":
        hi = inputs["hi"]
        rows = [r for r in data["analyze_range"]["rows"] if r["p"] <= hi]
        return [Command("analyze", _cli("analyze", "--p-range", f"11..{hi}"), _analyze_check(rows))]
    if workload == "complexity-ladder":
        by_p = {c["p"]: c for rung in data["ladder"] for c in rung["candidates"]}
        cmds = []
        for p in inputs["primes"]:
            exp = by_p[p]
            cmds += [
                Command("generate", _cli("generate", "--p", p), _generate_check(exp["generate"])),
                Command("analyze", _cli("analyze", "--p", p), _analyze_check([exp["analyze"]])),
                Command("patterns", _cli("patterns", "--p", p, "--ell", PATTERN_ELL),
                        _patterns_check(exp["patterns"])),
                Command("czcheck", _cli("czcheck", "--p", p, "--s-max", CZ_S_MAX),
                        _czcheck_check(exp["czcheck"])),
            ]
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
