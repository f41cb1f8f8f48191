"""Golden CLI matrix: the exit code and the sha256 of stdout for fixed commands.

A refactor of the CLI or of the row and record code must leave every entry
of tests/data/cli_golden.json unchanged. Record the commands that the data
lacks, and leave every existing entry as it is, with:

    PYTHONPATH=src python tests/test_cli_golden.py --add

Regenerate the whole file, only for an intended output change, without --add.
Replay every entry without pytest, on any Python the package supports, with:

    PYTHONPATH=src python tests/test_cli_golden.py --check

It prints each command whose output differs and the count that match, and
exits 1 if any differs or if an exception was raised where it could not
propagate, such as a ResourceWarning for a file left open when the warning
is an error (python -X dev -W error).

czcheck is covered in text only: its json-lines and csv output print the
float bounds at full precision, and those digits come from the platform's
libm. Usage errors record the exit code only, because argparse's wording
varies between Python versions.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from rootparity import cli

DATA = Path(__file__).parent / "data" / "cli_golden.json"
FORMATS = ("text", "json-lines", "csv")

EVERY_FORMAT = [
    "generate --p 13",
    "generate --p 103",
    "generate --p 103 --variant t",
    "generate --p 6607",
    "generate --p 6607 --variant t",
    "generate --p 999983",
    "generate --p 999983 --variant t",
    "analyze --p 103",
    "analyze --p 751 --factor-k-max 1000",
    "analyze --p-range 11..200",
    "analyze --p-range 24..28",
    "analyze --p-range 30000..30200",
    "analyze --p 50021",
    "analyze --p 100019",
    "analyze --p 300017",
    *(f"patterns --p 103 --ell {ell}" for ell in (1, 2, 3, 4)),
    *(f"patterns --p 6607 --ell {ell}" for ell in (4, 5, 9, 16)),
    "patterns --p 999983 --ell 16",
    "tables --which 1",
    "tables --which 2",
    "scan --p-min 11 --p-max 400",
    "scan --p-min 11 --p-max 400 --t-prime",
    "scan --p-min 11 --p-max 400 --no-flags",
    "scan --p-min 11 --p-max 400 --two-primitive-root",
    "scan --p-min 11 --p-max 400 --t-prime --no-flags --factor-k-max 3",
    "scan --p-min 24 --p-max 28",
    "scan --p-min 1000000000 --p-max 1000001000 --t-prime",
]
TEXT_ONLY = [
    "czcheck --p 13",
    "czcheck --p 103 --s-max 3",
    "czcheck --p 379 --s-max 2",
    "czcheck --p 6607 --s-max 3",
    "czcheck --p 379 --s-max 9",
    "czcheck --p 999983 --s-max 15",
]
USAGE_ERRORS = [
    "",
    "analyze --p-range 100..11",
    "generate --p 9",
    "patterns --p 13",
    "tables --which 3",
    "scan --p-min 5 --p-max 100",
]


def matrix() -> list[str]:
    return [f"{cmd} --format {fmt}" for cmd in EVERY_FORMAT for fmt in FORMATS] + TEXT_ONLY


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    # as main() runs it, so that on two CPUs a range is split between two processes
    code = cli.run(command.split(), out=out, own_process=True)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def record(golden: dict) -> dict:
    """Add an entry for every command that golden lacks; keep the others as they are."""
    for command in matrix() + USAGE_ERRORS:
        if command not in golden:
            code, digest = run(command)
            golden[command] = {"exit": code, "sha256": None if command in USAGE_ERRORS else digest}
    return golden


def matches(command: str, expected: dict) -> bool:
    code, digest = run(command)
    return code == expected["exit"] and expected["sha256"] in (None, digest)


GOLDEN = json.loads(DATA.read_text())


# Parametrized by this hook, so that the module imports without pytest.
def pytest_generate_tests(metafunc):
    if "command" in metafunc.fixturenames:
        metafunc.parametrize("command", sorted(GOLDEN))


def test_golden_output(command):
    assert matches(command, GOLDEN[command])


def test_data_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(matrix() + USAGE_ERRORS)


def test_add_records_only_the_missing_commands(monkeypatch):
    ran = []
    monkeypatch.setattr(sys.modules[__name__], "run", lambda command: ran.append(command) or (0, "new"))
    missing = TEXT_ONLY[-1]
    kept = {command: {"exit": 9, "sha256": "old"} for command in matrix() + USAGE_ERRORS}
    del kept[missing]
    golden = record(dict(kept))
    assert ran == [missing]
    assert golden[missing] == {"exit": 0, "sha256": "new"}
    assert {c: e for c, e in golden.items() if c != missing} == kept


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--add"], ["--check"]):
        sys.exit("usage: test_cli_golden.py [--add | --check]")
    if sys.argv[1:] == ["--check"]:
        unraisable = []
        sys.unraisablehook = unraisable.append
        with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage messages
            differ = [command for command in sorted(GOLDEN) if not matches(command, GOLDEN[command])]
        for command in differ:
            print(f"differs: {command}")
        for u in unraisable:
            print(f"unraisable: {u.exc_value!r} in {u.object!r}")
        print(f"{len(GOLDEN) - len(differ)}/{len(GOLDEN)} golden entries match")
        sys.exit(1 if differ or unraisable else 0)
    DATA.parent.mkdir(exist_ok=True)
    golden = record(dict(GOLDEN) if sys.argv[1:] else {})
    DATA.write_text(json.dumps(golden, indent=1) + "\n")
