"""Golden CLI transcript: exit code and stdout of every subcommand on every
zoo entry whose kind it accepts, in text and in `--json` mode.

Timings are the only thing that may differ between runs; the `millis`
field and the `NNN.N ms` column are normalised before comparing. The
golden file is the record of the CLI's behaviour and is not regenerated
when the code changes. To write it afresh for a new entry or subcommand:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli.json
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from ontolab.cli import zoo
from ontolab.cli.main import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

SUBCOMMANDS = {
    "empirical": ("validate", "check-ns", "decide-local"),
    "ontological": ("validate", "onto-report", "canonicalize"),
    "preparation": ("validate", "prep-check"),
    "property": ("validate", "classify-property"),
}

EXTRA = (
    ["pbr"],
    ["pbr", "--q", "1/2"],
    ["demo", "epr"],
    ["demo", "steering"],
    ["demo", "steering", "--basis", "x"],
    ["demo", "chsh"],
    ["zoo", "list"],
    ["zoo", "list", "--brief"],
)

_MILLIS_JSON = re.compile(r'"millis": [0-9.e+-]+')
_MILLIS_TEXT = re.compile(r"(\S) +[0-9]+\.[0-9] ms$", re.MULTILINE)


def argv_cases() -> list:
    cases = []
    for name in zoo.zoo_names():
        for sub in SUBCOMMANDS[zoo.get_entry(name).kind]:
            cases.append([sub, f"zoo:{name}"])
        cases.append(["zoo", "export", name])
    cases.extend(list(argv) for argv in EXTRA)
    return [argv + mode for argv in cases for mode in ([], ["--json"])]


def normalise(out: str) -> str:
    out = _MILLIS_JSON.sub('"millis": 0', out)
    return _MILLIS_TEXT.sub(r"\1 ~ ms", out)


def run(argv: list) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": normalise(buf.getvalue())}


def _golden() -> dict:
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


@pytest.fixture(scope="module")
def golden():
    return _golden()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in argv_cases())


@pytest.mark.parametrize("argv", argv_cases(), ids=" ".join)
def test_cli_matches_golden(argv, golden):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    json.dump([run(argv) for argv in argv_cases()], sys.stdout, indent=1)
    sys.stdout.write("\n")
