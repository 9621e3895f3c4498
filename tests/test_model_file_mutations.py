"""Seeded mutations of zoo exports through every subcommand of their kind.

Each case exports one zoo entry as a model file, applies one to three
seeded mutations anywhere in the document (a deleted entry, a renamed or
comma-extended key or label, a value of the wrong JSON type, a malformed
rational) and runs every subcommand that takes the entry's kind on the
file, in text and in `--json` mode. Whatever the damage, the exit code is
one of the documented 0, 2, 3 or 4, and no exception escapes `main`.

To replay one case by hand, `mutant(seed)` returns the entry name, the
mutations applied and the mutated document.
"""

import contextlib
import io
import json
import random

import pytest

from ontolab.cli import zoo
from ontolab.cli.main import main
from ontolab.cli.modelio import serialize_model_file

from test_cli_golden import SUBCOMMANDS

CASES = 150


def slots(node, out: list) -> list:
    """Every (container, key) of the JSON tree, parents before children."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        out.append((node, key))
        slots(value, out)
    return out


def words(node, out: set) -> set:
    """Every string key and value of the JSON tree."""
    if isinstance(node, dict):
        out.update(node)
        for value in node.values():
            words(value, out)
    elif isinstance(node, list):
        for value in node:
            words(value, out)
    elif isinstance(node, str):
        out.add(node)
    return out


WRONG_TYPES = (None, 0, 1, 0.5, True, [], {}, "x", ["x"], {"x": "1"})
BAD_RATIONALS = ("1/0", "0.5", "1/-2", "-1/2", "2", "1/3", " 1/2", "1e3", "", "½")


def mutate(rng: random.Random, doc: dict) -> str:
    """Apply one seeded mutation in place and describe it."""
    node, key = rng.choice(slots(doc, []))
    kind = rng.choice(("delete", "rename", "comma", "retype", "rational"))
    if kind == "delete":
        del node[key]
    elif isinstance(node, dict) and kind in ("rename", "comma"):
        new = rng.choice(sorted(words(doc, {"", "zz"}))) if kind == "rename" else f"{key},{key}"
        node[new] = node.pop(key)
        key = f"{key} -> {new}"
    elif kind == "rename":
        node[key] = rng.choice(sorted(words(doc, {"", "zz"})))
    elif kind == "comma":
        node[key] = f"{node[key]},x"
    elif kind == "retype":
        node[key] = rng.choice(WRONG_TYPES)
    else:
        node[key] = rng.choice(BAD_RATIONALS)
    return f"{kind} {key!r}"


def mutant(seed: int) -> tuple:
    rng = random.Random(seed)
    name = rng.choice(zoo.zoo_names())
    doc = json.loads(serialize_model_file(zoo.load_model(name)))
    done = [mutate(rng, doc) for _ in range(rng.randint(1, 3))]
    return name, done, doc


@pytest.mark.parametrize("seed", range(CASES))
def test_a_mutated_model_file_exits_with_a_documented_code(seed, tmp_path):
    name, done, doc = mutant(seed)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    for sub in SUBCOMMANDS[zoo.get_entry(name).kind]:
        for mode in ([], ["--json"]):
            argv = [sub, str(path), *mode]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), (name, done, argv, code)
