"""The two workloads, their set-up, their cycles of checked ops and their
warm-up; and the wide-model ops the traced run adds to its census.

An op returns True only when its output is right: the verdict known by
construction, a replay through the matching `verify_*`, a round trip that
gives back an equal model, or the exit code that the zoo's expected
verdicts imply. The harness counts every other outcome, an exception
included, as a failure.

Ops call ontolab through module attributes (`ol.decide_local`,
`modelio.parse_model_file`, ...), so the traced run's rebinding reaches
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ontolab as ol
from ontolab.cli import main as climain
from ontolab.cli import modelio, zoo

import gen

# Seconds any one child process may take before the op, or the run, fails.
CHILD_TIMEOUT = 120


@dataclass(frozen=True)
class Op:
    kind: str  # the op kind whose share the report gives
    run: Callable[[], bool]
    rung: str = ""


# ------------------------------------------------------------------ ladder


def decide_op(lop: gen.LadderOp) -> bool:
    e = lop.model
    if not ol.check_no_signalling(e):
        return False
    result = ol.decide_local(e)
    local = isinstance(result, ol.LocalWitness)
    if local != lop.local:
        return False
    return ol.verify_witness(e, result) if local else ol.verify_certificate(e, result)


def signed_op(lop: gen.LadderOp) -> bool:
    sw = ol.quasi_local_decomposition(lop.model)
    # A non-local model has no non-negative decomposition.
    return ol.verify_signed_weights(lop.model, sw) and bool(sw.negative_part())


def ladder_op(lop: gen.LadderOp) -> Op:
    verdict = "local" if lop.local else "non-local"
    fn = decide_op if lop.kind == "decide" else signed_op
    return Op(f"{lop.kind} {lop.rung} {verdict}", lambda: fn(lop), lop.rung)


class Ladder:
    """Locality decisions over the rung ladder and the two-party zoo entries.

    Every cycle holds the same instances in the same order, so each op's
    time can be averaged over the run; they are generated again as new
    objects between cycles, outside the timed phase, so nothing ontolab
    might keep on a model carries over from one cycle to the next.
    """

    name = "ladder"

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.zoo_ops = gen.ladder_zoo_ops()
        self.first = self.next_cycle()

    def next_cycle(self) -> list:
        return [ladder_op(lop) for lop in gen.ladder_cycle(random.Random(self.seed), self.zoo_ops)]

    def warm_up(self) -> None:
        rng = random.Random(0)
        scenario = gen.rung_scenario(gen.RUNGS[0])
        decide_op(gen.LadderOp("decide", "", "", gen.local_instance(rng, scenario, 2), True))
        signed_op(gen.LadderOp("signed", "", "", gen.nonlocal_instance(rng, gen.RUNGS[0], gen.VISIBILITIES[0]), False))


# ------------------------------------------------------------- wide models


def wide_op(wop: gen.WideOp) -> bool:
    text = modelio.serialize_model_file(modelio.model_file_for(wop.model))
    back = modelio.parse_model_file(text).payload
    if back != wop.model:
        return False
    if isinstance(back, ol.EmpiricalModel):
        verdict = ol.check_no_signalling(back)
    else:
        verdict = ol.is_parameter_independent(back)
    return bool(verdict) == wop.passes


def wide_ops(seed: int) -> list:
    """One pass over the wide-model pool as checked ops. No end-to-end
    workload runs them; the traced run's census does, so that model I/O and
    validation on 10 to 14 measurements are measured layer by layer."""
    pool = gen.wide_pool(random.Random(seed))
    return [Op(f"census {w.kind} {'pass' if w.passes else 'fail'}", lambda w=w: wide_op(w)) for w in pool]


# --------------------------------------------------------------------- cli


def check_output(cmd: gen.CliCommand, code: int, out: str) -> bool:
    if code != cmd.expected:
        return False
    if cmd.output == "text":
        return out.rstrip().splitlines()[-1] == f"exit {cmd.expected}"
    if cmd.output == "json":
        return json.loads(out)["exit_code"] == cmd.expected
    if cmd.output == "export":
        return json.loads(out)["kind"] == cmd.kind
    return bool(out.strip())


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: gen.CliCommand, root: Path, env: dict) -> bool:
    proc = subprocess.run(
        [sys.executable, "-m", "ontolab.cli.main", *cmd.argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    return check_output(cmd, proc.returncode, proc.stdout)


def run_in_process(cmd: gen.CliCommand) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = climain.main(list(cmd.argv))
    return check_output(cmd, code, out.getvalue())


def write_zoo_files(out: Path) -> dict:
    """Every zoo entry as a model file under `out`; name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in zoo.zoo_names():
        path = out / f"{name}.json"
        path.write_text(modelio.serialize_model_file(zoo.load_model(name)))
        files[name] = str(path)
    return files


class Cli:
    """One `python -m ontolab.cli.main` child per command, one at a time.

    After `set_in_process(True)`, commands run through `main(argv)` in this
    process instead; the traced run uses that so the CLI's layers can be
    recorded. The pool is built once in set-up and each cycle runs it again.
    """

    name = "cli"

    def __init__(self, seed: int, root: Path, out: Path):
        self.root = root
        self.env = child_env(root)
        files = write_zoo_files(out / "cli-inputs")
        self.commands = gen.cli_cycle(random.Random(seed), files)
        self.set_in_process(False)

    def set_in_process(self, in_process: bool) -> None:
        if in_process:
            self.first = [Op(c.label, lambda c=c: run_in_process(c)) for c in self.commands]
        else:
            self.first = [Op(c.label, lambda c=c: run_child(c, self.root, self.env)) for c in self.commands]

    def next_cycle(self) -> list:
        return self.first

    def warm_up(self) -> None:
        run_child(gen.CliCommand("zoo list", ("zoo", "list"), 0, "list"), self.root, self.env)


WORKLOADS = {w.name: w for w in (Ladder, Cli)}
