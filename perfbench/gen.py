"""Seeded input generators for the three workloads.

Every generator takes a `random.Random` built from the workload seed and
returns plain ontolab values together with the verdict each one must
produce, known by construction. Nothing else in the benchmark draws random
numbers, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ontolab import Dist, EmpiricalModel, JointOutcome, MeasurementScenario, OntologicalModel
from ontolab.cli import zoo

# (settings of party a, settings of party b, outcomes per measurement), from
# the ROADMAP ladder. Every rung has at most 256 global assignments.
RUNGS = ((2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3), (3, 4, 2), (4, 4, 2), (2, 2, 4))

# Rungs with at most this many global assignments also run the signed
# (quasi-local) decomposition on their non-local instances.
SIGNED_MAX_ASSIGNMENTS = 32

VISIBILITIES = tuple(Fraction(n, d) for n, d in ((3, 4), (4, 5), (5, 6), (7, 8), (9, 10), (1, 1)))


def rung_name(rung) -> str:
    return "-".join(str(v) for v in rung)


def rung_scenario(rung) -> MeasurementScenario:
    """Two parties, every setting of a jointly measurable with every setting of b."""
    na, nb, d = rung
    outcomes = tuple(str(o) for o in range(d))
    ms = {f"a{i}": outcomes for i in range(na)}
    ms.update({f"b{j}": outcomes for j in range(nb)})
    cover = [(f"a{i}", f"b{j}") for i in range(na) for j in range(nb)]
    return MeasurementScenario.make(ms, cover)


def random_weights(rng: random.Random, n: int) -> list:
    """n positive rationals summing to one, with small denominators."""
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def model_from_assignments(scenario: MeasurementScenario, points: list, weights: list) -> EmpiricalModel:
    """Tables of a mixture of global assignments: local by construction."""
    tables = {}
    for ctx in scenario.cover:
        cells: dict = {}
        for point, w in zip(points, weights):
            ev = JointOutcome.of(ctx, tuple(point[m] for m in ctx))
            cells[ev] = cells.get(ev, Fraction(0)) + w
        tables[ctx] = Dist(cells)
    return EmpiricalModel(scenario, tables)


def local_instance(rng: random.Random, scenario: MeasurementScenario, npoints: int) -> EmpiricalModel:
    points = [
        {m: rng.choice(scenario.outcomes[m]) for m in scenario.measurements} for _ in range(npoints)
    ]
    return model_from_assignments(scenario, points, random_weights(rng, npoints))


def nonlocal_instance(rng: random.Random, rung, visibility: Fraction) -> EmpiricalModel:
    """A PR box on two settings per side, mixed with uniform noise.

    Coarse-graining every measurement to "is it the PR box's 1 outcome" and
    keeping only the four box contexts is a local operation. The result wins
    the CHSH game with probability above 3/4 whenever the visibility exceeds
    8/17, so every visibility in VISIBILITIES gives a non-local model. The
    other settings are uniform and enter only through product tables, which
    keeps the whole model no-signalling.
    """
    na, nb, d = rung
    scenario = rung_scenario(rung)
    xs = rng.sample(range(na), 2)
    ys = rng.sample(range(nb), 2)
    alpha, beta, gamma = (rng.randint(0, 1) for _ in range(3))
    box = {f"a{x}": i for i, x in enumerate(xs)}
    box.update({f"b{y}": i for i, y in enumerate(ys)})
    # Which two outcomes of a box measurement stand for the bits 0 and 1.
    bits = {m: rng.sample(scenario.outcomes[m], 2) for m in box}
    noise = (1 - visibility) / (d * d)

    def marginal(m):
        outs = scenario.outcomes[m]
        if m not in box:
            return {o: Fraction(1, d) for o in outs}
        return {o: (visibility / 2 if o in bits[m] else 0) + (1 - visibility) / d for o in outs}

    tables = {}
    for ma, mb in scenario.cover:
        cells = {}
        if ma in box and mb in box:
            x, y = box[ma], box[mb]
            for oa, ob in itertools.product(scenario.outcomes[ma], scenario.outcomes[mb]):
                w = noise
                if oa in bits[ma] and ob in bits[mb]:
                    a, b = bits[ma].index(oa), bits[mb].index(ob)
                    if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                        w += visibility / 2
                cells[JointOutcome.of((ma, mb), (oa, ob))] = w
        else:
            pa, pb = marginal(ma), marginal(mb)
            for oa, ob in itertools.product(scenario.outcomes[ma], scenario.outcomes[mb]):
                cells[JointOutcome.of((ma, mb), (oa, ob))] = pa[oa] * pb[ob]
        tables[(ma, mb)] = Dist(cells)
    return EmpiricalModel(scenario, tables)


@dataclass(frozen=True)
class LadderOp:
    kind: str  # "decide" or "signed"
    rung: str  # rung name, or "zoo" for a zoo entry
    name: str
    model: EmpiricalModel
    local: bool  # the verdict known by construction


def ladder_zoo_ops() -> list:
    """One decide op per two-party empirical zoo entry, with its expected verdict."""
    ops = []
    for name in zoo.zoo_names():
        entry = zoo.get_entry(name)
        if entry.kind != "empirical" or "decision" not in entry.expected:
            continue
        model = zoo.load_model(name).payload
        if len({m[0] for m in model.scenario.measurements}) != 2:
            continue
        ops.append(LadderOp("decide", "zoo", name, model, entry.expected["decision"] == "local"))
    return ops


# Per rung, the point counts of the local instances and the visibilities of
# the non-local ones in one cycle.
#
# The three smallest rungs take every point count and visibility, and
# (2,2,2) with the zoo makes up about 60 % of the ops, so that the median op
# falls inside that block and not on the edge between two rungs. On larger
# rungs the cost of one decision depends on the instance: at 128 and 256
# assignments a local one takes 0.1 to 3 s depending on where its points
# fall in the assignment order, and at (2,2,4) a visibility below 1 takes
# 3 to 4 s. A run of four or five cycles cannot average that out, so
# larger rungs keep the instances whose cost is steady: (2,2,3) one to
# three points, and above it non-local instances at visibility 9/10 or 1
# only. (4,4,2) is then the second slowest block, 16 to 20 ops a run
# behind 8 to 10 of (2,2,4), so a run's tail falls at the top of that block
# whether the run takes four cycles or five.
LADDER_MIX = {
    (2, 2, 2): ((1, 2, 3, 4, 5, 6) * 3, VISIBILITIES * 3),
    (2, 3, 2): ((1, 2, 3, 4, 5, 6), VISIBILITIES),
    (3, 3, 2): ((1, 2, 3, 4, 5, 6), VISIBILITIES),
    (2, 2, 3): ((1, 2, 3), VISIBILITIES[5:] * 3),
    (3, 4, 2): ((), VISIBILITIES[4:] * 2),
    (4, 4, 2): ((), VISIBILITIES[4:] * 2),
    (2, 2, 4): ((), VISIBILITIES[5:] * 2),
}
# Zoo entries per cycle, (local, non-local). A fixed split keeps the share
# of the fastest ops, and with it the rank at which the median op falls,
# the same in every cycle and for every seed.
ZOO_PER_CYCLE = (8, 4)


def ladder_cycle(rng: random.Random, zoo_ops: list) -> list:
    """One cycle of ladder ops: every LADDER_MIX instance once, plus
    ZOO_PER_CYCLE zoo entries, in a seeded order."""
    ops = []
    for rung, (point_counts, visibilities) in LADDER_MIX.items():
        scenario = rung_scenario(rung)
        name = rung_name(rung)
        for npoints in point_counts:
            model = local_instance(rng, scenario, npoints)
            ops.append(LadderOp("decide", name, f"local-{npoints}pt", model, True))
        for v in visibilities:
            model = nonlocal_instance(rng, rung, v)
            ops.append(LadderOp("decide", name, f"pr-v{v}", model, False))
            if scenario.assignment_space_size() <= SIGNED_MAX_ASSIGNMENTS:
                ops.append(LadderOp("signed", name, f"pr-v{v}", model, False))
    for local, count in zip((True, False), ZOO_PER_CYCLE):
        ops.extend(rng.sample([z for z in zoo_ops if z.local == local], count))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- wide models


def binary_scenario(names, cover) -> MeasurementScenario:
    return MeasurementScenario.make({m: ("0", "1") for m in names}, cover)


def random_event(rng: random.Random, ctx) -> dict:
    return {m: rng.choice("01") for m in ctx}


def sparse_table(rng: random.Random, ctx, support: int) -> Dist:
    """At most `support` random events of a context, with random weights."""
    events = [random_event(rng, ctx) for _ in range(support)]
    cells: dict = {}
    for ev, w in zip(events, random_weights(rng, support)):
        key = JointOutcome.of(ctx, tuple(ev[m] for m in ctx))
        cells[key] = cells.get(key, Fraction(0)) + w
    return Dist(cells)


def extend_table(rng: random.Random, table: Dist, ctx, shared, signalling: bool) -> Dist:
    """A table on `ctx` whose marginal on the measurements it shares with
    `table` equals that of `table`, each event split in at most two.

    With `signalling`, one shared outcome of one event is flipped, which
    moves that measurement's marginal by the event's weight.
    """
    cells: dict = {}
    items = list(table.items())
    flip_at = rng.randrange(len(items)) if signalling else -1
    flip_m = rng.choice(shared)
    for i, (ev, w) in enumerate(items):
        parts = [w] if rng.random() < 0.5 else [w / 3, w * 2 / 3]
        for part in parts:
            point = random_event(rng, ctx)
            for m in shared:
                point[m] = ev.outcome(m)
            if i == flip_at:
                point[flip_m] = "1" if point[flip_m] == "0" else "0"
            key = JointOutcome.of(ctx, tuple(point[m] for m in ctx))
            cells[key] = cells.get(key, Fraction(0)) + part
    return Dist(cells)


def overlapping_contexts(n: int):
    """Measurement names, two contexts of n measurements each, and the
    n // 2 measurements the contexts share."""
    total = n + (n - n // 2)
    names = [f"m{i:02d}" for i in range(total)]
    return names, tuple(names[:n]), tuple(names[total - n:]), tuple(names[total - n:n])


@dataclass(frozen=True)
class WideOp:
    kind: str  # "empirical-1ctx", "empirical-2ctx", "ontological-2ctx"
    model: Any
    passes: bool  # verdict of check_no_signalling / is_parameter_independent


def wide_empirical_one(rng: random.Random, n: int) -> WideOp:
    names = [f"m{i:02d}" for i in range(n)]
    scenario = binary_scenario(names, [names])
    model = EmpiricalModel(scenario, {tuple(names): sparse_table(rng, names, 16)})
    return WideOp("empirical-1ctx", model, True)


def wide_empirical_two(rng: random.Random, n: int, signalling: bool) -> WideOp:
    names, ca, cb, shared = overlapping_contexts(n)
    scenario = binary_scenario(names, [ca, cb])
    ta = sparse_table(rng, ca, 8)
    tb = extend_table(rng, ta, cb, shared, signalling)
    model = EmpiricalModel(scenario, {ca: ta, cb: tb})
    return WideOp("empirical-2ctx", model, not signalling)


def wide_ontological(rng: random.Random, n: int, nstates: int, dependent: bool) -> WideOp:
    """States whose responses agree on the shared measurements, except one
    state's second table when `dependent`."""
    names, ca, cb, shared = overlapping_contexts(n)
    scenario = binary_scenario(names, [ca, cb])
    states = tuple(f"l{i}" for i in range(nstates))
    bad = rng.choice(states) if dependent else None
    responses = {}
    for lam in states:
        ta = sparse_table(rng, ca, 4)
        responses[(lam, ca)] = ta
        responses[(lam, cb)] = extend_table(rng, ta, cb, shared, lam == bad)
    preps = ("p0", "p1")
    prep_dists = {p: Dist(dict(zip(states, random_weights(rng, nstates)))) for p in preps}
    model = OntologicalModel(scenario, preps, states, prep_dists, responses)
    return WideOp("ontological-2ctx", model, not dependent)


def wide_pool(rng: random.Random) -> list:
    """One pass over every wide-model op kind, sizes spread evenly."""
    ops = [wide_empirical_one(rng, n) for n in (10, 11, 12, 13, 14)]
    for n in (10, 11, 12, 13):
        ops.append(wide_empirical_two(rng, n, signalling=False))
        ops.append(wide_empirical_two(rng, n, signalling=True))
    for n, nstates in ((10, 4), (11, 3), (12, 2)):
        ops.append(wide_ontological(rng, n, nstates, dependent=False))
        ops.append(wide_ontological(rng, n, nstates, dependent=True))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------- cli

PBR_QS = ("1/2", "1/3", "1/4", "1/5", "2/5", "3/10", "1/8")


@dataclass(frozen=True)
class CliCommand:
    label: str  # the command without its model argument, e.g. "decide-local --json"
    argv: tuple
    expected: int  # exit code implied by the zoo entry's expected verdicts
    output: str  # "text" (ends with "exit N"), "json", "export" or "list"
    kind: str = ""  # model kind an export must carry


def _verdict_code(expected: dict, decision: str = "decision") -> int:
    """Exit code the CLI documents for a set of expected verdicts: 3 for a
    negative decision, 4 for any other failed check, else 0."""
    if expected.get(decision) == "non-local":
        return 3
    failed = any(v == "fail" for v in expected.values())
    if failed or expected.get("classification") == "epistemic":
        return 4
    if expected.get("property-status", "all ontic") != "all ontic":
        return 4
    return 0


def cli_cycle(rng: random.Random, files: dict) -> list:
    """One pass over the CLI command mix, entries and flags picked by the seed.

    `files` maps zoo entry names to the model files written for them.
    """
    entries = {name: zoo.get_entry(name) for name in zoo.zoo_names()}
    by_kind: dict = {}
    for name, entry in entries.items():
        by_kind.setdefault(entry.kind, []).append(name)

    def pick(kind):
        name = rng.choice(by_kind[kind])
        return name, files[name], dict(entries[name].expected)

    cmds = []
    name = rng.choice(sorted(entries))
    cmds.append(CliCommand("validate", ("validate", files[name]), 0, "text"))
    _, path, exp = pick("empirical")
    cmds.append(CliCommand("check-ns", ("check-ns", path), 0 if exp["no-signalling"] == "pass" else 4, "text"))
    _, path, exp = pick("empirical")
    cmds.append(CliCommand("decide-local", ("decide-local", path), _verdict_code(exp), "text"))
    _, path, exp = pick("empirical")
    cmds.append(CliCommand("decide-local --json", ("decide-local", "--json", path), _verdict_code(exp), "json"))
    _, path, exp = pick("property")
    cmds.append(CliCommand("classify-property", ("classify-property", path), _verdict_code(exp), "text"))
    _, path, exp = pick("ontological")
    cmds.append(CliCommand("onto-report", ("onto-report", path), _verdict_code(exp), "text"))
    _, path, exp = pick("ontological")
    cmds.append(CliCommand("canonicalize", ("canonicalize", path), 0 if exp["local"] == "pass" else 4, "text"))
    _, path, exp = pick("preparation")
    cmds.append(CliCommand("prep-check", ("prep-check", path), _verdict_code(exp), "text"))
    cmds.append(CliCommand("pbr --q", ("pbr", "--q", rng.choice(PBR_QS)), _verdict_code(entries["pbr-q"].expected), "text"))
    cmds.append(CliCommand("demo chsh", ("demo", "chsh"), _verdict_code(entries["chsh-quantum"].expected), "text"))
    cmds.append(CliCommand("demo steering", ("demo", "steering", "--basis", rng.choice("zx")), 0, "text"))
    cmds.append(CliCommand("zoo list", ("zoo", "list"), 0, "list"))
    name = rng.choice(sorted(entries))
    cmds.append(CliCommand("zoo export", ("zoo", "export", name), 0, "export", entries[name].kind))
    rng.shuffle(cmds)
    return cmds
