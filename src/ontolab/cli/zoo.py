"""Built-in model zoo.

Every entry carries its expected verdicts as fixture data, so the test
suite and the CLI can both replay them. `zoo:<name>` pseudo-paths resolve
here; setting ONTOLAB_ZOO_DIR lets a directory of JSON files shadow the
built-ins by name. Each builder imports the layer of the model it builds
when it runs, so listing the zoo or loading an empirical entry loads no
layer beyond `probcore`.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from ..probcore import Dist, EmpiricalModel, JointOutcome, MeasurementScenario, OntolabError
from .modelio import (
    KIND_EMPIRICAL,
    KIND_ONTOLOGICAL,
    KIND_PREPARATION,
    KIND_PROPERTY,
    ModelFile,
    Payload,
    model_file_for,
    parse_model_file,
)

if TYPE_CHECKING:
    from ..ontomodel import OntologicalModel
    from ..properties import Property


class UnknownZooEntry(OntolabError):
    """No built-in or overridden entry by that name."""


@dataclass(frozen=True)
class ZooEntry:
    name: str
    kind: str
    summary: str
    build: Callable[..., Payload]
    expected: Mapping[str, str] = field(default_factory=dict)
    knobs: tuple = ()  # keyword arguments of `build` that `load_model` may pass


def bell_scenario() -> MeasurementScenario:
    """The (2,2,2) scenario: two parties, two binary measurements each."""
    return MeasurementScenario.make(
        {m: ("0", "1") for m in ("a0", "a1", "b0", "b1")},
        [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")],
    )


def pr_box(alpha: int = 0, beta: int = 0, gamma: int = 0) -> EmpiricalModel:
    """Extremal no-signalling box: a xor b = xy xor ax xor by xor g.

    All eight variants are uniform on the four satisfying outcome pairs of
    each context, hence no-signalling with uniform marginals, and none is
    local.
    """
    scenario = bell_scenario()
    tables = {}
    for x, y in itertools.product((0, 1), repeat=2):
        ctx = (f"a{x}", f"b{y}")
        cells = {}
        for a, b in itertools.product((0, 1), repeat=2):
            if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                cells[JointOutcome.of(ctx, (str(a), str(b)))] = Fraction(1, 2)
        tables[ctx] = Dist(cells)
    return EmpiricalModel(scenario, tables)


def deterministic_box(bits: str) -> EmpiricalModel:
    """Point-mass box: the four bits fix the outcomes of a0, a1, b0, b1."""
    if len(bits) != 4 or set(bits) - {"0", "1"}:
        raise OntolabError(f"need four bits, got {bits!r}")
    outcome = dict(zip(("a0", "a1", "b0", "b1"), bits))
    scenario = bell_scenario()
    tables = {
        ctx: Dist.delta(JointOutcome.of(ctx, tuple(outcome[m] for m in ctx)))
        for ctx in scenario.cover
    }
    return EmpiricalModel(scenario, tables)


def hardy_model() -> EmpiricalModel:
    """Rational no-signalling model realizing the Hardy argument.

    P(00|a0,b0) = 1/3 while P(00|a0,b1), P(00|a1,b0) and P(11|a1,b1) all
    vanish; any deterministic assignment giving the first cell weight
    would need a1 = b1 = 1, which the last zero forbids.
    """
    scenario = bell_scenario()
    rows = {
        ("a0", "b0"): ("1/3", "0", "0", "2/3"),
        ("a0", "b1"): ("0", "1/3", "2/3", "0"),
        ("a1", "b0"): ("0", "2/3", "1/3", "0"),
        ("a1", "b1"): ("1/3", "1/3", "1/3", "0"),
    }
    tables = {}
    for ctx, row in rows.items():
        cells = {}
        for (a, b), w in zip(itertools.product("01", repeat=2), row):
            if w != "0":
                cells[JointOutcome.of(ctx, (a, b))] = Fraction(w)
        tables[ctx] = Dist(cells)
    return EmpiricalModel(scenario, tables)


def specker_triangle() -> EmpiricalModel:
    """Three binary measurements, pairwise compatible, perfectly
    anticorrelated in every pair; the odd cycle has no global assignment."""
    scenario = MeasurementScenario.make(
        {m: ("0", "1") for m in ("m0", "m1", "m2")},
        [("m0", "m1"), ("m0", "m2"), ("m1", "m2")],
    )
    tables = {
        ctx: Dist(
            {
                JointOutcome.of(ctx, ("0", "1")): Fraction(1, 2),
                JointOutcome.of(ctx, ("1", "0")): Fraction(1, 2),
            }
        )
        for ctx in scenario.cover
    }
    return EmpiricalModel(scenario, tables)


def fuzzy_coin_property() -> Property:
    """Coin-pair guess: four ontic states, a two-valued report that is a
    point mass only at the extremes."""
    from ..properties import Property

    return Property(
        ("GG", "GW", "WG", "WW"),
        ("heads", "tails"),
        {
            "GG": Dist.delta("heads"),
            "GW": Dist({"heads": Fraction(3, 4), "tails": Fraction(1, 4)}),
            "WG": Dist({"heads": Fraction(1, 4), "tails": Fraction(3, 4)}),
            "WW": Dist.delta("tails"),
        },
    )


CHSH_ANGLES = {
    "a0": 0.0,
    "a1": math.pi / 2,
    "b0": math.pi / 4,
    "b1": -math.pi / 4,
}


def chsh_psi_complete(max_denominator: int = 10**6) -> OntologicalModel:
    """The state-is-the-ontic-state model of the maximally entangled pair
    measured at the angles that maximize the CHSH expression."""
    from ..quantum import bell_phi_plus, psi_complete_model, qubit_direction_povm, tensor

    measurements = {}
    for x, y in itertools.product((0, 1), repeat=2):
        ax, by = f"a{x}", f"b{y}"
        measurements[(ax, by)] = tensor(
            qubit_direction_povm(CHSH_ANGLES[ax]), qubit_direction_povm(CHSH_ANGLES[by])
        )
    return psi_complete_model({"entangled-pair": bell_phi_plus()}, measurements, max_denominator)


def chsh_quantum_empirical(max_denominator: int = 10**6) -> EmpiricalModel:
    """Operational tables of the entangled pair at the optimal angles."""
    from ..ontomodel import operational_probabilities

    return operational_probabilities(chsh_psi_complete(max_denominator), "entangled-pair")


def pbr_model(q: Fraction = Fraction(1, 4)) -> "Payload":
    from ..prepscen import PBRParams, pbr_counterexample

    return pbr_counterexample(PBRParams(q))


_ENTRIES: dict = {}


def _register(entry: ZooEntry) -> None:
    if entry.name in _ENTRIES:
        raise OntolabError(f"duplicate zoo entry {entry.name}")
    _ENTRIES[entry.name] = entry


_PR_EXPECTED = {"no-signalling": "pass", "decision": "non-local", "quasi-local": "signed weights exist"}

_register(
    ZooEntry(
        "prbox",
        KIND_EMPIRICAL,
        "extremal no-signalling box, a xor b = xy",
        pr_box,
        _PR_EXPECTED,
    )
)
for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
    if (alpha, beta, gamma) == (0, 0, 0):
        continue
    _register(
        ZooEntry(
            f"prbox-{alpha}{beta}{gamma}",
            KIND_EMPIRICAL,
            f"box variant, a xor b = xy xor {alpha}x xor {beta}y xor {gamma}",
            functools.partial(pr_box, alpha, beta, gamma),
            _PR_EXPECTED,
        )
    )

for bits_tuple in itertools.product("01", repeat=4):
    bits = "".join(bits_tuple)
    _register(
        ZooEntry(
            f"deterministic-222-{bits}",
            KIND_EMPIRICAL,
            f"point-mass box, (a0,a1,b0,b1) = {bits}",
            functools.partial(deterministic_box, bits),
            {"no-signalling": "pass", "decision": "local"},
        )
    )

_register(
    ZooEntry(
        "hardy",
        KIND_EMPIRICAL,
        "rational model realizing the Hardy non-locality argument",
        hardy_model,
        {"no-signalling": "pass", "decision": "non-local"},
    )
)
_register(
    ZooEntry(
        "specker-triangle",
        KIND_EMPIRICAL,
        "three pairwise measurements, perfect anticorrelation on the odd cycle",
        specker_triangle,
        {"no-signalling": "pass", "decision": "non-local", "quasi-local": "signed weights exist"},
    )
)
_register(
    ZooEntry(
        "chsh-quantum",
        KIND_EMPIRICAL,
        "entangled-pair tables at the optimal angles, snapped to rationals",
        chsh_quantum_empirical,
        {"no-signalling": "pass", "decision": "non-local", "chsh": "about 2.82843"},
        ("max_denominator",),
    )
)
_register(
    ZooEntry(
        "psi-complete-chsh",
        KIND_ONTOLOGICAL,
        "quantum state taken as the ontic state, CHSH measurements",
        chsh_psi_complete,
        {
            "deterministic": "fail",
            "parameter-independence": "pass",
            "local": "fail",
            "property-status": "all epistemic",
        },
        ("max_denominator",),
    )
)
_register(
    ZooEntry(
        "fuzzy-coin-property",
        KIND_PROPERTY,
        "two-valued report on a coin pair, epistemic in the middle states",
        fuzzy_coin_property,
        {"classification": "epistemic"},
    )
)
_register(
    ZooEntry(
        "pbr-q",
        KIND_PREPARATION,
        "two-site overlap model, identical tables for every joint preparation (q = 1/4 unless overridden)",
        pbr_model,
        {"no-preparation-signalling": "pass", "preparation-independence": "fail", "overlap-event": "0"},
        ("q",),
    )
)


def zoo_names() -> list:
    return sorted(_ENTRIES)


def get_entry(name: str) -> ZooEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownZooEntry(f"no zoo entry named {name!r}") from None


def load_model(
    name: str,
    q: Optional[Fraction] = None,
    max_denominator: Optional[int] = None,
) -> ModelFile:
    """Resolve a zoo name to a model file.

    A JSON file <name>.json under ONTOLAB_ZOO_DIR wins over the built-in
    when no knob is given. `q` applies only to pbr-q and `max_denominator`
    only to the two quantum builds (chsh-quantum, psi-complete-chsh); a
    knob given to any other entry raises OntolabError.
    """
    knobs = {k: v for k, v in (("q", q), ("max_denominator", max_denominator)) if v is not None}
    override_dir = os.environ.get("ONTOLAB_ZOO_DIR")
    if override_dir and not knobs:
        path = Path(override_dir) / f"{name}.json"
        if path.is_file():
            return parse_model_file(path.read_bytes())
    entry = get_entry(name)
    stray = [k for k in knobs if k not in entry.knobs]
    if stray:
        raise OntolabError(f"zoo entry {name!r} does not take {' or '.join(stray)}")
    return model_file_for(entry.build(**knobs))
