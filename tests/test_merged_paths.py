"""Property tests for the paths several callers share: the local-polytope
system that `decide_local` and `quasi_local_decomposition` both solve, and
the event predicate behind every table validation and `verify_witness`."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import (
    CanonicalLocalModel,
    Dist,
    EmpiricalModel,
    InvariantViolation,
    JointOutcome,
    LocalWitness,
    MeasurementScenario,
    OntologicalModel,
    decide_local,
    mix_empirical,
    quasi_local_decomposition,
    verify_certificate,
    verify_signed_weights,
    verify_witness,
)
from ontolab.cli.zoo import deterministic_box, pr_box

PR_BOXES = [pr_box(*abc) for abc in itertools.product((0, 1), repeat=3)]
DET_BITS = ["".join(b) for b in itertools.product("01", repeat=4)]
DET_BOXES = [deterministic_box(bits) for bits in DET_BITS]


@st.composite
def mixtures(draw):
    """A rational convex mixture of the 24 extremal (2,2,2) boxes, and the
    weight it puts on PR boxes; half the draws put none there."""
    pr = draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    if draw(st.booleans()):
        pr = [0] * 8
    det = draw(st.lists(st.integers(0, 3), min_size=16, max_size=16))
    if sum(pr) + sum(det) == 0:
        det[draw(st.integers(0, 15))] = 1
    total = sum(pr) + sum(det)
    components = [
        (Fraction(w, total), box) for w, box in zip(pr + det, PR_BOXES + DET_BOXES) if w
    ]
    return Fraction(sum(pr), total), mix_empirical(components)


@settings(max_examples=30, deadline=None)
@given(mixtures())
def test_decision_and_signed_weights_replay(mixture):
    pr_weight, e = mixture
    result = decide_local(e)
    local = isinstance(result, LocalWitness)
    if pr_weight == 0:
        assert local
    assert verify_witness(e, result) if local else verify_certificate(e, result)
    sw = quasi_local_decomposition(e)
    assert verify_signed_weights(e, sw)
    # A signed decomposition with no negative weight is a local witness.
    assert bool(sw.negative_part()) == (not local)


STRAY_KINDS = ("wrong-context", "unknown-outcome", "not-a-joint-outcome")


def stray(kind: str, scenario: MeasurementScenario, context: tuple):
    if kind == "wrong-context":
        other = next(c for c in scenario.cover if c != context)
        return JointOutcome.of(other, ("0",) * len(other))
    if kind == "unknown-outcome":
        return JointOutcome.of(context, ("2",) * len(context))
    return ("0",) * len(context)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(STRAY_KINDS),
    st.integers(0, 15),
    st.integers(0, 3),
    st.integers(1, 9),
)
def test_one_stray_element_is_refused(kind, box, ctx_index, tenths):
    e = DET_BOXES[box]
    scenario = e.scenario
    ctx = scenario.cover[ctx_index]
    w = Fraction(tenths, 10)

    def with_stray(d: Dist, context: tuple) -> Dist:
        return Dist({**{x: v * (1 - w) for x, v in d.items()}, stray(kind, scenario, context): w})

    tables = dict(e.tables)
    tables[ctx] = with_stray(tables[ctx], ctx)
    with pytest.raises(InvariantViolation):
        EmpiricalModel(scenario, tables)

    responses = {("*", c): d for c, d in tables.items()}
    with pytest.raises(InvariantViolation):
        OntologicalModel(scenario, ("p",), ("*",), {"p": Dist.delta("*")}, responses)

    omega = JointOutcome.of(scenario.measurements, tuple(DET_BITS[box]))
    weights = with_stray(Dist.delta(omega), scenario.measurements)
    with pytest.raises(InvariantViolation):
        CanonicalLocalModel(scenario, {"p": weights})
    assert verify_witness(e, LocalWitness(weights)) is False


def test_validation_does_not_enumerate_the_carrier(monkeypatch):
    """One context of 20 binary measurements has about a million events;
    validating a point-mass table over it must not list them."""
    ms = [f"m{i:02d}" for i in range(20)]
    scenario = MeasurementScenario.make({m: ("0", "1") for m in ms}, [ms])
    ctx = scenario.cover[0]
    monkeypatch.setattr(MeasurementScenario, "events", None)
    table = Dist.delta(JointOutcome.of(ctx, ("1",) * 20))
    e = EmpiricalModel(scenario, {ctx: table})
    h = OntologicalModel(scenario, ("p",), ("*",), {"p": Dist.delta("*")}, {("*", ctx): table})
    assert e.tables[ctx] == h.response("*", ctx) == table
