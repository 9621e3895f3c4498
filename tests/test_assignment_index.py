"""Locality decisions on assignment indices, against the reference solver,
on scenarios the ladder does not draw; and the one-pass no-signalling
check against the `marginalize`-based one it replaced.

`decide_local` and `quasi_local_decomposition` number the global
assignments as mixed-radix integers and mark each context's rows through
the index of the assignment's event. The scenarios below stress that
numbering: outcome counts 2 and 3 side by side, outcome tuples declared
out of sorted order, contexts that skip measurements, a singleton context,
and three-measurement contexts.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontolab import (
    Check,
    Dist,
    EmpiricalModel,
    JointOutcome,
    LocalWitness,
    MeasurementScenario,
    NonlocalityCertificate,
    SignallingWitness,
    SignedWeights,
    check_no_signalling,
    decide_local,
    global_assignments,
    marginalize,
    quasi_local_decomposition,
)
from ontolab.probcore import PASS, first_disagreement

from reference_simplex import ref_decide_local, ref_equality_system, ref_solve_linear
from test_integer_simplex import embedded_pr_box, local_model, two_party_scenario

F = Fraction

SCENARIOS = {
    "mixed outcome counts": MeasurementScenario.make(
        {"a0": ("0", "1"), "a1": ("0", "1"), "b0": ("0", "1", "2"), "b1": ("0", "1", "2")},
        [(a, b) for a in ("a0", "a1") for b in ("b0", "b1")],
    ),
    "unsorted outcomes": MeasurementScenario.make(
        {"a0": ("1", "0"), "a1": ("b", "a", "c"), "b0": ("1", "0"), "b1": ("0", "1")},
        [(a, b) for a in ("a0", "a1") for b in ("b0", "b1")],
    ),
    "3-cycle": MeasurementScenario.make(
        {"x": ("1", "0"), "y": ("0", "1"), "z": ("b", "a", "c")},
        [("x", "y"), ("y", "z"), ("z", "x")],
    ),
    "chain": MeasurementScenario.make(
        {"a": ("0", "1"), "b": ("2", "1", "0"), "c": ("0", "1"), "d": ("1", "0")},
        [("a", "b"), ("b", "c"), ("c", "d")],
    ),
    "three parties and a singleton": MeasurementScenario.make(
        {"a0": ("0", "1"), "a1": ("1", "0"), "b": ("0", "1"), "c0": ("0", "1"), "c1": ("0", "1"), "d": ("1", "0")},
        [(a, "b", c) for a in ("a0", "a1") for c in ("c0", "c1")] + [("d",)],
    ),
}


def listed_assignments(sc: MeasurementScenario) -> list:
    """Every total assignment, the last measurement's outcome changing fastest."""
    pools = [sc.outcomes[m] for m in sc.measurements]
    return [JointOutcome.of(sc.measurements, combo) for combo in itertools.product(*pools)]


def parity_model(sc: MeasurementScenario, targets, visibility=F(1)) -> EmpiricalModel:
    """Each context's table is uniform on the events whose outcome indices
    are all 0 or 1 and sum to the context's target modulo 2, mixed with the
    uniform table at the given visibility.

    Every marginal on a context of two or more measurements is uniform, so
    the model is no-signalling. It is not local at visibility 1 when the
    targets around a cycle of contexts add up to an odd number: the PR box
    on a two-party cover, the Specker triangle on the 3-cycle.
    """
    tables = {}
    for ctx, t in zip(sc.cover, targets):
        events = sc.events(ctx)
        digits = [[sc.outcomes[m].index(o) for m, o in ev.pairs] for ev in events]
        hits = [max(ds) < 2 and sum(ds) % 2 == t for ds in digits]
        tables[ctx] = Dist(
            {ev: (1 - visibility) / len(events) + visibility * hit / sum(hits) for ev, hit in zip(events, hits)}
        )
    return EmpiricalModel(sc, tables)


def specker_triangle() -> EmpiricalModel:
    return parity_model(SCENARIOS["3-cycle"], (1, 1, 1))


@st.composite
def models(draw, kinds=("local", "parity", "any")):
    """A model on one of SCENARIOS, and its kind.

    - "local": a rational mixture of 1-4 total assignments.
    - "parity": `parity_model` with drawn targets and visibility; often
      non-local.
    - "any": one drawn distribution per context, usually signalling.
    """
    sc = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]
    kind = draw(st.sampled_from(kinds))
    if kind == "parity":
        targets = draw(st.lists(st.integers(0, 1), min_size=len(sc.cover), max_size=len(sc.cover)))
        return kind, parity_model(sc, targets, draw(st.sampled_from([F(1), F(9, 10), F(3, 4), F(1, 2)])))
    if kind == "any":
        tables = {}
        for ctx in sc.cover:
            events = sc.events(ctx)
            raw = draw(st.lists(st.integers(0, 3), min_size=len(events), max_size=len(events)))
            raw[draw(st.integers(0, len(events) - 1))] += 1
            tables[ctx] = Dist({ev: F(r, sum(raw)) for ev, r in zip(events, raw)})
        return kind, EmpiricalModel(sc, tables)
    omegas = listed_assignments(sc)
    raw = draw(st.lists(st.tuples(st.integers(0, len(omegas) - 1), st.integers(1, 5)), min_size=1, max_size=4))
    total = sum(r for _, r in raw)
    tables = {}
    for ctx in sc.cover:
        cells: dict = {}
        for k, r in raw:
            ev = omegas[k].restrict(ctx)
            cells[ev] = cells.get(ev, F(0)) + F(r, total)
        tables[ctx] = Dist(cells)
    return kind, EmpiricalModel(sc, tables)


def ref_signed(e: EmpiricalModel) -> SignedWeights:
    """The reference of `quasi_local_decomposition`: the realizing
    distribution of a local model, else the reference Gauss-Jordan solve."""
    decision = ref_decide_local(e)
    if isinstance(decision, LocalWitness):
        return SignedWeights(dict(decision.dist.weights))
    assignments = listed_assignments(e.scenario)
    rows, rhs, _ = ref_equality_system(e, assignments)
    solution = ref_solve_linear(rows, rhs)
    return SignedWeights({w: v for w, v in zip(assignments, solution) if v != 0})


def test_global_assignments_keep_the_product_order():
    for sc in SCENARIOS.values():
        assert global_assignments(sc) == listed_assignments(sc)


@settings(max_examples=60, deadline=None)
@given(models())
@example(("specker", specker_triangle()))
def test_decide_local_equals_reference(drawn):
    kind, e = drawn
    result = decide_local(e)
    assert result == ref_decide_local(e)
    if kind == "local":
        assert isinstance(result, LocalWitness)
    if kind == "specker":
        assert isinstance(result, NonlocalityCertificate)


@settings(max_examples=40, deadline=None)
@given(models(kinds=("local", "parity")))
@example(("specker", specker_triangle()))
def test_signed_weights_equal_reference(drawn):
    _, e = drawn
    assert check_no_signalling(e)
    assert quasi_local_decomposition(e) == ref_signed(e)


def count_joint_outcomes(monkeypatch) -> list:
    calls = []
    build = JointOutcome.__post_init__

    def counted(self):
        calls.append(None)
        build(self)

    monkeypatch.setattr(JointOutcome, "__post_init__", counted)
    return calls


def test_a_certificate_builds_no_joint_outcome_per_assignment(monkeypatch):
    """The system is built from outcome indices alone; only the contexts
    that carry a nonzero coefficient have their events listed, to name
    them. Listing the 256 assignments, as a full column list would,
    exceeds it."""
    e = embedded_pr_box(4, 4)
    cert = decide_local(e)
    assert isinstance(cert, NonlocalityCertificate)
    named = {ev.context for ev in cert.coefficients}
    events = sum(len(e.scenario.events(ctx)) for ctx in named)
    calls = count_joint_outcomes(monkeypatch)
    assert decide_local(e) == cert
    assert len(calls) <= events < e.scenario.assignment_space_size()


def test_a_witness_builds_joint_outcomes_only_for_its_support(monkeypatch):
    e = local_model(random.Random(2), two_party_scenario(4, 4), 3)
    calls = count_joint_outcomes(monkeypatch)
    witness = decide_local(e)
    assert isinstance(witness, LocalWitness)
    assert len(calls) == len(witness.dist.weights)


def marginalizing_check(e: EmpiricalModel) -> Check:
    """The no-signalling check as it was: one `marginalize` per (measurement, context)."""
    odd = first_disagreement(e.scenario.context_index, lambda m, ctx: marginalize(e.tables[ctx], (m,)))
    return Check(False, SignallingWitness(*odd)) if odd else PASS


@settings(max_examples=300, deadline=None)
@given(models())
@example(("specker", specker_triangle()))
def test_no_signalling_check_equals_the_marginalizing_one(drawn):
    kind, e = drawn
    check = check_no_signalling(e)
    assert check == marginalizing_check(e)
    if kind != "any":
        assert check
