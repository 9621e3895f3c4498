"""Shared fixtures: seeded random model generators, and the Hypothesis
profile every test module runs under.

All randomness goes through explicit `random.Random` instances so every
test run sees the same models.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from ontolab import (
    Dist,
    EmpiricalModel,
    JointOutcome,
    MeasurementScenario,
    OntologicalModel,
    Property,
)
from ontolab.cli.zoo import bell_scenario

# Every phase but `explain`, which re-runs a failing example under line
# tracing: on a property that builds ψ-complete models it ran for minutes
# at hundreds of MB before reporting. A test's own `@settings` are made
# after this loads, so they keep their values and take these phases.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


def rand_rational_dist(rng: random.Random, elements, max_denominator: int = 20) -> Dist:
    """Random distribution with one shared denominator <= max_denominator."""
    elements = list(elements)
    den = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, den) for _ in range(len(elements) - 1))
    weights = []
    prev = 0
    for cut in cuts + [den]:
        weights.append(cut - prev)
        prev = cut
    return Dist({e: Fraction(w, den) for e, w in zip(elements, weights) if w})


def rand_delta(rng: random.Random, elements) -> Dist:
    return Dist.delta(rng.choice(list(elements)))


def rand_property(rng: random.Random) -> Property:
    """Up to six states and four values; one run in ten is all point masses."""
    n_states = rng.randint(1, 6)
    n_values = rng.randint(1, 4)
    states = tuple(f"s{i}" for i in range(n_states))
    values = tuple(f"v{i}" for i in range(n_values))
    force_delta = rng.random() < 0.1
    dists = {}
    for lam in states:
        if force_delta:
            dists[lam] = rand_delta(rng, values)
        else:
            dists[lam] = rand_rational_dist(rng, values)
    return Property(states, values, dists)


def rand_bell_responses(rng: random.Random, states, kind: str) -> dict:
    """Response tables over the (2,2,2) scenario.

    kind "random": arbitrary per-context distributions.
    kind "local": one outcome per (state, measurement); delta responses.
    kind "factorizing": per-(state, measurement) outcome distributions,
        responses are their products, so parameter independence holds by
        construction without determinism.
    kind "neardet": deterministic but with one response replaced by a
        delta whose marginal disagrees with the other context, breaking
        parameter independence as quietly as possible.
    """
    scenario = bell_scenario()
    responses = {}
    if kind == "random":
        for lam in states:
            for ctx in scenario.cover:
                responses[(lam, ctx)] = rand_rational_dist(rng, scenario.events(ctx))
    elif kind == "local":
        for lam in states:
            outcome = {m: rng.choice(scenario.outcomes[m]) for m in scenario.measurements}
            for ctx in scenario.cover:
                responses[(lam, ctx)] = Dist.delta(
                    JointOutcome.of(ctx, tuple(outcome[m] for m in ctx))
                )
    elif kind == "factorizing":
        for lam in states:
            margs = {m: rand_rational_dist(rng, scenario.outcomes[m]) for m in scenario.measurements}
            for ctx in scenario.cover:
                cells = {}
                for event in scenario.events(ctx):
                    w = Fraction(1)
                    for m in ctx:
                        w *= margs[m].weight(event.outcome(m))
                    if w:
                        cells[event] = w
                responses[(lam, ctx)] = Dist(cells)
    elif kind == "neardet":
        responses = rand_bell_responses(rng, states, "local")
        lam = rng.choice(list(states))
        ctx = rng.choice(scenario.cover)
        current = next(iter(responses[(lam, ctx)].support))
        flipped = tuple("1" if o == "0" else "0" for o in current.outcomes)
        responses[(lam, ctx)] = Dist.delta(JointOutcome.of(ctx, flipped))
    else:
        raise ValueError(kind)
    return responses


def rand_bell_model(rng: random.Random, kind: str) -> OntologicalModel:
    scenario = bell_scenario()
    states = tuple(f"l{i}" for i in range(rng.randint(1, 3)))
    preps = tuple(f"p{i}" for i in range(rng.randint(1, 2)))
    prep_dists = {p: rand_rational_dist(rng, states) for p in preps}
    return OntologicalModel(
        scenario, preps, states, prep_dists, rand_bell_responses(rng, states, kind)
    )


def rand_empirical(rng: random.Random, scenario: MeasurementScenario) -> EmpiricalModel:
    tables = {ctx: rand_rational_dist(rng, scenario.events(ctx)) for ctx in scenario.cover}
    return EmpiricalModel(scenario, tables)


@pytest.fixture
def rng():
    return random.Random(20260822)


@pytest.fixture
def bell():
    return bell_scenario()
