"""Finite ontological models over measurement scenarios.

An ontological model fixes a finite ontic space, a distribution over it
per preparation, and a response distribution per ontic state and maximal
context. Response tables are keyed by (state, context) only, so the same
state responds identically no matter which preparation produced it.

Two structural facts drive everything here. A model is local exactly when
it is deterministic and parameter independent, and that holds exactly when
every single-measurement observable property it defines is ontic. Local
models admit a canonical form whose ontic states are global outcome
assignments; the rewrite preserves operational probabilities exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Sequence

from .probcore import (
    Check,
    Dist,
    EmpiricalModel,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    PASS,
    _ordered,
    _value_class,
    checked_tables,
    first_disagreement,
    is_delta,
    labels,
    marginalize,
    product_mismatch,
)
from .properties import Ontic, Property, classify


class UnknownPreparation(OntolabError):
    """Preparation label not declared by the model."""


class MarginalIllDefined(OntolabError):
    """A single-measurement response marginal differs between contexts."""

    def __init__(self, measurement, state, context_a, context_b, marginal_a, marginal_b):
        self.measurement = measurement
        self.state = state
        self.context_a = context_a
        self.context_b = context_b
        self.marginal_a = marginal_a
        self.marginal_b = marginal_b
        super().__init__(
            f"marginal of {measurement!r} at state {state!r} differs between "
            f"contexts {context_a} and {context_b}"
        )


class NotLocal(OntolabError):
    """Canonical form requested for a model that is not local."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"model is not local: {witness!r}")


@_value_class
class NondeterministicWitness:
    """A state and context whose response is not a point mass."""

    state: Any
    context: tuple
    response: Dist


@_value_class
class ParameterDependenceWitness:
    """A measurement whose response marginal at some state depends on the context."""

    measurement: Any
    state: Any
    context_a: tuple
    context_b: tuple
    marginal_a: Dist
    marginal_b: Dist


@_value_class
class FactorizationWitness:
    """A response cell that differs from the product of its own marginals."""

    state: Any
    context: tuple
    event: JointOutcome
    actual: Fraction
    product: Fraction


@_value_class
class OntologicalModel:
    """Scenario, preparations, ontic space, and (state, context) responses."""

    scenario: MeasurementScenario
    preparations: tuple
    ontic_space: tuple
    prep_dists: Mapping[Any, Dist]
    responses: Mapping[tuple, Dist]

    def __post_init__(self):
        sc = self.scenario
        preps = labels(_ordered(self.preparations), "preparation labels")
        states = labels(_ordered(self.ontic_space), "ontic states")
        known, cover = set(states), set(sc.cover)
        prep_dists = checked_tables(
            self.prep_dists, len(preps), set(preps).__contains__,
            lambda p, lam: lam in known, "prep_dists",
        )
        responses = {(lam, tuple(_ordered(ctx))): d for (lam, ctx), d in self.responses.items()}
        responses = checked_tables(
            responses, len(states) * len(cover),
            lambda key: key[0] in known and key[1] in cover,
            lambda key, x: sc.is_event(key[1], x), "responses",
        )
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "ontic_space", states)
        object.__setattr__(self, "prep_dists", prep_dists)
        object.__setattr__(self, "responses", responses)

    def response(self, state: Any, context: Sequence) -> Dist:
        return self.responses[(state, tuple(_ordered(context)))]


def operational_probabilities(h: OntologicalModel, preparation: Any) -> EmpiricalModel:
    """Average the responses over the preparation's state distribution."""
    if preparation not in h.prep_dists:
        raise UnknownPreparation(f"unknown preparation {preparation!r}")
    mu = h.prep_dists[preparation]
    tables = {
        ctx: Dist.mix([(mu.weight(lam), h.response(lam, ctx)) for lam in mu.support])
        for ctx in h.scenario.cover
    }
    return EmpiricalModel(h.scenario, tables)


def is_deterministic(h: OntologicalModel) -> Check:
    """Every response must be a point mass."""
    for lam in h.ontic_space:
        for ctx in h.scenario.cover:
            d = h.response(lam, ctx)
            if is_delta(d) is None:
                return Check(False, NondeterministicWitness(lam, ctx, d))
    return PASS


def is_parameter_independent(h: OntologicalModel) -> Check:
    """Single-measurement response marginals must not depend on the context.

    States are visited in order, then measurements, then each
    measurement's contexts in cover order; the witness is the first
    disagreement.
    """
    index = h.scenario.context_index
    families = {(m, lam): ctxs for lam in h.ontic_space for m, ctxs in index.items()}
    odd = first_disagreement(
        families, lambda key, ctx: marginalize(h.response(key[1], ctx), (key[0],))
    )
    return Check(False, ParameterDependenceWitness(*odd[0], *odd[1:])) if odd else PASS


def is_local(h: OntologicalModel) -> Check:
    """Deterministic and parameter independent; the first failure is the reason."""
    det = is_deterministic(h)
    if not det:
        return det
    return is_parameter_independent(h)


def factorizes(h: OntologicalModel) -> Check:
    """Each response must equal the product of its own single-measurement marginals.

    One `product_mismatch` per (state, context): the witness is the first
    differing event in the context's event order, a zero stored by absence
    included, and a factorizing response costs one visit per event of its
    support.
    """
    sc = h.scenario
    for lam in h.ontic_space:
        for ctx in sc.cover:
            d = h.response(lam, ctx)
            odd = product_mismatch(
                [sc.outcomes[m] for m in ctx],
                [d.map_elements(lambda ev, m=m: ev.outcome(m)) for m in ctx],
                lambda cell: d.weight(JointOutcome.of(ctx, cell)),
            )
            if odd:
                cell, actual, product = odd
                return Check(False, FactorizationWitness(lam, ctx, JointOutcome.of(ctx, cell), actual, product))
    return PASS


def observable_property(h: OntologicalModel, measurement: Any) -> Property:
    """The property "outcome of this measurement" over the model's ontic space.

    Well defined only when the measurement's response marginal agrees
    across contexts at every state; otherwise MarginalIllDefined is raised.
    """
    ctxs = h.scenario.contexts_with(measurement)
    if not ctxs:
        raise InvariantViolation(f"unknown measurement {measurement!r}")
    odd = first_disagreement(
        dict.fromkeys(h.ontic_space, ctxs),
        lambda lam, ctx: marginalize(h.response(lam, ctx), (measurement,)),
    )
    if odd:
        raise MarginalIllDefined(measurement, *odd)
    dists = {
        lam: h.response(lam, ctxs[0]).map_elements(lambda ev: ev.outcome(measurement))
        for lam in h.ontic_space
    }
    return Property(h.ontic_space, h.scenario.outcomes[measurement], dists)


ONTIC = "ontic"
EPISTEMIC = "epistemic"
UNDEFINED = "undefined"


def onticity_report(h: OntologicalModel) -> dict:
    """Per-measurement status of the observable property: ontic, epistemic,
    or undefined when the marginal depends on the context."""
    report = {}
    for m in h.scenario.measurements:
        try:
            p = observable_property(h, m)
        except MarginalIllDefined:
            report[m] = UNDEFINED
            continue
        report[m] = ONTIC if isinstance(classify(p), Ontic) else EPISTEMIC
    return report


@_value_class
class CanonicalLocalModel:
    """Local model in canonical form: one weight map over global assignments
    per preparation; responses are implied deltas."""

    scenario: MeasurementScenario
    weights: Mapping[Any, Dist]

    def __post_init__(self):
        sc = self.scenario
        weights = checked_tables(
            self.weights, len(self.weights), lambda p: True,
            lambda p, omega: sc.is_event(sc.measurements, omega), "weights",
        )
        object.__setattr__(self, "weights", weights)

    def as_ontological_model(self) -> OntologicalModel:
        """Re-express with assignments as ontic states and delta responses."""
        states = set()
        for d in self.weights.values():
            states |= d.support
        states = tuple(_ordered(states))
        responses = {
            (omega, ctx): Dist.delta(omega.restrict(ctx))
            for omega in states
            for ctx in self.scenario.cover
        }
        return OntologicalModel(
            self.scenario, tuple(self.weights), states, dict(self.weights), responses
        )


def canonicalize(h: OntologicalModel) -> CanonicalLocalModel:
    """Push each preparation's state distribution onto global assignments.

    Requires locality; each ontic state maps to the global assignment its
    deterministic responses define. Operational probabilities are preserved
    exactly.
    """
    loc = is_local(h)
    if not loc:
        raise NotLocal(loc.witness)
    assignment_of = {
        lam: JointOutcome.from_mapping(
            {m: o for ctx in h.scenario.cover for m, o in is_delta(h.response(lam, ctx)).pairs}
        )
        for lam in h.ontic_space
    }
    weights = {
        p: d.map_elements(lambda lam: assignment_of[lam]) for p, d in h.prep_dists.items()
    }
    return CanonicalLocalModel(h.scenario, weights)
