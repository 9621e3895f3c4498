"""Properties over a finite ontic space and their ontic/epistemic status.

A property attaches to each ontic state a distribution over a finite value
set. It is ontic when every state fixes a value with certainty, epistemic
otherwise. The dual picture inverts the property against a full-support
prior; the classification and the overlap of the inverted supports always
agree, which `hs_equivalence` re-checks instance by instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Any, Mapping, Optional, Union

from .probcore import (
    Dist,
    OntolabError,
    _ordered,
    _value_class,
    checked_tables,
    is_delta,
    labels,
)


class PriorNotFullSupport(OntolabError):
    """The prior assigns zero weight to some ontic state."""


@_value_class
class Property:
    """Total map from ontic states to distributions over a value set."""

    ontic_space: tuple
    values: tuple
    value_dists: Mapping[Any, Dist]

    def __post_init__(self):
        states = labels(_ordered(self.ontic_space), "ontic states")
        values = labels(_ordered(self.values), "values")
        known = set(values)
        value_dists = checked_tables(
            self.value_dists, len(states), set(states).__contains__,
            lambda lam, v: v in known, "value_dists",
        )
        object.__setattr__(self, "ontic_space", states)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_dists", value_dists)

    def dist_at(self, state: Any) -> Dist:
        return self.value_dists[state]


@_value_class
class Ontic:
    """Every ontic state fixes a value; the certain assignment is recorded."""

    assignment: Mapping[Any, Any]


@_value_class
class Epistemic:
    """An ontic state whose value is uncertain, with two values it can take."""

    state: Any
    value_a: Any
    value_b: Any


Classification = Union[Ontic, Epistemic]


def classify(p: Property) -> Classification:
    """Ontic iff every state's value distribution is a point mass."""
    assignment = {}
    for lam in p.ontic_space:
        d = p.dist_at(lam)
        v = is_delta(d)
        if v is None:
            va, vb = _ordered(d.support)[:2]
            return Epistemic(lam, va, vb)
        assignment[lam] = v
    return Ontic(assignment)


@_value_class
class InvertedFamily:
    """Posterior state distributions, one per value with non-zero mass."""

    posteriors: Mapping[Any, Dist]
    prior: Dist


def bayes_invert(p: Property, prior: Optional[Dist] = None) -> InvertedFamily:
    """Invert a property against a prior over the ontic space.

    The posterior for value v weights each state by its likelihood of v
    times its prior mass, normalised; values carrying no mass under the
    prior are absent from the family. The prior defaults to uniform and
    must have full support.
    """
    if prior is None:
        prior = Dist.uniform(p.ontic_space)
    if prior.support != set(p.ontic_space):
        raise PriorNotFullSupport(
            f"prior support {sorted(prior.support)} does not cover {list(p.ontic_space)}"
        )
    posteriors = {}
    for v in p.values:
        mass = {lam: p.dist_at(lam).weight(v) * prior.weight(lam) for lam in p.ontic_space}
        total = sum(mass.values())
        if total == 0:
            continue
        posteriors[v] = Dist({lam: w / total for lam, w in mass.items() if w > 0})
    return InvertedFamily(posteriors, prior)


def supports_overlap(family: InvertedFamily) -> Optional[tuple]:
    """First pair of values whose posterior supports share a state.

    Returns ``(value_a, value_b, state)`` or None when all supports are
    pairwise disjoint.
    """
    for va, vb in combinations(_ordered(family.posteriors), 2):
        shared = family.posteriors[va].support & family.posteriors[vb].support
        if shared:
            return (va, vb, _ordered(shared)[0])
    return None


def hs_equivalence(p: Property, prior: Optional[Dist] = None) -> bool:
    """Re-check that classification and posterior-support overlap agree.

    A property is ontic exactly when its inverted family has pairwise
    disjoint supports; this runs both sides on one instance and compares.
    """
    direct_ontic = isinstance(classify(p), Ontic)
    inverted_ontic = supports_overlap(bayes_invert(p, prior)) is None
    return direct_ontic == inverted_ontic
