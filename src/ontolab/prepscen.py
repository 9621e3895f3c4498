"""Multi-site preparation scenarios and preparation independence.

The translation table is: sites choose preparations the way parties choose
measurements, joint preparations play the role of contexts, and ontic
states play the role of outcomes. No-preparation-signalling mirrors the
no-signalling of empirical models, and preparation independence mirrors
the factorization of responses: both share `probcore.first_disagreement`
and `probcore.product_mismatch` with their measurement counterparts, and
product models are built with `probcore.product_dist`.
`as_measurement_model` makes the translation literal so the mirrored
checks can be compared verdict for verdict.

`pbr_counterexample` builds the overlap-region model that is exactly
no-preparation-signalling yet fails independence for every overlap weight
q in (0, 1/2]: the two ontic overlap regions never occur jointly although
the product of the site marginals says they should.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from .probcore import (
    Check,
    Dist,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    PASS,
    _ordered,
    _value_class,
    checked_tables,
    first_disagreement,
    labels,
    product_dist,
    product_mismatch,
)

if TYPE_CHECKING:
    from .ontomodel import OntologicalModel


class QOutOfRange(OntolabError):
    """Overlap weight must lie in (0, 1/2]."""


class BadRegion(OntolabError):
    """A site region is empty, unknown, or not a subset of the site's states."""


@_value_class
class PreparationScenario:
    """Sites with their preparation choices and per-site ontic spaces.

    Site order is meaningful: joint preparations and joint states are
    tuples aligned with it. The cover is always the full product of
    per-site choices.
    """

    sites: tuple
    preparations: Mapping[Any, tuple]
    ontic_spaces: Mapping[Any, tuple]

    def __post_init__(self):
        sites = labels(self.sites, "sites")
        if set(self.preparations) != set(sites) or set(self.ontic_spaces) != set(sites):
            raise InvariantViolation("per-site maps must cover exactly the declared sites")
        preps = {s: labels(self.preparations[s], f"preparations at site {s!r}") for s in sites}
        spaces = {s: labels(self.ontic_spaces[s], f"ontic states at site {s!r}") for s in sites}
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "ontic_spaces", spaces)

    def joint_preparations(self) -> list:
        """All choices of one preparation per site, in product order."""
        return list(itertools.product(*(self.preparations[s] for s in self.sites)))

    def joint_states(self) -> list:
        return list(itertools.product(*(self.ontic_spaces[s] for s in self.sites)))

    def is_joint_state(self, js: Any) -> bool:
        """Is ``js`` a tuple of one declared ontic state per site, in site
        order? Checked per site, without listing the joint states."""
        return (
            isinstance(js, tuple)
            and len(js) == len(self.sites)
            and all(lam in self.ontic_spaces[s] for s, lam in zip(self.sites, js))
        )

    def site_index(self, site: Any) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise InvariantViolation(f"unknown site {site!r}") from None


@_value_class
class PrepSignallingWitness:
    """A site whose marginal depends on another site's preparation choice."""

    site: Any
    preparation: Any
    joint_a: tuple
    joint_b: tuple
    marginal_a: Dist
    marginal_b: Dist


@_value_class
class DependenceWitness:
    """A joint-state cell differing from the product of the site marginals."""

    joint_preparation: tuple
    joint_state: tuple
    actual: Fraction
    product: Fraction


@_value_class
class PreparationModel:
    """One distribution over joint ontic states per joint preparation.

    Validation counts the tables and checks each key site by site, so it
    never lists the joint preparations.
    """

    scenario: PreparationScenario
    tables: Mapping[tuple, Dist]

    def __post_init__(self):
        sc = self.scenario
        pools = [set(sc.preparations[s]) for s in sc.sites]
        tables = checked_tables(
            {tuple(jp): d for jp, d in self.tables.items()},
            math.prod(map(len, pools)),
            lambda jp: len(jp) == len(pools) and all(p in pool for p, pool in zip(jp, pools)),
            lambda jp, js: sc.is_joint_state(js), "tables",
        )
        object.__setattr__(self, "tables", tables)

    def table(self, joint_preparation: Sequence) -> Dist:
        return self.tables[tuple(joint_preparation)]

    def site_marginal(self, joint_preparation: Sequence, site: Any) -> Dist:
        i = self.scenario.site_index(site)
        return self.table(joint_preparation).map_elements(lambda js: js[i])


def is_no_preparation_signalling(m: PreparationModel) -> Check:
    """Each site's marginal may depend only on that site's own choice.

    One pass over the joint preparations groups them by each (site,
    preparation) choice. Sites are visited in declared order, then each
    site's preparations, then the joint preparations in product order.
    """
    sc = m.scenario
    families = {(s, p): [] for s in sc.sites for p in sc.preparations[s]}
    for jp in sc.joint_preparations():
        for choice in zip(sc.sites, jp):
            families[choice].append(jp)
    odd = first_disagreement(families, lambda choice, jp: m.site_marginal(jp, choice[0]))
    return Check(False, PrepSignallingWitness(*odd[0], *odd[1:])) if odd else PASS


def is_preparation_independent(m: PreparationModel) -> Check:
    """Joint tables must factor into the product of their own site marginals.

    No-preparation-signalling is required first; its witness is surfaced
    when it fails. The factorization itself is one `product_mismatch` per
    joint preparation: the witness is the first differing cell in
    joint-state order, and a factorizing table costs one visit per cell of
    its support.
    """
    nps = is_no_preparation_signalling(m)
    if not nps:
        return nps
    sc = m.scenario
    for jp in sc.joint_preparations():
        odd = product_mismatch(
            [sc.ontic_spaces[s] for s in sc.sites],
            [m.site_marginal(jp, s) for s in sc.sites],
            m.table(jp).weight,
        )
        if odd:
            return Check(False, DependenceWitness(tuple(jp), *odd))
    return PASS


@_value_class
class PBRParams:
    """Overlap weight for the two-site overlap-region counter-example."""

    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        if not (0 < q <= Fraction(1, 2)):
            raise QOutOfRange(f"q must lie in (0, 1/2], got {q}")
        object.__setattr__(self, "q", q)


OVERLAP = "overlap"
OUTSIDE = "outside"


def pbr_counterexample(params: PBRParams) -> PreparationModel:
    """Two sites, two preparations each, identical joint tables.

    Every joint preparation puts weight 0 on both sites landing in the
    overlap region, q on each mixed cell, and 1 - 2q on both landing
    outside. Site marginals give the overlap region weight q, so the
    product predicts q^2 > 0 for the doubly-overlap cell, and independence
    fails while no-preparation-signalling holds.
    """
    q = params.q
    scenario = PreparationScenario(
        ("system1", "system2"),
        {"system1": ("psi0", "psi1"), "system2": ("psi0", "psi1")},
        {"system1": (OVERLAP, OUTSIDE), "system2": (OVERLAP, OUTSIDE)},
    )
    cells = {
        (OVERLAP, OUTSIDE): q,
        (OUTSIDE, OVERLAP): q,
        (OUTSIDE, OUTSIDE): 1 - 2 * q,
    }
    table = Dist({js: w for js, w in cells.items() if w > 0})
    tables = {jp: table for jp in scenario.joint_preparations()}
    return PreparationModel(scenario, tables)


def overlap_event_probability(m: PreparationModel, regions: Mapping[Any, Iterable]) -> dict:
    """Probability that every site's state lands in its region, per joint
    preparation."""
    sc = m.scenario
    if set(regions) != set(sc.sites):
        raise BadRegion(f"regions must be given for exactly the sites {list(sc.sites)}")
    region_sets = {}
    for site, region in regions.items():
        rs = set(region)
        if not rs:
            raise BadRegion(f"empty region for site {site!r}")
        stray = rs - set(sc.ontic_spaces[site])
        if stray:
            raise BadRegion(f"region for {site!r} contains unknown states {sorted(stray)}")
        region_sets[site] = rs
    out = {}
    for jp in sc.joint_preparations():
        total = Fraction(0)
        for js, w in m.table(jp).items():
            if all(js[i] in region_sets[s] for i, s in enumerate(sc.sites)):
                total += w
        out[tuple(jp)] = total
    return out


def product_preparation_model(
    site_models: Mapping[Any, Mapping[Any, Dist]],
    ontic_spaces: Optional[Mapping[Any, Sequence]] = None,
) -> PreparationModel:
    """Assemble the independent product of per-site preparation models.

    Ontic spaces default to the union of the supports seen at each site;
    given ones must name exactly the sites of ``site_models``, which
    `PreparationScenario` checks. The result is preparation independent by
    construction.
    """
    sites = tuple(site_models)
    preps = {s: tuple(site_models[s]) for s in sites}
    if ontic_spaces is None:
        ontic_spaces = {}
        for s in sites:
            seen: set = set()
            for d in site_models[s].values():
                seen |= d.support
            ontic_spaces[s] = tuple(_ordered(seen))
    scenario = PreparationScenario(sites, preps, ontic_spaces)
    tables = {
        jp: product_dist(*(site_models[s][p] for s, p in zip(sites, jp)))
        for jp in scenario.joint_preparations()
    }
    return PreparationModel(scenario, tables)


def as_measurement_model(m: PreparationModel) -> OntologicalModel:
    """Literal translation into measurement-scenario form.

    Each (site, preparation) pair becomes a measurement, named by that
    tuple, whose outcomes are the site's ontic states; joint preparations
    become contexts; the tables become the responses of a single dummy
    ontic state. Signalling and factorization checks then mirror their
    preparation counterparts.
    """
    from .ontomodel import OntologicalModel

    sc = m.scenario
    outcomes = {(s, p): sc.ontic_spaces[s] for s in sc.sites for p in sc.preparations[s]}
    responses = {}
    for jp in sc.joint_preparations():
        names = tuple(zip(sc.sites, jp))
        event_of = lambda js, names=names: JointOutcome.of(names, js)
        responses[("*", names)] = m.table(jp).map_elements(event_of)
    scenario = MeasurementScenario.make(outcomes, [names for _, names in responses])
    return OntologicalModel(
        scenario, ("p",), ("*",), {"p": Dist.delta("*")}, responses
    )
