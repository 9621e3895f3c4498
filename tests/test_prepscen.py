"""Preparation scenarios: signalling, independence, the overlap model, and
the measurement-side translation."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontolab import (
    BadRegion,
    DependenceWitness,
    Dist,
    InvariantViolation,
    OUTSIDE,
    OVERLAP,
    PBRParams,
    PrepSignallingWitness,
    PreparationModel,
    PreparationScenario,
    QOutOfRange,
    as_measurement_model,
    factorizes,
    is_no_preparation_signalling,
    is_parameter_independent,
    is_preparation_independent,
    overlap_event_probability,
    pbr_counterexample,
    product_preparation_model,
)

F = Fraction


def coin_sites():
    return PreparationScenario(
        ("left", "right"),
        {"left": ("h", "t"), "right": ("h", "t")},
        {"left": ("0", "1"), "right": ("0", "1")},
    )


def product_coin_model():
    biased = Dist({"0": F(1, 3), "1": F(2, 3)})
    fair = Dist.uniform(["0", "1"])
    return product_preparation_model(
        {"left": {"h": biased, "t": fair}, "right": {"h": fair, "t": biased}},
        {"left": ("0", "1"), "right": ("0", "1")},
    )


class TestScenario:
    def test_joint_preparations_in_product_order(self):
        sc = coin_sites()
        assert list(sc.joint_preparations()) == [
            ("h", "h"),
            ("h", "t"),
            ("t", "h"),
            ("t", "t"),
        ]

    def test_duplicate_sites_rejected(self):
        with pytest.raises(InvariantViolation):
            PreparationScenario(
                ("s", "s"), {"s": ("p",)}, {"s": ("0",)}
            )

    def test_sites_must_have_preparations_and_spaces(self):
        with pytest.raises(InvariantViolation):
            PreparationScenario(("a", "b"), {"a": ("p",)}, {"a": ("0",), "b": ("0",)})


class TestPreparationModel:
    def test_tables_must_cover_every_joint_preparation(self):
        sc = coin_sites()
        with pytest.raises(InvariantViolation):
            PreparationModel(sc, {("h", "h"): Dist.delta(("0", "0"))})

    def test_stray_joint_state_rejected(self):
        sc = coin_sites()
        tables = {jp: Dist.delta(("0", "9")) for jp in sc.joint_preparations()}
        with pytest.raises(InvariantViolation):
            PreparationModel(sc, tables)

    def test_build_never_lists_joint_preparations(self, monkeypatch):
        m = pbr_counterexample(PBRParams(F(1, 4)))

        def refuse(self):
            raise AssertionError("joint preparations listed")

        monkeypatch.setattr(PreparationScenario, "joint_preparations", refuse)
        assert PreparationModel(m.scenario, dict(m.tables)) == m
        missing = dict(m.tables)
        table = missing.pop(("psi0", "psi1"))
        with pytest.raises(InvariantViolation):
            PreparationModel(m.scenario, missing)
        for stray in [("psi0", "psi9"), ("psi0",), ("psi0", "psi1", "psi0")]:
            with pytest.raises(InvariantViolation):
                PreparationModel(m.scenario, {**missing, stray: table})

    @pytest.mark.parametrize(
        "spaces",
        [{"left": ("0", "1")}, {"left": ("0", "1"), "right": ("0", "1"), "extra": ("0",)}],
    )
    def test_product_spaces_must_name_exactly_the_sites(self, spaces):
        """A missing site is not a bare KeyError and an extra one is not
        dropped: the scenario refuses both."""
        fair = Dist.uniform(["0", "1"])
        with pytest.raises(InvariantViolation, match="cover exactly the declared sites"):
            product_preparation_model({"left": {"h": fair}, "right": {"h": fair}}, spaces)

    def test_site_marginal(self):
        m = product_coin_model()
        assert m.site_marginal(("h", "h"), "left") == Dist(
            {"0": F(1, 3), "1": F(2, 3)}
        )


class TestChecks:
    def test_product_model_is_independent(self):
        m = product_coin_model()
        assert is_no_preparation_signalling(m)
        assert is_preparation_independent(m)

    def test_signalling_caught_first_with_witness(self):
        sc = coin_sites()
        tables = {jp: Dist.delta(("0", "0")) for jp in sc.joint_preparations()}
        # left marginal flips when the *right* choice changes: signalling
        tables[("h", "t")] = Dist.delta(("1", "0"))
        m = PreparationModel(sc, tables)
        res = is_no_preparation_signalling(m)
        assert not res
        w = res.witness
        assert isinstance(w, PrepSignallingWitness)
        assert w.site == "left"
        pi = is_preparation_independent(m)
        assert not pi
        assert isinstance(pi.witness, PrepSignallingWitness)

    def test_signalling_check_lists_joint_preparations_once(self, monkeypatch):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        listed = []
        original = PreparationScenario.joint_preparations

        def counting(self):
            listed.append(self)
            return original(self)

        monkeypatch.setattr(PreparationScenario, "joint_preparations", counting)
        assert is_no_preparation_signalling(m)
        assert len(listed) == 1

    def test_correlated_but_nonsignalling_fails_independence(self):
        sc = coin_sites()
        correlated = Dist({("0", "0"): F(1, 2), ("1", "1"): F(1, 2)})
        m = PreparationModel(sc, {jp: correlated for jp in sc.joint_preparations()})
        assert is_no_preparation_signalling(m)
        res = is_preparation_independent(m)
        assert not res
        w = res.witness
        assert isinstance(w, DependenceWitness)
        assert w.actual == F(1, 2)
        assert w.product == F(1, 4)


class TestOverlapCounterexample:
    def test_q_range(self):
        with pytest.raises(QOutOfRange):
            PBRParams(F(0))
        with pytest.raises(QOutOfRange):
            PBRParams(F(3, 4))
        assert PBRParams(F(1, 2)).q == F(1, 2)

    def test_quarter_tables_frozen(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        for jp in m.scenario.joint_preparations():
            t = m.table(jp)
            assert t.weight((OVERLAP, OVERLAP)) == 0
            assert t.weight((OVERLAP, OUTSIDE)) == F(1, 4)
            assert t.weight((OUTSIDE, OVERLAP)) == F(1, 4)
            assert t.weight((OUTSIDE, OUTSIDE)) == F(1, 2)

    def test_verdicts(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        assert is_no_preparation_signalling(m)
        res = is_preparation_independent(m)
        assert not res
        w = res.witness
        assert w.joint_state == (OVERLAP, OVERLAP)
        assert w.actual == 0
        assert w.product == F(1, 16)

    def test_witness_product_is_q_squared(self):
        for q in (F(1, 3), F(1, 2), F(2, 5)):
            w = is_preparation_independent(pbr_counterexample(PBRParams(q))).witness
            assert w.product == q * q

    def test_half_q_edge_case(self):
        m = pbr_counterexample(PBRParams(F(1, 2)))
        t = m.table(("psi0", "psi1"))
        assert t.weight((OUTSIDE, OUTSIDE)) == 0
        assert is_no_preparation_signalling(m)
        assert not is_preparation_independent(m)


class TestOverlapEvent:
    def test_overlap_event_is_zero(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        probs = overlap_event_probability(
            m, {s: (OVERLAP,) for s in m.scenario.sites}
        )
        assert set(probs.values()) == {F(0)}

    def test_region_containing_outside_counts_mass(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        probs = overlap_event_probability(
            m,
            {"system1": (OVERLAP, OUTSIDE), "system2": (OUTSIDE,)},
        )
        assert set(probs.values()) == {F(3, 4)}

    def test_bad_regions(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        with pytest.raises(BadRegion):
            overlap_event_probability(m, {"system1": (OVERLAP,)})
        with pytest.raises(BadRegion):
            overlap_event_probability(
                m, {"system1": (), "system2": (OVERLAP,)}
            )
        with pytest.raises(BadRegion):
            overlap_event_probability(
                m, {"system1": ("elsewhere",), "system2": (OVERLAP,)}
            )


class TestMeasurementTranslation:
    """The translated model must mirror the preparation verdicts: parameter
    independence plays no-preparation-signalling, factorization plays
    preparation independence."""

    def test_product_model_translates_clean(self):
        h = as_measurement_model(product_coin_model())
        assert is_parameter_independent(h)
        assert factorizes(h)

    def test_overlap_model_translates_to_correlated(self):
        h = as_measurement_model(pbr_counterexample(PBRParams(F(1, 4))))
        assert is_parameter_independent(h)
        res = factorizes(h)
        assert not res
        assert res.witness.actual == 0
        assert res.witness.product == F(1, 16)

    def test_random_product_models_always_factorize(self, rng):
        from conftest import rand_rational_dist

        for _ in range(20):
            site_models = {
                site: {
                    p: rand_rational_dist(rng, ("0", "1", "2"))
                    for p in ("x", "y")
                }
                for site in ("s1", "s2")
            }
            m = product_preparation_model(site_models)
            assert is_preparation_independent(m)
            h = as_measurement_model(m)
            assert is_parameter_independent(h)
            assert factorizes(h)


# ------------------------------------------- differential test of the translation

# Labels that collide when a site and a preparation are joined with ":".
LABELS = ("a", "b", "a:b", "b:a")


@st.composite
def dists(draw, elements):
    counts = draw(st.lists(st.integers(0, 3), min_size=len(elements), max_size=len(elements)))
    if not any(counts):
        counts[0] = 1
    total = sum(counts)
    return Dist({x: F(c, total) for x, c in zip(elements, counts)})


@st.composite
def preparation_models(draw, sort=False, pool=LABELS):
    """Product, correlated (a mixture of two products over a shared
    variable: no preparation signalling, usually dependent) or arbitrary
    (usually signalling) tables on 1-3 sites, labelled from ``pool``. With
    ``sort``, the sites and each site's preparations are declared in sorted
    order."""
    order = sorted if sort else list
    labels = st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True).map(tuple)
    sites = order(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)))
    sc = PreparationScenario(
        tuple(sites), {s: tuple(order(draw(labels))) for s in sites}, {s: draw(labels) for s in sites}
    )
    kind = draw(st.sampled_from(("product", "correlated", "signalling")))
    joint_states = sc.joint_states()
    if kind == "signalling":
        tables = {jp: draw(dists(joint_states)) for jp in sc.joint_preparations()}
        return PreparationModel(sc, tables)
    branches = 1 if kind == "product" else 2
    weights = draw(dists(range(branches)))
    local = [
        {(s, p): draw(dists(sc.ontic_spaces[s])) for s in sites for p in sc.preparations[s]}
        for _ in range(branches)
    ]
    def cell(jp, js):
        return sum(
            weights.weight(k) * math.prod(local[k][(s, p)].weight(lam) for s, p, lam in zip(sites, jp, js))
            for k in range(branches)
        )

    tables = {jp: Dist({js: cell(jp, js) for js in joint_states}) for jp in sc.joint_preparations()}
    return PreparationModel(sc, tables)


def colliding_names_model() -> PreparationModel:
    """Site "a" with preparation "b:a" and site "a:b" with preparation "a"
    both read "a:b:a" when joined with ":"."""
    sc = PreparationScenario(("a", "a:b"), {"a": ("b:a",), "a:b": ("a",)}, {"a": ("a",), "a:b": ("b",)})
    return PreparationModel(sc, {("b:a", "a"): Dist.delta(("a", "b"))})


@settings(max_examples=300, deadline=None)
@given(preparation_models())
@example(colliding_names_model())
def test_translation_mirrors_preparation_verdicts(m):
    """No preparation signalling is parameter independence of the
    translation; preparation independence is parameter independence plus
    factorization."""
    h = as_measurement_model(m)
    pi = bool(is_parameter_independent(h))
    assert bool(is_no_preparation_signalling(m)) == pi
    assert bool(is_preparation_independent(m)) == (pi and bool(factorizes(h)))


def joint_preparation(m: PreparationModel, context: tuple) -> tuple:
    """The joint preparation that a context of the translation stands for."""
    choice = dict(context)
    return tuple(choice[s] for s in m.scenario.sites)


def as_outcomes(marginal: Dist) -> Dist:
    """A single-measurement marginal of the translation, read as ontic states."""
    return marginal.map_elements(lambda event: event.outcomes[0])


def coin_model(table_of, sites=("left", "right"), preps=("h", "t")) -> PreparationModel:
    sc = PreparationScenario(sites, {s: preps for s in sites}, {s: ("0", "1") for s in sites})
    return PreparationModel(sc, {jp: table_of(jp) for jp in sc.joint_preparations()})


def left_reads_right(jp):
    """The first site's state is 1 exactly when the second site chose "h"."""
    return Dist.delta(("1" if jp[1] == "h" else "0", "0"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(preparation_models(), preparation_models(sort=True)))
@example(coin_model(left_reads_right))
@example(coin_model(left_reads_right, ("right", "left"), ("t", "h")))
@example(coin_model(lambda jp: Dist({("0", "0"): F(1, 2), ("1", "1"): F(1, 2)})))
def test_translation_mirrors_preparation_witnesses(m):
    """Each witness found on the translation names a real disagreement of
    the preparation model. When the sites and every preparation list are
    declared sorted, both sides visit in the same order, so the witnesses
    are equal."""
    sc = m.scenario
    h = as_measurement_model(m)
    in_order = all(list(xs) == sorted(xs) for xs in (sc.sites, *sc.preparations.values()))
    nps, pi = is_no_preparation_signalling(m), is_parameter_independent(h)
    if not pi:
        w = pi.witness
        site, prep = w.measurement
        ja, jb = joint_preparation(m, w.context_a), joint_preparation(m, w.context_b)
        assert ja[sc.site_index(site)] == jb[sc.site_index(site)] == prep
        ma, mb = as_outcomes(w.marginal_a), as_outcomes(w.marginal_b)
        assert ma == m.site_marginal(ja, site) != m.site_marginal(jb, site) == mb
        if in_order:
            assert nps.witness == PrepSignallingWitness(site, prep, ja, jb, ma, mb)
        return
    fac = factorizes(h)
    if not fac:
        w = fac.witness
        jp = joint_preparation(m, w.context)
        js = tuple(w.event.outcome(choice) for choice in zip(sc.sites, jp))
        assert w.actual == m.table(jp).weight(js) != w.product
        assert w.product == math.prod(m.site_marginal(jp, s).weight(lam) for s, lam in zip(sc.sites, js))
        if in_order:
            assert is_preparation_independent(m).witness == DependenceWitness(jp, js, w.actual, w.product)
