"""Distribution substrate: exactness, event spaces, no-signalling."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import (
    Dist,
    EmpiricalModel,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    NegativeWeight,
    NotASubcontext,
    SignallingWitness,
    SumNotOne,
    check_no_signalling,
    is_delta,
    make_dist,
    marginalize,
    mix_empirical,
    product_dist,
)
from ontolab.cli.zoo import bell_scenario, pr_box
from ontolab.prepscen import product_preparation_model
from ontolab.probcore import checked_tables, labels
from ontolab.quantum import Povm, psi_complete_model, z_basis_povm

from conftest import rand_rational_dist


class TestDist:
    def test_weights_are_exact_fractions(self):
        d = Dist({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert d.weight("a") + d.weight("b") == 1
        assert d.weight("a") == Fraction(1, 3)

    def test_zero_weights_are_dropped(self):
        d = Dist({"a": Fraction(1), "b": Fraction(0)})
        assert d.support == {"a"}
        assert d.weight("b") == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            Dist({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_sum_not_one_reports_deficit(self):
        with pytest.raises(SumNotOne) as err:
            Dist({"a": Fraction(2, 3), "b": Fraction(1, 2)})
        assert err.value.total == Fraction(7, 6)
        assert err.value.deficit == Fraction(-1, 6)

    def test_delta_and_is_delta(self):
        assert is_delta(Dist.delta("x")) == "x"
        assert is_delta(Dist.uniform(["x", "y"])) is None

    def test_uniform(self):
        d = Dist.uniform(["a", "b", "c"])
        assert all(w == Fraction(1, 3) for _, w in d.items())

    def test_from_counts(self):
        d = Dist.from_counts({"a": 3, "b": 1})
        assert d.weight("a") == Fraction(3, 4)

    def test_mix(self):
        d = Dist.mix(
            [(Fraction(1, 4), Dist.delta("a")), (Fraction(3, 4), Dist.delta("b"))]
        )
        assert d.weight("a") == Fraction(1, 4)
        assert d.weight("b") == Fraction(3, 4)

    def test_mix_weights_must_sum_to_one(self):
        with pytest.raises(SumNotOne):
            Dist.mix([(Fraction(1, 2), Dist.delta("a"))])

    def test_map_elements_merges_collisions(self):
        d = Dist.uniform(["aa", "ab", "bb"])
        coarse = d.map_elements(lambda s: s[0])
        assert coarse.weight("a") == Fraction(2, 3)

    def test_make_dist_accepts_ints(self):
        d = make_dist({"a": 1})
        assert is_delta(d) == "a"

    def test_equality_ignores_construction_order(self):
        d1 = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        d2 = Dist({"b": Fraction(1, 2), "a": Fraction(1, 2)})
        assert d1 == d2


def test_product_dist_marginals():
    da = Dist({"x": Fraction(1, 4), "y": Fraction(3, 4)})
    db = Dist.uniform(["u", "v"])
    joint = product_dist(da, db)
    assert joint.weight(("x", "u")) == Fraction(1, 8)
    assert sum(w for _, w in joint.items()) == 1


class TestJointOutcome:
    def test_pairs_sorted_by_measurement(self):
        ev = JointOutcome.of(("b", "a"), ("1", "0"))
        assert ev.context == ("a", "b")
        assert ev.outcomes == ("0", "1")

    def test_of_and_from_mapping_agree(self):
        assert JointOutcome.of(("a", "b"), ("0", "1")) == JointOutcome.from_mapping(
            {"b": "1", "a": "0"}
        )

    def test_duplicate_measurement_rejected(self):
        with pytest.raises(InvariantViolation):
            JointOutcome((("a", "0"), ("a", "1")))

    def test_restrict(self):
        ev = JointOutcome.of(("a", "b", "c"), ("0", "1", "0"))
        assert ev.restrict(("b",)).outcome("b") == "1"

    def test_restrict_outside_context(self):
        ev = JointOutcome.of(("a",), ("0",))
        with pytest.raises(NotASubcontext):
            ev.restrict(("z",))

    def test_outcome_unknown_measurement(self):
        ev = JointOutcome.of(("a",), ("0",))
        with pytest.raises(NotASubcontext):
            ev.outcome("q")

    def test_ordering_is_total(self):
        events = [
            JointOutcome.of(("a", "b"), pair)
            for pair in (("1", "1"), ("0", "0"), ("0", "1"))
        ]
        assert sorted(events)[0].outcomes == ("0", "0")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_marginalize_compositional(data):
    """Restricting to a sub-context, then a sub-sub-context, equals going
    there directly."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    ctx = ("a", "b", "c")
    events = [
        JointOutcome.of(ctx, (x, y, z))
        for x in "01"
        for y in "01"
        for z in "01"
    ]
    d = rand_rational_dist(rng, events)
    via = marginalize(marginalize(d, ("a", "b")), ("a",))
    direct = marginalize(d, ("a",))
    assert via == direct


class TestMeasurementScenario:
    def test_make_sorts_and_validates(self):
        s = bell_scenario()
        assert s.measurements == ("a0", "a1", "b0", "b1")
        assert ("a0", "b0") in s.cover

    def test_cover_must_reach_every_measurement(self):
        with pytest.raises(InvariantViolation):
            MeasurementScenario.make({"a": ("0",), "b": ("0",)}, [("a",)])

    def test_cover_contexts_must_be_maximal(self):
        with pytest.raises(InvariantViolation):
            MeasurementScenario.make(
                {"a": ("0",), "b": ("0",)}, [("a", "b"), ("a",)]
            )

    def test_unknown_measurement_in_cover(self):
        with pytest.raises(InvariantViolation):
            MeasurementScenario.make({"a": ("0",)}, [("a", "z")])

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(InvariantViolation):
            MeasurementScenario.make({"a": ("0", "0")}, [("a",)])

    def test_events_lexicographic_in_declared_outcome_order(self):
        s = MeasurementScenario.make(
            {"a": ("hi", "lo"), "b": ("0", "1")}, [("a", "b")]
        )
        events = s.events(("a", "b"))
        assert [ev.outcomes for ev in events] == [
            ("hi", "0"),
            ("hi", "1"),
            ("lo", "0"),
            ("lo", "1"),
        ]

    def test_contexts_with(self):
        s = bell_scenario()
        assert s.contexts_with("a0") == (("a0", "b0"), ("a0", "b1"))

    def test_assignment_space_size(self):
        assert bell_scenario().assignment_space_size() == 16


def first_contained_pair(cover):
    """The quadratic rule: the first (c1, c2) in sorted cover order with c1
    strictly inside c2."""
    for c1 in cover:
        for c2 in cover:
            if c1 != c2 and set(c1) < set(c2):
                return c1, c2
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.sampled_from("abcde"), min_size=1), min_size=1, max_size=8))
def test_containment_reports_the_first_contained_pair(contexts):
    cover = sorted({tuple(sorted(c)) for c in contexts})
    outcomes = {m: ("0", "1") for c in cover for m in c}
    expected = first_contained_pair(cover)
    if expected is None:
        assert MeasurementScenario.make(outcomes, contexts).cover == tuple(cover)
    else:
        with pytest.raises(InvariantViolation) as e:
            MeasurementScenario.make(outcomes, contexts)
        assert str(e.value) == f"context {expected[0]} is strictly contained in {expected[1]}"


@pytest.mark.parametrize("widest", [(), (("d", "e", "f", "g"),)])
@pytest.mark.parametrize("inner", [("a", "b"), ("a", "c"), ("b", "c"), ("c",)])
def test_a_contained_context_is_refused_wherever_it_starts(inner, widest):
    """The inner context's first measurement sits at position 0, 1 or 2 of
    its container; with a wider context in the cover, the container is not
    of the greatest length either."""
    cover = [("a", "b", "c"), inner, *widest]
    outcomes = {m: ("0", "1") for c in cover for m in c}
    with pytest.raises(InvariantViolation) as e:
        MeasurementScenario.make(outcomes, cover)
    assert str(e.value) == f"context {inner} is strictly contained in ('a', 'b', 'c')"


def test_many_contexts_of_one_length_build():
    """Twelve sites with two binary measurements each, and one context per
    choice of a measurement at every site: 4096 contexts of 12
    measurements, each measurement in 2048 of them."""
    outcomes = {f"s{i:02}p{p}": ("0", "1") for i in range(12) for p in range(2)}
    cover = [tuple(f"s{i:02}p{p}" for i, p in enumerate(ps)) for ps in itertools.product(range(2), repeat=12)]
    sc = MeasurementScenario.make(outcomes, cover)
    assert len(sc.cover) == 4096
    assert {len(sc.contexts_with(m)) for m in outcomes} == {2048}
    assert MeasurementScenario(sc.measurements, sc.outcomes, sc.cover) == sc


class TestShapeRules:
    def test_labels_keep_the_callers_order(self):
        assert labels(["b", "a"], "sites") == ("b", "a")

    @pytest.mark.parametrize("items", [[], ["a", "b", "a"]])
    def test_labels_refuse_empty_or_repeating(self, items):
        with pytest.raises(InvariantViolation):
            labels(items, "sites")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Dist.uniform([]),
            lambda: Dist.uniform(["a", "b", "a"]),
            lambda: JointOutcome((("a", "0"), ("a", "1"))),
            lambda: Povm(()),
            lambda: psi_complete_model({}, {("a",): z_basis_povm()}),
            lambda: product_preparation_model({}),
        ],
        ids=[
            "uniform-empty",
            "uniform-repeat",
            "joint-outcome-repeat",
            "povm-empty",
            "psi-complete-no-preparations",
            "product-preparation-no-sites",
        ],
    )
    def test_every_caller_refuses_empty_or_repeating(self, build):
        with pytest.raises(InvariantViolation):
            build()

    def test_checked_tables_come_back_in_key_order(self):
        tables = {"b": Dist.delta(1), "a": Dist.delta(2)}
        out = checked_tables(tables, 2, {"a", "b"}.__contains__, lambda k, x: True, "tables")
        assert list(out) == ["a", "b"]
        assert out == tables

    @pytest.mark.parametrize(
        "tables",
        [
            {"a": Dist.delta(1)},
            {"a": Dist.delta(1), "b": Dist.delta(1), "c": Dist.delta(1)},
            {"a": Dist.delta(1), "z": Dist.delta(1)},
            {"a": Dist.delta(1), "b": Dist.delta(-1)},
        ],
        ids=["missing", "extra", "unknown", "stray-element"],
    )
    def test_checked_tables_refuse_a_wrong_shape(self, tables):
        with pytest.raises(InvariantViolation):
            checked_tables(tables, 2, {"a", "b"}.__contains__, lambda k, x: x > 0, "tables")


class TestEmpiricalModel:
    def test_tables_must_match_cover(self, bell):
        tables = {ctx: Dist.delta(bell.events(ctx)[0]) for ctx in bell.cover[:-1]}
        with pytest.raises(InvariantViolation):
            EmpiricalModel(bell, tables)

    def test_stray_event_rejected(self, bell):
        tables = {ctx: Dist.delta(bell.events(ctx)[0]) for ctx in bell.cover}
        bad = JointOutcome.of(("a0", "b0"), ("2", "0"))
        tables[("a0", "b0")] = Dist.delta(bad)
        with pytest.raises(InvariantViolation):
            EmpiricalModel(bell, tables)

    def test_table_lookup_accepts_unsorted_context(self):
        e = pr_box()
        assert e.table(("b0", "a0")) == e.table(("a0", "b0"))


class TestNoSignalling:
    def test_pr_box_passes(self):
        assert check_no_signalling(pr_box())

    def test_signalling_detected_with_witness(self, bell):
        tables = {}
        for ctx in bell.cover:
            outcomes = ("0", "0") if ctx == ("a0", "b0") else ("1", "1")
            tables[ctx] = Dist.delta(JointOutcome.of(ctx, outcomes))
        res = check_no_signalling(EmpiricalModel(bell, tables))
        assert not res
        w = res.witness
        assert isinstance(w, SignallingWitness)
        assert w.marginal_a != w.marginal_b
        # The witness names a real pair of contexts sharing the measurement.
        assert w.measurement in w.context_a and w.measurement in w.context_b

    def test_check_reads_the_context_index_not_the_cover(self, bell):
        """The families come from the index validation built: a cover that
        cannot be iterated leaves verdict and witness unchanged."""

        class Uniterable(tuple):
            def __iter__(self):
                raise AssertionError("cover iterated")

        signalling = dict(pr_box().tables)
        signalling[("a0", "b0")] = Dist.delta(JointOutcome.of(("a0", "b0"), ("0", "0")))
        for e in (pr_box(), EmpiricalModel(bell, signalling)):
            expected = check_no_signalling(e)
            object.__setattr__(e.scenario, "cover", Uniterable(e.scenario.cover))
            assert check_no_signalling(e) == expected
        assert not expected

    def test_mix_empirical_preserves_no_signalling(self, rng):
        """Convexity: mixing no-signalling models stays no-signalling."""
        for _ in range(25):
            a, b = pr_box(), pr_box(1, 0, 1)
            lam = Fraction(rng.randint(0, 8), 8)
            mixed = mix_empirical([(lam, a), (1 - lam, b)])
            assert check_no_signalling(mixed)

    def test_mix_empirical_weights(self):
        e = mix_empirical([(Fraction(1, 2), pr_box()), (Fraction(1, 2), pr_box())])
        assert e == pr_box()
