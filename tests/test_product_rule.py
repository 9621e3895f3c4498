"""The product rule on supports and the support-only verifier replays,
checked against the full carrier walks they replaced.

The reference functions below walk every event of every context (or every
joint state) and are kept here only as oracles: `factorizes`,
`is_preparation_independent` and the three `verify_*` functions must give
the same verdict and the same witness on random small models, and must
never list a carrier themselves.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import (
    Check,
    DependenceWitness,
    Dist,
    EmpiricalModel,
    FactorizationWitness,
    JointOutcome,
    LocalWitness,
    MeasurementScenario,
    NonlocalityCertificate,
    OntologicalModel,
    PreparationModel,
    PreparationScenario,
    SignedWeights,
    decide_local,
    factorizes,
    is_no_preparation_signalling,
    is_preparation_independent,
    marginalize,
    mix_empirical,
    product_preparation_model,
    quasi_local_decomposition,
    verify_certificate,
    verify_signed_weights,
    verify_witness,
)
from ontolab.cli.zoo import deterministic_box, pr_box
from ontolab.probcore import PASS

# ------------------------------------------------------------ references


def ref_factorizes(h: OntologicalModel) -> Check:
    for lam in h.ontic_space:
        for ctx in h.scenario.cover:
            d = h.response(lam, ctx)
            margs = {m: marginalize(d, (m,)) for m in ctx}
            for event in h.scenario.events(ctx):
                product = Fraction(1)
                for m in ctx:
                    product *= margs[m].weight(event.restrict((m,)))
                actual = d.weight(event)
                if actual != product:
                    return Check(False, FactorizationWitness(lam, ctx, event, actual, product))
    return PASS


def ref_is_preparation_independent(m: PreparationModel) -> Check:
    nps = is_no_preparation_signalling(m)
    if not nps:
        return nps
    sc = m.scenario
    for jp in sc.joint_preparations():
        marginals = [m.site_marginal(jp, s) for s in sc.sites]
        table = m.table(jp)
        for js in sc.joint_states():
            product = Fraction(1)
            for lam, marg in zip(js, marginals):
                product *= marg.weight(lam)
            actual = table.weight(js)
            if actual != product:
                return Check(False, DependenceWitness(tuple(jp), tuple(js), actual, product))
    return PASS


def ref_reproduces_tables(e: EmpiricalModel, weights) -> bool:
    if not all(e.scenario.is_event(e.scenario.measurements, omega) for omega in weights):
        return False
    for ctx in e.scenario.cover:
        for event in e.scenario.events(ctx):
            mass = sum(
                (w for omega, w in weights.items() if omega.restrict(ctx) == event),
                Fraction(0),
            )
            if mass != e.tables[ctx].weight(event):
                return False
    return True


def ref_assignment_value(coeffs, omega) -> Fraction:
    return sum((c for ev, c in coeffs.items() if omega.restrict(ev.context) == ev), Fraction(0))


def ref_verify_certificate(e: EmpiricalModel, cert: NonlocalityCertificate) -> bool:
    model_value = Fraction(0)
    for ev, c in cert.coefficients.items():
        try:
            table = e.table(ev.context)
        except KeyError:
            return False
        model_value += c * table.weight(ev)
    ms = e.scenario.measurements
    local_bound = max(
        ref_assignment_value(cert.coefficients, JointOutcome.of(ms, combo))
        for combo in itertools.product(*(e.scenario.outcomes[m] for m in ms))
    )
    return (
        model_value == cert.model_value
        and local_bound == cert.local_bound
        and model_value > local_bound
    )


# ------------------------------------------------------------ strategies

LABELS = ("0", "1", "2")


def weighted(draw, elements) -> Dist:
    """Random rational distribution on ``elements``; zero cells are common."""
    ws = draw(st.lists(st.integers(0, 3), min_size=len(elements), max_size=len(elements)))
    if not any(ws):
        ws[draw(st.integers(0, len(elements) - 1))] = 1
    return Dist.from_counts({x: w for x, w in zip(elements, ws) if w})


def product_of(marginals: list, key) -> Dist:
    cells = {}
    for combo in itertools.product(*(list(d.items()) for d in marginals)):
        w = Fraction(1)
        for _, wi in combo:
            w *= wi
        cells[key(tuple(x for x, _ in combo))] = w
    return Dist(cells)


@st.composite
def small_scenarios(draw) -> MeasurementScenario:
    """1-4 measurements with 1-3 outcomes in a shuffled declared order; the
    cover is every context of one size, so contexts overlap."""
    n = draw(st.integers(1, 4))
    ms = [f"m{i}" for i in range(n)]
    outcomes = {m: tuple(draw(st.permutations(LABELS[: draw(st.integers(1, 3))]))) for m in ms}
    size = draw(st.integers(1, min(n, 3)))
    return MeasurementScenario.make(outcomes, itertools.combinations(ms, size))


@st.composite
def response_tables(draw, scenario: MeasurementScenario, ctx: tuple) -> Dist:
    if draw(st.booleans()):
        marginals = [weighted(draw, scenario.outcomes[m]) for m in ctx]
        return product_of(marginals, lambda combo: JointOutcome.of(ctx, combo))
    return weighted(draw, scenario.events(ctx))


@st.composite
def ontological_models(draw) -> OntologicalModel:
    scenario = draw(small_scenarios())
    states = ("s0", "s1")[: draw(st.integers(1, 2))]
    responses = {
        (lam, ctx): draw(response_tables(scenario, ctx)) for lam in states for ctx in scenario.cover
    }
    return OntologicalModel(scenario, ("p",), states, {"p": Dist.uniform(states)}, responses)


@st.composite
def preparation_models(draw) -> PreparationModel:
    """Independent products, one shared random table (no-preparation-
    signalling holds, independence is random), or a random table per joint
    preparation."""
    n = draw(st.integers(1, 3))
    sites = [f"site{i}" for i in range(n)]
    preps = {s: ("p", "q")[: draw(st.integers(1, 2))] for s in sites}
    spaces = {s: tuple(draw(st.permutations(LABELS[: draw(st.integers(1, 3))]))) for s in sites}
    kind = draw(st.sampled_from(("product", "shared", "per-joint")))
    if kind == "product":
        return product_preparation_model(
            {s: {p: weighted(draw, spaces[s]) for p in preps[s]} for s in sites}, spaces
        )
    scenario = PreparationScenario(tuple(sites), preps, spaces)
    shared = weighted(draw, scenario.joint_states())
    tables = {
        jp: shared if kind == "shared" else weighted(draw, scenario.joint_states())
        for jp in scenario.joint_preparations()
    }
    return PreparationModel(scenario, tables)


@settings(max_examples=150, deadline=None)
@given(ontological_models())
def test_factorizes_matches_the_carrier_walk(h):
    assert factorizes(h) == ref_factorizes(h)


@settings(max_examples=150, deadline=None)
@given(preparation_models())
def test_preparation_independence_matches_the_carrier_walk(m):
    assert is_preparation_independent(m) == ref_is_preparation_independent(m)


# ------------------------------------------------------------- verifiers


@st.composite
def local_models(draw):
    """A model marginalized from random weights over global assignments,
    with those weights."""
    scenario = draw(small_scenarios())
    ms = scenario.measurements
    assignments = [
        JointOutcome.of(ms, combo) for combo in itertools.product(*(scenario.outcomes[m] for m in ms))
    ]
    weights = weighted(draw, assignments)
    tables = {ctx: weights.map_elements(lambda omega, c=ctx: omega.restrict(c)) for ctx in scenario.cover}
    return EmpiricalModel(scenario, tables), dict(weights.weights), assignments


@settings(max_examples=120, deadline=None)
@given(local_models(), st.data())
def test_weight_replays_match_the_event_scan(model, data):
    e, true, assignments = model
    a, b = data.draw(st.sampled_from(assignments)), data.draw(st.sampled_from(assignments))
    shift = data.draw(st.sampled_from((Fraction(1, 7), Fraction(-1, 2), Fraction(2))))
    signed = dict(true)
    signed[a] = signed.get(a, 0) + shift
    signed[b] = signed.get(b, 0) - shift
    ms = e.scenario.measurements
    unknown = JointOutcome.of(ms, ("9",) * len(ms))
    # Restricts to events of every context, yet is no total assignment.
    extra = JointOutcome(a.pairs + (("zz", "0"),))
    strays = [{**{w: v / 2 for w, v in true.items()}, x: Fraction(1, 2)} for x in (unknown, extra)]
    for weights in [true, signed] + strays:
        expected = ref_reproduces_tables(e, weights)
        assert verify_signed_weights(e, SignedWeights(weights)) == expected
        if all(v >= 0 for v in weights.values()):
            assert verify_witness(e, LocalWitness(Dist(weights))) == expected
    assert verify_witness(e, LocalWitness(Dist(true)))


PR_BOXES = [pr_box(*abc) for abc in itertools.product((0, 1), repeat=3)]
DET_BOXES = [deterministic_box("".join(bits)) for bits in itertools.product("01", repeat=4)]


@st.composite
def nonlocal_mixtures(draw) -> EmpiricalModel:
    pr = draw(st.integers(0, 7))
    det = draw(st.integers(0, 15))
    v = draw(st.sampled_from((Fraction(1), Fraction(9, 10), Fraction(3, 4))))
    return mix_empirical([(v, PR_BOXES[pr]), (1 - v, DET_BOXES[det])])


@settings(max_examples=25, deadline=None)
@given(nonlocal_mixtures(), st.data())
def test_certificate_and_signed_replays_match_the_reference(e, data):
    cert = decide_local(e)
    assert isinstance(cert, NonlocalityCertificate)
    sw = quasi_local_decomposition(e)
    assert verify_signed_weights(e, sw) and ref_reproduces_tables(e, sw.weights)

    events = list(cert.coefficients)
    ev = data.draw(st.sampled_from(events))
    tampered = dict(cert.coefficients)
    tampered[ev] += data.draw(st.sampled_from((Fraction(1), Fraction(-1, 3))))
    ctx = data.draw(st.sampled_from(e.scenario.cover))
    unknown = dict(cert.coefficients)
    unknown[JointOutcome.of(ctx, ("2", "2"))] = data.draw(st.sampled_from((Fraction(5), Fraction(-5))))
    # A sub-context outside the cover, and a context naming an unknown
    # measurement: both refused.
    outside = [
        {**cert.coefficients, JointOutcome.of(sub, ("0",) * len(sub)): Fraction(1)}
        for sub in (("a0",), ("a0", "zz"))
    ]
    for coeffs in (cert.coefficients, tampered, unknown, *outside):
        variant = NonlocalityCertificate(coeffs, cert.model_value, cert.local_bound)
        assert verify_certificate(e, variant) == ref_verify_certificate(e, variant)
    for coeffs in outside:
        assert not ref_verify_certificate(e, NonlocalityCertificate(coeffs, cert.model_value, cert.local_bound))
    assert verify_certificate(e, cert)


# ------------------------------------------------------- carriers unwalked


def test_checks_do_not_list_carriers(monkeypatch):
    """A 14-measurement context has 16384 events and 9 sites of 4 states
    have 262144 joint states; the checks and validation must not list
    either."""
    calls = []

    def forbidden(*args):
        calls.append(args)
        raise AssertionError("carrier listed")

    monkeypatch.setattr(MeasurementScenario, "events", forbidden)
    monkeypatch.setattr(PreparationScenario, "joint_states", forbidden)

    ms = [f"m{i:02d}" for i in range(14)]
    scenario = MeasurementScenario.make({m: ("0", "1") for m in ms}, [ms])
    ctx = scenario.cover[0]
    omega = JointOutcome.of(ctx, ("1",) * 14)
    h = OntologicalModel(scenario, ("p",), ("*",), {"p": Dist.delta("*")}, {("*", ctx): Dist.delta(omega)})
    assert factorizes(h)
    e = EmpiricalModel(scenario, {ctx: Dist.delta(omega)})
    assert verify_witness(e, LocalWitness(Dist.delta(omega)))
    assert verify_signed_weights(e, SignedWeights({omega: Fraction(1)}))

    sites = [f"s{i}" for i in range(9)]
    spaces = {s: ("a", "b", "c", "d") for s in sites}
    product = product_preparation_model(
        {s: {"p": Dist.uniform(("b", "d"))} for s in sites}, spaces
    )
    assert is_preparation_independent(product)
    scenario9 = PreparationScenario(tuple(sites), {s: ("p",) for s in sites}, spaces)
    correlated = PreparationModel(
        scenario9, {("p",) * 9: Dist.uniform([("a",) * 9, ("c",) * 9])}
    )
    res = is_preparation_independent(correlated)
    assert res.witness == DependenceWitness(("p",) * 9, ("a",) * 9, Fraction(1, 2), Fraction(1, 2**9))
    assert calls == []
