"""The integer-row simplex against its `Fraction` reference, known locality
facts, and the assignment cap.

`tests/reference_simplex.py` keeps the dense `Fraction` Bland simplex and
Gauss-Jordan solve the package ran before. The integer kernel makes the
same pivot choices, so `lp_feasibility`, `_solve_linear` and
`decide_local` must return results equal to the reference, not merely
equivalent ones.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontolab import (
    DEFAULT_ASSIGNMENT_CAP,
    Dist,
    EmpiricalModel,
    JointOutcome,
    LocalWitness,
    MeasurementScenario,
    NonlocalityCertificate,
    SignedWeights,
    TooManyAssignments,
    decide_local,
    global_assignments,
    lp_feasibility,
    quasi_local_decomposition,
    verify_certificate,
    verify_signed_weights,
    verify_witness,
)
from ontolab import localdecide
from ontolab.cli.main import main
from ontolab.cli.modelio import model_file_for, serialize_model_file
from ontolab.localdecide import _solve_linear

from reference_simplex import (
    ref_decide_local,
    ref_equality_system,
    ref_lp_feasibility,
    ref_solve_linear,
)
from test_merged_paths import mixtures

F = Fraction

# ------------------------------------------------------ random rational systems

entries = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
PRIMES = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
coprime_entries = st.builds(F, st.integers(-4, 4), st.sampled_from(PRIMES))


@st.composite
def systems(draw, entries=entries):
    """A rational system [A | b] with m <= 8 rows and n <= 12 columns.

    A holds `Fraction`s drawn from ``entries``, or plain ints as the
    incidence rows of `decide_local` do. Half the draws take b = A x0 for a
    non-negative x0, which is feasible; the others take b at random, often
    infeasible. Either way b is `Fraction`s, or ints when ``ints`` is drawn
    true (x0 then holds ints). Rows may be duplicated, columns zeroed and
    right-hand sides negative.
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    ints = draw(st.booleans())
    cells = st.integers(-4, 4) if ints or draw(st.booleans()) else entries
    rows = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(m):
        if i and draw(st.integers(0, 3)) == 0:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        for row in rows:
            row[j] = 0
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 3) if ints else st.builds(F, st.integers(0, 3), st.integers(1, 3)), min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, x0)), 0 if ints else F(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-4, 4) if ints else entries, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_lp_feasibility_equals_reference(system):
    rows, rhs = system
    assert lp_feasibility(rows, rhs) == ref_lp_feasibility(rows, rhs)


@settings(max_examples=300, deadline=None)
@given(systems(st.integers(-4, 4)))
@example(([[F(1, 2), F(1, 2)], [F(3, 2), F(-1, 2)]], [1, F(1, 2)]))
@example(([[0.5, 0.5], [1.5, -0.5]], [1, 0.5]))
@example(([[True, False], [False, True], [True, True]], [F(1, 3), F(2, 3), 1]))
@example(([[1, "1/2"], ["-1/2", "3/2"]], ["1", 0]))
@example(([["1/2", "1/2"], [1, 2]], [-1, "2"]))
def test_int_rows_take_the_path_of_fraction_rows(system):
    """Rows that `lp_feasibility` takes as ints give the results of the
    same rows as `Fraction`s, and of the reference. The examples hold
    cells of the other types `Fraction` accepts, some summing to ints per
    row: they must not be taken as ints."""
    rows, rhs = system
    as_fractions = [[F(v) for v in row] for row in rows]
    assert lp_feasibility(rows, rhs) == lp_feasibility(as_fractions, rhs) == ref_lp_feasibility(rows, rhs)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_linear_equals_reference(system):
    rows, rhs = system
    # The reference divides cells as they come, so it needs `Fraction`s.
    as_fractions = [[F(v) for v in row] for row in rows]
    assert _solve_linear(rows, rhs) == ref_solve_linear(as_fractions, rhs)


@settings(max_examples=150, deadline=None)
@given(systems(coprime_entries))
def test_lp_feasibility_equals_reference_under_coprime_denominators(system):
    """Entries and right-hand sides over primes up to 97: columns and b get
    different scales, and the reference still fixes every pivot."""
    rows, rhs = system
    assert lp_feasibility(rows, rhs) == ref_lp_feasibility(rows, rhs)


@settings(max_examples=150, deadline=None)
@given(systems(coprime_entries))
def test_solve_linear_equals_reference_under_coprime_denominators(system):
    rows, rhs = system
    as_fractions = [[F(v) for v in row] for row in rows]
    assert _solve_linear(rows, rhs) == ref_solve_linear(as_fractions, rhs)


# ------------------------------------------------------- seeded ladder models


def two_party_scenario(na: int, nb: int) -> MeasurementScenario:
    """Binary settings a0.. and b0..; every a-setting is measured with every b-setting."""
    ms = {f"a{i}": ("0", "1") for i in range(na)}
    ms.update({f"b{j}": ("0", "1") for j in range(nb)})
    return MeasurementScenario.make(ms, [(f"a{i}", f"b{j}") for i in range(na) for j in range(nb)])


def local_model(rng: random.Random, scenario: MeasurementScenario, npoints: int) -> EmpiricalModel:
    """A rational mixture of npoints random global assignments."""
    raw = [rng.randint(1, 9) for _ in range(npoints)]
    points = [
        {m: rng.choice(scenario.outcomes[m]) for m in scenario.measurements} for _ in raw
    ]
    tables = {}
    for ctx in scenario.cover:
        cells: dict = {}
        for point, r in zip(points, raw):
            ev = JointOutcome.of(ctx, tuple(point[m] for m in ctx))
            cells[ev] = cells.get(ev, F(0)) + F(r, sum(raw))
        tables[ctx] = Dist(cells)
    return EmpiricalModel(scenario, tables)


def embedded_pr_box(na: int, nb: int, abc=(0, 0, 0), visibility=F(1), settings=(0, 1, 0, 1)):
    """A PR box on settings a_x0, a_x1, b_y0, b_y1, mixed with uniform noise
    at the given visibility; every other context is uniform. Marginals are
    uniform everywhere, so the model is no-signalling."""
    alpha, beta, gamma = abc
    scenario = two_party_scenario(na, nb)
    box = {f"a{settings[0]}": 0, f"a{settings[1]}": 1, f"b{settings[2]}": 0, f"b{settings[3]}": 1}
    tables = {}
    for ctx in scenario.cover:
        ma, mb = ctx
        cells = {}
        for a, b in itertools.product((0, 1), repeat=2):
            w = (1 - visibility) / 4 if ma in box and mb in box else F(1, 4)
            if ma in box and mb in box:
                x, y = box[ma], box[mb]
                if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                    w += visibility / 2
            cells[JointOutcome.of(ctx, (str(a), str(b)))] = w
        tables[ctx] = Dist(cells)
    return EmpiricalModel(scenario, tables)


def ladder_models(seed: int) -> list:
    rng = random.Random(seed)
    models = []
    for na, nb in ((2, 2), (2, 3), (3, 3)):
        scenario = two_party_scenario(na, nb)
        for npoints in (1, 2, 4):
            models.append(local_model(rng, scenario, npoints))
        for visibility in (F(1, 2), F(3, 4), F(1)):
            abc = tuple(rng.randint(0, 1) for _ in range(3))
            xs = rng.sample(range(na), 2)
            ys = rng.sample(range(nb), 2)
            models.append(embedded_pr_box(na, nb, abc, visibility, (*xs, *ys)))
    return models


@pytest.mark.parametrize("seed", [1, 2])
def test_decide_local_equals_reference_decision(seed):
    verdicts = set()
    for e in ladder_models(seed):
        result = decide_local(e)
        assert result == ref_decide_local(e)
        verdicts.add(type(result))
    assert verdicts == {LocalWitness, NonlocalityCertificate}


def prime_denominator_model(rng: random.Random, scenario: MeasurementScenario) -> EmpiricalModel:
    """Every context's table over its own prime denominator, drawn at random."""
    tables = {}
    for ctx, p in zip(scenario.cover, rng.sample(PRIMES[10:], len(scenario.cover))):
        events = scenario.events(ctx)
        cuts = sorted(rng.randint(0, p) for _ in events[1:])
        tables[ctx] = Dist({ev: F(b - a, p) for ev, a, b in zip(events, [0, *cuts], [*cuts, p])})
    return EmpiricalModel(scenario, tables)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decide_local_equals_reference_under_coprime_denominators(seed):
    rng = random.Random(seed)
    for na, nb in ((2, 2), (2, 3), (3, 3)):
        e = prime_denominator_model(rng, two_party_scenario(na, nb))
        assert len({w.denominator for t in e.tables.values() for w in t.weights.values()}) > 1
        result = decide_local(e)
        assert result == ref_decide_local(e)
        assert verify_certificate(e, result) if isinstance(result, NonlocalityCertificate) else verify_witness(e, result)


def test_signed_weights_equal_reference_solve():
    for e in ladder_models(3):
        if isinstance(decide_local(e), LocalWitness):
            continue
        assignments = global_assignments(e.scenario)
        rows, rhs, _ = ref_equality_system(e, assignments)
        solution = ref_solve_linear(rows, rhs)
        expected = SignedWeights({w: v for w, v in zip(assignments, solution) if v != 0})
        assert quasi_local_decomposition(e) == expected


def test_replays_call_no_solver_helper(monkeypatch):
    """The verifiers replay without the solver, and `verify_certificate`
    builds no `JointOutcome` either."""
    local = local_model(random.Random(5), two_party_scenario(2, 2), 4)
    witness = decide_local(local)
    assert isinstance(witness, LocalWitness)
    pr = embedded_pr_box(3, 3, settings=(2, 0, 1, 2))
    cert = decide_local(pr)
    assert isinstance(cert, NonlocalityCertificate)
    sw = quasi_local_decomposition(pr)

    def forbidden(*args, **kwargs):
        raise AssertionError("called during a replay")

    solver = ("_digit_lists", "_equality_system", "_integer_rows", "_column_sums", "_pivot", "lp_feasibility", "_solve_linear")
    for name in solver + ("_assignments", "_nonzero_weights", "global_assignments"):
        monkeypatch.setattr(localdecide, name, forbidden)
    assert verify_witness(local, witness)
    assert verify_signed_weights(pr, sw)
    assert verify_certificate(pr, cert)
    monkeypatch.setattr(JointOutcome, "__post_init__", forbidden)
    assert verify_certificate(pr, cert)


def test_marginal_replays_build_no_joint_outcome(monkeypatch):
    """`verify_witness` and `verify_signed_weights` key their sums by
    outcome tuple, as `verify_certificate` does, and still refuse weights
    moved between two assignments."""
    local = local_model(random.Random(5), two_party_scenario(2, 2), 4)
    witness = decide_local(local)
    assert isinstance(witness, LocalWitness)
    pr = embedded_pr_box(3, 3, settings=(2, 0, 1, 2))
    sw = quasi_local_decomposition(pr)
    (first, w), *_ = witness.dist.weights.items()
    other = next(omega for omega in global_assignments(local.scenario) if omega != first)
    moved = LocalWitness(Dist({**witness.dist.weights, first: 0, other: witness.dist.weight(other) + w}))
    omegas = global_assignments(pr.scenario)
    shifted = SignedWeights({**sw.weights, omegas[0]: sw.weights.get(omegas[0], 0) + 1, omegas[1]: sw.weights.get(omegas[1], 0) - 1})

    def forbidden(*args, **kwargs):
        raise AssertionError("JointOutcome built during a replay")

    monkeypatch.setattr(JointOutcome, "__post_init__", forbidden)
    assert verify_witness(local, witness)
    assert verify_signed_weights(pr, sw)
    assert not verify_witness(local, moved)
    assert not verify_signed_weights(pr, shifted)


def test_signed_decomposition_builds_its_system_once(monkeypatch):
    """Local models keep the reference simplex's realizing distribution;
    `_solve_linear` alone differs on most of them."""
    expected = []
    for e in ladder_models(3):
        decision = ref_decide_local(e)
        if isinstance(decision, LocalWitness):
            expected.append((e, SignedWeights(dict(decision.dist.weights))))
    pr = embedded_pr_box(3, 3, settings=(2, 0, 1, 2))
    expected.append((pr, quasi_local_decomposition(pr)))
    build = localdecide._equality_system
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("decide_local called")

    monkeypatch.setattr(localdecide, "_equality_system", counted)
    monkeypatch.setattr(localdecide, "decide_local", forbidden)
    for e, sw in expected:
        calls.clear()
        assert quasi_local_decomposition(e) == sw
        assert len(calls) == 1


# ------------------------------------------------------------- known facts


def correlator(e: EmpiricalModel, x: int, y: int) -> Fraction:
    """Agree minus disagree on context (a_x, b_y)."""
    total = F(0)
    for ev, w in e.tables[(f"a{x}", f"b{y}")].items():
        a, b = ev.outcomes
        total += w if a == b else -w
    return total


def chsh_forms(e: EmpiricalModel) -> list:
    """The 8 CHSH forms, one per PR box (alpha, beta, gamma): the sign of
    E(x, y) is (-1)^(xy + alpha x + beta y + gamma). Each has local bound 2."""
    return [
        sum(
            (
                (-1) ** ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma) * correlator(e, x, y)
                for x, y in itertools.product((0, 1), repeat=2)
            ),
            F(0),
        )
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3)
    ]


@settings(max_examples=60, deadline=None)
@given(mixtures())
def test_fine_theorem_on_box_mixtures(mixture):
    """Fine, PRL 48, 291 (1982): a (2,2,2) no-signalling box is local iff
    all 8 CHSH forms are at most 2."""
    _, e = mixture
    result = decide_local(e)
    assert isinstance(result, LocalWitness) == all(s <= 2 for s in chsh_forms(e))
    assert verify_witness(e, result) if isinstance(result, LocalWitness) else verify_certificate(e, result)


def test_chsh_forms_of_pr_boxes():
    for abc in itertools.product((0, 1), repeat=3):
        forms = chsh_forms(embedded_pr_box(2, 2, abc))
        assert max(forms) == 4 and forms.count(4) == 1


def test_pr_box_embedded_in_3_3_2_is_nonlocal():
    for abc in itertools.product((0, 1), repeat=3):
        e = embedded_pr_box(3, 3, abc, settings=(2, 0, 1, 2))
        cert = decide_local(e)
        assert isinstance(cert, NonlocalityCertificate)
        assert verify_certificate(e, cert)


# ------------------------------------------------------------ assignment cap


def uniform_model(scenario: MeasurementScenario) -> EmpiricalModel:
    return EmpiricalModel(scenario, {ctx: Dist.uniform(scenario.events(ctx)) for ctx in scenario.cover})


def rung_above_cap() -> MeasurementScenario:
    """The binary two-party rung with twice as many assignments as the
    largest power of two within the cap."""
    k = DEFAULT_ASSIGNMENT_CAP.bit_length()
    scenario = two_party_scenario(k // 2, k - k // 2)
    assert scenario.assignment_space_size() == 2**k > DEFAULT_ASSIGNMENT_CAP
    return scenario


def test_rung_above_cap_refused_before_enumerating(monkeypatch):
    e = uniform_model(rung_above_cap())

    def enumerated(*args, **kwargs):
        raise AssertionError("assignments enumerated above the cap")

    monkeypatch.setattr(JointOutcome, "of", staticmethod(enumerated))
    monkeypatch.setattr(MeasurementScenario, "events", enumerated)
    with pytest.raises(TooManyAssignments):
        decide_local(e)
    with pytest.raises(TooManyAssignments):
        quasi_local_decomposition(e)


def test_cli_exits_2_above_cap_and_cap_flag_overrides(tmp_path, capsys):
    scenario = rung_above_cap()
    point = {m: "0" for m in scenario.measurements}
    tables = {
        ctx: Dist.delta(JointOutcome.of(ctx, tuple(point[m] for m in ctx))) for ctx in scenario.cover
    }
    path = tmp_path / "above-cap.json"
    path.write_text(serialize_model_file(model_file_for(EmpiricalModel(scenario, tables))))

    assert main(["decide-local", str(path)]) == 2
    assert "exceed the cap" in capsys.readouterr().err
    assert main(["decide-local", str(path), "--cap", str(scenario.assignment_space_size())]) == 0
    capsys.readouterr()
    assert main(["decide-local", "zoo:prbox", "--cap", "15"]) == 2
    assert main(["decide-local", "zoo:prbox", "--cap", "16"]) == 3
