"""Quantum layer: states, POVMs, Born rule, rationalization, and the
bridges to exact models."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ontolab import Dist, InvariantViolation, is_parameter_independent
from ontolab import quantum
from ontolab.probcore import InternalError, JointOutcome
from ontolab.quantum import (
    DensityMatrix,
    DimensionMismatch,
    EpistemicValues,
    Ket,
    KindMismatch,
    NotADistribution,
    Observable,
    OnticValue,
    Povm,
    bell_phi_plus,
    born,
    minus_state,
    observable_epistemicity,
    pauli_x,
    pauli_z,
    plus_state,
    projective_povm,
    psi_complete_model,
    qubit0,
    qubit1,
    qubit_direction_povm,
    rationalize,
    steering_demo,
    steering_drift,
    steering_fidelities,
    tensor,
    x_basis_povm,
    z_basis_povm,
)

F = Fraction
INV_SQRT2 = 1 / math.sqrt(2)
EYE2 = [[1.0, 0.0], [0.0, 1.0]]


def vdot(u, v):
    return sum(a.conjugate() * b for a, b in zip(u, v, strict=True))


def max_abs_diff(a, b):
    return max(abs(x - y) for ra, rb in zip(a, b, strict=True) for x, y in zip(ra, rb, strict=True))


def allclose(a, b):
    """numpy.allclose on square matrices: |a - b| <= 1e-8 + 1e-5 |b| entrywise."""
    return all(
        abs(x - y) <= 1e-8 + 1e-5 * abs(y)
        for ra, rb in zip(a, b, strict=True)
        for x, y in zip(ra, rb, strict=True)
    )


class TestStates:
    def test_ket_must_be_normalized(self):
        with pytest.raises(InvariantViolation):
            Ket.of([1, 1])

    def test_ket_must_be_a_vector(self):
        with pytest.raises(DimensionMismatch):
            Ket(EYE2)

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix([[0.5, 1.0], [0.0, 0.5]])

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(EYE2)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_from_ket_is_a_projector(self):
        rho = DensityMatrix.from_ket(plus_state())
        assert allclose(rho.matrix, [[0.5, 0.5], [0.5, 0.5]])


class TestInputRefusal:
    @pytest.mark.parametrize(
        "values", [[[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [1, 0], [], [["1", 0], [0, 1]]]
    )
    def test_not_a_square_matrix_of_numbers(self, values):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda m: Ket(m[0]), InvariantViolation),
            (DensityMatrix, InvariantViolation),
            (lambda m: Povm((("a", m), ("b", [[0.5, 0.0], [0.0, 0.5]]))), InvariantViolation),
            (Observable, InvariantViolation),
            (lambda m: rationalize({"a": m[0][0], "b": m[0][1]}), NotADistribution),
        ],
        ids=["ket", "density", "povm", "observable", "rationalize"],
    )
    def test_non_finite_entries(self, build, error, bad, diagonal):
        m = [[bad, 0.0], [0.0, 0.5]] if diagonal else [[0.5, bad], [bad, 0.5]]
        with pytest.raises(error):
            build(m)

    def test_unconverged_eigensolver_is_internal(self, monkeypatch):
        monkeypatch.setattr(quantum, "_JACOBI_SWEEPS", 0)
        with pytest.raises(InternalError):
            pauli_x()


class TestPovm:
    def test_effects_must_sum_to_identity(self):
        half = [[0.5, 0.0], [0.0, 0.5]]
        with pytest.raises(InvariantViolation):
            Povm((("a", half),))

    def test_effects_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            Povm((("a", [[2.0, 0.0], [0.0, -1.0]]), ("b", [[-1.0, 0.0], [0.0, 2.0]])))

    def test_duplicate_labels_rejected(self):
        half = [[0.5, 0.0], [0.0, 0.5]]
        with pytest.raises(InvariantViolation):
            Povm((("a", half), ("a", half)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            Povm((("a", [[0.5, 0.0], [0.0, 0.5]]), ("b", [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]])))

    def test_projective_labels(self):
        p = z_basis_povm()
        assert p.labels == ("0", "1")
        assert p.dimension == 2


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            Observable([[0.0, 1.0], [0.0, 0.0]])

    def test_pauli_z_spectrum_is_ascending(self):
        spec = pauli_z().spectrum
        evs = [ev for ev, _ in spec]
        assert evs == pytest.approx([-1.0, 1.0])
        # -1 eigenspace is |1>, +1 eigenspace is |0>
        assert spec[0][1][1][1] == pytest.approx(1.0)
        assert spec[1][1][0][0] == pytest.approx(1.0)

    def test_degenerate_eigenvalues_share_a_projector(self):
        spec = Observable(EYE2).spectrum
        assert len(spec) == 1
        assert allclose(spec[0][1], EYE2)


class TestBorn:
    def test_computational_state_is_deterministic(self):
        probs = born(DensityMatrix.from_ket(qubit0()), z_basis_povm())
        assert probs["0"] == pytest.approx(1.0)
        assert probs["1"] == pytest.approx(0.0, abs=1e-15)

    def test_plus_state_is_unbiased(self):
        probs = born(DensityMatrix.from_ket(plus_state()), z_basis_povm())
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    def test_tilted_direction(self):
        theta = math.pi / 3
        probs = born(DensityMatrix.from_ket(qubit0()), qubit_direction_povm(theta))
        assert probs["0"] == pytest.approx(math.cos(theta / 2) ** 2)

    def test_dimension_mismatch(self):
        pair = DensityMatrix.from_ket(bell_phi_plus())
        with pytest.raises(DimensionMismatch):
            born(pair, z_basis_povm())


class TestTensor:
    def test_ket_tensor(self):
        k = tensor(qubit0(), qubit1())
        assert k.dimension == 4
        assert k.amplitudes[1] == pytest.approx(1.0)

    def test_povm_labels_stay_flat(self):
        triple = tensor(tensor(z_basis_povm(), z_basis_povm()), z_basis_povm())
        assert all(len(label) == 3 for label in triple.labels)
        assert ("0", "1", "0") in triple.labels

    def test_joint_born_on_entangled_pair(self):
        rho = DensityMatrix.from_ket(bell_phi_plus())
        probs = born(rho, tensor(z_basis_povm(), z_basis_povm()))
        assert probs[("0", "0")] == pytest.approx(0.5)
        assert probs[("0", "1")] == pytest.approx(0.0, abs=1e-15)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            tensor(qubit0(), z_basis_povm())

    def test_density_matrix_tensor_is_that_of_the_kets(self):
        a, b = plus_state(), Ket.of([math.cos(0.3), 1j * math.sin(0.3)])
        rho = tensor(DensityMatrix.from_ket(a), DensityMatrix.from_ket(b))
        expected = DensityMatrix.from_ket(tensor(a, b))
        assert rho.dimension == 4
        drift = max(abs(x - y) for r, e in zip(rho.matrix, expected.matrix) for x, y in zip(r, e))
        assert drift <= quantum.NORMALIZATION_TOL


class TestRationalize:
    def test_exact_halves(self):
        d = rationalize({"0": 0.5, "1": 0.5})
        assert d.weight("0") == F(1, 2)
        assert d.weight("1") == F(1, 2)

    def test_residual_folds_into_largest(self):
        d = rationalize({"a": 0.3, "b": 0.3, "c": 0.4}, max_denominator=7)
        assert d.weight("a") == F(2, 7)
        assert d.weight("b") == F(2, 7)
        assert d.weight("c") == F(3, 7)
        assert sum(w for _, w in d.items()) == 1

    def test_random_inputs_sum_exactly_to_one(self, rng):
        for _ in range(50):
            raw = [rng.random() + 1e-3 for _ in range(4)]
            total = sum(raw)
            probs = {i: x / total for i, x in enumerate(raw)}
            d = rationalize(probs)
            assert sum(w for _, w in d.items()) == 1
            for i, p in probs.items():
                assert abs(float(d.weight(i)) - p) < 1e-5

    def test_zero_entries_are_dropped(self):
        d = rationalize({"a": 1.0, "b": 0.0})
        assert d.support == {"a"}

    def test_out_of_range_entry(self):
        with pytest.raises(NotADistribution):
            rationalize({"a": 1.5, "b": -0.5})

    def test_bad_sum(self):
        with pytest.raises(NotADistribution):
            rationalize({"a": 0.5, "b": 0.4})

    def test_bad_denominator_bound(self):
        with pytest.raises(InvariantViolation):
            rationalize({"a": 1.0}, max_denominator=0)

    def test_overshoot_beyond_the_largest_entry_scales_down(self):
        """At cap 3 the five 0.17 entries snap to 1/3 and 0.15 to 0: the
        residual -2/3 cannot be folded into a 1/3 entry, so every entry is
        divided by the sum 5/3."""
        probs = {label: 0.17 for label in "abcde"}
        probs["f"] = 0.15
        d = rationalize(probs, max_denominator=3)
        assert d.weights == {label: F(1, 5) for label in "abcde"}


@st.composite
def completion_cases(draw):
    """A float target over 2-3 axes of 2-4 outcomes, with many zero and tiny
    cells, and its per-axis marginals rationalized at a cap of 3 to 1000,
    as `psi_complete_model` hands them to `_consistent_joint`."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    ctx = tuple(f"m{i}" for i in range(len(sizes)))
    pools = {m: tuple(f"o{j}" for j in range(n)) for m, n in zip(ctx, sizes)}
    cells = list(itertools.product(*(pools[m] for m in ctx)))
    raw = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 1000)),
            min_size=len(cells),
            max_size=len(cells),
        ).filter(any)
    )
    target = {cell: r / sum(raw) for cell, r in zip(cells, raw)}
    cap = draw(st.integers(3, 1000))
    marginals = {}
    for i, m in enumerate(ctx):
        floats = {o: 0.0 for o in pools[m]}
        for cell, p in target.items():
            floats[cell[i]] += p
        try:
            marginals[m] = rationalize(floats, cap)
        except NotADistribution:
            assume(False)
    return ctx, pools, target, marginals, cap


@settings(max_examples=300, deadline=None)
@given(completion_cases())
def test_consistent_joint_is_exact(case):
    """Every drawn table is completed: non-negative, summing to one, with
    the given marginals, and each cell within len(cells)/cap of its
    target."""
    ctx, pools, target, marginals, cap = case
    joint = quantum._consistent_joint(ctx, pools, target, marginals, cap)
    cells = list(itertools.product(*(pools[m] for m in ctx)))
    assert all(w >= 0 for w in joint.values())
    assert sum(joint.values()) == 1
    assert set(joint) <= set(cells)
    for cell in cells:
        assert abs(float(joint.get(cell, 0)) - target[cell]) <= len(cells) / cap
    for i, m in enumerate(ctx):
        axis = {}
        for cell, w in joint.items():
            axis[cell[i]] = axis.get(cell[i], 0) + w
        assert Dist(axis) == marginals[m]


def test_completion_of_marginals_with_different_totals_is_an_internal_error():
    """The only refusal left in `_complete_2d` guards its caller: row and
    column sums of different totals admit no table."""
    with pytest.raises(InternalError):
        quantum._complete_2d([F(1, 2), F(1, 2)], [F(1, 3), F(1, 3)], lambda i, j: 0.25, 1000)


CHSH_ANGLES = {"a0": 0.0, "a1": math.pi / 2, "b0": math.pi / 4, "b1": -math.pi / 4}


def chsh_model(max_denominator=10**6):
    meas = {}
    for a in ("a0", "a1"):
        for b in ("b0", "b1"):
            meas[(a, b)] = tensor(
                qubit_direction_povm(CHSH_ANGLES[a]),
                qubit_direction_povm(CHSH_ANGLES[b]),
            )
    return psi_complete_model({"pair": bell_phi_plus()}, meas, max_denominator)


class TestPsiCompleteModel:
    def test_single_context_is_a_delta_of_born(self):
        m = psi_complete_model({"s": plus_state()}, {("m",): z_basis_povm()})
        assert m.prep_dists["s"] == Dist.delta("s")
        table = m.response("s", ("m",))
        assert table.weight(JointOutcome((("m", "0"),))) == F(1, 2)
        assert table.weight(JointOutcome((("m", "1"),))) == F(1, 2)

    def test_chsh_tables_near_born_values(self):
        m = chsh_model()
        same = (2 + math.sqrt(2)) / 8
        diff = (2 - math.sqrt(2)) / 8
        for ctx in (("a0", "b0"), ("a0", "b1"), ("a1", "b0")):
            t = m.response("pair", ctx)
            for o in ("0", "1"):
                agree = t.weight(JointOutcome.of(ctx, (o, o)))
                assert abs(float(agree) - same) < 1e-4
                cross = t.weight(JointOutcome.of(ctx, (o, "1" if o == "0" else "0")))
                assert abs(float(cross) - diff) < 1e-4
        t = m.response("pair", ("a1", "b1"))
        assert abs(float(t.weight(JointOutcome.of(("a1", "b1"), ("0", "0")))) - diff) < 1e-4

    def test_chsh_model_is_exactly_parameter_independent(self):
        assert is_parameter_independent(chsh_model())

    def test_coarse_denominator_still_parameter_independent(self):
        assert is_parameter_independent(chsh_model(max_denominator=50))

    def test_w_state_at_a_coarse_cap_is_parameter_independent(self):
        """W = (|001> + |010> + |100>)/sqrt(3) under Z (0) and X (1) on each
        of three qubits, all eight contexts, at cap 3: a rounded interior
        leaves a corner of -1/2 where no cell of the last row holds more
        than 1/3, and the completion still comes out exact."""
        w = Ket.of([0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0, 1 / math.sqrt(3), 0, 0, 0])
        bases = {"0": z_basis_povm(), "1": x_basis_povm()}
        meas = {
            ("a" + i, "b" + j, "c" + k): tensor(tensor(bases[i], bases[j]), bases[k])
            for i, j, k in itertools.product("01", repeat=3)
        }
        m = psi_complete_model({"w": w}, meas, max_denominator=3)
        assert len(m.scenario.cover) == 8
        assert is_parameter_independent(m)

    def test_label_arity_must_match_context(self):
        with pytest.raises(InvariantViolation):
            psi_complete_model(
                {"s": qubit0()}, {("m", "n"): z_basis_povm()}
            )

    def test_labels_must_stay_distinct_in_the_context(self):
        """"0" and ("0",) are distinct POVM labels but name the same
        outcome of a one-measurement context."""
        povm = projective_povm([("0", qubit0()), (("0",), qubit1())])
        with pytest.raises(InvariantViolation):
            psi_complete_model({"s": qubit0()}, {("m",): povm})

    def test_a_context_given_in_two_label_orders_is_refused(self):
        """Both keys sort to ("a", "b"); keeping either POVM would drop the
        other silently."""
        meas = {
            ("a", "b"): tensor(z_basis_povm(), z_basis_povm()),
            ("b", "a"): tensor(x_basis_povm(), z_basis_povm()),
        }
        with pytest.raises(InvariantViolation, match=r"context \('a', 'b'\) is given twice"):
            psi_complete_model({"pair": bell_phi_plus()}, meas)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psi_complete_model(
                {"s": bell_phi_plus()}, {("m",): z_basis_povm()}
            )

    def test_each_povm_is_validated_once(self, monkeypatch):
        """The given POVMs are used as they are, not rebuilt: building the
        CHSH model solves 33 eigenproblems (16 qubit effects of the eight
        direction POVMs, 16 two-qubit effects checked in `tensor`, and the
        state), not 49."""
        from ontolab.cli.zoo import chsh_psi_complete

        calls = []
        eigh = quantum._eigh
        monkeypatch.setattr(quantum, "_eigh", lambda m: calls.append(m) or eigh(m))
        chsh_psi_complete()
        assert 0 < len(calls) <= 33

    def test_inconsistent_marginals_are_rationalized_per_table(self):
        """a0 is certain in the Bell basis and a fair coin beside an x
        measurement, so the float marginals disagree; each table is then
        rationalized on its own and the model signals through a0."""
        s = 1 / math.sqrt(2)
        bell_basis = projective_povm(
            [
                (("0", "0"), Ket.of([s, 0, 0, s])),
                (("0", "1"), Ket.of([s, 0, 0, -s])),
                (("1", "0"), Ket.of([0, s, s, 0])),
                (("1", "1"), Ket.of([0, s, -s, 0])),
            ]
        )
        meas = {("a0", "b0"): bell_basis, ("a0", "b1"): tensor(z_basis_povm(), x_basis_povm())}
        m = psi_complete_model({"pair": bell_phi_plus()}, meas, max_denominator=1000)
        res = is_parameter_independent(m)
        assert not res
        assert res.witness.measurement == "a0"
        rho = DensityMatrix.from_ket(bell_phi_plus())
        for ctx, povm in meas.items():
            table = m.response("pair", ctx)
            assert sum(table.weights.values()) == 1
            for label, p in born(rho, povm).items():
                assert abs(float(table.weight(JointOutcome.of(ctx, label))) - p) <= 4 / 1000


class TestObservableEpistemicity:
    def test_eigenstate_is_ontic(self):
        res = observable_epistemicity(qubit0(), pauli_z())
        assert isinstance(res, OnticValue)
        assert res.eigenvalue == pytest.approx(1.0)
        res = observable_epistemicity(qubit1(), pauli_z())
        assert res.eigenvalue == pytest.approx(-1.0)

    def test_plus_state_is_epistemic_for_z(self):
        res = observable_epistemicity(plus_state(), pauli_z())
        assert isinstance(res, EpistemicValues)
        assert res.eigenvalue_a == pytest.approx(-1.0)
        assert res.eigenvalue_b == pytest.approx(1.0)
        assert res.masses == (F(1, 2), F(1, 2))

    def test_plus_state_is_ontic_for_x(self):
        res = observable_epistemicity(plus_state(), pauli_x())
        assert isinstance(res, OnticValue)
        assert res.eigenvalue == pytest.approx(1.0)

    def test_biased_masses_snap_to_thirds(self):
        psi = Ket.of([math.sqrt(1 / 3), math.sqrt(2 / 3)])
        res = observable_epistemicity(psi, pauli_z())
        # ascending spectrum: first mass belongs to the -1 eigenspace |1>
        assert res.masses == (F(2, 3), F(1, 3))

    def test_identity_observable_is_always_ontic(self):
        res = observable_epistemicity(minus_state(), Observable(EYE2))
        assert isinstance(res, OnticValue)
        assert res.eigenvalue == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            observable_epistemicity(bell_phi_plus(), pauli_z())


class TestSteering:
    @pytest.mark.parametrize(
        "basis,targets",
        [("z", (qubit0(), qubit1())), ("x", (plus_state(), minus_state()))],
    )
    def test_ensemble_matches_target_basis(self, basis, targets):
        ensemble = steering_demo(basis)
        assert len(ensemble) == 2
        for (p, state), target in zip(ensemble, targets):
            assert p == pytest.approx(0.5, abs=1e-12)
            fidelity = abs(vdot(target.amplitudes, state.amplitudes)) ** 2
            assert fidelity >= 1 - 1e-12

    def test_reduced_state_is_basis_independent(self):
        reduced = {}
        for basis in ("z", "x"):
            ensemble = steering_demo(basis)
            reduced[basis] = [
                [sum(p * k.amplitudes[i] * k.amplitudes[j].conjugate() for p, k in ensemble) for j in range(2)]
                for i in range(2)
            ]
        assert max_abs_diff(reduced["z"], reduced["x"]) <= 1e-12
        assert max_abs_diff(reduced["z"], [[0.5, 0.0], [0.0, 0.5]]) <= 1e-12

    def test_unknown_basis(self):
        with pytest.raises(InvariantViolation):
            steering_demo("y")

    @pytest.mark.parametrize("check", [steering_fidelities, steering_drift])
    def test_checks_refuse_an_unknown_basis(self, check):
        """The fidelity and drift checks share `steering_demo`'s basis table:
        "y" is refused, not scored against the z states."""
        with pytest.raises(InvariantViolation, match="basis must be 'z' or 'x'"):
            check("y", steering_demo("z"))
