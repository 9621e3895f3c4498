"""Minimal quantum layer: states, POVMs, Born probabilities, and bridges
into exact ontological models.

Floating point lives only in this module. The bridge to the exact side is
`rationalize`, which snaps a float distribution to nearby rationals with a
bounded denominator. `psi_complete_model` goes further: its joint response
tables are completed against shared rationalized single-measurement
marginals, so the resulting model is parameter independent under exact
comparison, not merely up to rounding.

Tolerances are fixed module constants: `NORMALIZATION_TOL` (1e-12) for
norms, traces, hermiticity, and the steering demo's fidelities and
reduced-state drift; `STRUCTURE_TOL` (1e-10) for positivity floors and
identity sums; `EIGENVALUE_GAP` (1e-8) for grouping nearly equal
eigenvalues; `SUPPORT_TOL` (1e-10) for which eigenspace overlaps count;
`MARGINAL_TOL` (1e-9) for when float marginals agree across contexts; and
`CHSH_TOL` (1e-4) for how close a rationalized CHSH value must come to
2*sqrt(2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .probcore import (
    Dist,
    InvariantViolation,
    InternalError,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    _ordered,
)
from .ontomodel import OntologicalModel


class DimensionMismatch(OntolabError):
    """Operands act on spaces of different dimension."""


class KindMismatch(OntolabError):
    """Tensor product requested between values of different kinds."""


class NotADistribution(OntolabError):
    """Float weights are not close enough to a probability distribution."""


NORMALIZATION_TOL = 1e-12
STRUCTURE_TOL = 1e-10
EIGENVALUE_GAP = 1e-8
SUPPORT_TOL = 1e-10
MARGINAL_TOL = 1e-9
CHSH_TOL = 1e-4


def _as_array(values, shape_kind: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if shape_kind == "vector" and arr.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _hermitian(arr: np.ndarray) -> bool:
    return float(np.max(np.abs(arr - arr.conj().T))) <= NORMALIZATION_TOL


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit vector; the norm must be 1 within the normalization tolerance."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.amplitudes, "vector")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InvariantViolation(f"ket norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def of(values: Sequence) -> "Ket":
        return Ket(np.array(values, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semi-definite within tolerances."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.matrix, "matrix")
        if not _hermitian(arr):
            raise InvariantViolation("density matrix is not hermitian")
        if abs(float(np.real(np.trace(arr))) - 1.0) > NORMALIZATION_TOL:
            raise InvariantViolation(f"trace {np.trace(arr)} is not 1")
        eigs = np.linalg.eigvalsh(arr)
        if float(eigs.min()) < -STRUCTURE_TOL:
            raise InvariantViolation(f"negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def from_ket(k: Ket) -> "DensityMatrix":
        v = k.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class Povm:
    """Labelled effects: positive semi-definite, summing to the identity."""

    effects: tuple

    def __post_init__(self):
        effects = []
        labels = []
        for label, matrix in self.effects:
            arr = _as_array(matrix, "matrix")
            labels.append(label)
            effects.append((label, arr))
        if not effects:
            raise InvariantViolation("POVM with no effects")
        if len(set(labels)) != len(labels):
            raise InvariantViolation("duplicate effect labels")
        dims = {arr.shape[0] for _, arr in effects}
        if len(dims) != 1:
            raise DimensionMismatch("effects act on different dimensions")
        total = np.zeros((effects[0][1].shape[0],) * 2, dtype=np.complex128)
        for _, arr in effects:
            if not _hermitian(arr):
                raise InvariantViolation("effect is not hermitian")
            if float(np.linalg.eigvalsh(arr).min()) < -STRUCTURE_TOL:
                raise InvariantViolation("effect has a negative eigenvalue")
            total = total + arr
        if float(np.max(np.abs(total - np.eye(total.shape[0])))) > STRUCTURE_TOL:
            raise InvariantViolation("effects do not sum to the identity")
        object.__setattr__(self, "effects", tuple(effects))

    @property
    def dimension(self) -> int:
        return self.effects[0][1].shape[0]

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.effects)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian matrix with its spectral decomposition.

    Eigenvalues closer than the grouping threshold share one projector;
    each spectrum entry is (eigenvalue, projector).
    """

    matrix: np.ndarray
    spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        arr = _as_array(self.matrix, "matrix")
        if not _hermitian(arr):
            raise InvariantViolation("observable is not hermitian")
        vals, vecs = np.linalg.eigh(arr)
        groups: list[list[int]] = []
        for i, v in enumerate(vals):
            if groups and v - vals[groups[-1][-1]] <= EIGENVALUE_GAP:
                groups[-1].append(i)
            else:
                groups.append([i])
        spectrum = []
        recon = np.zeros_like(arr)
        for idx in groups:
            ev = float(np.mean(vals[idx]))
            basis = vecs[:, idx]
            proj = basis @ basis.conj().T
            proj.setflags(write=False)
            spectrum.append((ev, proj))
            recon = recon + ev * proj
        if float(np.max(np.abs(recon - arr))) > STRUCTURE_TOL:
            raise InvariantViolation("spectral reconstruction drifted beyond tolerance")
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "spectrum", tuple(spectrum))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def qubit0() -> Ket:
    return Ket.of([1, 0])


def qubit1() -> Ket:
    return Ket.of([0, 1])


def plus_state() -> Ket:
    s = 1 / math.sqrt(2)
    return Ket.of([s, s])


def minus_state() -> Ket:
    s = 1 / math.sqrt(2)
    return Ket.of([s, -s])


def bell_phi_plus() -> Ket:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    s = 1 / math.sqrt(2)
    return Ket.of([s, 0, 0, s])


def projective_povm(named_kets: Sequence[tuple]) -> Povm:
    """POVM of rank-one projectors onto an orthonormal family."""
    effects = []
    for label, k in named_kets:
        v = k.amplitudes
        effects.append((label, np.outer(v, v.conj())))
    return Povm(tuple(effects))


def z_basis_povm() -> Povm:
    return projective_povm([("0", qubit0()), ("1", qubit1())])


def x_basis_povm() -> Povm:
    return projective_povm([("0", plus_state()), ("1", minus_state())])


def qubit_direction_povm(theta: float) -> Povm:
    """Projective measurement of cos(theta) Z + sin(theta) X on one qubit.

    Outcome "0" is the +1 eigenvector, outcome "1" the -1 eigenvector.
    """
    up = Ket.of([math.cos(theta / 2), math.sin(theta / 2)])
    down = Ket.of([-math.sin(theta / 2), math.cos(theta / 2)])
    return projective_povm([("0", up), ("1", down)])


def pauli_z() -> Observable:
    return Observable(np.diag([1.0, -1.0]))


def pauli_x() -> Observable:
    return Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))


def born(rho: DensityMatrix, povm: Povm) -> dict:
    """Outcome probabilities tr(rho E), clipped of sub-tolerance negative
    noise and renormalized to sum to one."""
    if rho.dimension != povm.dimension:
        raise DimensionMismatch(
            f"state dimension {rho.dimension} vs effect dimension {povm.dimension}"
        )
    raw = {}
    for label, effect in povm.effects:
        p = float(np.real(np.trace(rho.matrix @ effect)))
        if p < 0:
            if p < -STRUCTURE_TOL:
                raise InvariantViolation(f"outcome {label!r} has probability {p}")
            p = 0.0
        raw[label] = p
    total = sum(raw.values())
    if abs(total - 1.0) > STRUCTURE_TOL:
        raise InvariantViolation(f"probabilities sum to {total}")
    return {label: p / total for label, p in raw.items()}


def _flat(label) -> tuple:
    return tuple(label) if isinstance(label, tuple) else (label,)


def tensor(a, b):
    """Kind-matched tensor product of kets, density matrices, or POVMs.

    POVM labels combine by tuple concatenation, so repeated products stay
    flat: the joint label lists one outcome per factor.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix))
    if isinstance(a, Povm) and isinstance(b, Povm):
        effects = []
        for la, ea in a.effects:
            for lb, eb in b.effects:
                effects.append((_flat(la) + _flat(lb), np.kron(ea, eb)))
        return Povm(tuple(effects))
    raise KindMismatch(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


def _approx(x: float, max_denominator: int) -> Fraction:
    return Fraction(x).limit_denominator(max_denominator)


def rationalize(probs: Mapping[Any, float], max_denominator: int = 10**6) -> Dist:
    """Snap float probabilities to exact rationals summing to exactly one.

    Each entry becomes its best rational approximation with denominator at
    most `max_denominator`; the leftover mass, at most a few parts in
    `max_denominator`, is folded into the largest entry. Inputs must lie in
    [0, 1] and sum to 1 within 1e-9.
    """
    if max_denominator < 1:
        raise InvariantViolation("max_denominator must be positive")
    labels = _ordered(probs)
    cleaned = {}
    for label in labels:
        p = float(probs[label])
        if p < -NORMALIZATION_TOL or p > 1 + NORMALIZATION_TOL:
            raise NotADistribution(f"entry {label!r} = {p} is outside [0, 1]")
        cleaned[label] = min(max(p, 0.0), 1.0)
    total = sum(cleaned.values())
    if abs(total - 1.0) > 1e-9:
        raise NotADistribution(f"entries sum to {total}")
    fracs = {label: _approx(p, max_denominator) for label, p in cleaned.items()}
    residual = 1 - sum(fracs.values())
    if residual != 0:
        top = max(fracs.values())
        target = next(label for label in labels if fracs[label] == top)
        fracs[target] += residual
        if fracs[target] < 0:
            raise NotADistribution("residual correction produced a negative weight")
    return Dist({label: w for label, w in fracs.items() if w != 0})


def _complete_2d(rowm, colm, target, nrows, ncols, max_denominator):
    """Exact table with prescribed row and column sums, near float targets.

    Interior cells are rationalized directly; the last row and column
    absorb the rounding so the sums come out exact. Tiny negative
    completions are repaired by shifting mass from the largest cell of the
    affected line.
    """
    cell = {}
    for i in range(nrows - 1):
        for j in range(ncols - 1):
            cell[(i, j)] = _approx(target(i, j), max_denominator)
    for i in range(nrows - 1):
        cell[(i, ncols - 1)] = rowm[i] - sum(cell[(i, j)] for j in range(ncols - 1))
        v = cell[(i, ncols - 1)]
        if v < 0:
            donor = max(range(ncols - 1), key=lambda j: cell[(i, j)])
            if cell[(i, donor)] < -v:
                raise InvariantViolation("cannot complete table against fixed marginals")
            cell[(i, donor)] += v
            cell[(i, ncols - 1)] = Fraction(0)
    for j in range(ncols - 1):
        cell[(nrows - 1, j)] = colm[j] - sum(cell[(i, j)] for i in range(nrows - 1))
        v = cell[(nrows - 1, j)]
        if v < 0:
            deficit = -v
            donor = max(range(nrows - 1), key=lambda i: cell[(i, j)])
            if cell[(donor, j)] < deficit:
                raise InvariantViolation("cannot complete table against fixed marginals")
            cell[(donor, j)] -= deficit
            cell[(donor, ncols - 1)] += deficit
            cell[(nrows - 1, j)] = Fraction(0)
    corner = rowm[nrows - 1] - sum(cell[(nrows - 1, j)] for j in range(ncols - 1))
    check = colm[ncols - 1] - sum(cell[(i, ncols - 1)] for i in range(nrows - 1))
    if corner != check:
        raise InternalError("inconsistent table completion")
    if corner < 0:
        deficit = -corner
        i_star = max(range(nrows - 1), key=lambda i: cell[(i, ncols - 1)], default=None)
        j_star = max(range(ncols - 1), key=lambda j: cell[(nrows - 1, j)], default=None)
        if (
            i_star is None
            or j_star is None
            or cell[(i_star, ncols - 1)] < deficit
            or cell[(nrows - 1, j_star)] < deficit
        ):
            raise InvariantViolation("cannot complete table against fixed marginals")
        cell[(i_star, j_star)] += deficit
        cell[(i_star, ncols - 1)] -= deficit
        cell[(nrows - 1, j_star)] -= deficit
        corner = Fraction(0)
    cell[(nrows - 1, ncols - 1)] = corner
    return cell


def _consistent_joint(ctx, pools, target, marginals, max_denominator):
    """Rational joint table with every single-axis marginal exact.

    Recursive corner completion: the first axis against the (recursively
    completed) joint of the remaining axes. Row sums give the first axis
    its exact marginal; column sums hand the remaining axes theirs.
    """
    if len(ctx) == 1:
        return {(o,): w for o, w in marginals[ctx[0]].items()}
    first, rest = ctx[0], ctx[1:]
    first_pool = pools[first]
    rest_tuples = list(itertools.product(*(pools[m] for m in rest)))
    rest_target = {
        rt: sum(target[(o,) + rt] for o in first_pool) for rt in rest_tuples
    }
    rest_joint = _consistent_joint(rest, pools, rest_target, marginals, max_denominator)
    rowm = [marginals[first].weight(o) for o in first_pool]
    colm = [rest_joint.get(rt, Fraction(0)) for rt in rest_tuples]
    cells = _complete_2d(
        rowm,
        colm,
        lambda i, j: target[(first_pool[i],) + rest_tuples[j]],
        len(first_pool),
        len(rest_tuples),
        max_denominator,
    )
    return {
        (first_pool[i],) + rt: w
        for (i, j), w in cells.items()
        if w != 0
        for rt in [rest_tuples[j]]
    }


def psi_complete_model(
    preps: Mapping[str, Ket],
    measurements: Mapping[tuple, Povm],
    max_denominator: int = 10**6,
) -> OntologicalModel:
    """Ontological model whose ontic states are the preparations' own kets.

    Each preparation prepares its ket with certainty; responses are the
    rationalized Born probabilities of the per-context POVMs. Whenever the
    float tables have consistent single-measurement marginals (product
    POVMs always do), the rationalized tables are completed against shared
    exact marginals, so the model passes the exact parameter-independence
    check.
    """
    if not preps:
        raise InvariantViolation("no preparations given")
    dims = {k.dimension for k in preps.values()}
    contexts = {}
    for given_ctx, povm in measurements.items():
        given = tuple(given_ctx)
        order = sorted(range(len(given)), key=lambda i: given[i])
        ctx = tuple(given[i] for i in order)
        relabelled = []
        for label, effect in povm.effects:
            flat = _flat(label)
            if len(flat) != len(given):
                raise InvariantViolation(
                    f"effect label {label!r} does not give one outcome per measurement of {given}"
                )
            relabelled.append((tuple(flat[i] for i in order), effect))
        contexts[ctx] = Povm(tuple(relabelled))
        dims.add(povm.dimension)
    if len(dims) != 1:
        raise DimensionMismatch("preparations and effects act on different dimensions")

    outcome_order: dict = {}
    for ctx in sorted(contexts):
        for i, m in enumerate(ctx):
            seen = []
            for label in contexts[ctx].labels:
                if label[i] not in seen:
                    seen.append(label[i])
            if m in outcome_order:
                if set(outcome_order[m]) != set(seen):
                    raise InvariantViolation(f"outcome sets for {m!r} differ between contexts")
            else:
                outcome_order[m] = tuple(seen)
    scenario = MeasurementScenario.make(outcome_order, sorted(contexts))

    responses = {}
    for name in _ordered(preps):
        rho = DensityMatrix.from_ket(preps[name])
        raw = {ctx: born(rho, contexts[ctx]) for ctx in scenario.cover}
        exact_marginals = {}
        for m in scenario.measurements:
            ctx = scenario.contexts_with(m)[0]
            i = ctx.index(m)
            floats = {o: 0.0 for o in outcome_order[m]}
            for label, p in raw[ctx].items():
                floats[label[i]] += p
            exact_marginals[m] = rationalize(floats, max_denominator)
        for ctx in scenario.cover:
            table = raw[ctx]
            consistent = True
            for i, m in enumerate(ctx):
                axis = {o: 0.0 for o in outcome_order[m]}
                for label, p in table.items():
                    axis[label[i]] += p
                drift = max(
                    abs(axis[o] - float(exact_marginals[m].weight(o)))
                    for o in outcome_order[m]
                )
                if drift > MARGINAL_TOL:
                    consistent = False
                    break
            if consistent:
                joint = _consistent_joint(
                    ctx, outcome_order, table, exact_marginals, max_denominator
                )
                dist = Dist(
                    {JointOutcome.of(ctx, combo): w for combo, w in joint.items()}
                )
            else:
                snapped = rationalize(table, max_denominator)
                dist = snapped.map_elements(lambda label: JointOutcome.of(ctx, label))
            responses[(name, ctx)] = dist

    names = tuple(_ordered(preps))
    return OntologicalModel(
        scenario,
        names,
        names,
        {name: Dist.delta(name) for name in names},
        responses,
    )


@dataclass(frozen=True)
class OnticValue:
    """The state lies in a single eigenspace; its value is certain."""

    eigenvalue: float


@dataclass(frozen=True)
class EpistemicValues:
    """The state overlaps at least two eigenspaces; the first two are
    reported, with their overlap masses snapped to exact rationals."""

    eigenvalue_a: float
    eigenvalue_b: float
    masses: tuple


def observable_epistemicity(
    psi: Ket,
    a: Observable,
    max_denominator: int = 10**6,
) -> Union[OnticValue, EpistemicValues]:
    """Does the state fix the observable's value?

    Computes the overlap mass of the state with each eigenspace; two or
    more masses above the support threshold mean the value is epistemic
    for this state.
    """
    if psi.dimension != a.dimension:
        raise DimensionMismatch(
            f"state dimension {psi.dimension} vs observable dimension {a.dimension}"
        )
    v = psi.amplitudes
    overlaps = []
    for ev, proj in a.spectrum:
        mass = float(np.real(v.conj() @ proj @ v))
        if mass > SUPPORT_TOL:
            overlaps.append((ev, mass))
    if not overlaps:
        raise InternalError("state has no eigenspace overlap")
    if len(overlaps) == 1:
        return OnticValue(overlaps[0][0])
    snapped = rationalize(
        {i: mass for i, (_, mass) in enumerate(overlaps)}, max_denominator
    )
    return EpistemicValues(
        overlaps[0][0], overlaps[1][0], (snapped.weight(0), snapped.weight(1))
    )


def steering_demo(basis: str) -> list:
    """Measure one half of the maximally entangled pair; list the remote
    ensemble as (probability, conditional state) pairs.

    Basis "z" steers the far qubit to the computational states, basis "x"
    to the diagonal states, each with probability 1/2.
    """
    if basis == "z":
        local = [qubit0(), qubit1()]
    elif basis == "x":
        local = [plus_state(), minus_state()]
    else:
        raise InvariantViolation(f"basis must be 'z' or 'x', got {basis!r}")
    joint = bell_phi_plus().amplitudes.reshape(2, 2)
    ensemble = []
    for u in local:
        remote = u.amplitudes.conj() @ joint
        p = float(np.real(remote.conj() @ remote))
        ensemble.append((p, Ket(remote / math.sqrt(p))))
    return ensemble


def steering_fidelities(basis: str, ensemble: list) -> tuple:
    """Fidelity of each steered state to the matching state of the basis,
    and whether every fidelity is within the normalization tolerance of 1."""
    targets = [qubit0(), qubit1()] if basis == "z" else [plus_state(), minus_state()]
    fidelities = [
        float(abs(t.amplitudes.conj() @ k.amplitudes) ** 2)
        for t, (_, k) in zip(targets, ensemble)
    ]
    return fidelities, all(f >= 1 - NORMALIZATION_TOL for f in fidelities)


def _reduced(ensemble: list) -> np.ndarray:
    rho = np.zeros((2, 2), dtype=complex)
    for p, k in ensemble:
        rho += p * np.outer(k.amplitudes, k.amplitudes.conj())
    return rho


def steering_drift(basis: str, ensemble: list) -> tuple:
    """Reduced matrix of the ensemble steered in ``basis``, its largest entry
    difference from the one steered in the other basis, and whether that
    difference is within the normalization tolerance (no signalling)."""
    rho = _reduced(ensemble)
    rho_other = _reduced(steering_demo("x" if basis == "z" else "z"))
    drift = float(np.max(np.abs(rho - rho_other)))
    return rho, drift, drift <= NORMALIZATION_TOL


TSIRELSON = 2 * math.sqrt(2)


def near_tsirelson(s: Fraction) -> bool:
    """Is an exact CHSH value within ``CHSH_TOL`` of 2*sqrt(2)?"""
    return abs(float(s) - TSIRELSON) < CHSH_TOL
