"""Minimal quantum layer: states, POVMs, Born probabilities, and bridges
into exact ontological models.

Floating point lives only in this module, in plain Python: a vector is a
tuple of `complex` and a matrix a tuple of such rows. Constructors accept
any nested sequence of numbers and refuse ragged or non-square shapes
(`DimensionMismatch`) and non-finite entries (`InvariantViolation`). One
cyclic Jacobi eigensolver serves the positivity checks of density matrices
and POVM effects and the spectral decomposition of observables.

The bridge to the exact side is `rationalize`, which snaps a float
distribution to nearby rationals with a bounded denominator.
`psi_complete_model` goes further: its joint response tables are
completed against shared rationalized single-measurement marginals, so
the resulting model is parameter independent under exact comparison, not
merely up to rounding. Both follow one repair rule where rounding at a
coarse cap overshoots an exact sum: scale the overshooting entries down
to it. The table completion adds one greedy fill of a negative corner,
and neither refuses a valid input at any cap.

Tolerances are fixed module constants: `NORMALIZATION_TOL` (1e-12) for
norms, traces, hermiticity, and the steering demo's fidelities and
reduced-state drift; `STRUCTURE_TOL` (1e-10) for positivity floors and
identity sums; `EIGENVALUE_GAP` (1e-8) for grouping nearly equal
eigenvalues; `SUPPORT_TOL` (1e-10) for which eigenspace overlaps count;
`MARGINAL_TOL` (1e-9) for when float marginals agree across contexts;
`SUM_TOL` (1e-9) for how far from 1 the float probabilities handed to
`rationalize` may sum; and `CHSH_TOL` (1e-4) for how close a
rationalized CHSH value must come to 2*sqrt(2).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from fractions import Fraction
from numbers import Number
from typing import Any, Mapping, Sequence, Union

from .probcore import (
    DimensionMismatch,
    Dist,
    InvariantViolation,
    InternalError,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    _ordered,
    _value_class,
    labels,
)
from .ontomodel import OntologicalModel


class KindMismatch(OntolabError):
    """Tensor product requested between values of different kinds."""


class NotADistribution(OntolabError):
    """Float weights are not close enough to a probability distribution."""


NORMALIZATION_TOL = 1e-12
STRUCTURE_TOL = 1e-10
EIGENVALUE_GAP = 1e-8
SUPPORT_TOL = 1e-10
MARGINAL_TOL = 1e-9
SUM_TOL = 1e-9
CHSH_TOL = 1e-4

_JACOBI_SWEEPS = 50


def _vector(values) -> tuple:
    try:
        vec = tuple(values)
    except TypeError:
        raise DimensionMismatch(f"expected a vector, got {values!r}") from None
    if not all(isinstance(x, Number) for x in vec):
        raise DimensionMismatch("expected a vector of numbers")
    vec = tuple(map(complex, vec))
    if not all(map(cmath.isfinite, vec)):
        raise InvariantViolation("entries must be finite")
    return vec


def _matrix(values) -> tuple:
    try:
        rows = tuple(map(_vector, values))
    except (TypeError, DimensionMismatch):
        rows = ()
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DimensionMismatch("expected a square matrix")
    return rows


def _identity(n: int) -> tuple:
    return tuple(tuple(complex(i == j) for j in range(n)) for i in range(n))


def _outer(u, v) -> tuple:
    """|u><v|."""
    return tuple(tuple(a * b.conjugate() for b in v) for a in u)


def _kron(a, b) -> tuple:
    """Kronecker product of two vectors, or of two matrices."""
    if isinstance(a[0], tuple):
        return tuple(_kron(ra, rb) for ra in a for rb in b)
    return tuple(x * y for x in a for y in b)


def _inner(u, v) -> complex:
    """<u|v>, conjugate-linear in u."""
    return sum(a.conjugate() * b for a, b in zip(u, v))


def _sum(matrices) -> tuple:
    return tuple(tuple(sum(cells) for cells in zip(*rows)) for rows in zip(*matrices))


def _scaled(c, m) -> tuple:
    return tuple(tuple(c * x for x in row) for row in m)


def _max_diff(a, b) -> float:
    """Largest absolute entry difference of two matrices of one size."""
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _hermitian(m: tuple) -> bool:
    adjoint = tuple(tuple(x.conjugate() for x in col) for col in zip(*m))
    return _max_diff(m, adjoint) <= NORMALIZATION_TOL


def _eigh(m: tuple) -> list:
    """Eigenpairs (value, unit eigenvector) of a Hermitian matrix, values
    ascending; only the upper triangle is read.

    Cyclic Jacobi (Golub & Van Loan, Matrix Computations, 8.5). Each
    rotation turns a_pq real by a phase and zeroes it with the real
    symmetric rotation, updating the diagonal in the t-form
    a_pp - t|a_pq|, a_qq + t|a_pq|, so exact inputs such as the Pauli
    matrices keep exact eigenvalues. Sweeps stop once the off-diagonal
    norm is below machine epsilon times the matrix norm, or below the
    smallest normal float; not getting there within `_JACOBI_SWEEPS`
    sweeps is an `InternalError`.
    """
    n = len(m)
    a = [[m[i][j] if i <= j else m[j][i].conjugate() for j in range(n)] for i in range(n)]
    v = [list(row) for row in _identity(n)]
    tol = max(sys.float_info.epsilon * math.hypot(*(abs(x) for row in a for x in row)), sys.float_info.min)
    for _ in range(_JACOBI_SWEEPS):
        if math.hypot(*(abs(a[p][q]) for p in range(n) for q in range(p + 1, n))) <= tol:
            pairs = [(a[j][j].real, tuple(row[j] for row in v)) for j in range(n)]
            return sorted(pairs, key=lambda pair: pair[0])
        for p, q in itertools.combinations(range(n), 2):
            r = abs(a[p][q])
            if r == 0:
                continue
            phase = a[p][q].conjugate() / r
            phase /= abs(phase)  # a subnormal a_pq rounds r, leaving |phase| up to sqrt(2)
            theta = (a[q][q].real - a[p][p].real) / (2 * r)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1 / math.hypot(t, 1.0)
            s = t * c
            a[p][p] = complex(a[p][p].real - t * r)
            a[q][q] = complex(a[q][q].real + t * r)
            a[p][q] = a[q][p] = 0j
            for k in range(n):
                if k != p and k != q:
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * phase * akq
                    a[k][q] = s * akp + c * phase * akq
                    a[p][k], a[q][k] = a[k][p].conjugate(), a[k][q].conjugate()
                vkp, vkq = v[k][p], v[k][q]
                v[k][p] = c * vkp - s * phase * vkq
                v[k][q] = s * vkp + c * phase * vkq
    raise InternalError(f"Jacobi eigensolver did not converge in {_JACOBI_SWEEPS} sweeps")


@_value_class
class Ket:
    """Unit vector; the norm must be 1 within the normalization tolerance."""

    amplitudes: tuple

    def __post_init__(self):
        vec = _vector(self.amplitudes)
        norm = math.sqrt(_inner(vec, vec).real)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InvariantViolation(f"ket norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)

    @staticmethod
    def of(values: Sequence) -> "Ket":
        return Ket(values)


@_value_class
class DensityMatrix:
    """Hermitian, unit-trace, positive semi-definite within tolerances."""

    matrix: tuple

    def __post_init__(self):
        m = _matrix(self.matrix)
        if not _hermitian(m):
            raise InvariantViolation("density matrix is not hermitian")
        trace = sum(row[i] for i, row in enumerate(m))
        if abs(trace.real - 1.0) > NORMALIZATION_TOL:
            raise InvariantViolation(f"trace {trace} is not 1")
        lowest = _eigh(m)[0][0]
        if lowest < -STRUCTURE_TOL:
            raise InvariantViolation(f"negative eigenvalue {lowest}")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @staticmethod
    def from_ket(k: Ket) -> "DensityMatrix":
        return DensityMatrix(_outer(k.amplitudes, k.amplitudes))


@_value_class
class Povm:
    """Labelled effects: positive semi-definite, summing to the identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple((label, _matrix(m)) for label, m in self.effects)
        labels([label for label, _ in effects], "effect labels")
        if len({len(m) for _, m in effects}) != 1:
            raise DimensionMismatch("effects act on different dimensions")
        for _, m in effects:
            if not _hermitian(m):
                raise InvariantViolation("effect is not hermitian")
            if _eigh(m)[0][0] < -STRUCTURE_TOL:
                raise InvariantViolation("effect has a negative eigenvalue")
        total = _sum(m for _, m in effects)
        if _max_diff(total, _identity(len(total))) > STRUCTURE_TOL:
            raise InvariantViolation("effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)

    @property
    def dimension(self) -> int:
        return len(self.effects[0][1])

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.effects)


@_value_class
class Observable:
    """Hermitian matrix with its spectral decomposition.

    Eigenvalues closer than the grouping threshold share one projector;
    each spectrum entry is (eigenvalue, projector), ascending.
    """

    matrix: tuple

    def __post_init__(self):
        m = _matrix(self.matrix)
        if not _hermitian(m):
            raise InvariantViolation("observable is not hermitian")
        groups: list[list] = []
        for value, vec in _eigh(m):
            if groups and value - groups[-1][-1][0] <= EIGENVALUE_GAP:
                groups[-1].append((value, vec))
            else:
                groups.append([(value, vec)])
        spectrum = tuple(
            (
                sum(value for value, _ in group) / len(group),
                _sum(_outer(vec, vec) for _, vec in group),
            )
            for group in groups
        )
        recon = _sum(_scaled(ev, proj) for ev, proj in spectrum)
        if _max_diff(recon, m) > STRUCTURE_TOL:
            raise InvariantViolation("spectral reconstruction drifted beyond tolerance")
        object.__setattr__(self, "matrix", m)
        # Not a field: derived from the matrix, so the repr leaves it out.
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dimension(self) -> int:
        return len(self.matrix)


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
    return Povm(tuple((label, _outer(k.amplitudes, k.amplitudes)) for label, k in named_kets))


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
    return Observable(((1.0, 0.0), (0.0, -1.0)))


def pauli_x() -> Observable:
    return Observable(((0.0, 1.0), (1.0, 0.0)))


def born(rho: DensityMatrix, povm: Povm) -> dict:
    """Outcome probabilities tr(rho E), clipped of sub-tolerance negative
    noise and renormalized to sum to one."""
    if rho.dimension != povm.dimension:
        raise DimensionMismatch(
            f"state dimension {rho.dimension} vs effect dimension {povm.dimension}"
        )
    n = rho.dimension
    raw = {}
    for label, effect in povm.effects:
        p = sum(rho.matrix[i][k] * effect[k][i] for i in range(n) for k in range(n)).real
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
        return Ket(_kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(_kron(a.matrix, b.matrix))
    if isinstance(a, Povm) and isinstance(b, Povm):
        effects = []
        for la, ea in a.effects:
            for lb, eb in b.effects:
                effects.append((_flat(la) + _flat(lb), _kron(ea, eb)))
        return Povm(tuple(effects))
    raise KindMismatch(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


def _approx(x: float, max_denominator: int) -> Fraction:
    return Fraction(x).limit_denominator(max_denominator)


def rationalize(probs: Mapping[Any, float], max_denominator: int = 10**6) -> Dist:
    """Snap float probabilities to exact rationals summing to exactly one.

    Each entry becomes its best rational approximation with denominator at
    most `max_denominator`. The leftover mass, at most a few parts in
    `max_denominator` at fine caps, is folded into the largest entry (the
    first in `_ordered` order); where that would make it negative, which
    only a coarse cap can cause, every entry is instead divided by their
    sum, so a denominator may then exceed the cap. Inputs must lie in
    [0, 1] and sum to 1 within `SUM_TOL`; no such input is refused.
    """
    if max_denominator < 1:
        raise InvariantViolation("max_denominator must be positive")
    order = _ordered(probs)
    cleaned = {}
    for label in order:
        p = float(probs[label])
        if not -NORMALIZATION_TOL <= p <= 1 + NORMALIZATION_TOL:
            raise NotADistribution(f"entry {label!r} = {p} is outside [0, 1]")
        cleaned[label] = min(max(p, 0.0), 1.0)
    total = sum(cleaned.values())
    if abs(total - 1.0) > SUM_TOL:
        raise NotADistribution(f"entries sum to {total}")
    fracs = {label: _approx(p, max_denominator) for label, p in cleaned.items()}
    total = sum(fracs.values())
    top = max(order, key=fracs.__getitem__)
    if fracs[top] + 1 >= total:
        fracs[top] += 1 - total
    else:
        fracs = {label: w / total for label, w in fracs.items()}
    return Dist({label: w for label, w in fracs.items() if w != 0})


def _complete_2d(rowm, colm, target, max_denominator):
    """Exact non-negative table, as a list of rows, with row sums ``rowm``
    and column sums ``colm`` (of equal totals), near the float targets
    ``target(i, j)``. No table is refused: the product of the marginals is
    always a completion, and the two repairs below always succeed.

    The interior (every cell off the last row and column) is rationalized
    cell by cell; the last column, last row and corner take what the sums
    leave. Two repairs keep those non-negative. First, each row and then
    each column whose interior overshoots its sum is scaled down to that
    sum; scaling one line only lowers the others' sums, so one pass leaves
    every line within its sum. Second, a negative corner has its deficit
    moved into the interior in one greedy pass over the slack of the last
    column and of the last row; the last column's slack exceeds the deficit
    by that column's sum and the last row's by that row's sum, so the pass
    clears it. A table that needs neither repair is its rounded interior
    completed by the sums.
    """
    n, m = len(rowm) - 1, len(colm) - 1
    inner = [[_approx(target(i, j), max_denominator) for j in range(m)] for i in range(n)]
    for i, row in enumerate(inner):
        total = sum(row)
        if total > rowm[i]:
            inner[i] = [w * rowm[i] / total for w in row]
    for j in range(m):
        total = sum(row[j] for row in inner)
        if total > colm[j]:
            for row in inner:
                row[j] *= colm[j] / total
    last_col = [r - sum(row) for r, row in zip(rowm, inner)]
    last_row = [colm[j] - sum(row[j] for row in inner) for j in range(m)]
    deficit = sum(last_row) - rowm[n]
    for i, j in itertools.product(range(n), range(m)):
        if deficit <= 0:
            break
        move = min(deficit, last_col[i], last_row[j])
        inner[i][j] += move
        last_col[i] -= move
        last_row[j] -= move
        deficit -= move
    corner = colm[m] - sum(last_col)
    if sum(last_row) + corner != rowm[n]:
        raise InternalError("inconsistent table completion")
    return [row + [w] for row, w in zip(inner, last_col)] + [last_row + [corner]]


def _consistent_joint(ctx, pools, target, marginals, max_denominator):
    """Rational joint table with every single-axis marginal exact.

    Recursive corner completion: the first axis against the (recursively
    completed) joint of the remaining axes, by `_complete_2d`. Row sums
    give the first axis its exact marginal; column sums hand the remaining
    axes theirs. Zero cells are left out. No table is refused: each
    completion scales overshooting lines down and fills a negative corner
    greedily, as `_complete_2d` describes.
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
    rows = _complete_2d(
        rowm,
        colm,
        lambda i, j: target[(first_pool[i],) + rest_tuples[j]],
        max_denominator,
    )
    return {
        (o,) + rt: w
        for o, row in zip(first_pool, rows)
        for rt, w in zip(rest_tuples, row)
        if w != 0
    }


def _axis_floats(table: Mapping[tuple, float], i: int, outcomes: Sequence) -> dict:
    """Float marginal of axis ``i`` of a table keyed by outcome tuples."""
    axis = {o: 0.0 for o in outcomes}
    for label, p in table.items():
        axis[label[i]] += p
    return axis


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
    exact marginals (`_consistent_joint`), so the model passes the exact
    parameter-independence check at any `max_denominator`; no completion
    is refused. Tables whose float marginals drift apart are rationalized
    one by one.
    """
    contexts = {}
    for given_ctx, povm in measurements.items():
        given = tuple(given_ctx)
        order = sorted(range(len(given)), key=lambda i: given[i])
        ctx = tuple(given[i] for i in order)
        if ctx in contexts:
            raise InvariantViolation(f"context {ctx} is given twice")
        relabel = {}
        for label in povm.labels:
            flat = _flat(label)
            if len(flat) != len(given):
                raise InvariantViolation(
                    f"effect label {label!r} does not give one outcome per measurement of {given}"
                )
            relabel[label] = tuple(flat[i] for i in order)
        labels(relabel.values(), f"effect labels in context {ctx}")
        contexts[ctx] = (povm, relabel)

    outcome_order: dict = {}
    for ctx in sorted(contexts):
        for i, m in enumerate(ctx):
            seen = []
            for label in contexts[ctx][1].values():
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
        raw = {}
        for ctx in scenario.cover:
            povm, relabel = contexts[ctx]
            raw[ctx] = {relabel[label]: p for label, p in born(rho, povm).items()}
        float_marginals = {}
        exact_marginals = {}
        for m in scenario.measurements:
            ctx = scenario.contexts_with(m)[0]
            floats = _axis_floats(raw[ctx], ctx.index(m), outcome_order[m])
            float_marginals[m] = floats
            exact_marginals[m] = rationalize(floats, max_denominator)
        for ctx in scenario.cover:
            table = raw[ctx]
            drift = max(
                abs(p - float_marginals[m][o])
                for i, m in enumerate(ctx)
                for o, p in _axis_floats(table, i, outcome_order[m]).items()
            )
            if drift > MARGINAL_TOL:
                snapped = rationalize(table, max_denominator)
                dist = snapped.map_elements(lambda label: JointOutcome.of(ctx, label))
            else:
                joint = _consistent_joint(
                    ctx, outcome_order, table, exact_marginals, max_denominator
                )
                dist = Dist(
                    {JointOutcome.of(ctx, combo): w for combo, w in joint.items()}
                )
            responses[(name, ctx)] = dist

    names = tuple(_ordered(preps))
    return OntologicalModel(
        scenario,
        names,
        names,
        {name: Dist.delta(name) for name in names},
        responses,
    )


@_value_class
class OnticValue:
    """The state lies in a single eigenspace; its value is certain."""

    eigenvalue: float


@_value_class
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
        mass = _inner(v, tuple(sum(x * y for x, y in zip(row, v)) for row in proj)).real
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


_STEERING_BASES = {"z": (qubit0, qubit1), "x": (plus_state, minus_state)}


def _steering_states(basis: str) -> list:
    """The two local states of a steering basis; the one refusal of an
    unknown basis for the three steering functions."""
    if basis not in _STEERING_BASES:
        raise InvariantViolation(f"basis must be 'z' or 'x', got {basis!r}")
    return [make() for make in _STEERING_BASES[basis]]


def steering_demo(basis: str) -> list:
    """Measure one half of the maximally entangled pair; list the remote
    ensemble as (probability, conditional state) pairs.

    Basis "z" steers the far qubit to the computational states, basis "x"
    to the diagonal states, each with probability 1/2; any other basis is
    refused with `InvariantViolation`.
    """
    pair = bell_phi_plus().amplitudes
    ensemble = []
    for u in _steering_states(basis):
        # pair[j::2] is column j of the pair's amplitudes as a 2x2 matrix
        remote = tuple(_inner(u.amplitudes, pair[j::2]) for j in range(2))
        p = _inner(remote, remote).real
        ensemble.append((p, Ket(tuple(x / math.sqrt(p) for x in remote))))
    return ensemble


def steering_fidelities(basis: str, ensemble: list) -> tuple:
    """Fidelity of each steered state to the matching state of the basis,
    and whether every fidelity is within the normalization tolerance of 1.
    An unknown basis is refused as in `steering_demo`."""
    fidelities = [
        abs(_inner(t.amplitudes, k.amplitudes)) ** 2
        for t, (_, k) in zip(_steering_states(basis), ensemble)
    ]
    return fidelities, all(f >= 1 - NORMALIZATION_TOL for f in fidelities)


def _reduced(ensemble: list) -> tuple:
    return _sum(_scaled(p, _outer(k.amplitudes, k.amplitudes)) for p, k in ensemble)


def steering_drift(basis: str, ensemble: list) -> tuple:
    """Reduced matrix of the ensemble steered in ``basis``, its largest entry
    difference from the one steered in the other basis, and whether that
    difference is within the normalization tolerance (no signalling). An
    unknown basis is refused as in `steering_demo`."""
    _steering_states(basis)
    rho = _reduced(ensemble)
    rho_other = _reduced(steering_demo("x" if basis == "z" else "z"))
    drift = _max_diff(rho, rho_other)
    return rho, drift, drift <= NORMALIZATION_TOL


TSIRELSON = 2 * math.sqrt(2)


def near_tsirelson(s: Fraction) -> bool:
    """Is an exact CHSH value within ``CHSH_TOL`` of 2*sqrt(2)?"""
    return abs(float(s) - TSIRELSON) < CHSH_TOL
