"""Local realizability of empirical models, decided with exact certificates.

A model is locally realizable when some probability distribution over
global outcome assignments reproduces every context table. Membership is
an exact rational linear feasibility problem, solved here by a phase-one
primal simplex over `fractions.Fraction` with Bland's smallest-index
pivoting rule, which excludes cycling. Feasibility yields the realizing
distribution; infeasibility yields a Farkas vector that, read over the
assignment space, is a Bell-type inequality the model violates.

Both outputs are self-verifying: `verify_witness` and
`verify_signed_weights` push every weight onto its restriction to each
context and compare the sums with the tables, and `verify_certificate`
re-evaluates the inequality by enumerating every global assignment, with
no reference to the simplex code path. No verifier lists the events of a
context. The solver side has one equality builder (`_equality_system`,
shared by `decide_local` and `quasi_local_decomposition`, and the only
caller of `MeasurementScenario.events`) and one Gauss-Jordan step
(`_pivot`, shared by the simplex and the unrestricted solve); the
verifiers call neither. A broken solver invariant raises `InternalError`,
never an input error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Mapping, Optional, Sequence, Union

from .probcore import (
    Check,
    Dist,
    EmpiricalModel,
    InternalError,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    check_no_signalling,
)

DEFAULT_ASSIGNMENT_CAP = 10**6


class DimensionMismatch(OntolabError):
    """Constraint matrix and right-hand side shapes disagree."""


class Signalling(OntolabError):
    """Signed decomposition requested for a signalling model."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"model is signalling: {witness!r}")


class TooManyAssignments(OntolabError):
    """Global assignment space exceeds the configured cap."""


@dataclass(frozen=True)
class Feasible:
    """A non-negative exact solution of the constraint system."""

    x: tuple


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: y with yA <= 0 componentwise and y.b > 0."""

    y: tuple


def lp_feasibility(rows: Sequence[Sequence], rhs: Sequence) -> Union[Feasible, Infeasible]:
    """Decide Ax = b, x >= 0 exactly; every branch returns evidence.

    Phase-one simplex: rows with negative right-hand side are flipped, one
    artificial variable is added per row, and the artificial mass is
    minimised under Bland's rule. Zero optimum reads off a feasible point;
    a positive optimum reads the Farkas vector off the final cost row.
    """
    m = len(rows)
    if len(rhs) != m:
        raise DimensionMismatch(f"{m} rows but {len(rhs)} right-hand sides")
    n = len(rows[0]) if m else 0
    orig_rows = [[Fraction(v) for v in r] for r in rows]
    orig_rhs = [Fraction(b) for b in rhs]
    for r in orig_rows:
        if len(r) != n:
            raise DimensionMismatch("ragged constraint matrix")
    if m == 0:
        return Feasible(tuple(Fraction(0) for _ in range(n)))

    sign = []
    tableau = []
    for i in range(m):
        row, b = orig_rows[i], orig_rhs[i]
        if b < 0:
            sign.append(-1)
            row, b = [-v for v in row], -b
        else:
            sign.append(1)
            row = list(row)
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tableau.append(row + art + [b])
    ncols = n + m
    basis = [n + i for i in range(m)]
    # Reduced costs for min sum-of-artificials with the artificial basis,
    # carried as the last tableau row; its last entry is minus the
    # current objective value.
    zrow = []
    for j in range(ncols + 1):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = Fraction(1) if n <= j < ncols else Fraction(0)
        zrow.append(cost - col_sum)
    tableau.append(zrow)

    while True:
        zrow = tableau[m]
        enter = next((j for j in range(ncols) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise InternalError("phase-one objective unbounded; constraint system is corrupt")
        _pivot(tableau, leave, enter)
        basis[leave] = enter

    objective = -zrow[-1]
    if objective == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return Feasible(tuple(x))

    y = tuple(sign[i] * (1 - zrow[n + i]) for i in range(m))
    # The Farkas conditions are cheap to confirm and guard the whole module.
    for j in range(n):
        if sum(y[i] * orig_rows[i][j] for i in range(m)) > 0:
            raise InternalError("Farkas vector fails yA <= 0")
    if sum(y[i] * orig_rhs[i] for i in range(m)) <= 0:
        raise InternalError("Farkas vector fails y.b > 0")
    return Infeasible(y)


def _pivot(rows: list, r: int, col: int) -> None:
    """Gauss-Jordan step: scale row r to a unit entry at col, then clear col
    from every other row, in row order."""
    pivot = rows[r][col]
    prow = rows[r] = [v / pivot for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, prow)]


def global_assignments(scenario: MeasurementScenario, cap: int = DEFAULT_ASSIGNMENT_CAP) -> list:
    """Every total outcome assignment, lexicographic in measurement order."""
    size = scenario.assignment_space_size()
    if size > cap:
        raise TooManyAssignments(f"{size} global assignments exceed the cap of {cap}")
    ms = scenario.measurements
    pools = [scenario.outcomes[m] for m in ms]
    return [JointOutcome.of(ms, combo) for combo in itertools.product(*pools)]


@dataclass(frozen=True)
class LocalWitness:
    """Distribution over global assignments reproducing every table."""

    dist: Dist


@dataclass(frozen=True)
class NonlocalityCertificate:
    """Inequality violated by the model: rational coefficients per event,
    the model's value, and the bound attained over global assignments."""

    coefficients: Mapping[JointOutcome, Fraction]
    model_value: Fraction
    local_bound: Fraction

    def __post_init__(self):
        if not self.coefficients:
            raise InvariantViolation("certificate without coefficients")
        if not self.model_value > self.local_bound:
            raise InvariantViolation(
                f"certificate does not separate: value {self.model_value} "
                f"vs bound {self.local_bound}"
            )
        object.__setattr__(
            self,
            "coefficients",
            {ev: Fraction(c) for ev, c in sorted(self.coefficients.items())},
        )


@dataclass(frozen=True)
class SignedWeights:
    """Possibly-negative weights over global assignments, summing to one."""

    weights: Mapping[JointOutcome, Fraction]

    def __post_init__(self):
        total = sum(self.weights.values(), Fraction(0))
        if total != 1:
            raise InvariantViolation(f"signed weights sum to {total}, not 1")
        object.__setattr__(
            self,
            "weights",
            {w: Fraction(v) for w, v in sorted(self.weights.items()) if v != 0},
        )

    def negative_part(self) -> dict:
        return {w: v for w, v in self.weights.items() if v < 0}


def _assignment_value(coeffs: Mapping[JointOutcome, Fraction], omega: JointOutcome) -> Fraction:
    # At most one coefficient per context matches omega: its restriction.
    contexts = {ev.context for ev in coeffs}
    return sum((coeffs.get(omega.restrict(ctx), 0) for ctx in contexts), Fraction(0))


def _reproduces_tables(e: EmpiricalModel, weights: Mapping[JointOutcome, Fraction]) -> bool:
    # Restrictions of total assignments are events and table supports are
    # events, so comparing the nonzero sums with the tables covers every event.
    sc = e.scenario
    if not all(sc.is_event(sc.measurements, omega) for omega in weights):
        return False
    for ctx in sc.cover:
        mass: dict = {}
        for omega, w in weights.items():
            ev = omega.restrict(ctx)
            mass[ev] = mass.get(ev, 0) + w
        if {ev: w for ev, w in mass.items() if w != 0} != e.tables[ctx].weights:
            return False
    return True


def _equality_system(e: EmpiricalModel, assignments: list) -> tuple:
    """Rows, right-hand sides and row events of the local-polytope system
    over the given assignments: one row per context event, in cover and
    event order, then the normalization row (event None)."""
    rows = []
    rhs = []
    row_events = []
    for ctx in e.scenario.cover:
        table = e.tables[ctx]
        for event in e.scenario.events(ctx):
            rows.append(
                [Fraction(1) if omega.restrict(ctx) == event else Fraction(0) for omega in assignments]
            )
            rhs.append(table.weight(event))
            row_events.append(event)
    rows.append([Fraction(1)] * len(assignments))
    rhs.append(Fraction(1))
    row_events.append(None)
    return rows, rhs, row_events


def decide_local(
    e: EmpiricalModel, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Union[LocalWitness, NonlocalityCertificate]:
    """Exactly one of: a realizing distribution, or a violated inequality.

    Variables are the global assignments in lexicographic order; one
    equality per context event plus normalization. The Farkas vector of an
    infeasible system becomes the certificate's coefficients, its bound
    recomputed by direct enumeration.
    """
    assignments = global_assignments(e.scenario, cap)
    rows, rhs, row_events = _equality_system(e, assignments)
    result = lp_feasibility(rows, rhs)
    if isinstance(result, Feasible):
        weights = {omega: w for omega, w in zip(assignments, result.x) if w != 0}
        return LocalWitness(Dist(weights))

    coeffs = {
        event: yi
        for event, yi in zip(row_events, result.y)
        if event is not None and yi != 0
    }
    if not coeffs:
        raise InternalError("Farkas vector touches only the normalization row")
    # Cosmetic normal form: integer coefficients with no common factor.
    denom = lcm(*(c.denominator for c in coeffs.values()))
    numer = gcd(*(abs(c.numerator) for c in coeffs.values()))
    scale = Fraction(denom, numer)
    coeffs = {ev: c * scale for ev, c in coeffs.items()}

    model_value = sum(
        (c * e.table(ev.context).weight(ev) for ev, c in coeffs.items()), Fraction(0)
    )
    local_bound = max(_assignment_value(coeffs, omega) for omega in assignments)
    return NonlocalityCertificate(coeffs, model_value, local_bound)


def verify_witness(e: EmpiricalModel, witness: LocalWitness) -> bool:
    """Replay every marginal sum of the witness against the model, exactly."""
    return _reproduces_tables(e, dict(witness.dist.weights))


def verify_certificate(e: EmpiricalModel, cert: NonlocalityCertificate) -> bool:
    """Re-evaluate the inequality from scratch by full enumeration."""
    model_value = Fraction(0)
    for ev, c in cert.coefficients.items():
        try:
            table = e.table(ev.context)
        except KeyError:
            return False
        if any(m not in e.scenario.measurements for m in ev.context):
            return False
        model_value += c * table.weight(ev)
    ms = e.scenario.measurements
    pools = [e.scenario.outcomes[m] for m in ms]
    local_bound = None
    for combo in itertools.product(*pools):
        omega = JointOutcome.of(ms, combo)
        v = _assignment_value(cert.coefficients, omega)
        if local_bound is None or v > local_bound:
            local_bound = v
    return (
        model_value == cert.model_value
        and local_bound == cert.local_bound
        and model_value > local_bound
    )


def _solve_linear(rows: list, rhs: list) -> Optional[list]:
    """One exact solution of an unrestricted linear system, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_cols = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        _pivot(aug, rank, col)
        pivot_cols.append(col)
        rank += 1
        if rank == m:
            break
    for i in range(rank, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n]
    return x


def quasi_local_decomposition(
    e: EmpiricalModel, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> SignedWeights:
    """Signed global weights reproducing every table of a no-signalling model.

    Local models reuse their realizing distribution unchanged; non-local
    no-signalling models get a solution of the same linear system with the
    sign constraint dropped, so at least one weight is negative. Signalling
    models are refused with the witness.
    """
    ns = check_no_signalling(e)
    if not ns:
        raise Signalling(ns.witness)
    decision = decide_local(e, cap)
    if isinstance(decision, LocalWitness):
        return SignedWeights(dict(decision.dist.weights))

    assignments = global_assignments(e.scenario, cap)
    rows, rhs, _ = _equality_system(e, assignments)
    solution = _solve_linear(rows, rhs)
    if solution is None:
        raise InternalError("no signed decomposition for a no-signalling model")
    return SignedWeights({omega: w for omega, w in zip(assignments, solution) if w != 0})


def verify_signed_weights(e: EmpiricalModel, sw: SignedWeights) -> bool:
    """Exact marginal consistency of a signed decomposition with the model."""
    return _reproduces_tables(e, dict(sw.weights))
