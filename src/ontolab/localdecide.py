"""Local realizability of empirical models, decided with exact certificates.

A model is locally realizable when some probability distribution over
global outcome assignments reproduces every context table. Membership is
an exact rational linear feasibility problem, solved here by a phase-one
primal simplex with Bland's smallest-index pivoting rule, which excludes
cycling. The tableau is fraction-free: each row is a list of Python ints
over one positive row denominator, updated by integer cross-multiplication
and reduced by the row gcd (Bareiss, Math. Comp. 22, 565 (1968)), so no
cell is ever a `Fraction`; results are converted to `Fraction` on the way
out. Feasibility yields the realizing distribution; infeasibility yields a
Farkas vector that, read over the assignment space, is a Bell-type
inequality the model violates.

Both outputs are self-verifying: `verify_witness` and
`verify_signed_weights` push every weight onto its restriction to each
context and compare the sums with the tables, and `verify_certificate`
re-evaluates the inequality by enumerating every outcome tuple of the
measurements, with int coefficients keyed by outcome tuple, building no
`JointOutcome` and with no reference to the simplex code path. No
verifier lists the events of a context.

The solver side works on assignment indices: assignment k is the
mixed-radix number over the measurements, each outcome's digit its index
in the declared outcome tuple, the last measurement changing fastest
(`_digit_lists`, which also orders `global_assignments`). It has one
equality builder (`_equality_system`, the only caller of
`MeasurementScenario.events`), run once per `decide_local` and once per
`quasi_local_decomposition`: per context it folds the digit lists into
the index of each assignment's event, which places the 0/1 int rows and
gives the certificate's local bound. It builds a `JointOutcome` only for
the context events, and `decide_local` and `quasi_local_decomposition`
only for the support of a witness or of signed weights. One integer
Gauss-Jordan step (`_pivot`) is shared by the simplex and the
unrestricted solve; the verifiers call neither. A broken solver invariant
raises `InternalError`, never an input error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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

# The largest binary two-party rung, (5,5,2), on which a PR box at
# visibility 9/10 and 4-point local mixtures decided within 10 s on three
# seeds; at (5,6,2) one local mixture took minutes, Bland's rule stalling
# for thousands of pivots (README).
DEFAULT_ASSIGNMENT_CAP = 1024


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

    Entries may be ints, `Fraction`s or anything `Fraction` accepts. The
    tableau holds each row as Python ints over one positive row
    denominator (see `_pivot`); the entering column is picked by sign and
    the ratio test compares by cross-multiplication, so the pivots, and
    the `Fraction` outputs, are those of a `Fraction` tableau.
    """
    m = len(rows)
    if len(rhs) != m:
        raise DimensionMismatch(f"{m} rows but {len(rhs)} right-hand sides")
    n = len(rows[0]) if m else 0
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch("ragged constraint matrix")
    if m == 0:
        return Feasible(tuple(Fraction(0) for _ in range(n)))

    # orig[i] / scale[i] is row i of [A | b], read exactly.
    orig, scale = _integer_rows(rows, rhs)
    sign = []
    tableau = []
    for i in range(m):
        row = orig[i]
        if row[n] < 0:
            sign.append(-1)
            row = [-v for v in row]
        else:
            sign.append(1)
        art = [0] * m
        art[i] = scale[i]
        tableau.append(row[:n] + art + [row[n]])
    dens = list(scale)
    ncols = n + m
    basis = [n + i for i in range(m)]
    # Reduced costs for min sum-of-artificials with the artificial basis,
    # carried as the last tableau row; its last entry is minus the
    # current objective value. The artificial columns cancel to zero; the
    # others are column sums of the sign-flipped integer rows.
    unit = lcm(*scale)
    cost = _column_sums(orig, [s * (unit // d) for s, d in zip(sign, scale)])
    tableau.append([-v for v in cost[:n]] + [0] * m + [-cost[-1]])
    dens.append(unit)

    while True:
        zrow = tableau[m]
        enter = next((j for j in range(ncols) if zrow[j] < 0), None)
        if enter is None:
            break
        # Smallest ratio rhs/coef over positive coefficients; the row
        # denominators cancel, and a/c < b/d is a*d < b*c for c, d > 0.
        leave = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                here = tableau[i][-1] * tableau[leave][enter]
                best = tableau[leave][-1] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InternalError("phase-one objective unbounded; constraint system is corrupt")
        _pivot(tableau, dens, leave, enter)
        basis[leave] = enter

    if zrow[-1] == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = Fraction(tableau[i][-1], dens[i])
        return Feasible(tuple(x))

    zden = dens[m]
    ynum = [sign[i] * (zden - zrow[n + i]) for i in range(m)]
    y = tuple(Fraction(v, zden) for v in ynum)
    # The Farkas conditions are cheap to confirm and guard the whole module.
    # They are checked in integers: w_i = y_i * zden * unit / scale_i is a
    # positive rescaling of y_i / scale_i, the weight of integer row i.
    combined = _column_sums(orig, [v * (unit // d) for v, d in zip(ynum, scale)])
    if any(v > 0 for v in combined[:n]):
        raise InternalError("Farkas vector fails yA <= 0")
    if combined[n] <= 0:
        raise InternalError("Farkas vector fails y.b > 0")
    return Infeasible(y)


def _column_sums(rows: Sequence[Sequence], weights: Sequence) -> list:
    """The weighted sum of the rows, one column at a time."""
    return [sum(map(mul, col, weights)) for col in zip(*rows)]


def _integer_rows(rows: Sequence[Sequence], rhs: Sequence) -> tuple:
    """Each row of [A | b] as a list of ints and one positive scale, the
    lcm of its entries' denominators, so that ints / scale is the row.
    Rows of plain ints (the incidence rows) take the denominator of b."""
    out = []
    scales = []
    for r, b in zip(rows, rhs):
        if not set(map(type, r)) - {int}:
            b = b if isinstance(b, (int, Fraction)) else Fraction(b)
            d = b.denominator
            out.append([*r, b.numerator] if d == 1 else [v * d for v in r] + [b.numerator])
        else:
            vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (*r, b)]
            d = lcm(*(v.denominator for v in vals))
            out.append([v.numerator * (d // v.denominator) for v in vals])
        scales.append(d)
    return out, scales


def _pivot(rows: list, dens: list, r: int, col: int) -> None:
    """Fraction-free Gauss-Jordan step on integer rows: row i stands for
    rows[i] / dens[i] with dens[i] > 0.

    Row r is scaled to a unit entry at col (its denominator becomes the
    pivot). Every other row with a nonzero f at col becomes
    row*(p/g) - (f/g)*prow over den*(p/g), with p the pivot and
    g = gcd(f, p), which clears col, then is divided by the gcd of its
    entries and denominator: the one integer form of that rational row with
    coprime entries and a positive denominator, whatever factor the update
    carried. Rows with a zero at col are left alone.
    """
    prow = rows[r]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    nz = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[col]
        if i == r or not f:
            continue
        g = gcd(f, p)
        q, f = p // g, f // g
        new = [a * q for a in row] if q != 1 else list(row)
        for j, v in nz:
            new[j] -= f * v
        d = dens[i] * q
        g = gcd(d, *new)
        if g > 1:
            new = [a // g for a in new]
            d //= g
        rows[i] = new
        dens[i] = d


def _digit_lists(scenario: MeasurementScenario, cap: int) -> list:
    """One list per measurement, in measurement order: entry k is the index,
    in the measurement's declared outcome tuple, of its outcome in
    assignment k. Assignment k is the mixed-radix number over the
    measurements, the last changing fastest, which is the order of
    `itertools.product` over the outcome tuples. Refuses a space larger
    than the cap before listing anything."""
    size = scenario.assignment_space_size()
    if size > cap:
        raise TooManyAssignments(f"{size} global assignments exceed the cap of {cap}")
    digits = []
    stride = size
    for m in scenario.measurements:
        radix = len(scenario.outcomes[m])
        stride //= radix
        digits.append([d for d in range(radix) for _ in range(stride)] * (size // (stride * radix)))
    return digits


def _assignments(scenario: MeasurementScenario, digits: list, indices) -> list:
    """The total assignments at the given indices, as `JointOutcome`s."""
    ms = scenario.measurements
    pools = [scenario.outcomes[m] for m in ms]
    return [JointOutcome.of(ms, [pool[ds[k]] for pool, ds in zip(pools, digits)]) for k in indices]


def _nonzero_weights(scenario: MeasurementScenario, digits: list, x: Sequence) -> dict:
    """The nonzero entries of a vector over assignment indices, keyed by
    assignment."""
    support = [k for k, w in enumerate(x) if w != 0]
    return dict(zip(_assignments(scenario, digits, support), (x[k] for k in support)))


def global_assignments(scenario: MeasurementScenario, cap: int = DEFAULT_ASSIGNMENT_CAP) -> list:
    """Every total outcome assignment, lexicographic in measurement order."""
    digits = _digit_lists(scenario, cap)
    return _assignments(scenario, digits, range(len(digits[0])))


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


def _equality_system(e: EmpiricalModel, digits: list) -> tuple:
    """Rows, right-hand sides, row events and event indices of the
    local-polytope system over the assignments of `_digit_lists`: one 0/1
    int row per context event, in cover and event order, then the
    normalization row (event None).

    For each context, ``hit[k]`` is the index of assignment k's restriction
    in ``scenario.events(ctx)``, folded from the digit lists of the
    context's measurements in context order; assignment k marks that row.
    The last item lists ``(rows, hit)`` per context, in cover order, with
    ``rows`` the range of the context's row indices.
    """
    sc = e.scenario
    digits_of = dict(zip(sc.measurements, digits))
    n = len(digits[0])
    rows = []
    rhs = []
    row_events = []
    hits = []
    for ctx in sc.cover:
        hit = digits_of[ctx[0]]
        for m in ctx[1:]:
            radix = len(sc.outcomes[m])
            hit = [h * radix + d for h, d in zip(hit, digits_of[m])]
        events = sc.events(ctx)
        block = [[0] * n for _ in events]
        for k, h in enumerate(hit):
            block[h][k] = 1
        hits.append((range(len(rows), len(rows) + len(events)), hit))
        rows += block
        rhs += map(e.tables[ctx].weight, events)
        row_events += events
    rows.append([1] * n)
    rhs.append(Fraction(1))
    row_events.append(None)
    return rows, rhs, row_events, hits


def decide_local(
    e: EmpiricalModel, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Union[LocalWitness, NonlocalityCertificate]:
    """Exactly one of: a realizing distribution, or a violated inequality.

    Variables are the global assignments in lexicographic order; one
    equality per context event plus normalization. The Farkas vector of an
    infeasible system becomes the certificate's coefficients, brought to
    coprime integers; its bound is the largest value of the inequality over
    the assignments, summed per context through the event indices.
    """
    digits = _digit_lists(e.scenario, cap)
    rows, rhs, row_events, hits = _equality_system(e, digits)
    result = lp_feasibility(rows, rhs)
    if isinstance(result, Feasible):
        return LocalWitness(Dist(_nonzero_weights(e.scenario, digits, result.x)))

    coeffs = {
        i: yi
        for i, (event, yi) in enumerate(zip(row_events, result.y))
        if event is not None and yi != 0
    }
    if not coeffs:
        raise InternalError("Farkas vector touches only the normalization row")
    # Cosmetic normal form: integer coefficients with no common factor.
    denom = lcm(*(c.denominator for c in coeffs.values()))
    numer = gcd(*(c.numerator for c in coeffs.values()))
    coeffs = {i: c.numerator * (denom // c.denominator) // numer for i, c in coeffs.items()}

    # An assignment's value sums, over contexts, the coefficient of its event.
    values = [0] * len(digits[0])
    for span, hit in hits:
        cs = [coeffs.get(i, 0) for i in span]
        if any(cs):
            values = [v + cs[h] for v, h in zip(values, hit)]
    model_value = sum((c * rhs[i] for i, c in coeffs.items()), Fraction(0))
    return NonlocalityCertificate(
        {row_events[i]: Fraction(c) for i, c in coeffs.items()}, model_value, Fraction(max(values))
    )


def verify_witness(e: EmpiricalModel, witness: LocalWitness) -> bool:
    """Replay every marginal sum of the witness against the model, exactly."""
    return _reproduces_tables(e, dict(witness.dist.weights))


def verify_certificate(e: EmpiricalModel, cert: NonlocalityCertificate) -> bool:
    """Re-evaluate the inequality from scratch by full enumeration.

    Every coefficient must name a context of the model's cover. The
    coefficients are scaled to ints over their common denominator and
    grouped by context, keyed by outcome tuple; an assignment's value is
    the sum, over those contexts, of the int keyed by its outcomes at the
    context's positions in the measurement order. At most one coefficient
    per context matches an assignment: its restriction.
    """
    coeffs = cert.coefficients
    denom = lcm(*(c.denominator for c in coeffs.values()))
    model_value = Fraction(0)
    by_context: dict = {}
    for ev, c in coeffs.items():
        if ev.context not in e.tables:
            return False
        model_value += c * e.tables[ev.context].weight(ev)
        by_context.setdefault(ev.context, {})[ev.outcomes] = c.numerator * (denom // c.denominator)
    ms = e.scenario.measurements
    position = {m: i for i, m in enumerate(ms)}
    groups = [([position[m] for m in ctx], ints) for ctx, ints in by_context.items()]
    pools = [e.scenario.outcomes[m] for m in ms]
    best = max(
        sum(ints.get(tuple(map(combo.__getitem__, at)), 0) for at, ints in groups)
        for combo in itertools.product(*pools)
    )
    local_bound = Fraction(best, denom)
    return (
        model_value == cert.model_value
        and local_bound == cert.local_bound
        and model_value > local_bound
    )


def _solve_linear(rows: list, rhs: list) -> Optional[list]:
    """One exact solution of an unrestricted linear system, or None.

    Gauss-Jordan on the integer rows of `_pivot`, with the first nonzero
    row at or below the rank as pivot; free variables are zero."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug, dens = _integer_rows(rows, rhs)
    pivot_cols = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        dens[rank], dens[pivot_row] = dens[pivot_row], dens[rank]
        _pivot(aug, dens, rank, col)
        pivot_cols.append(col)
        rank += 1
        if rank == m:
            break
    for i in range(rank, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = Fraction(aug[i][n], dens[i])
    return x


def quasi_local_decomposition(
    e: EmpiricalModel, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> SignedWeights:
    """Signed global weights reproducing every table of a no-signalling model.

    The equality system of `decide_local` is built once. A feasible system
    gives the realizing distribution unchanged; an infeasible one (a
    non-local model) gets a solution with the sign constraint dropped, so
    at least one weight is negative. Signalling models are refused with
    the witness.
    """
    ns = check_no_signalling(e)
    if not ns:
        raise Signalling(ns.witness)
    digits = _digit_lists(e.scenario, cap)
    rows, rhs, _, _ = _equality_system(e, digits)
    result = lp_feasibility(rows, rhs)
    solution = result.x if isinstance(result, Feasible) else _solve_linear(rows, rhs)
    if solution is None:
        raise InternalError("no signed decomposition for a no-signalling model")
    return SignedWeights(_nonzero_weights(e.scenario, digits, solution))


def verify_signed_weights(e: EmpiricalModel, sw: SignedWeights) -> bool:
    """Exact marginal consistency of a signed decomposition with the model."""
    return _reproduces_tables(e, dict(sw.weights))
