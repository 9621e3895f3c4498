"""Local realizability of empirical models, decided with exact certificates.

A model is locally realizable when some probability distribution over
global outcome assignments reproduces every context table. Membership is
an exact rational linear feasibility problem, solved here by a phase-one
primal simplex with Bland's smallest-index pivoting rule, which excludes
cycling. The tableau is fraction-free (Bareiss, Math. Comp. 22, 565
(1968)): each row is a list of Python ints over one positive row
denominator, updated by integer cross-multiplication, so no cell is ever a
`Fraction`. Each column is scaled by the lcm of its denominators and the
right-hand side by that of b's, a positive change of variable, so every
row starts over denominator 1 (for the incidence rows of `decide_local`,
only b is scaled) and the pivots are those of a `Fraction` tableau; a row
is reduced by its gcd only when a pivot grows its denominator. Results
are converted to `Fraction` on the way out. Feasibility yields the
realizing distribution; infeasibility yields a Farkas vector that, read
over the assignment space, is a Bell-type inequality the model violates.

Both outputs are self-verifying, with no reference to the simplex code
path and building no `JointOutcome`: `verify_witness` and
`verify_signed_weights` sum every weight under the outcome tuple of its
restriction to each context and compare the sums with the tables, and
`verify_certificate` re-evaluates the inequality on every outcome tuple of
the measurements, listed once, with int coefficients keyed by outcome
tuple, summed per context by `map` and `zip`. No verifier lists the
events of a context.

The solver side works on assignment indices: assignment k is the
mixed-radix number over the measurements, each outcome's digit its index
in the declared outcome tuple, the last measurement changing fastest
(`_digit_lists`, which also orders `global_assignments`). It has one
equality builder (`_equality_system`), run once per `decide_local` and
once per `quasi_local_decomposition`: per context it folds the digit
lists into the index of each assignment's event, which places the 0/1 int
rows and gives the certificate's local bound, and it reads the right-hand
side off the table's weights by outcome tuple. So the system goes from
the tables to `lp_feasibility` as ints and the tables' own `Fraction`s,
and no `JointOutcome` is built for it. `decide_local` and
`quasi_local_decomposition` build one per assignment in the support of a
witness or of signed weights, and `decide_local` lists the events of a
context (`MeasurementScenario.events`) only when a certificate
coefficient names one of them. One integer Gauss-Jordan step (`_pivot`)
is shared by the simplex and the unrestricted solve; the verifiers call
neither. A broken solver invariant raises `InternalError`, never an input
error.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Any, Mapping, Optional, Sequence, Union

from .probcore import (
    Check,
    DimensionMismatch,
    Dist,
    EmpiricalModel,
    InternalError,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    _value_class,
    check_no_signalling,
)

# The largest binary two-party rung, (5,5,2), on which a PR box at
# visibility 9/10 and 4-point local mixtures decided within 10 s on three
# seeds; at (5,6,2) one local mixture took minutes, Bland's rule stalling
# for thousands of pivots (README).
DEFAULT_ASSIGNMENT_CAP = 1024


class Signalling(OntolabError):
    """Signed decomposition requested for a signalling model."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"model is signalling: {witness!r}")


class TooManyAssignments(OntolabError):
    """Global assignment space exceeds the configured cap."""


@_value_class
class Feasible:
    """A non-negative exact solution of the constraint system."""

    x: tuple


@_value_class
class Infeasible:
    """Farkas certificate: y with yA <= 0 componentwise and y.b > 0."""

    y: tuple


def lp_feasibility(rows: Sequence[Sequence], rhs: Sequence) -> Union[Feasible, Infeasible]:
    """Decide Ax = b, x >= 0 exactly; every branch returns evidence.

    Phase-one simplex: rows with negative right-hand side are flipped, one
    artificial variable is added per row, and the artificial mass is
    minimised under Bland's rule. Zero optimum reads off a feasible point;
    a positive optimum reads the Farkas vector off the final cost row.

    Entries may be ints, `Fraction`s or anything `Fraction` accepts; rows
    whose sums are ints are taken as they are, with no conversion per cell
    (see `_integer_rows`). The tableau holds each row as Python ints over
    one positive row denominator (see `_pivot`), starting at 1 in the
    scaled variables of `_integer_rows`. Scaling a column by a positive int scales its reduced
    cost and its ratios alike, and the artificial columns are not scaled,
    so the entering column (picked by sign), the ratio test (by
    cross-multiplication), the phase-one duals and hence the pivots and
    the `Fraction` outputs are those of a `Fraction` tableau on [A | b].
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

    # A and b are A * diag(col_scale) and b * b_scale in ints (see
    # `_integer_rows`). Each tableau row is built once, as [A_i | e_i | b_i]
    # sign-flipped to a non-negative right-hand side; the reduced costs for
    # min sum-of-artificials with the artificial basis are minus the column
    # sums of those rows, the artificial columns' cancelling to zero. The
    # cost row is the last tableau row; its last entry is minus the current
    # objective value.
    A, b, col_scale, b_scale = _integer_rows(rows, rhs)
    sign = [-1 if bi < 0 else 1 for bi in b]
    zeros = [0] * m
    tableau = []
    for i, (row, bi, s) in enumerate(zip(A, b, sign)):
        t = [*row, *zeros, bi] if s > 0 else [*(-v for v in row), *zeros, -bi]
        t[n + i] = 1
        tableau.append(t)
    cost = [-v for v in map(sum, zip(*tableau))]
    cost[n : n + m] = zeros
    tableau.append(cost)
    dens = [1] * (m + 1)
    ncols = n + m
    basis = [n + i for i in range(m)]

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
                x[var] = Fraction(tableau[i][-1] * col_scale[var], dens[i] * b_scale)
        return Feasible(tuple(x))

    zden = dens[m]
    ynum = [sign[i] * (zden - zrow[n + i]) for i in range(m)]
    y = tuple(Fraction(v, zden) for v in ynum)
    # The Farkas conditions are cheap to confirm and guard the whole module.
    # They are checked in integers: A and b are the caller's with each
    # column scaled by a positive int, which keeps both signs.
    if any(v > 0 for v in _column_sums(A, ynum)):
        raise InternalError("Farkas vector fails yA <= 0")
    if sum(map(mul, b, ynum)) <= 0:
        raise InternalError("Farkas vector fails y.b > 0")
    return Infeasible(y)


def _column_sums(rows: Sequence[Sequence], weights: Sequence) -> list:
    """The weighted sum of the rows, one column at a time."""
    return [sum(map(mul, col, weights)) for col in zip(*rows)]


def _integer_rows(rows: Sequence[Sequence], rhs: Sequence) -> tuple:
    """A * diag(col_scale) and b * b_scale as int rows and an int list, with
    col_scale and b_scale.

    col_scale[j] is the lcm of column j's denominators (1 for a column of
    ints, as in the incidence rows) and b_scale that of b's, so the rows
    state A x = b in x_j = col_scale[j] * z_j / b_scale, a positive change of
    variable: every row starts over denominator 1. When every row sums to an
    int, A is the caller's rows themselves, not a copy.
    """

    def exact(vals):
        return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in vals]

    b = exact(rhs)
    b_scale = lcm(*(v.denominator for v in b))
    b = [v.numerator * (b_scale // v.denominator) for v in b]
    # `sum` adds ints and bools in C and hands any other cell to `+`, where a
    # `Fraction`, float or `Decimal` gives its own type and a str raises: an
    # int total means a row of ints and bools, which act as ints below.
    try:
        ints = all(type(sum(r)) is int for r in rows)
    except TypeError:
        ints = False
    if ints:
        return rows, b, [1] * len(rows[0] if rows else ()), b_scale
    rows = [exact(r) for r in rows]
    col_scale = [lcm(*(v.denominator for v in col)) for col in zip(*rows)]
    A = [[v.numerator * (c // v.denominator) for v, c in zip(r, col_scale)] for r in rows]
    return A, b, col_scale, b_scale


def _pivot(rows: list, dens: list, r: int, col: int) -> None:
    """Fraction-free Gauss-Jordan step on integer rows: row i stands for
    rows[i] / dens[i] with dens[i] > 0.

    Row r is scaled to a unit entry at col (its denominator becomes the
    pivot) and divided by the gcd of its entries. Every other row with a
    nonzero f at col becomes row*(p/g) - (f/g)*prow over den*(p/g), with p
    the pivot and g = gcd(f, p), which clears col. Only a row whose
    denominator grew (p/g > 1) is then divided by the gcd of its entries
    and denominator; when p divides f the denominator is unchanged, so the
    ints are the row's exact values times it and cannot grow. Rows with a
    zero at col are left alone.
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
        if q != 1:
            d = dens[i] * q
            g = gcd(d, *new)
            if g > 1:
                new = [a // g for a in new]
                d //= g
            dens[i] = d
        rows[i] = new


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
    support = [k for k, w in enumerate(x) if w]
    return dict(zip(_assignments(scenario, digits, support), (x[k] for k in support)))


def global_assignments(scenario: MeasurementScenario, cap: int = DEFAULT_ASSIGNMENT_CAP) -> list:
    """Every total outcome assignment, lexicographic in measurement order."""
    digits = _digit_lists(scenario, cap)
    return _assignments(scenario, digits, range(len(digits[0])))


@_value_class
class LocalWitness:
    """Distribution over global assignments reproducing every table."""

    dist: Dist


@_value_class
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
        # Joint outcomes order as their pairs do; a key compares those in C.
        object.__setattr__(
            self,
            "coefficients",
            {ev: Fraction(c) for ev, c in sorted(self.coefficients.items(), key=lambda item: item[0].pairs)},
        )


@_value_class
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
            {w: Fraction(v) for w, v in sorted(self.weights.items(), key=lambda item: item[0].pairs) if v != 0},
        )

    def negative_part(self) -> dict:
        return {w: v for w, v in self.weights.items() if v < 0}


def _reproduces_tables(e: EmpiricalModel, weights: Mapping[JointOutcome, Fraction]) -> bool:
    # Restrictions of total assignments are events and table supports are
    # events, so comparing the nonzero sums with the tables covers every event.
    # A total assignment's outcomes follow the measurement order, and a
    # context's event outcomes follow the context, so both key by tuple.
    sc = e.scenario
    if not all(sc.is_event(sc.measurements, omega) for omega in weights):
        return False
    position = {m: i for i, m in enumerate(sc.measurements)}
    outcomes = [omega.outcomes for omega in weights]
    for ctx in sc.cover:
        mass: dict = {}
        for key, w in zip(zip(*(map(itemgetter(position[m]), outcomes) for m in ctx)), weights.values()):
            mass[key] = mass.get(key, 0) + w
        if {key: w for key, w in mass.items() if w} != {ev.outcomes: w for ev, w in e.tables[ctx].weights.items()}:
            return False
    return True


def _equality_system(e: EmpiricalModel, digits: list) -> tuple:
    """Rows, right-hand sides and event indices of the local-polytope
    system over the assignments of `_digit_lists`: one 0/1 int row per
    context event, in cover and event order, then the normalization row.

    A context's events are numbered as ``scenario.events(ctx)`` lists them:
    the mixed-radix number of their outcome indices, in context order, the
    last changing fastest. ``hit[k]``, folded from the digit lists of the
    context's measurements, is the number of assignment k's restriction,
    and assignment k marks that row. The right-hand side looks each
    event's outcome tuple up in the table's weights keyed by outcome tuple,
    so an event outside the support reads int 0; no event is built. The
    last item lists ``(ctx, rows, hit)`` per context, in cover order, with
    ``rows`` the slice of the context's row indices.
    """
    sc = e.scenario
    digits_of = dict(zip(sc.measurements, digits))
    n = len(digits[0])
    rows = []
    rhs = []
    hits = []
    for ctx in sc.cover:
        hit = digits_of[ctx[0]]
        for m in ctx[1:]:
            radix = len(sc.outcomes[m])
            hit = [h * radix + d for h, d in zip(hit, digits_of[m])]
        outcome_tuples = list(itertools.product(*(sc.outcomes[m] for m in ctx)))
        block = [[0] * n for _ in outcome_tuples]
        for k, h in enumerate(hit):
            block[h][k] = 1
        hits.append((ctx, slice(len(rows), len(rows) + len(block)), hit))
        rows += block
        weights = {ev.outcomes: w for ev, w in e.tables[ctx].weights.items()}
        rhs += map(weights.get, outcome_tuples, itertools.repeat(0))
    rows.append([1] * n)
    rhs.append(1)
    return rows, rhs, hits


def decide_local(
    e: EmpiricalModel, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Union[LocalWitness, NonlocalityCertificate]:
    """Exactly one of: a realizing distribution, or a violated inequality.

    Variables are the global assignments in lexicographic order; one
    equality per context event plus normalization. The Farkas vector of an
    infeasible system becomes the certificate's coefficients, brought to
    coprime integers; its bound is the largest value of the inequality over
    the assignments, summed per context through the event indices, and its
    model value one `Fraction` over the lcm of the used tables' weights.
    Only a context with a nonzero coefficient has its events listed.
    """
    digits = _digit_lists(e.scenario, cap)
    rows, rhs, hits = _equality_system(e, digits)
    result = lp_feasibility(rows, rhs)
    if isinstance(result, Feasible):
        return LocalWitness(Dist(_nonzero_weights(e.scenario, digits, result.x)))

    y = result.y[:-1]
    used = [i for i, c in enumerate(y) if c]
    if not used:
        raise InternalError("Farkas vector touches only the normalization row")
    # Cosmetic normal form: integer coefficients with no common factor.
    denom = lcm(*(y[i].denominator for i in used))
    numer = gcd(*(y[i].numerator for i in used))
    ints = [c.numerator * (denom // c.denominator) // numer if c else 0 for c in y]

    # An assignment's value sums, over contexts, the coefficient of its event.
    values = [0] * len(digits[0])
    named = {}
    for ctx, span, hit in hits:
        cs = ints[span]
        if any(cs):
            values = [v + cs[h] for v, h in zip(values, hit)]
            named.update((ev, c) for ev, c in zip(e.scenario.events(ctx), cs) if c)
    den = lcm(*(rhs[i].denominator for i in used))
    model_value = Fraction(sum(ints[i] * rhs[i].numerator * (den // rhs[i].denominator) for i in used), den)
    return NonlocalityCertificate(named, model_value, Fraction(max(values)))


def verify_witness(e: EmpiricalModel, witness: LocalWitness) -> bool:
    """Replay every marginal sum of the witness against the model, exactly."""
    return _reproduces_tables(e, dict(witness.dist.weights))


def verify_certificate(e: EmpiricalModel, cert: NonlocalityCertificate) -> bool:
    """Re-evaluate the inequality from scratch by full enumeration.

    Every coefficient must name a context of the model's cover. The
    coefficients are scaled to ints over their common denominator and
    grouped by context, keyed by outcome tuple. The outcome tuples of the
    measurements are listed once; per context, the outcomes at the
    context's positions key each assignment's int (0 when absent), and an
    assignment's value is the sum of its ints over those contexts. At most
    one coefficient per context matches an assignment: its restriction.
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
    combos = list(itertools.product(*(e.scenario.outcomes[m] for m in ms)))
    per_context = [
        map(ints.get, zip(*(map(itemgetter(position[m]), combos) for m in ctx)), itertools.repeat(0))
        for ctx, ints in by_context.items()
    ]
    local_bound = Fraction(max(map(sum, zip(*per_context))), denom)
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
    A, b, col_scale, b_scale = _integer_rows(rows, rhs)
    aug = [[*row, bi] for row, bi in zip(A, b)]
    dens = [1] * m
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
        x[col] = Fraction(aug[i][n] * col_scale[col], dens[i] * b_scale)
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
    rows, rhs, _ = _equality_system(e, digits)
    result = lp_feasibility(rows, rhs)
    solution = result.x if isinstance(result, Feasible) else _solve_linear(rows, rhs)
    if solution is None:
        raise InternalError("no signed decomposition for a no-signalling model")
    return SignedWeights(_nonzero_weights(e.scenario, digits, solution))


def verify_signed_weights(e: EmpiricalModel, sw: SignedWeights) -> bool:
    """Exact marginal consistency of a signed decomposition with the model."""
    return _reproduces_tables(e, dict(sw.weights))
