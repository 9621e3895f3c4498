"""Test-only reference: the dense `Fraction` Bland simplex and Gauss-Jordan
solve that `ontolab.localdecide` ran before its integer-row kernel, kept
verbatim as a differential oracle, plus the locality decision built on them.

Every tableau cell is a `Fraction`, scaled and updated cell by cell. The
integer kernel must make the same pivot choices, so its results are
required to be *equal* to these, not merely equivalent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from ontolab import (
    Dist,
    EmpiricalModel,
    Feasible,
    Infeasible,
    LocalWitness,
    NonlocalityCertificate,
    global_assignments,
)
from ontolab.localdecide import DimensionMismatch, InternalError

from test_product_rule import ref_assignment_value


def ref_lp_feasibility(rows: Sequence[Sequence], rhs: Sequence) -> Union[Feasible, Infeasible]:
    """Decide Ax = b, x >= 0 exactly; phase-one simplex over `Fraction`."""
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
        ref_pivot(tableau, leave, enter)
        basis[leave] = enter

    objective = -zrow[-1]
    if objective == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return Feasible(tuple(x))

    y = tuple(sign[i] * (1 - zrow[n + i]) for i in range(m))
    for j in range(n):
        if sum(y[i] * orig_rows[i][j] for i in range(m)) > 0:
            raise InternalError("Farkas vector fails yA <= 0")
    if sum(y[i] * orig_rhs[i] for i in range(m)) <= 0:
        raise InternalError("Farkas vector fails y.b > 0")
    return Infeasible(y)


def ref_pivot(rows: list, r: int, col: int) -> None:
    """Gauss-Jordan step: scale row r to a unit entry at col, then clear col
    from every other row, in row order."""
    pivot = rows[r][col]
    prow = rows[r] = [v / pivot for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, prow)]


def ref_solve_linear(rows: list, rhs: list) -> Optional[list]:
    """One exact solution of an unrestricted linear system, or None; the
    entries must already be `Fraction`s."""
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
        ref_pivot(aug, rank, col)
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


def ref_equality_system(e: EmpiricalModel, assignments: list) -> tuple:
    """One `Fraction` row per context event (one restriction per event and
    assignment), then the normalization row."""
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


def ref_decide_local(e: EmpiricalModel) -> Union[LocalWitness, NonlocalityCertificate]:
    """`decide_local` on the reference kernel: same system, same normal form,
    the bound taken by restricting every assignment."""
    assignments = global_assignments(e.scenario)
    rows, rhs, row_events = ref_equality_system(e, assignments)
    result = ref_lp_feasibility(rows, rhs)
    if isinstance(result, Feasible):
        weights = {omega: w for omega, w in zip(assignments, result.x) if w != 0}
        return LocalWitness(Dist(weights))
    coeffs = {
        event: yi for event, yi in zip(row_events, result.y) if event is not None and yi != 0
    }
    denom = lcm(*(c.denominator for c in coeffs.values()))
    numer = gcd(*(abs(c.numerator) for c in coeffs.values()))
    scale = Fraction(denom, numer)
    coeffs = {ev: c * scale for ev, c in coeffs.items()}
    model_value = sum(
        (c * e.table(ev.context).weight(ev) for ev, c in coeffs.items()), Fraction(0)
    )
    local_bound = max(ref_assignment_value(coeffs, omega) for omega in assignments)
    return NonlocalityCertificate(coeffs, model_value, local_bound)
