"""Reference exact simplex on a plain Fraction tableau.

This is the rational tableau that keymark.simplex replaced with an
integer-preserving one.  It makes the same Bland choices, so the tests
compare the two result for result.  No production code imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from keymark.errors import SolverError
from keymark.simplex import SimplexResult


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], art_start: int):
        self.rows = rows
        self.rhs = rhs
        self.art_start = art_start
        self.ncols = len(rows[0])
        self.basis = list(range(art_start, art_start + len(rows)))
        self.cost = [Fraction(0)] * self.ncols
        self.cost_rhs = Fraction(0)
        self.pivots = 0
        self.degenerate = 0

    def set_cost(self, coeffs: list[Fraction]) -> None:
        self.cost = list(coeffs) + [Fraction(0)] * (self.ncols - len(coeffs))
        self.cost_rhs = Fraction(0)
        for i, b in enumerate(self.basis):
            cb = self.cost[b]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        self.cost[j] -= cb * row[j]
                self.cost_rhs -= cb * self.rhs[i]

    def pivot(self, r: int, j: int) -> None:
        self.pivots += 1
        if self.rhs[r] == 0:
            self.degenerate += 1
        row = self.rows[r]
        inv = 1 / row[j]
        if inv != 1:
            for k in range(self.ncols):
                if row[k] != 0:
                    row[k] *= inv
            self.rhs[r] *= inv
        for i, other in enumerate(self.rows):
            if i == r or other[j] == 0:
                continue
            factor = other[j]
            for k in range(self.ncols):
                if row[k] != 0:
                    other[k] -= factor * row[k]
            self.rhs[i] -= factor * self.rhs[r]
        factor = self.cost[j]
        if factor != 0:
            for k in range(self.ncols):
                if row[k] != 0:
                    self.cost[k] -= factor * row[k]
            self.cost_rhs -= factor * self.rhs[r]
        self.basis[r] = j

    def run(self) -> str:
        while True:
            enter = -1
            for j in range(self.art_start):
                if self.cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                coeff = row[enter]
                if coeff > 0:
                    ratio = self.rhs[i] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def reference_solve(
    objective: Sequence[Fraction],
    ineq_rows: Sequence[Mapping[int, Fraction]],
    ineq_rhs: Sequence[Fraction],
    eq_rows: Sequence[Mapping[int, Fraction]],
    eq_rhs: Sequence[Fraction],
) -> SimplexResult:
    """Same contract and result as keymark.simplex.simplex_solve."""
    nv = len(objective)
    n_ineq, n_eq = len(ineq_rows), len(eq_rows)
    n_rows = n_ineq + n_eq
    if n_rows == 0:
        raise SolverError("no constraints")
    art_start = nv + n_ineq
    ncols = art_start + n_rows

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    signs: list[int] = []
    for i, (src, b) in enumerate(zip((*ineq_rows, *eq_rows), (*ineq_rhs, *eq_rhs))):
        sign = -1 if b < 0 else 1
        row = [Fraction(0)] * ncols
        for col, value in src.items():
            row[col] = sign * Fraction(value)
        if i < n_ineq:
            row[nv + i] = Fraction(sign)
        row[art_start + i] = Fraction(1)
        rows.append(row)
        rhs.append(sign * Fraction(b))
        signs.append(sign)

    tableau = _Tableau(rows, rhs, art_start)

    def result(status, phase1, objective=Fraction(0), values=(), dual_ineq=(), dual_eq=()):
        return SimplexResult(
            status,
            objective,
            values,
            dual_ineq,
            dual_eq,
            tuple(tableau.basis),
            tableau.pivots,
            phase1,
            tableau.pivots - phase1,
            tableau.degenerate,
        )

    tableau.set_cost([Fraction(0)] * art_start + [Fraction(1)] * n_rows)
    tableau.run()
    if -tableau.cost_rhs > 0:
        return result("infeasible", tableau.pivots)
    for i in range(n_rows):
        if tableau.basis[i] >= art_start:
            for j in range(art_start):
                if tableau.rows[i][j] != 0:
                    tableau.pivot(i, j)
                    break
    phase1 = tableau.pivots

    tableau.set_cost([Fraction(v) for v in objective])
    if tableau.run() == "unbounded":
        return result("unbounded", phase1)

    values = [Fraction(0)] * nv
    for i, b in enumerate(tableau.basis):
        if b < nv:
            values[b] = tableau.rhs[i]
    duals = [signs[i] * tableau.cost[art_start + i] for i in range(n_rows)]
    return result(
        "optimal",
        phase1,
        -tableau.cost_rhs,
        tuple(values),
        tuple(duals[:n_ineq]),
        tuple(duals[n_ineq:]),
    )
