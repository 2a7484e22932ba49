"""Self-contained exact simplex over rationals.

Solves  min d.v  s.t.  A.v <= b,  E.v = c,  v >= 0  with a dense two-phase
tableau and Bland's entering/leaving rule, so cycling is impossible and
every reported number is an exact fractions.Fraction.  Each constraint row
arrives as a sparse {column: coefficient} map and is scattered into the
tableau.

Artificial columns are kept (banned from entering) through phase 2: they
hold the running basis inverse, which yields the dual vector at optimality
for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import SolverError

__all__ = ["SimplexResult", "simplex_solve"]

MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class SimplexResult:
    """status is one of optimal / infeasible / unbounded.

    values, dual_ineq, dual_eq, and objective are meaningful only at
    status=optimal.  dual conventions: y >= 0, objective = -y.b - z.c,
    feasibility -A'y - E'z <= d.  basis lists the basic variable of each
    tableau row (slack and artificial indices included).
    """

    status: str
    objective: Fraction
    values: tuple[Fraction, ...]
    dual_ineq: tuple[Fraction, ...]
    dual_eq: tuple[Fraction, ...]
    basis: tuple[int, ...]
    pivots: int


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
        if self.pivots > MAX_PIVOTS:
            raise SolverError(f"pivot budget {MAX_PIVOTS} exhausted")
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
        """Bland's rule: smallest negative-reduced-cost column enters; the
        eligible row whose basic variable has the smallest index leaves.
        Artificial columns never enter."""
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


def simplex_solve(
    objective: Sequence[Fraction],
    ineq_rows: Sequence[Mapping[int, Fraction]],
    ineq_rhs: Sequence[Fraction],
    eq_rows: Sequence[Mapping[int, Fraction]],
    eq_rhs: Sequence[Fraction],
) -> SimplexResult:
    """Each row maps a column index in [0, len(objective)) to its coefficient;
    absent columns are zero."""
    nv = len(objective)
    n_ineq, n_eq = len(ineq_rows), len(eq_rows)
    n_rows = n_ineq + n_eq
    if n_rows == 0:
        raise SolverError("no constraints")
    if len(ineq_rhs) != n_ineq or len(eq_rhs) != n_eq:
        raise SolverError("each constraint row needs exactly one right-hand side")
    art_start = nv + n_ineq
    ncols = art_start + n_rows

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    signs: list[int] = []
    for i, (src, b) in enumerate(zip((*ineq_rows, *eq_rows), (*ineq_rhs, *eq_rhs))):
        # A row with a negative right-hand side is negated, slack included,
        # so that its artificial starts the basis at a non-negative value.
        sign = -1 if b < 0 else 1
        row = [Fraction(0)] * ncols
        for col, value in src.items():
            if not 0 <= col < nv:
                raise SolverError(f"row {i} has column {col} outside [0, {nv})")
            row[col] = sign * Fraction(value)
        if i < n_ineq:
            row[nv + i] = Fraction(sign)
        row[art_start + i] = Fraction(1)
        rows.append(row)
        rhs.append(sign * Fraction(b))
        signs.append(sign)

    tableau = _Tableau(rows, rhs, art_start)
    phase1 = [Fraction(0)] * art_start + [Fraction(1)] * n_rows
    tableau.set_cost(phase1)
    status = tableau.run()
    if status != "optimal":
        raise SolverError("phase 1 reported unbounded, which is impossible")
    if -tableau.cost_rhs > 0:
        return SimplexResult(
            "infeasible", Fraction(0), (), (), (), tuple(tableau.basis), tableau.pivots
        )
    for i in range(n_rows):
        if tableau.basis[i] >= art_start:
            for j in range(art_start):
                if tableau.rows[i][j] != 0:
                    tableau.pivot(i, j)
                    break

    tableau.set_cost([Fraction(v) for v in objective])
    status = tableau.run()
    if status == "unbounded":
        return SimplexResult(
            "unbounded", Fraction(0), (), (), (), tuple(tableau.basis), tableau.pivots
        )

    values = [Fraction(0)] * nv
    for i, b in enumerate(tableau.basis):
        if b < nv:
            values[b] = tableau.rhs[i]
    duals = [signs[i] * tableau.cost[art_start + i] for i in range(n_rows)]
    return SimplexResult(
        "optimal",
        -tableau.cost_rhs,
        tuple(values),
        tuple(duals[:n_ineq]),
        tuple(duals[n_ineq:]),
        tuple(tableau.basis),
        tableau.pivots,
    )
