"""Self-contained exact simplex over rationals.

Solves  min d.v  s.t.  A.v <= b,  E.v = c,  v >= 0  with a dense two-phase
tableau and Bland's entering/leaving rule, so cycling is impossible and
every reported number is an exact fractions.Fraction.  Each constraint row
arrives as a sparse {column: coefficient} map and is scattered into the
tableau.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968): each
constraint row is scaled to integers by the lcm of its denominators, and
every entry is then a Python int over one shared positive determinant.  A
pivot is one cross-multiplication and an exact division per entry, so no
rational is normalised inside the pivot loop.  The scaling changes no sign
and no ratio of the rational tableau, so the pivots are those of the plain
rational tableau with Bland's rule, one for one.

Artificial columns are kept (banned from entering) through phase 2: they
hold the running basis inverse, which yields the dual vector at optimality
for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .core import exact_rational
from .errors import ParameterError, SolverError

__all__ = ["SimplexResult", "simplex_solve"]

MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class SimplexResult:
    """status is one of optimal / infeasible / unbounded.

    values, dual_ineq, dual_eq, and objective are meaningful only at
    status=optimal.  dual conventions: y >= 0, objective = -y.b - z.c,
    feasibility -A'y - E'z <= d.  basis lists the basic variable of each
    tableau row (slack and artificial indices included).  pivots is the
    total of phase1_pivots (artificial drive-out included) and
    phase2_pivots; degenerate_pivots counts the pivots whose ratio was 0.
    """

    status: str
    objective: Fraction
    values: tuple[Fraction, ...]
    dual_ineq: tuple[Fraction, ...]
    dual_eq: tuple[Fraction, ...]
    basis: tuple[int, ...]
    pivots: int
    phase1_pivots: int
    phase2_pivots: int
    degenerate_pivots: int


class _Tableau:
    """Entry k of row i is rows[i][k] / det in the rational tableau of the
    row-scaled LP, rhs[i] / det its right-hand side, and cost[k] /
    (det * cost_scale) the reduced cost of column k."""

    def __init__(self, rows: list[list[int]], rhs: list[int], art_start: int):
        self.rows = rows
        self.rhs = rhs
        self.art_start = art_start
        self.ncols = len(rows[0])
        self.basis = list(range(art_start, art_start + len(rows)))
        self.det = 1
        self.cost = [0] * self.ncols
        self.cost_rhs = 0
        self.cost_scale = 1
        self.pivots = 0
        self.degenerate = 0

    def set_cost(self, coeffs: Sequence[Fraction]) -> None:
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        ints += [0] * (self.ncols - len(ints))
        det = self.det
        cost = [det * c for c in ints]
        cost_rhs = 0
        for i, b in enumerate(self.basis):
            cb = ints[b]
            if cb:
                cost = [c - cb * a for c, a in zip(cost, self.rows[i])]
                cost_rhs -= cb * self.rhs[i]
        self.cost, self.cost_rhs, self.cost_scale = cost, cost_rhs, scale

    def pivot(self, r: int, j: int) -> None:
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise SolverError(f"pivot budget {MAX_PIVOTS} exhausted")
        if self.rhs[r] == 0:
            self.degenerate += 1
        row, rhs, det = self.rows[r], self.rhs, self.det
        p, b = row[j], rhs[r]
        # Up to one common sign, every new entry is an entry of
        # adj(B)[A | b] for the new basis matrix B of the integer-scaled LP
        # (for the cost row, of det(B)*cs*c - (cs*c_B)*adj(B)A, with cs*c
        # integer).  So it is an integer, and each // below divides exactly
        # (Sylvester's identity; Bareiss 1968).  Row r stays as it is, and
        # p becomes the determinant.  When p == det, the new entry is
        # a - f*e/det, with f*e a multiple of det: it changes only where the
        # pivot row's entry e is nonzero, so only those columns are
        # rewritten, in place.
        sparse = p == det
        if sparse:
            support = [k for k, e in enumerate(row) if e]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[j]
            if f:
                if sparse:
                    for k in support:
                        other[k] -= f * row[k] // det
                else:
                    self.rows[i] = [(p * a - f * e) // det for a, e in zip(other, row)]
                rhs[i] = (p * rhs[i] - f * b) // det
            elif not sparse:
                self.rows[i] = [p * a // det for a in other]
                rhs[i] = p * rhs[i] // det
        f = self.cost[j]
        if sparse:
            cost = self.cost
            for k in support:
                cost[k] -= f * row[k] // det
        else:
            self.cost = [(p * a - f * e) // det for a, e in zip(self.cost, row)]
        self.cost_rhs = (p * self.cost_rhs - f * b) // det
        if p < 0:
            # Only the artificial drive-out pivots on a negative entry.
            # Negating the whole tableau keeps det positive, so the sign of
            # an integer entry is the sign of the rational one.
            self.rows = [[-a for a in other] for other in self.rows]
            self.rhs = [-a for a in rhs]
            self.cost = [-a for a in self.cost]
            self.cost_rhs = -self.cost_rhs
            p = -p
        self.det = p
        self.basis[r] = j

    def run(self) -> str:
        """Bland's rule: smallest negative-reduced-cost column enters; the
        eligible row whose basic variable has the smallest index leaves.
        Artificial columns never enter."""
        while True:
            enter = -1
            cost = self.cost
            for j in range(self.art_start):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best_rhs = best_coeff = 0
            for i, row in enumerate(self.rows):
                coeff = row[enter]
                if coeff > 0:
                    # rhs[i]/coeff against best_rhs/best_coeff, both
                    # denominators positive; det cancels.
                    lhs, rhs = self.rhs[i] * best_coeff, best_rhs * coeff
                    if leave < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        best_rhs, best_coeff = self.rhs[i], coeff
                        leave = i
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter)


def _rational(value: object) -> Fraction:
    try:
        return exact_rational(value, "LP coefficient")
    except ParameterError as exc:
        raise SolverError(str(exc)) from None


def simplex_solve(
    objective: Sequence[Fraction],
    ineq_rows: Sequence[Mapping[int, Fraction]],
    ineq_rhs: Sequence[Fraction],
    eq_rows: Sequence[Mapping[int, Fraction]],
    eq_rhs: Sequence[Fraction],
) -> SimplexResult:
    """Each row maps a column index in [0, len(objective)) to its coefficient;
    absent columns are zero.  Every number must be an int or a Fraction."""
    nv = len(objective)
    n_ineq, n_eq = len(ineq_rows), len(eq_rows)
    n_rows = n_ineq + n_eq
    if n_rows == 0:
        raise SolverError("no constraints")
    if len(ineq_rhs) != n_ineq or len(eq_rhs) != n_eq:
        raise SolverError("each constraint row needs exactly one right-hand side")
    art_start = nv + n_ineq
    ncols = art_start + n_rows
    costs = [_rational(v) for v in objective]

    rows: list[list[int]] = []
    rhs: list[int] = []
    signs: list[int] = []
    scales: list[int] = []
    for i, (src, b) in enumerate(zip((*ineq_rows, *eq_rows), (*ineq_rhs, *eq_rhs))):
        b = _rational(b)
        entries = {}
        for col, value in src.items():
            if not 0 <= col < nv:
                raise SolverError(f"row {i} has column {col} outside [0, {nv})")
            entries[col] = _rational(value)
        # A row with a negative right-hand side is negated, slack included,
        # so that its artificial starts the basis at a non-negative value.
        # The row is then scaled by s, the lcm of its denominators; its
        # artificial keeps coefficient 1 and so stands for s times the
        # unscaled one.
        sign = -1 if b < 0 else 1
        scale = lcm(b.denominator, *(v.denominator for v in entries.values()))
        row = [0] * ncols
        for col, value in entries.items():
            row[col] = sign * value.numerator * (scale // value.denominator)
        if i < n_ineq:
            row[nv + i] = sign * scale
        row[art_start + i] = 1
        rows.append(row)
        rhs.append(sign * b.numerator * (scale // b.denominator))
        signs.append(sign)
        scales.append(scale)

    tableau = _Tableau(rows, rhs, art_start)
    # Cost 1/s on each scaled artificial makes phase 1 minimise the sum of
    # the unscaled artificials, so it follows the same pivots.
    tableau.set_cost([Fraction(0)] * art_start + [Fraction(1, s) for s in scales])
    if tableau.run() != "optimal":
        raise SolverError("phase 1 reported unbounded, which is impossible")
    status, phase1_pivots = "infeasible", tableau.pivots
    if tableau.cost_rhs >= 0:
        for i in range(n_rows):
            if tableau.basis[i] >= art_start:
                for j in range(art_start):
                    if tableau.rows[i][j] != 0:
                        tableau.pivot(i, j)
                        break
        phase1_pivots = tableau.pivots
        tableau.set_cost(costs)
        status = tableau.run()

    value, values, duals = Fraction(0), (), ()
    if status == "optimal":
        det, denominator = tableau.det, tableau.det * tableau.cost_scale
        value = Fraction(-tableau.cost_rhs, denominator)
        primal = [Fraction(0)] * nv
        for i, b in enumerate(tableau.basis):
            if b < nv:
                primal[b] = Fraction(tableau.rhs[i], det)
        values = tuple(primal)
        duals = tuple(
            Fraction(signs[i] * scales[i] * tableau.cost[art_start + i], denominator)
            for i in range(n_rows)
        )
    return SimplexResult(
        status,
        value,
        values,
        duals[:n_ineq],
        duals[n_ineq:],
        tuple(tableau.basis),
        tableau.pivots,
        phase1_pivots,
        tableau.pivots - phase1_pivots,
        tableau.degenerate,
    )
