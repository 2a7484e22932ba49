"""Exact LP for the smallest worst-case miss rate over a fixed key set.

Variables are the per-message table entries (message-major, token-major,
key-fastest), then the key marginal, then the epigraph scalar t; the
objective minimizes t.  Inequalities: one miss-rate row per message
(off-decode mass minus t at most 0) followed by one cap row per token
(marked key mass at most alpha).  Equalities: column sums equal px per
(message, token), then row sums minus the key marginal equal 0 per
(message, key).  On the full reduced key set the optimum equals the
closed-form 1 - sum min(alpha/T, px); on restricted key sets it can be
strictly larger, which a feasible dual certificate can prove from below.

Constraint rows are sparse {column: coefficient} maps filled from each
key's nonzero (position, value) pairs; the exact simplex, the dual check
and the LP text export all read them in that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    ExplicitKeySet,
    KeySet,
    KeyVector,
    TokenDistribution,
    check_listing,
    exact_rational,
)
from .errors import ParameterError
from .rationals import mass_to_string
from .simplex import SimplexResult, simplex_solve

__all__ = [
    "VARIABLE_CAP",
    "LpProblem",
    "LpSolution",
    "DualCertificate",
    "build_primal",
    "solve",
    "check_dual",
    "bijective_keyset",
    "export_lp_text",
]

# Most LP table variables that build_primal lists; the limit is fixed.
VARIABLE_CAP = 10**5


@dataclass(frozen=True)
class LpProblem:
    """min objective . v  s.t.  ineq . v <= ineq_rhs,  eq . v = eq_rhs,  v >= 0.

    Each constraint row maps a column index to its nonzero coefficient, in
    increasing column order; nkeys is the size of the key set.
    """

    n: int
    t: int
    alpha: Fraction
    px: tuple[Fraction, ...]
    nkeys: int
    objective: tuple[Fraction, ...]
    ineq: tuple[Mapping[int, Fraction], ...]
    ineq_rhs: tuple[Fraction, ...]
    eq: tuple[Mapping[int, Fraction], ...]
    eq_rhs: tuple[Fraction, ...]

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def var_name(self, j: int) -> str:
        nz = self.nkeys
        if j < self.t * self.n * nz:
            m, rest = divmod(j, self.n * nz)
            x, k = divmod(rest, nz)
            return f"p_m{m + 1}_x{x + 1}_k{k}"
        j -= self.t * self.n * nz
        if j < nz:
            return f"z_k{j}"
        return "t"

    def row_name(self, i: int, equality: bool) -> str:
        if not equality:
            return f"miss_m{i + 1}" if i < self.t else f"cap_x{i - self.t + 1}"
        if i < self.t * self.n:
            m, x = divmod(i, self.n)
            return f"col_m{m + 1}_x{x + 1}"
        m, k = divmod(i - self.t * self.n, self.nkeys)
        return f"bal_m{m + 1}_k{k}"


@dataclass(frozen=True)
class LpSolution:
    """pivots is the total; the phase counts and degenerate (ratio 0)
    pivots are the simplex telemetry of SimplexResult."""

    status: str
    objective: Fraction
    values: tuple[Fraction, ...]
    basis: tuple[int, ...]
    dual: "DualCertificate | None"
    pivots: int
    phase1_pivots: int
    phase2_pivots: int
    degenerate_pivots: int


@dataclass(frozen=True)
class DualCertificate:
    """(y, z) with y >= 0; claims objective -y.b - z.c from below."""

    y: tuple[Fraction, ...]
    z: tuple[Fraction, ...]


def build_primal(
    px: TokenDistribution,
    alpha: Fraction,
    t: int,
    keyset: KeySet,
) -> LpProblem:
    alpha = exact_rational(alpha, "alpha")
    if not 0 <= alpha < 1:
        raise ParameterError(f"alpha={alpha} outside [0,1)")
    n = px.n
    if keyset.length != n:
        raise ParameterError(f"key length {keyset.length} != token count {n}")
    if keyset.t != t:
        raise ParameterError(f"key set carries t={keyset.t}, requested {t}")
    nz = keyset.size
    table_vars = t * n * nz
    nvars = table_vars + nz + 1
    check_listing(table_vars, "table variables", VARIABLE_CAP)

    def pm(m: int, x: int, k: int) -> int:
        return ((m - 1) * n + (x - 1)) * nz + k

    pz_base = table_vars
    t_var = table_vars + nz
    zero = Fraction(0)
    one = Fraction(1)
    minus_one = Fraction(-1)

    # Row m of the miss block covers every (x, k) of message m except the
    # cells where key k decodes token x to m; dropping those keeps the
    # remaining columns in increasing order.
    miss = [dict.fromkeys(range(pm(m, 1, 0), pm(m + 1, 1, 0)), one) for m in range(1, t + 1)]
    cap: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for k in range(nz):
        for pos, value in keyset.sparse_key(k):
            del miss[value - 1][pm(value, pos + 1, k)]
            cap[pos][pz_base + k] = one
    for row in miss:
        row[t_var] = minus_one
    ineq = (*miss, *cap)
    ineq_rhs = (zero,) * t + (alpha,) * n

    eq: list[dict[int, Fraction]] = []
    for m in range(1, t + 1):
        for x in range(1, n + 1):
            eq.append(dict.fromkeys(range(pm(m, x, 0), pm(m, x, nz)), one))
    for m in range(1, t + 1):
        for k in range(nz):
            row = {pm(m, x, k): one for x in range(1, n + 1)}
            row[pz_base + k] = minus_one
            eq.append(row)
    eq_rhs = px.probs * t + (zero,) * (t * nz)

    objective = [zero] * nvars
    objective[t_var] = one
    return LpProblem(
        n=n,
        t=t,
        alpha=alpha,
        px=px.probs,
        nkeys=nz,
        objective=tuple(objective),
        ineq=ineq,
        ineq_rhs=ineq_rhs,
        eq=tuple(eq),
        eq_rhs=eq_rhs,
    )


def solve(problem: LpProblem) -> LpSolution:
    result: SimplexResult = simplex_solve(
        problem.objective, problem.ineq, problem.ineq_rhs, problem.eq, problem.eq_rhs
    )
    dual = None
    if result.status == "optimal":
        dual = DualCertificate(result.dual_ineq, result.dual_eq)
    return LpSolution(
        status=result.status,
        objective=result.objective,
        values=result.values,
        basis=result.basis,
        dual=dual,
        pivots=result.pivots,
        phase1_pivots=result.phase1_pivots,
        phase2_pivots=result.phase2_pivots,
        degenerate_pivots=result.degenerate_pivots,
    )


def check_dual(problem: LpProblem, cert: DualCertificate) -> tuple[bool, Fraction]:
    """Exact dual feasibility (-A'y - E'z <= d, y >= 0) and value -y.b - z.c."""
    if len(cert.y) != len(problem.ineq):
        raise ParameterError(
            f"y has {len(cert.y)} entries, expected {len(problem.ineq)}"
        )
    if len(cert.z) != len(problem.eq):
        raise ParameterError(f"z has {len(cert.z)} entries, expected {len(problem.eq)}")
    feasible = all(v >= 0 for v in cert.y)
    if feasible:
        # A'y + E'z, accumulated over each row's nonzeros once.
        weighted = [Fraction(0)] * problem.nvars
        for rows, duals in ((problem.ineq, cert.y), (problem.eq, cert.z)):
            for row, dual in zip(rows, duals):
                if dual:
                    for j, coeff in row.items():
                        weighted[j] += coeff * dual
        feasible = all(-w <= d for w, d in zip(weighted, problem.objective))
    value = -sum(
        (y * b for y, b in zip(cert.y, problem.ineq_rhs)), Fraction(0)
    ) - sum((z * c for z, c in zip(cert.z, problem.eq_rhs)), Fraction(0))
    return feasible, value


BASE_BIJECTIVE_3_2: tuple[KeyVector, ...] = ((1, 2, 0), (0, 1, 2), (2, 0, 1), (0, 0, 0))


def bijective_keyset(
    n: int, t: int, seed_list: Sequence[Sequence[int]] | None = None
) -> ExplicitKeySet:
    """Key set whose nonzero keys pairwise never repeat a (token, message) pair
    and individually never repeat a message: a Latin-square-style family.

    Built-in families exist for n == t and n == t + 1 (cyclic rows); any other
    size requires an explicit seed_list.
    """
    if seed_list is not None:
        keys = [tuple(int(v) for v in key) for key in seed_list]
    elif (n, t) == (3, 2):
        keys = list(BASE_BIJECTIVE_3_2)
    elif n == t:
        keys = [tuple((i + r) % t + 1 for i in range(n)) for r in range(n)]
        keys.append((0,) * n)
    elif n == t + 1:
        keys = [tuple((i + r) % (t + 1) for i in range(n)) for r in range(n)]
        keys.append((0,) * n)
    else:
        raise ParameterError(
            f"no built-in bijective family for n={n}, t={t}; pass seed_list"
        )
    seen_pairs: set[tuple[int, int]] = set()
    for key in keys:
        if len(key) != n:
            raise ParameterError(f"key {key} does not have length {n}")
        nonzero = [v for v in key if v != 0]
        if len(set(nonzero)) != len(nonzero):
            raise ParameterError(f"key {key} repeats a message")
        for x, value in enumerate(key, start=1):
            if value != 0:
                if (x, value) in seen_pairs:
                    raise ParameterError(
                        f"(token {x}, message {value}) appears in two keys"
                    )
                seen_pairs.add((x, value))
    return ExplicitKeySet(keys, t, kind="bijective")


def _lp_number(value: Fraction) -> str:
    text = mass_to_string(value)
    if "/" in text:
        return repr(float(value))
    return text


def export_lp_text(problem: LpProblem) -> str:
    """CPLEX-LP-style text; non-decimal rationals fall back to float repr."""
    exact = all(
        "/" not in mass_to_string(v)
        for v in (*problem.ineq_rhs, *problem.eq_rhs, *problem.objective)
    )
    lines = []
    if not exact:
        lines.append("\\ some coefficients are inexact decimal approximations")
    lines.append("Minimize")
    terms = [
        f"{_lp_number(c)} {problem.var_name(j)}"
        for j, c in enumerate(problem.objective)
        if c != 0
    ]
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")

    def render(row: Mapping[int, Fraction]) -> str:
        parts: list[str] = []
        for j, coeff in sorted(row.items()):
            if coeff == 0:
                continue
            name = problem.var_name(j)
            if coeff == 1:
                parts.append(f"+ {name}")
            elif coeff == -1:
                parts.append(f"- {name}")
            elif coeff > 0:
                parts.append(f"+ {_lp_number(coeff)} {name}")
            else:
                parts.append(f"- {_lp_number(-coeff)} {name}")
        return " ".join(parts)

    for i, (row, b) in enumerate(zip(problem.ineq, problem.ineq_rhs)):
        lines.append(f" {problem.row_name(i, False)}: {render(row)} <= {_lp_number(b)}")
    for i, (row, c) in enumerate(zip(problem.eq, problem.eq_rhs)):
        lines.append(f" {problem.row_name(i, True)}: {render(row)} = {_lp_number(c)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
