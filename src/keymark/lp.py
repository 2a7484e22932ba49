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

solve() first tries a certificate that needs no simplex (McConnell,
Mehlhorn, Näher & Schweitzer, "Certifying algorithms", 2011): construction
A's cells and key marginal on the columns of their keys in the problem's
own key list as the primal, and the bound 1 - sum min(alpha/T, px) as the
dual.  It is taken only when every key of the construction is listed, the
primal meets every row of the problem as given, and check_dual accepts the
dual at the primal's value, each checked on ints over a common
denominator.  Any other LP, such as a bijective one or one edited after
build_primal, runs the simplex on the full LP, whose optimum is returned
only once its dual passes check_dual with the optimum as its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .construct_a import construct_a, listed_keys
from .core import (
    ExplicitKeySet,
    KeySet,
    KeyVector,
    SparseKey,
    TokenDistribution,
    check_instance,
    check_listing,
    exact_int,
    exact_rational,
)
from .errors import CapacityError, ParameterError, SolverError, ValidationError
from .rationals import common_numerators, common_scale, mass_to_string
from .simplex import simplex_solve

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
    increasing column order; nkeys is the size of the key set, and keys
    holds each key's sparse form, by key index, as build_primal listed it.
    solve() places construction A's keys on columns through keys.
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
    keys: tuple[SparseKey, ...] = ()

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
    """values and dual index the columns and rows of the LP.  solved_variables
    and solved_rows give the size of the LP that the simplex ran, the full
    one.  pivots is the total; the phase counts and degenerate (ratio 0)
    pivots are the simplex telemetry of SimplexResult.  When the closed-form
    certificate proves the optimum, no simplex runs, and the solved sizes
    and every pivot count are 0."""

    status: str
    objective: Fraction
    values: tuple[Fraction, ...]
    dual: "DualCertificate | None"
    solved_variables: int
    solved_rows: int
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
    alpha, t = check_instance(px, alpha, t)
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
    keys = tuple(keyset.sparse_key(k) for k in range(nz))
    for k, pairs in enumerate(keys):
        for pos, value in pairs:
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
        keys=keys,
    )


def solve(problem: LpProblem) -> LpSolution:
    """The closed-form certificate when it checks (see the module
    docstring), else the simplex on the full LP.  A simplex optimum is
    returned only once its dual passes check_dual with the optimum as its
    value; otherwise SolverError is raised.  On either route, a float or
    bool coefficient raises ParameterError before anything is solved."""
    data_common, scale = _data_scale(problem)
    certified = _closed_form(problem, data_common, scale)
    if certified is not None:
        value, values, dual = certified
        return LpSolution("optimal", value, values, dual, 0, 0, 0, 0, 0, 0)
    result = simplex_solve(
        problem.objective, problem.ineq, problem.ineq_rhs, problem.eq, problem.eq_rhs
    )
    dual = None
    if result.status == "optimal":
        dual = DualCertificate(result.dual_ineq, result.dual_eq)
        feasible, value = _check_scaled_dual(problem, dual, data_common, scale)
        if not feasible or value != result.objective:
            raise SolverError(
                f"dual certificate rejected: feasible={feasible}, value "
                f"{mass_to_string(value)} against lp optimum "
                f"{mass_to_string(result.objective)}"
            )
    return LpSolution(
        status=result.status,
        objective=result.objective,
        values=result.values,
        dual=dual,
        solved_variables=problem.nvars,
        solved_rows=len(problem.ineq) + len(problem.eq),
        pivots=result.pivots,
        phase1_pivots=result.phase1_pivots,
        phase2_pivots=result.phase2_pivots,
        degenerate_pivots=result.degenerate_pivots,
    )


def _closed_form(
    problem: LpProblem, data_common: int, scale: Mapping[int, int]
) -> tuple[Fraction, tuple[Fraction, ...], DualCertificate] | None:
    """(optimum, values, dual) from construction A and the closed-form
    dual, or None unless the construction's keys are all listed, its
    primal meets every row exactly and check_dual accepts the dual at the
    primal's value; data_common and scale are the problem's _data_scale.
    A key list of another size than the reduced key set's that lacks a key
    the construction lists returns None before any table is built."""
    n, t, nz = problem.n, problem.t, problem.nkeys
    shape = (len(problem.keys), problem.nvars, len(problem.ineq), len(problem.eq))
    if shape != (nz, t * n * nz + nz + 1, t + n, t * n + t * nz):
        return None
    column = {pairs: k for k, pairs in enumerate(problem.keys)}
    px = TokenDistribution(problem.px)
    try:
        # A list the size of the reduced key set takes the view's check
        # below; any other is checked key by key first, with no table built.
        if nz != math.perm(n, t) + 1 and any(
            pairs not in column for pairs in listed_keys(px, problem.alpha, t)
        ):
            return None
        scheme = construct_a(px, problem.alpha, t)
    except (CapacityError, ParameterError, ValidationError):
        return None
    view = scheme.decoded
    if any(pairs not in column for pairs in view.keys.values()):
        return None
    # The primal as ints over the view's denominator; t is the largest
    # off-decode mass of a message, which the view has summed.
    common = view.denominator
    values = [0] * problem.nvars
    for table in scheme.tables:
        for idx, x, mass in table.cells():
            j = ((table.m - 1) * n + x - 1) * nz + column[view.keys[idx]]
            values[j] = mass.numerator * (common // mass.denominator)
    for idx, mass in scheme.pz.items():
        values[t * n * nz + column[view.keys[idx]]] = mass.numerator * (common // mass.denominator)
    values[-1] = max(view.missed)
    if min(values) < 0:
        return None
    slack = [
        b.numerator * scale[b.denominator] * common - _scaled_dot(row.items(), values, scale)
        for row, b in zip((*problem.ineq, *problem.eq), (*problem.ineq_rhs, *problem.eq_rhs))
    ]
    if min(slack[: len(problem.ineq)]) < 0 or any(slack[len(problem.ineq) :]):
        return None
    value = Fraction(_scaled_dot(enumerate(problem.objective), values, scale), data_common * common)
    dual = _closed_form_dual(problem)
    if _check_scaled_dual(problem, dual, data_common, scale) != (True, value):
        return None
    zero = Fraction(0)
    return value, tuple(Fraction(v, common) if v else zero for v in values), dual


def _closed_form_dual(problem: LpProblem) -> DualCertificate:
    """The bound 1 - sum_x min(alpha/T, px(x)) as an LP dual on the
    problem's own key list.  With x heavy when px(x) > alpha/T: y(miss_m)
    = 1/T, y(cap_x) = 1/T and z(col_{m,x}) = -1/T for heavy x,
    z(bal_{m,k}) = 1/T when key k puts m on a heavy token, 0 elsewhere."""
    n, t, nz = problem.n, problem.t, problem.nkeys
    share, zero = Fraction(1, t), Fraction(0)
    heavy = [p * t > problem.alpha for p in problem.px]
    y = (share,) * t + tuple(share if h else zero for h in heavy)
    z = [-share if h else zero for _ in range(t) for h in heavy] + [zero] * (t * nz)
    for k, pairs in enumerate(problem.keys):
        for pos, m in pairs:
            if heavy[pos]:
                z[t * n + (m - 1) * nz + k] = share
    return DualCertificate(y, tuple(z))


def _data_scale(problem: LpProblem) -> tuple[int, dict[int, int]]:
    """The LCM D of every coefficient, objective and right-hand-side
    denominator of the problem, and the map d -> D // d.  Each number must
    be an int or a Fraction; a float or a bool raises ParameterError."""
    groups = [row.values() for row in (*problem.ineq, *problem.eq)]
    groups += [problem.objective, problem.ineq_rhs, problem.eq_rhs]
    for kind in {type(v) for group in groups for v in group} - {Fraction, int}:
        raise ParameterError(f"LP coefficient must be an int or a Fraction, got {kind.__name__}")
    return common_scale({v.denominator for group in groups for v in group})


def _scaled_dot(
    entries: Iterable[tuple[int, Fraction]], ints: Sequence[int], scale: Mapping[int, int]
) -> int:
    """sum of a * ints[j] * D over the (j, a) with ints[j] != 0, D behind scale."""
    total = 0
    for j, a in entries:
        v = ints[j]
        if v:
            total += a.numerator * scale[a.denominator] * v
    return total


def check_dual(problem: LpProblem, cert: DualCertificate) -> tuple[bool, Fraction]:
    """Exact dual feasibility (-A'y - E'z <= d, y >= 0) and value -y.b - z.c.

    Every entry must be an int or a Fraction; a float or a bool raises
    ParameterError.  A'y + E'z and the value are taken as ints over one
    common denominator, the product of the duals' and the problem's."""
    if len(cert.y) != len(problem.ineq):
        raise ParameterError(f"y has {len(cert.y)} entries, expected {len(problem.ineq)}")
    if len(cert.z) != len(problem.eq):
        raise ParameterError(f"z has {len(cert.z)} entries, expected {len(problem.eq)}")
    return _check_scaled_dual(problem, cert, *_data_scale(problem))


def _check_scaled_dual(
    problem: LpProblem, cert: DualCertificate, data_common: int, scale: Mapping[int, int]
) -> tuple[bool, Fraction]:
    """check_dual with the problem's _data_scale already taken."""
    duals, dual_common = common_numerators(
        [exact_rational(v, "dual entry") for v in (*cert.y, *cert.z)]
    )
    # A'y + E'z, over each nonzero dual's row once, and y.b + z.c.
    weighted = [0] * problem.nvars
    for row, u in zip((*problem.ineq, *problem.eq), duals):
        if u:
            for j, a in row.items():
                weighted[j] += a.numerator * scale[a.denominator] * u
    bound = _scaled_dot(enumerate((*problem.ineq_rhs, *problem.eq_rhs)), duals, scale)
    feasible = min(duals[: len(cert.y)], default=0) >= 0 and all(
        -w <= d.numerator * scale[d.denominator] * dual_common
        for w, d in zip(weighted, problem.objective)
    )
    return feasible, Fraction(-bound, dual_common * data_common)


BASE_BIJECTIVE_3_2: tuple[KeyVector, ...] = ((1, 2, 0), (0, 1, 2), (2, 0, 1), (0, 0, 0))


def bijective_keyset(
    n: int, t: int, seed_list: Sequence[Sequence[int]] | None = None
) -> ExplicitKeySet:
    """Key set whose nonzero keys pairwise never repeat a (token, message) pair
    and individually never repeat a message: a Latin-square-style family.

    Built-in families exist for n == t and n == t + 1 (cyclic rows); any other
    size requires an explicit seed_list.
    """
    n, t = exact_int(n, "n"), exact_int(t, "t")
    if seed_list is not None:
        keys = [tuple(exact_int(v, "key entry") for v in key) for key in seed_list]
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
