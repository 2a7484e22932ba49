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

Relabelling messages and key values together by any sigma in S_T maps
column (m, x, k) to (sigma m, x, sigma o k), z_k to z_(sigma o k), fixes t,
and maps rows the same way.  When the key set is closed under it, the LP
is invariant, so it has an optimum constant on each column orbit (Bödi,
Herr & Joswig 2013).  solve() then runs the simplex on the orbit quotient
(one variable per column orbit, one collapsed row per row orbit) and
lifts the solution back.  Either way, solve() accepts an optimum only once
its dual passes check_dual on the full LP with the optimum as its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    ExplicitKeySet,
    KeySet,
    KeyVector,
    SparseKey,
    TokenDistribution,
    check_instance,
    check_listing,
    exact_int,
)
from .errors import ParameterError, SolverError
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
    increasing column order; nkeys is the size of the key set.  When t >= 2
    and the key set is closed under relabelling messages, key_images holds
    the index of every key's image under the transposition (1 2) and under
    the cycle (1 2 ... t), which generate S_t; otherwise it is None.
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
    key_images: tuple[tuple[int, ...], tuple[int, ...]] | None = None

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
    """values and dual index the columns and rows of the full LP, also when
    the simplex ran on the orbit quotient.  solved_variables and solved_rows
    give the size of the LP that the simplex ran.  pivots is the total; the
    phase counts and degenerate (ratio 0) pivots are the simplex telemetry
    of SimplexResult."""

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
    keys = [keyset.sparse_key(k) for k in range(nz)]
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
        key_images=_key_images(keyset, keys) if t >= 2 else None,
    )


def _generators(t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(1 2) and (1 2 ... t) as lookup tables on key values; 0 stays 0."""
    return (0, 2, 1, *range(3, t + 1)), (0, *range(2, t + 1), 1)


def _key_images(
    keyset: KeySet, keys: Sequence[SparseKey]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Index of each key's image under each generator, or None as soon as
    one image is missing from the key set."""
    try:
        return tuple(
            tuple(keyset.sparse_index((pos, g[v]) for pos, v in pairs) for pairs in keys)
            for g in _generators(keyset.t)
        )
    except KeyError:
        return None


def _orbits(perms: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """The orbit of each point under the group that perms generate, and the
    points of each orbit; orbits are numbered by their smallest point, which
    comes first in its list."""
    label = [-1] * len(perms[0])
    members: list[list[int]] = []
    for start in range(len(label)):
        if label[start] < 0:
            label[start] = len(members)
            orbit = [start]
            for point in orbit:
                for perm in perms:
                    image = perm[point]
                    if label[image] < 0:
                        label[image] = len(members)
                        orbit.append(image)
            members.append(orbit)
    return label, members


def _symmetry(problem: LpProblem) -> list[tuple[list[int], list[int], list[int]]] | None:
    """Images of every column, inequality row and equality row under each
    generator, or None unless the problem is invariant under both: the
    objective and right-hand sides are constant on orbits, and each row's
    image is the row its columns map to."""
    if problem.key_images is None:
        return None
    n, t, nz = problem.n, problem.t, problem.nkeys
    messages = range(1, t + 1)
    maps = []
    for g, img in zip(_generators(t), problem.key_images):
        if sorted(img) != list(range(nz)):
            return None
        cols = [((g[m] - 1) * n + x) * nz + i for m in messages for x in range(n) for i in img]
        cols += [t * n * nz + i for i in img]
        cols.append(t * n * nz + nz)
        ineq = [g[m] - 1 for m in messages] + list(range(t, t + n))
        eq = [(g[m] - 1) * n + x for m in messages for x in range(n)]
        eq += [t * n + (g[m] - 1) * nz + i for m in messages for i in img]
        if any(problem.objective[cols[j]] != c for j, c in enumerate(problem.objective)):
            return None
        for rows, rhs, images in (
            (problem.ineq, problem.ineq_rhs, ineq),
            (problem.eq, problem.eq_rhs, eq),
        ):
            for row, b, image in zip(rows, rhs, images):
                if rhs[image] != b or rows[image] != {cols[j]: a for j, a in row.items()}:
                    return None
        maps.append((cols, ineq, eq))
    return maps


def _solve_quotient(
    problem: LpProblem, maps: list[tuple[list[int], list[int], list[int]]]
) -> tuple[SimplexResult, tuple[Fraction, ...], "DualCertificate | None", int, int]:
    """Simplex on the orbit quotient: variable O stands for the common value
    of the columns in orbit O, so a row or the objective gives O the sum of
    its coefficients on O.  The rows of one orbit collapse to the same row,
    and one is kept.  The lifted dual spreads y_R evenly over the |R| rows
    of orbit R, which makes each full reduced cost the quotient one divided
    by the size of the column orbit, and keeps the value."""
    col_orbit, col_members = _orbits([cols for cols, _, _ in maps])
    objective = [sum((problem.objective[j] for j in orbit), Fraction(0)) for orbit in col_members]

    def collapse(rows, rhs, images):
        row_orbit, row_members = _orbits(images)
        collapsed = []
        for orbit in row_members:
            row: dict[int, Fraction] = {}
            for j, a in rows[orbit[0]].items():
                row[col_orbit[j]] = row.get(col_orbit[j], 0) + a
            collapsed.append({o: a for o, a in row.items() if a})
        sizes = [len(row_members[o]) for o in row_orbit]
        return collapsed, [rhs[orbit[0]] for orbit in row_members], row_orbit, sizes

    ineq, ineq_rhs, ineq_orbit, ineq_sizes = collapse(
        problem.ineq, problem.ineq_rhs, [ineq for _, ineq, _ in maps]
    )
    eq, eq_rhs, eq_orbit, eq_sizes = collapse(problem.eq, problem.eq_rhs, [eq for _, _, eq in maps])
    result = simplex_solve(objective, ineq, ineq_rhs, eq, eq_rhs)
    values: tuple[Fraction, ...] = ()
    dual = None
    if result.status == "optimal":
        values = tuple(result.values[o] for o in col_orbit)
        dual = DualCertificate(
            tuple(result.dual_ineq[o] / size for o, size in zip(ineq_orbit, ineq_sizes)),
            tuple(result.dual_eq[o] / size for o, size in zip(eq_orbit, eq_sizes)),
        )
    return result, values, dual, len(objective), len(ineq) + len(eq)


def solve(problem: LpProblem) -> LpSolution:
    """Run the simplex on the orbit quotient when the problem is invariant
    under relabelling messages, and on the full LP otherwise.  An optimum
    is returned only once its dual passes check_dual on the full LP with
    the simplex optimum as its value; otherwise SolverError is raised."""
    maps = _symmetry(problem)
    if maps is not None:
        result, values, dual, variables, rows = _solve_quotient(problem, maps)
    else:
        result = simplex_solve(
            problem.objective, problem.ineq, problem.ineq_rhs, problem.eq, problem.eq_rhs
        )
        values, dual = result.values, None
        if result.status == "optimal":
            dual = DualCertificate(result.dual_ineq, result.dual_eq)
        variables, rows = problem.nvars, len(problem.ineq) + len(problem.eq)
    if dual is not None:
        feasible, value = check_dual(problem, dual)
        if not feasible or value != result.objective:
            raise SolverError(
                f"dual certificate rejected: feasible={feasible}, value "
                f"{mass_to_string(value)} against lp optimum "
                f"{mass_to_string(result.objective)}"
            )
    return LpSolution(
        status=result.status,
        objective=result.objective,
        values=values,
        dual=dual,
        solved_variables=variables,
        solved_rows=rows,
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
