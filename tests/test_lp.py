import dataclasses
import functools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import keymark.lp as lp_module
from keymark.core import (
    ExplicitKeySet,
    JointTable,
    TokenDistribution,
    WatermarkScheme,
    enumerate_reduced_keyset,
)
from keymark.errors import CapacityError, ParameterError, SolverError
from keymark.lp import (
    DualCertificate,
    bijective_keyset,
    build_primal,
    check_dual,
    export_lp_text,
    solve,
)
from keymark.metrics import optimal_value
from keymark.simplex import simplex_solve

PX_SKEWED = TokenDistribution.from_strings(["0.01", "0.04", "0.95"])
ALPHA_SKEWED = F(99, 100)


def full_problem():
    return build_primal(PX_SKEWED, ALPHA_SKEWED, 2, enumerate_reduced_keyset(3, 2))


def bijective_problem():
    return build_primal(PX_SKEWED, ALPHA_SKEWED, 2, bijective_keyset(3, 2))


def dense_rows(problem, keyset):
    """Reference: every constraint row as a full-width vector, built from
    each key's full vector the way the LP is written on paper."""
    n, t, nz, nvars = problem.n, problem.t, keyset.size, problem.nvars
    keys = [keyset.key(i) for i in range(nz)]

    def pm(m, x, k):
        return ((m - 1) * n + (x - 1)) * nz + k

    pz_base, t_var = t * n * nz, t * n * nz + nz
    ineq, eq = [], []
    for m in range(1, t + 1):
        row = [F(0)] * nvars
        for x in range(1, n + 1):
            for k, key in enumerate(keys):
                if key[x - 1] != m:
                    row[pm(m, x, k)] = F(1)
        row[t_var] = F(-1)
        ineq.append(row)
    for x in range(1, n + 1):
        row = [F(0)] * nvars
        for k, key in enumerate(keys):
            if key[x - 1] != 0:
                row[pz_base + k] = F(1)
        ineq.append(row)
    for m in range(1, t + 1):
        for x in range(1, n + 1):
            row = [F(0)] * nvars
            for k in range(nz):
                row[pm(m, x, k)] = F(1)
            eq.append(row)
    for m in range(1, t + 1):
        for k in range(nz):
            row = [F(0)] * nvars
            for x in range(1, n + 1):
                row[pm(m, x, k)] = F(1)
            row[pz_base + k] = F(-1)
            eq.append(row)
    return ineq, eq


def dense_check_dual(problem, ineq, eq, cert):
    """Reference: dual feasibility column by column, summed over every row."""
    feasible = all(v >= 0 for v in cert.y)
    if feasible:
        for j in range(problem.nvars):
            lhs = -sum((row[j] * y for row, y in zip(ineq, cert.y)), F(0)) - sum(
                (row[j] * z for row, z in zip(eq, cert.z)), F(0)
            )
            if lhs > problem.objective[j]:
                feasible = False
                break
    value = -sum((y * b for y, b in zip(cert.y, problem.ineq_rhs)), F(0)) - sum(
        (z * c for z, c in zip(cert.z, problem.eq_rhs)), F(0)
    )
    return feasible, value


def densify(row, nvars):
    dense = [F(0)] * nvars
    for j, coeff in row.items():
        dense[j] = coeff
    return dense


def full_simplex(problem):
    return simplex_solve(problem.objective, problem.ineq, problem.ineq_rhs, problem.eq, problem.eq_rhs)


def closed_form_counts(solution):
    """The solved sizes and pivot counts, all 0 when no simplex ran."""
    return (
        solution.solved_variables,
        solution.solved_rows,
        solution.pivots,
        solution.phase1_pivots,
        solution.phase2_pivots,
        solution.degenerate_pivots,
    )


SMALL_SHAPES = [(n, t) for n in range(1, 5) for t in range(1, min(n, 3) + 1)]


@pytest.mark.parametrize(("n", "t", "kind"), [(n, t, "reduced") for n, t in SMALL_SHAPES] + [(3, 2, "bijective")])
def test_sparse_rows_match_dense_reference(n: int, t: int, kind: str) -> None:
    px = PX_SKEWED if n == 3 else TokenDistribution.from_fractions([F(1, n)] * n)
    keyset = enumerate_reduced_keyset(n, t) if kind == "reduced" else bijective_keyset(n, t)
    problem = build_primal(px, F(1, 2), t, keyset)
    ineq, eq = dense_rows(problem, keyset)
    for sparse, dense in ((problem.ineq, ineq), (problem.eq, eq)):
        assert len(sparse) == len(dense)
        for row, reference in zip(sparse, dense):
            assert list(row) == sorted(row)
            assert all(coeff != 0 for coeff in row.values())
            assert densify(row, problem.nvars) == reference


@functools.cache
def check_dual_case(which: int):
    """A problem, its optimal dual and its dense reference rows."""
    keyset = enumerate_reduced_keyset(3, 2) if which == 0 else bijective_keyset(3, 2)
    problem = build_primal(PX_SKEWED, ALPHA_SKEWED, 2, keyset)
    return problem, solve(problem).dual, *dense_rows(problem, keyset)


SMALL_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 1),
    lam=st.fractions(min_value=0, max_value=1, max_denominator=6),
    moves=st.lists(st.tuples(st.booleans(), st.integers(0, 40), SMALL_FRACTIONS), max_size=4),
)
@example(which=0, lam=F(1), moves=[])
@example(which=1, lam=F(1, 2), moves=[])
@example(which=1, lam=F(1), moves=[(False, 0, F(-2))])
@example(which=0, lam=F(1), moves=[(True, 0, F(-1))])
def test_check_dual_matches_dense_formula(which: int, lam: F, moves) -> None:
    # Scaled optimal duals are feasible; the moves shift single entries and
    # mostly make them infeasible, through the columns or through y < 0.
    problem, optimum, ineq, eq = check_dual_case(which)
    y = [lam * v for v in optimum.y]
    z = [lam * v for v in optimum.z]
    for in_y, index, delta in moves:
        target = y if in_y else z
        target[index % len(target)] += delta
    cert = DualCertificate(tuple(y), tuple(z))
    assert check_dual(problem, cert) == dense_check_dual(problem, ineq, eq, cert)


def test_dimensions_full_keyset() -> None:
    problem = full_problem()
    assert problem.nvars == 3 * 2 * 7 + 7 + 1 == 50
    assert len(problem.ineq) == 2 + 3
    assert len(problem.eq) == 2 * 3 + 2 * 7


def test_dimensions_bijective_keyset() -> None:
    problem = bijective_problem()
    assert problem.nvars == 29
    assert len(problem.ineq) == 5
    assert len(problem.eq) == 14
    assert problem.ineq_rhs == (F(0), F(0), ALPHA_SKEWED, ALPHA_SKEWED, ALPHA_SKEWED)
    assert problem.eq_rhs[:3] == PX_SKEWED.probs
    assert problem.eq_rhs[3:6] == PX_SKEWED.probs
    assert set(problem.eq_rhs[6:]) == {F(0)}


def test_variable_and_row_names() -> None:
    problem = bijective_problem()
    assert problem.var_name(0) == "p_m1_x1_k0"
    assert problem.var_name(3 * 4 + 1) == "p_m2_x1_k1"
    assert problem.var_name(2 * 3 * 4) == "z_k0"
    assert problem.var_name(28) == "t"
    assert problem.row_name(0, False) == "miss_m1"
    assert problem.row_name(2, False) == "cap_x1"
    assert problem.row_name(0, True) == "col_m1_x1"
    assert problem.row_name(6, True) == "bal_m1_k0"


def test_lp_matches_formula_on_full_keyset() -> None:
    problem = full_problem()
    solution = solve(problem)
    assert solution.status == "optimal"
    assert solution.objective == F(91, 200)
    assert solution.objective == optimal_value(PX_SKEWED, ALPHA_SKEWED, 2)
    feasible, value = check_dual(problem, solution.dual)
    assert feasible
    assert value == solution.objective


def test_lp_bijective_keyset_strictly_worse() -> None:
    solution = solve(bijective_problem())
    assert solution.status == "optimal"
    assert solution.objective > F(91, 200)
    assert solution.objective == F(47, 100)


# The benchmark's lp-cert LP set: reduced n=5, 4, 3 at T=2 on the 1/100
# grid with alpha=3/4, and the bijective instance.
LP_CERT_SET = (
    (("0.06", "0.13", "0.2", "0.27", "0.34"), F(3, 4), "reduced"),
    (("0.1", "0.2", "0.3", "0.4"), F(3, 4), "reduced"),
    (("0.2", "0.3", "0.5"), F(3, 4), "reduced"),
    (("0.01", "0.04", "0.95"), ALPHA_SKEWED, "bijective"),
)


@pytest.mark.parametrize("texts, alpha, kind", LP_CERT_SET)
def test_solver_telemetry_adds_up_on_lp_cert(texts, alpha, kind) -> None:
    # The reduced LPs are certified in closed form, with every count 0; the
    # simplex telemetry is then read from simplex_solve on the same full LP.
    px = TokenDistribution.from_strings(texts)
    keyset = enumerate_reduced_keyset(px.n, 2) if kind == "reduced" else bijective_keyset(px.n, 2)
    problem = build_primal(px, alpha, 2, keyset)
    solution = telemetry = solve(problem)
    assert solution.status == "optimal"
    if kind == "reduced":
        assert closed_form_counts(solution) == (0,) * 6
        telemetry = full_simplex(problem)
        assert telemetry.objective == solution.objective
    assert telemetry.pivots == telemetry.phase1_pivots + telemetry.phase2_pivots
    assert telemetry.phase1_pivots > 0 and telemetry.phase2_pivots > 0
    assert 0 <= telemetry.degenerate_pivots <= telemetry.pivots
    assert check_dual(problem, solution.dual) == (True, solution.objective)


def test_lp_matches_formula_spot_instances() -> None:
    cases = [
        (["0.2", "0.3", "0.5"], F(1, 2), 2),
        (["0.25", "0.75"], F(3, 10), 1),
        (["0.1", "0.2", "0.3", "0.4"], F(3, 5), 3),
    ]
    for texts, alpha, t in cases:
        px = TokenDistribution.from_strings(texts)
        problem = build_primal(px, alpha, t, enumerate_reduced_keyset(px.n, t))
        solution = solve(problem)
        assert solution.status == "optimal"
        assert solution.objective == optimal_value(px, alpha, t)
        feasible, value = check_dual(problem, solution.dual)
        assert feasible and value == solution.objective


def test_lp_infeasible_column_target() -> None:
    problem = full_problem()
    rhs = list(problem.eq_rhs)
    rhs[0] = F(2)
    broken = dataclasses.replace(problem, eq_rhs=tuple(rhs))
    # Construction A's primal misses the changed row, so the simplex runs
    # the full LP.
    solution = solve(broken)
    assert solution.status == "infeasible"
    assert solution.solved_variables == broken.nvars


def assert_optimal_for_full_lp(problem, solution) -> None:
    """The values satisfy A.v <= b, E.v = c and v >= 0 exactly and reach
    the optimum, and the dual certifies it."""
    v = solution.values
    assert len(v) == problem.nvars and all(x >= 0 for x in v)
    for row, b in zip(problem.ineq, problem.ineq_rhs):
        assert sum(a * v[j] for j, a in row.items()) <= b
    for row, c in zip(problem.eq, problem.eq_rhs):
        assert sum(a * v[j] for j, a in row.items()) == c
    assert sum(d * x for d, x in zip(problem.objective, v)) == solution.objective
    assert check_dual(problem, solution.dual) == (True, solution.objective)


def reduced_listed(n: int, t: int) -> ExplicitKeySet:
    """The reduced key set, listed explicitly in reverse order."""
    return ExplicitKeySet(reversed(list(enumerate_reduced_keyset(n, t))), t)


def ramp(n: int) -> TokenDistribution:
    """px proportional to 1..n."""
    return TokenDistribution.from_fractions([F(i, n * (n + 1) // 2) for i in range(1, n + 1)])


def assert_closed_form_matches_simplex(problem) -> None:
    """solve() certifies the LP with no pivot, and its optimum equals the
    simplex optimum of the full LP and the closed form."""
    solution = solve(problem)
    assert solution.status == "optimal"
    assert closed_form_counts(solution) == (0,) * 6
    result = full_simplex(problem)
    assert result.status == "optimal" and result.pivots > 0
    px = TokenDistribution.from_fractions(problem.px)
    assert solution.objective == result.objective == optimal_value(px, problem.alpha, problem.t)
    assert_optimal_for_full_lp(problem, solution)


# Every reduced shape n <= 5, T <= 3 on px proportional to 1..n, the
# lp-cert LPs, and the reduced set listed in reverse at every shape n <= 4.
REDUCED_CASES = [
    (ramp(n), F(1, 2), t, "reduced") for n, t in SMALL_SHAPES if t >= 2
] + [
    (TokenDistribution.from_strings(texts), alpha, 2, kind)
    for texts, alpha, kind in LP_CERT_SET
    if kind == "reduced"
] + [
    (TokenDistribution.from_strings(["0.1", "0.2", "0.3", "0.4"]), F(3, 5), 3, "listed"),
    (PX_SKEWED, ALPHA_SKEWED, 2, "listed"),
] + [
    (ramp(n), F(1, 2), t, "reduced") for n, t in [(n, 1) for n in range(1, 6)] + [(5, 2), (5, 3)]
] + [
    (ramp(n), F(1, 3), t, "listed") for n, t in SMALL_SHAPES
]


@pytest.mark.parametrize("px, alpha, t, kind", REDUCED_CASES)
def test_quotient_agrees_with_full_lp(px, alpha, t, kind) -> None:
    """solve() certifies the reduced LP in closed form, with the optimum of
    the simplex on the full LP."""
    keyset = enumerate_reduced_keyset(px.n, t) if kind == "reduced" else reduced_listed(px.n, t)
    problem = build_primal(px, alpha, t, keyset)
    assert_closed_form_matches_simplex(problem)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 20]), min_size=1, max_size=4).filter(any),
    t=st.integers(1, 3),
    alpha=st.one_of(
        st.fractions(min_value=0, max_value=F(1, 50), max_denominator=1000),
        st.fractions(min_value=F(49, 50), max_value=F(999, 1000), max_denominator=1000),
        st.fractions(min_value=0, max_value=F(99, 100), max_denominator=100),
    ),
)
@example(weights=[0, 1, 0], t=2, alpha=F(0))
@example(weights=[1, 0, 0, 20], t=3, alpha=F(999, 1000))
def test_closed_form_matches_simplex_on_drawn_instances(weights, t, alpha) -> None:
    # Zero-mass tokens, and alpha near 0 and near 1.
    t = min(t, len(weights))
    px = TokenDistribution.from_fractions([F(w, sum(weights)) for w in weights])
    assert_closed_form_matches_simplex(build_primal(px, alpha, t, enumerate_reduced_keyset(px.n, t)))


def test_problem_keys_follow_the_key_set() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    problem = build_primal(TokenDistribution.from_fractions([F(1, 4)] * 4), F(1, 2), 3, keyset)
    assert problem.keys == tuple(keyset.sparse_key(k) for k in range(keyset.size))
    listed = reduced_listed(3, 2)
    problem = build_primal(PX_SKEWED, F(1, 2), 2, listed)
    assert problem.keys == tuple(
        tuple((pos, v) for pos, v in enumerate(key) if v) for key in listed
    )
    # A key set without one of construction A's keys runs the simplex.
    keys = list(enumerate_reduced_keyset(3, 2))
    keys.remove((0, 2, 1))
    problem = build_primal(PX_SKEWED, F(1, 2), 2, ExplicitKeySet(keys, 2))
    solution = solve(problem)
    assert solution.solved_variables == problem.nvars and solution.pivots > 0
    assert solution.objective == full_simplex(problem).objective


@pytest.mark.parametrize(("n", "t"), [(3, 2), (3, 3)])
def test_unclosed_key_sets_solve_the_full_lp(n: int, t: int) -> None:
    # Construction A's keys are not all bijective ones, so the simplex runs.
    px = PX_SKEWED if t == 2 else TokenDistribution.from_strings(["0.2", "0.3", "0.5"])
    problem = build_primal(px, ALPHA_SKEWED, t, bijective_keyset(n, t))
    solution = solve(problem)
    result = full_simplex(problem)
    assert (solution.solved_variables, solution.solved_rows) == (
        problem.nvars,
        len(problem.ineq) + len(problem.eq),
    )
    assert (solution.status, solution.objective, solution.values) == (
        result.status,
        result.objective,
        result.values,
    )
    assert solution.dual == DualCertificate(result.dual_ineq, result.dual_eq)
    assert (solution.pivots, solution.phase1_pivots, solution.degenerate_pivots) == (
        result.pivots,
        result.phase1_pivots,
        result.degenerate_pivots,
    )


def test_edited_problem_runs_the_simplex() -> None:
    # A looser cap on the heavy token leaves construction A's primal
    # feasible, but the closed-form dual's value no longer matches it.
    problem = full_problem()
    rhs = list(problem.ineq_rhs)
    rhs[-1] = F(1)
    edited = dataclasses.replace(problem, ineq_rhs=tuple(rhs))
    solution = solve(edited)
    result = full_simplex(edited)
    assert solution.solved_variables == edited.nvars and solution.pivots == result.pivots > 0
    assert solution.objective == result.objective < solve(problem).objective
    assert check_dual(edited, solution.dual) == (True, solution.objective)


def test_closed_form_exits_before_building_tables(monkeypatch) -> None:
    # The bijective key list lacks a key that construction A lists, so the
    # closed form gives up before construct_a builds a table or a decoded
    # view; the full simplex then runs as before.
    expected = solve(bijective_problem())
    built = []
    real = lp_module.construct_a

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lp_module, "construct_a", counted)
    solution = solve(bijective_problem())
    assert built == []
    assert (solution.objective, solution.values, solution.dual) == (
        expected.objective,
        expected.values,
        expected.dual,
    )
    assert solution.pivots == expected.pivots > 0
    # A reduced key list holds every key, so the tables are built.
    solve(full_problem())
    assert len(built) == 1


def test_closed_form_refuses_negative_masses(monkeypatch) -> None:
    # Moving 1/200 around four cells of message 1 that do not decode to 1
    # keeps every row of the LP and the value, but leaves two masses < 0.
    real = lp_module.construct_a

    def shifted(px, alpha, t):
        scheme = real(px, alpha, t)
        rows = {k: dict(row) for k, row in scheme.tables[0].rows.items()}
        other = scheme.keyset.sparse_index(((0, 2), (2, 1)))
        for key, token, sign in ((0, 1, 1), (0, 2, -1), (other, 1, -1), (other, 2, 1)):
            rows[key][token] = rows[key].get(token, 0) + sign * F(1, 200)
        tables = (JointTable(1, rows), *scheme.tables[1:])
        return WatermarkScheme.assemble(alpha, px, scheme.keyset, tables, {}, scheme.sparse_keys)

    monkeypatch.setattr(lp_module, "construct_a", shifted)
    solution = solve(full_problem())
    assert solution.objective == F(91, 200) and solution.pivots > 0


def test_tampered_duals_are_rejected(monkeypatch) -> None:
    real_simplex, real_dual = lp_module.simplex_solve, lp_module._closed_form_dual

    def tampered_dual(problem):
        dual = real_dual(problem)
        return dataclasses.replace(dual, y=(dual.y[0] + 1, *dual.y[1:]))

    def tampered_simplex(*lp):
        result = real_simplex(*lp)
        return dataclasses.replace(result, dual_ineq=(result.dual_ineq[0] + 1, *result.dual_ineq[1:]))

    # A tampered closed-form dual is not taken: the simplex runs instead.
    monkeypatch.setattr(lp_module, "_closed_form_dual", tampered_dual)
    solution = solve(full_problem())
    assert solution.objective == F(91, 200) and solution.pivots > 0
    # With the simplex's dual tampered too, no certificate is left.
    monkeypatch.setattr(lp_module, "simplex_solve", tampered_simplex)
    for problem in (full_problem(), bijective_problem()):
        with pytest.raises(SolverError, match="dual certificate rejected"):
            solve(problem)


def test_reduced_certificate_six_tokens_three_messages() -> None:
    px = ramp(6)
    problem = build_primal(px, F(1, 2), 3, enumerate_reduced_keyset(6, 3))
    solution = solve(problem)
    assert problem.nvars == 2300
    assert closed_form_counts(solution) == (0,) * 6
    assert solution.objective == optimal_value(px, F(1, 2), 3)
    assert_optimal_for_full_lp(problem, solution)


def test_reduced_certificate_eight_tokens_four_messages() -> None:
    px = ramp(8)
    problem = build_primal(px, F(1, 2), 4, enumerate_reduced_keyset(8, 4))
    solution = solve(problem)
    assert problem.nvars == 55_474
    assert closed_form_counts(solution) == (0,) * 6
    assert solution.objective == optimal_value(px, F(1, 2), 4) == F(2, 9)
    assert_optimal_for_full_lp(problem, solution)


def test_check_dual_zero_certificate() -> None:
    problem = bijective_problem()
    cert = DualCertificate(
        (F(0),) * len(problem.ineq), (F(0),) * len(problem.eq)
    )
    feasible, value = check_dual(problem, cert)
    assert feasible
    assert value == 0


def test_check_dual_dimension_mismatch() -> None:
    problem = bijective_problem()
    with pytest.raises(ParameterError):
        check_dual(problem, DualCertificate((F(0),), (F(0),) * 14))
    with pytest.raises(ParameterError):
        check_dual(problem, DualCertificate((F(0),) * 5, (F(0),) * 13))


def test_check_dual_rejects_floats_and_bools() -> None:
    px = TokenDistribution.from_strings(["0.2", "0.3", "0.5"])
    problem = build_primal(px, F(3, 4), 2, enumerate_reduced_keyset(3, 2))
    dual = solve(problem).dual
    rounded = DualCertificate(tuple(map(float, dual.y)), tuple(map(float, dual.z)))
    with pytest.raises(ParameterError, match="dual entry must be an int or a Fraction, got float"):
        check_dual(problem, rounded)
    flagged = DualCertificate((True, *dual.y[1:]), dual.z)
    with pytest.raises(ParameterError, match="got bool"):
        check_dual(problem, flagged)
    assert check_dual(problem, dual) == (True, F(1, 8))
    # A float in the problem itself is refused the same way, by solve on
    # either route: the reduced LP's closed form and the bijective LP's
    # simplex.  A direct simplex_solve call raises SolverError instead.
    for lp in (problem, bijective_problem()):
        edited = dataclasses.replace(lp, ineq_rhs=(*lp.ineq_rhs[:-1], 0.75))
        zero = DualCertificate((0,) * len(lp.ineq), (0,) * len(lp.eq))
        for call in (lambda: check_dual(edited, zero), lambda: solve(edited)):
            with pytest.raises(ParameterError, match="LP coefficient must be an int or a Fraction, got float"):
                call()
        with pytest.raises(SolverError, match="float"):
            simplex_solve(edited.objective, edited.ineq, edited.ineq_rhs, edited.eq, edited.eq_rhs)


def test_check_dual_rejects_negative_y() -> None:
    problem = bijective_problem()
    cert = DualCertificate(
        (F(-1), F(0), F(0), F(0), F(0)), (F(0),) * 14
    )
    feasible, _ = check_dual(problem, cert)
    assert not feasible


def test_weak_duality_for_scaled_certificates() -> None:
    # Scaling a feasible certificate toward zero keeps it feasible because
    # the objective vector is non-negative; values stay below the optimum.
    problem = full_problem()
    solution = solve(problem)
    for num, den in [(0, 1), (1, 3), (1, 2), (9, 10), (1, 1)]:
        lam = F(num, den)
        cert = DualCertificate(
            tuple(lam * y for y in solution.dual.y),
            tuple(lam * z for z in solution.dual.z),
        )
        feasible, value = check_dual(problem, cert)
        assert feasible
        assert value == lam * solution.objective
        assert value <= solution.objective


def test_hand_derived_certificate_evaluates_below_optimum() -> None:
    # A hand-derived candidate certificate for this instance comes one z
    # entry short of the 14 equality rows; zero-padding the tail and scoring
    # it under this row order (miss rows before cap rows, column equalities
    # before balance equalities) gives -0.455, well below the true optimum
    # 0.47.  Weak duality is the only promise a candidate carries; the
    # binding value is the solver's own exact optimum.
    problem = bijective_problem()
    y = (F(1, 2), F(1, 2), F(0), F(0), F(0))
    z_entries = [
        F(0), F(-1, 2), F(1, 2),
        F(0), F(0), F(0), F(0),
        F(1, 2),
        F(0), F(0), F(0),
        F(-1, 2), F(0),
    ]
    cert = DualCertificate(y, tuple(z_entries + [F(0)]))
    feasible, value = check_dual(problem, cert)
    assert value == F(-91, 200)
    assert value != F(47, 100)
    if feasible:
        assert value <= solve(problem).objective


def test_build_primal_validation() -> None:
    with pytest.raises(ParameterError):
        build_primal(PX_SKEWED, F(1), 2, enumerate_reduced_keyset(3, 2))
    with pytest.raises(ParameterError):
        build_primal(PX_SKEWED, F(1, 2), 2, enumerate_reduced_keyset(4, 2))
    with pytest.raises(ParameterError):
        build_primal(PX_SKEWED, F(1, 2), 3, enumerate_reduced_keyset(3, 2))


def test_build_primal_variable_cap() -> None:
    # n=20, T=3: 3 * 20 * (perm(20, 3) + 1) = 410,460 table variables.
    px = TokenDistribution.from_fractions([F(1, 20)] * 20)
    with pytest.raises(CapacityError, match="410460 table variables"):
        build_primal(px, F(1, 2), 3, enumerate_reduced_keyset(20, 3))
    # n=8, T=2 is 2 * 8 * 57 = 912 variables, well inside the cap.
    px = TokenDistribution.from_fractions([F(1, 8)] * 8)
    assert build_primal(px, F(1, 2), 2, enumerate_reduced_keyset(8, 2)).nvars == 912 + 57 + 1
    # More keys than len() can count still ends in the typed error.
    px = TokenDistribution.from_fractions([F(1, 100)] * 100)
    with pytest.raises(CapacityError):
        build_primal(px, F(1, 2), 10, enumerate_reduced_keyset(100, 10))


def test_bijective_keyset_builtin_three_two() -> None:
    ks = bijective_keyset(3, 2)
    assert list(ks) == [(1, 2, 0), (0, 1, 2), (2, 0, 1), (0, 0, 0)]
    assert ks.kind == "bijective"
    assert ks.t == 2


@pytest.mark.parametrize(
    ("n", "t"),
    [(2, 2), (3, 3), (4, 4), (5, 5), (3, 2), (4, 3), (5, 4)],
)
def test_bijective_families_verified_exhaustively(n: int, t: int) -> None:
    ks = bijective_keyset(n, t)
    seen_pairs: set[tuple[int, int]] = set()
    zero_keys = 0
    for key in ks:
        nonzero = [(x, v) for x, v in enumerate(key, start=1) if v != 0]
        if not nonzero:
            zero_keys += 1
            continue
        messages = [v for _, v in nonzero]
        assert len(set(messages)) == len(messages)
        assert set(messages) <= set(range(1, t + 1))
        for pair in nonzero:
            assert pair not in seen_pairs
            seen_pairs.add(pair)
    assert zero_keys == 1


def test_bijective_keyset_seed_list_and_errors() -> None:
    ks = bijective_keyset(4, 2, seed_list=[(1, 2, 0, 0), (0, 0, 1, 2), (0, 0, 0, 0)])
    assert len(ks) == 3
    with pytest.raises(ParameterError, match="repeats"):
        bijective_keyset(3, 2, seed_list=[(1, 1, 0)])
    with pytest.raises(ParameterError, match="two keys"):
        bijective_keyset(3, 2, seed_list=[(1, 2, 0), (1, 0, 2)])
    with pytest.raises(ParameterError, match="length"):
        bijective_keyset(3, 2, seed_list=[(1, 2)])
    with pytest.raises(ParameterError, match="no built-in"):
        bijective_keyset(5, 2)


def test_export_lp_text() -> None:
    problem = bijective_problem()
    text = export_lp_text(problem)
    assert text.startswith("Minimize")
    assert " obj: 1 t" in text
    assert "Subject To" in text
    assert "miss_m1:" in text
    assert "cap_x3:" in text
    assert "col_m2_x3:" in text
    assert "bal_m2_k3:" in text
    assert text.rstrip().endswith("End")
    # All data here is decimal-exact, so no approximation banner appears.
    assert "inexact" not in text


def test_export_lp_text_flags_inexact_numbers() -> None:
    px = TokenDistribution.from_fractions([F(1, 3), F(2, 3)])
    problem = build_primal(px, F(1, 2), 1, enumerate_reduced_keyset(2, 1))
    text = export_lp_text(problem)
    assert "inexact" in text.splitlines()[0]
