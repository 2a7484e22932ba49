import random
from fractions import Fraction as F

import pytest

from keymark.errors import SolverError
from keymark.simplex import SimplexResult, simplex_solve


def sparse(rows):
    """Dense literal rows as the {column: coefficient} maps the solver takes."""
    return [{j: a for j, a in enumerate(row) if a != 0} for row in rows]


def solve_dense(objective, ineq_rows, ineq_rhs, eq_rows, eq_rhs) -> SimplexResult:
    return simplex_solve(objective, sparse(ineq_rows), ineq_rhs, sparse(eq_rows), eq_rhs)


def verify_certificates(objective, ineq_rows, ineq_rhs, eq_rows, eq_rhs, res: SimplexResult) -> None:
    """Primal feasibility, dual feasibility, and strong duality, all exact."""
    v = res.values
    assert all(x >= 0 for x in v)
    for row, b in zip(ineq_rows, ineq_rhs):
        assert sum(a * x for a, x in zip(row, v)) <= b
    for row, c in zip(eq_rows, eq_rhs):
        assert sum(a * x for a, x in zip(row, v)) == c
    assert sum(d * x for d, x in zip(objective, v)) == res.objective

    y, z = res.dual_ineq, res.dual_eq
    assert all(yi >= 0 for yi in y)
    for j, d in enumerate(objective):
        lhs = -sum(y[i] * ineq_rows[i][j] for i in range(len(ineq_rows))) - sum(
            z[i] * eq_rows[i][j] for i in range(len(eq_rows))
        )
        assert lhs <= d
    dual_value = -sum(yi * bi for yi, bi in zip(y, ineq_rhs)) - sum(
        zi * ci for zi, ci in zip(z, eq_rhs)
    )
    assert dual_value == res.objective


def test_single_inequality() -> None:
    objective = [F(-1), F(-1)]
    ineq = [[F(1), F(1)]]
    res = solve_dense(objective, ineq, [F(1)], [], [])
    assert res.status == "optimal"
    assert res.objective == F(-1)
    assert sum(res.values) == 1
    verify_certificates(objective, ineq, [F(1)], [], [], res)


def test_single_equality() -> None:
    objective = [F(1), F(2)]
    eq = [[F(1), F(1)]]
    res = solve_dense(objective, [], [], eq, [F(1)])
    assert res.status == "optimal"
    assert res.objective == F(1)
    assert res.values == (F(1), F(0))
    verify_certificates(objective, [], [], eq, [F(1)], res)


def test_mixed_constraints() -> None:
    # min 2x + 3y with x + y >= 2 (as -x - y <= -2) and y <= 5.
    objective = [F(2), F(3)]
    ineq = [[F(-1), F(-1)], [F(0), F(1)]]
    rhs = [F(-2), F(5)]
    res = solve_dense(objective, ineq, rhs, [], [])
    assert res.status == "optimal"
    assert res.objective == F(4)
    assert res.values == (F(2), F(0))
    verify_certificates(objective, ineq, rhs, [], [], res)


def test_negative_equality_rhs() -> None:
    # x - y = -3 and x + y = 5 pin (1, 4); duals survive the sign flip.
    objective = [F(1), F(0)]
    eq = [[F(1), F(-1)], [F(1), F(1)]]
    rhs = [F(-3), F(5)]
    res = solve_dense(objective, [], [], eq, rhs)
    assert res.status == "optimal"
    assert res.values == (F(1), F(4))
    verify_certificates(objective, [], [], eq, rhs, res)


def test_beale_degenerate_cycle_guard() -> None:
    # Beale's classic cycling LP; Bland's rule must terminate at -1/20.
    objective = [F(-3, 4), F(150), F(-1, 50), F(6)]
    ineq = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    rhs = [F(0), F(0), F(1)]
    res = solve_dense(objective, ineq, rhs, [], [])
    assert res.status == "optimal"
    assert res.objective == F(-1, 20)
    assert res.values == (F(1, 25), F(0), F(1), F(0))
    verify_certificates(objective, ineq, rhs, [], [], res)


def test_infeasible_inequality() -> None:
    res = solve_dense([F(1)], [[F(1)]], [F(-1)], [], [])
    assert res.status == "infeasible"


def test_infeasible_equalities() -> None:
    res = solve_dense([F(1)], [], [], [[F(1)], [F(1)]], [F(2), F(3)])
    assert res.status == "infeasible"


def test_unbounded() -> None:
    res = solve_dense([F(-1), F(0)], [[F(1), F(-1)]], [F(1)], [], [])
    assert res.status == "unbounded"


def test_no_constraints_rejected() -> None:
    with pytest.raises(SolverError):
        simplex_solve([F(1)], [], [], [], [])


def test_right_hand_side_count_mismatch_rejected() -> None:
    with pytest.raises(SolverError, match="right-hand side"):
        simplex_solve([F(1)], [{0: F(1)}, {0: F(1)}], [F(1)], [{0: F(1)}], [F(1), F(1)])
    with pytest.raises(SolverError, match="right-hand side"):
        simplex_solve([F(1)], [], [], [{0: F(1)}], [])


def test_column_outside_range_rejected() -> None:
    for column in (-1, 2, 5):
        with pytest.raises(SolverError, match="outside"):
            simplex_solve([F(1), F(1)], [{column: F(1)}], [F(1)], [], [])
        with pytest.raises(SolverError, match="outside"):
            simplex_solve([F(1), F(1)], [], [], [{0: F(1), column: F(1)}], [F(1)])


def test_degenerate_equalities_with_redundancy() -> None:
    # Duplicated equality rows leave a basic artificial at zero; the solver
    # must still produce a correct optimum and a feasible dual.
    objective = [F(1), F(1)]
    eq = [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(1), F(2)]
    res = solve_dense(objective, [], [], eq, rhs)
    assert res.status == "optimal"
    assert res.objective == F(1)
    verify_certificates(objective, [], [], eq, rhs, res)


def test_random_lps_satisfy_certificates() -> None:
    rng = random.Random(5)
    optimal_seen = 0
    for _ in range(300):
        nv = rng.randint(1, 4)
        n_ineq = rng.randint(0, 3)
        n_eq = rng.randint(0 if n_ineq else 1, 2)
        objective = [F(rng.randint(-3, 3)) for _ in range(nv)]
        ineq = [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(n_ineq)]
        ineq_rhs = [F(rng.randint(-2, 4)) for _ in range(n_ineq)]
        eq = [[F(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(n_eq)]
        eq_rhs = [F(rng.randint(-2, 4)) for _ in range(n_eq)]
        res = solve_dense(objective, ineq, ineq_rhs, eq, eq_rhs)
        assert res.status in ("optimal", "infeasible", "unbounded")
        if res.status == "optimal":
            optimal_seen += 1
            verify_certificates(objective, ineq, ineq_rhs, eq, eq_rhs, res)
    assert optimal_seen > 50
