import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from simplex_reference import reference_solve

import keymark.simplex as simplex_module
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


def test_float_coefficients_rejected() -> None:
    with pytest.raises(SolverError, match="float"):
        simplex_solve([F(1)], [{0: 0.5}], [F(1)], [], [])
    with pytest.raises(SolverError, match="float"):
        simplex_solve([F(1)], [{0: F(1)}], [1.0], [], [])
    with pytest.raises(SolverError, match="float"):
        simplex_solve([0.1], [{0: F(1)}], [F(1)], [], [])
    with pytest.raises(SolverError, match="float"):
        simplex_solve([0.1], [{0: F(1)}], [F(-1)], [], [])  # infeasible
    with pytest.raises(SolverError, match="bool"):
        simplex_solve([F(1)], [], [], [{0: True}], [F(1)])


def test_drive_out_pivot_on_negative_entry(monkeypatch) -> None:
    # The equality -x0/2 - x1/3 = 0 keeps its artificial basic at zero
    # through phase 1 with only non-positive entries, so the drive-out
    # pivots on a negative entry and the integer tableau is negated.
    entries = []
    original = simplex_module._Tableau.pivot

    def recording_pivot(self, r, j):
        entries.append(self.rows[r][j])
        original(self, r, j)

    monkeypatch.setattr(simplex_module._Tableau, "pivot", recording_pivot)
    lp = ([F(1), F(0), F(-1)], [{0: F(1), 2: F(2, 3)}], [F(3)], [{0: F(-1, 2), 1: F(-1, 3)}], [F(0)])
    res = simplex_solve(*lp)
    assert entries[2] < 0 and all(p > 0 for p in entries[3:])
    assert res.objective == F(-9, 2)
    assert res.values == (F(0), F(0), F(9, 2))
    assert (res.phase1_pivots, res.phase2_pivots, res.degenerate_pivots) == (3, 1, 2)
    assert res == reference_solve(*lp)


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def small_lps(draw):
    nv = draw(st.integers(1, 6))
    n_ineq = draw(st.integers(0, 3))
    n_eq = draw(st.integers(0 if n_ineq else 1, 3))

    def row():
        return {j: a for j in range(nv) if (a := draw(small_fractions)) != 0}

    objective = [draw(small_fractions) for _ in range(nv)]
    ineq = [row() for _ in range(n_ineq)]
    ineq_rhs = [draw(small_fractions) for _ in range(n_ineq)]
    eq = [row() for _ in range(n_eq)]
    eq_rhs = [draw(small_fractions) for _ in range(n_eq)]
    return objective, ineq, ineq_rhs, eq, eq_rhs


def dense(rows, nv):
    return [[row.get(j, F(0)) for j in range(nv)] for row in rows]


@settings(max_examples=400, deadline=None)
@given(small_lps())
@example(([F(1)], [{0: F(1)}], [F(-1, 2)], [], []))  # infeasible
@example(([F(-1, 3), F(0)], [{0: F(2, 3), 1: F(-1)}], [F(1, 2)], [], []))  # unbounded
@example(([F(1), F(1)], [], [], [{0: F(1, 2), 1: F(1, 3)}, {0: F(3, 2), 1: F(1)}], [F(1, 5), F(3, 5)]))  # redundant
def test_integer_tableau_matches_fraction_reference(lp) -> None:
    """Same Bland pivots, so every field of the result is identical."""
    res = simplex_solve(*lp)
    assert res == reference_solve(*lp)
    assert res.pivots == res.phase1_pivots + res.phase2_pivots
    if res.status == "optimal":
        objective, ineq, ineq_rhs, eq, eq_rhs = lp
        verify_certificates(
            objective, dense(ineq, len(objective)), ineq_rhs, dense(eq, len(objective)), eq_rhs, res
        )
