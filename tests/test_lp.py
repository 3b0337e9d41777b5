import numpy as np
import pytest
from hypothesis import given, settings

from tpass import lp
from tpass.equilibrium import build_dual_lp, build_joint_lp, build_primal_lp
from tpass.errors import InputError, SolverFailure
from tpass.game import random_tpass

from gamegen import games, random_simplex


def box_problem():
    return lp.LpModel(
        lp.MAX, [1.0, 1.0], [([1.0, 0.0], lp.LE, 1.0), ([0.0, 1.0], lp.LE, 1.0)]
    )


class TestModelValidation:
    def test_bad_sense(self):
        with pytest.raises(InputError):
            lp.LpModel("maximize", [1.0], [])

    def test_wrong_coefficient_length(self):
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0, 2.0], [([1.0], lp.LE, 0.0)])

    def test_bad_relation_and_bounds(self):
        with pytest.raises(InputError):
            lp.Constraint([1.0], "<", 0.0)
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0], [], bounds=("positive",))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [np.nan], [])
        with pytest.raises(InputError):
            lp.Constraint([1.0], lp.LE, np.inf)

    @pytest.mark.parametrize(
        "M, rel, b",
        [
            ([[1.0]], ["<"], [0.0]),
            ([[1.0, 2.0]], [lp.LE], [0.0]),
            ([[1.0]], [lp.LE, lp.LE], [0.0]),
            ([[np.inf]], [lp.LE], [0.0]),
            ([[1.0]], [lp.LE], [np.nan]),
        ],
    )
    def test_from_arrays_rejects_malformed_arrays(self, M, rel, b):
        with pytest.raises(InputError):
            lp.LpModel.from_arrays(lp.MAX, [1.0], M, rel, b)

    def test_arrays_are_read_only_and_match_the_rows(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = lp.LpModel.from_arrays(lp.MAX, [1.0, 1.0], M, [lp.LE, lp.LE], [1.0, 1.0])
        M[0, 0] = 5.0  # the model keeps its own copy
        with pytest.raises(ValueError):
            model.M[0, 0] = 2.0
        rows = [(c.coeffs.tolist(), c.rel, c.rhs) for c in model.constraints]
        expected = [(c.coeffs.tolist(), c.rel, c.rhs) for c in box_problem().constraints]
        assert rows == expected == [([1.0, 0.0], lp.LE, 1.0), ([0.0, 1.0], lp.LE, 1.0)]


class TestSolveBasics:
    def test_box(self):
        sol = lp.solve(box_problem())
        assert sol.status == lp.OPTIMAL
        assert sol.x.tolist() == [1.0, 1.0]
        assert sol.objective_value == 2.0
        assert sol.duals.tolist() == [1.0, 1.0]

    def test_infeasible(self):
        model = lp.LpModel(
            lp.MAX, [1.0], [([1.0], lp.GE, 2.0), ([1.0], lp.LE, 1.0)]
        )
        sol = lp.solve(model)
        assert sol.status == lp.INFEASIBLE
        assert sol.x is None and sol.duals is None

    def test_unbounded(self):
        no_rows = lp.LpModel(lp.MAX, [1.0], [])
        assert lp.solve(no_rows).status == lp.UNBOUNDED
        one_row = lp.LpModel(lp.MAX, [1.0], [([1.0], lp.GE, 0.0)])
        sol = lp.solve(one_row)
        assert sol.status == lp.UNBOUNDED
        assert sol.objective_value == np.inf
        assert lp.solve(lp.LpModel(lp.MIN, [1.0], [([1.0], lp.LE, 0.0)], bounds=(lp.FREE,))).objective_value == -np.inf

    def test_free_variable_recombination(self):
        # a free variable pinned to a negative value by an equality
        model = lp.LpModel(lp.MIN, [1.0], [([1.0], lp.EQ, -2.0)], bounds=(lp.FREE,))
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-12)

    def test_negative_rhs_rows(self):
        model = lp.LpModel(lp.MAX, [1.0], [([-1.0], lp.GE, -3.0)])
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.duals[0] == pytest.approx(-1.0, abs=1e-12)

    def test_beale_degenerate_terminates(self):
        # classic cycling instance for Dantzig pricing; the stall guard
        # must hand over to Bland and still find the optimum
        model = lp.LpModel(
            lp.MIN,
            [-0.75, 150.0, -0.02, 6.0],
            [
                ([0.25, -60.0, -0.04, 9.0], lp.LE, 0.0),
                ([0.5, -90.0, -0.02, 3.0], lp.LE, 0.0),
                ([0.0, 0.0, 1.0, 0.0], lp.LE, 1.0),
            ],
        )
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
        assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)

    def test_determinism(self):
        model = build_primal_lp(random_tpass(5, 6, -1.0, 1.0, seed=123))
        a = lp.solve(model)
        b = lp.solve(model)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.duals, b.duals)

    def test_scale_sanity(self):
        model = build_primal_lp(random_tpass(4, 4, -1.0, 1.0, seed=321))
        base = lp.solve(model)
        for lam in (2.0, 10.0):
            scaled = lp.LpModel(
                model.sense, lam * model.objective, model.constraints, model.bounds
            )
            sol = lp.solve(scaled)
            assert np.allclose(sol.x, base.x, atol=1e-12)
            assert sol.objective_value == pytest.approx(
                lam * base.objective_value, abs=1e-9
            )


class TestDuals:
    @given(games(min_m=2, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_reported_duals_satisfy_dual_feasibility(self, g):
        model = build_primal_lp(g)
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        dual = lp.dualize(model)
        y = sol.duals
        for con in dual.constraints:
            gap = float(con.coeffs @ y) - con.rhs
            if con.rel == lp.GE:
                assert gap >= -1e-8
            else:
                assert abs(gap) <= 1e-8
        # sign convention: <= rows of a max problem carry nonneg multipliers
        assert y[: g.m].min() >= -1e-9

    @given(games(min_m=2, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_strong_duality_between_builders(self, g):
        primal_value = lp.solve(build_primal_lp(g)).objective_value
        dual_value = lp.solve(build_dual_lp(g)).objective_value
        assert primal_value == pytest.approx(dual_value, abs=lp.TOL_GAP)

    def test_weak_duality_spot_check(self):
        rng = np.random.default_rng(99)
        for k in range(50):
            g = random_tpass(3, 4, -1.0, 1.0, seed=40_000 + k)
            q = random_simplex(rng, 4)
            alpha = float((g.A @ q + g.pi).max()) + rng.random()
            p = random_simplex(rng, 3)
            beta = float((g.rho - g.A.T @ p).max()) + rng.random()
            primal_objective = float(g.rho @ q) - alpha
            dual_objective = -float(g.pi @ p) + beta
            assert primal_objective <= dual_objective + 1e-12


class TestDualize:
    def test_canonical_form(self):
        model = box_problem()
        dual = lp.dualize(model)
        assert dual.sense == lp.MIN
        assert dual.objective.tolist() == [1.0, 1.0]
        assert all(con.rel == lp.GE for con in dual.constraints)
        assert dual.bounds == (lp.NONNEG, lp.NONNEG)
        # min b.y  s.t.  A^T y >= c
        assert [con.coeffs.tolist() for con in dual.constraints] == [[1.0, 0.0], [0.0, 1.0]]
        assert [con.rhs for con in dual.constraints] == [1.0, 1.0]

    def test_double_dual_solves_to_same_value(self):
        model = build_primal_lp(random_tpass(3, 3, -1.0, 1.0, seed=7))
        double = lp.dualize(lp.dualize(model))
        assert lp.solve(double).objective_value == pytest.approx(
            lp.solve(model).objective_value, abs=1e-9
        )

    def test_dual_objective_matches_primal(self):
        model = build_primal_lp(random_tpass(4, 5, -1.0, 1.0, seed=8))
        assert lp.solve(lp.dualize(model)).objective_value == pytest.approx(
            lp.solve(model).objective_value, abs=lp.TOL_GAP
        )

    def test_no_constraints_rejected(self):
        with pytest.raises(InputError):
            lp.dualize(lp.LpModel(lp.MAX, [1.0], []))


class TestComplementarySlackness:
    def test_box_is_tight(self):
        model = box_problem()
        ok, residual = lp.check_complementary_slackness(model, lp.solve(model))
        assert ok
        assert residual == 0.0

    def test_primal_lp_at_optimum(self):
        from tpass.demo import dilemma

        model = build_primal_lp(dilemma())
        ok, residual = lp.check_complementary_slackness(model, lp.solve(model), 1e-9)
        assert ok
        assert residual <= 1e-9

    def test_detects_corrupted_solution(self):
        model = box_problem()
        sol = lp.solve(model)
        corrupted = lp.LpSolution(
            sol.status, sol.x - 0.1, sol.objective_value, sol.duals, sol.iterations
        )
        ok, residual = lp.check_complementary_slackness(model, corrupted)
        assert not ok
        assert residual >= 0.09

    def test_requires_optimal_status(self):
        model = box_problem()
        bad = lp.LpSolution(lp.INFEASIBLE, None, float("nan"), None, 0)
        with pytest.raises(InputError):
            lp.check_complementary_slackness(model, bad)


@pytest.fixture
def tableau_rows(monkeypatch):
    """Row counts of the tableaus each solve sets up."""
    rows = []

    class Spy(lp._Tableau):
        def __init__(self, model, *args):
            rows.append(model.n_rows)
            super().__init__(model, *args)

    monkeypatch.setattr(lp, "_Tableau", Spy)
    return rows


class TestOneTableau:
    def test_joint_lp_is_solved_on_one_tableau(self, tableau_rows):
        # 26 x 26: 54 rows in two blocks that share no variable, the size
        # from which solve_joint_lp solves the blocks apart
        model = build_joint_lp(random_tpass(26, 26, -1.0, 1.0, seed=18))
        assert lp.solve(model).status == lp.OPTIMAL
        assert tableau_rows == [54]
