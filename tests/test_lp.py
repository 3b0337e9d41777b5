from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from tpass import lp
from tpass.equilibrium import _onto_one_two, build_dual_lp, build_joint_lp, build_primal_lp
from tpass.errors import InputError, SolverFailure
from tpass.game import TpassGame, random_tpass, zero_sum_matrix

from gamegen import (
    PACKING_SOURCES,
    games,
    packing_matrices,
    packing_model,
    random_lp,
    random_simplex,
)


def box_problem():
    return lp.LpModel(lp.MAX, [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [lp.LE, lp.LE], [1.0, 1.0])


class TestModelValidation:
    def test_bad_sense(self):
        with pytest.raises(InputError):
            lp.LpModel("maximize", [1.0], [], [], [])

    def test_wrong_coefficient_length(self):
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0, 2.0], [[1.0]], [lp.LE], [0.0])

    def test_bad_relation_and_bounds(self):
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0], [[1.0]], ["<"], [0.0])
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0], [], [], [], bounds=("positive",))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [np.nan], [], [], [])
        with pytest.raises(InputError):
            lp.LpModel(lp.MAX, [1.0], [[1.0]], [lp.LE], [np.inf])

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
            lp.LpModel(lp.MAX, [1.0], M, rel, b)

    def test_arrays_are_read_only_and_match_the_rows(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = lp.LpModel(lp.MAX, [1.0, 1.0], M, [lp.LE, lp.LE], [1.0, 1.0])
        M[0, 0] = 5.0  # the model keeps its own copy
        with pytest.raises(ValueError):
            model.M[0, 0] = 2.0
        rows = [(c.tolist(), rel, rhs) for c, rel, rhs in zip(model.M, model.rel, model.b)]
        box = box_problem()
        expected = [(c.tolist(), rel, rhs) for c, rel, rhs in zip(box.M, box.rel, box.b)]
        assert rows == expected == [([1.0, 0.0], lp.LE, 1.0), ([0.0, 1.0], lp.LE, 1.0)]


class TestSolveBasics:
    def test_box(self):
        sol = lp.solve(box_problem())
        assert sol.status == lp.OPTIMAL
        assert sol.x.tolist() == [1.0, 1.0]
        assert sol.objective_value == 2.0
        assert sol.duals.tolist() == [1.0, 1.0]

    def test_infeasible(self):
        model = lp.LpModel(lp.MAX, [1.0], [[1.0], [1.0]], [lp.GE, lp.LE], [2.0, 1.0])
        sol = lp.solve(model)
        assert sol.status == lp.INFEASIBLE
        assert sol.x is None and sol.duals is None

    @pytest.mark.parametrize("sense", [lp.MAX, lp.MIN])
    def test_infeasible_with_mixed_scale_rhs(self, sense):
        # x1 - x2 = 0 and x1 - x2 = 5e-4 leave a phase-1 optimum of -5e-4,
        # far above TOL_FEAS on rows of right-hand side 0 and 5e-4 but
        # not relative to the third row's 1e6.  Maximizing x3 has a ray.
        model = lp.LpModel(
            sense, [0.0, 0.0, 1.0], [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, -1.0]],
            [lp.EQ, lp.EQ, lp.LE], [0.0, 5e-4, 1e6],
        )
        assert lp.solve(model).status == lp.INFEASIBLE

    def test_unbounded(self):
        no_rows = lp.LpModel(lp.MAX, [1.0], [], [], [])
        assert lp.solve(no_rows).status == lp.UNBOUNDED
        one_row = lp.LpModel(lp.MAX, [1.0], [[1.0]], [lp.GE], [0.0])
        sol = lp.solve(one_row)
        assert sol.status == lp.UNBOUNDED
        assert sol.objective_value == np.inf
        assert lp.solve(lp.LpModel(lp.MIN, [1.0], [[1.0]], [lp.LE], [0.0], bounds=(lp.FREE,))).objective_value == -np.inf

    def test_free_variable_recombination(self):
        # a free variable pinned to a negative value by an equality
        model = lp.LpModel(lp.MIN, [1.0], [[1.0]], [lp.EQ], [-2.0], bounds=(lp.FREE,))
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-12)

    def test_negative_rhs_rows(self):
        model = lp.LpModel(lp.MAX, [1.0], [[-1.0]], [lp.GE], [-3.0])
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.duals[0] == pytest.approx(-1.0, abs=1e-12)

    def test_beale_degenerate_terminates(self):
        # classic cycling instance for textbook Dantzig pricing; this
        # solver's steepest-edge rule solves it in 2 pivots and never
        # switches to Bland (TestTableauBranches::test_bland_switch forces it)
        model = lp.LpModel(
            lp.MIN,
            [-0.75, 150.0, -0.02, 6.0],
            [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
            [lp.LE, lp.LE, lp.LE],
            [0.0, 0.0, 1.0],
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
            scaled = replace(model, objective=lam * model.objective)
            sol = lp.solve(scaled)
            assert np.allclose(sol.x, base.x, atol=1e-12)
            assert sol.objective_value == pytest.approx(
                lam * base.objective_value, abs=1e-9
            )

    def test_overflowing_tableau_is_a_solver_failure(self):
        # the joint LP of A = [[1, -1], [-1, 1]] * 1e308 and pi = rho = -1e308
        # (build_joint_lp's arrays, for a game too large to validate): its
        # pivots overflow, and the ratio test meets a nan
        big = 1e308
        model = lp.LpModel(
            lp.MAX, [-big, -big, -big, -big, -1.0, -1.0],
            [[0.0, 0.0, big, -big, -1.0, 0.0], [0.0, 0.0, -big, big, -1.0, 0.0],
             [-big, big, 0.0, 0.0, 0.0, -1.0], [big, -big, 0.0, 0.0, 0.0, -1.0],
             [1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]],
            [lp.LE] * 4 + [lp.EQ] * 2, [big, big, big, big, 1.0, 1.0],
            (lp.NONNEG,) * 4 + (lp.FREE, lp.FREE),
        )
        with np.errstate(all="ignore"), pytest.raises(SolverFailure, match="non-finite"):
            lp.solve(model)

    def test_a_nan_solution_fails_the_re_check(self):
        model = lp.LpModel("max", [1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1])
        nan = np.full(2, np.nan)
        with pytest.raises(SolverFailure):
            lp._Tableau(model)._verify(x=nan, duals=nan, objective_value=float("nan"))


class TestDuals:
    @given(games(min_m=2, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_reported_duals_satisfy_dual_feasibility(self, g):
        model = build_primal_lp(g)
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        dual = lp.dualize(model)
        y = sol.duals
        for coeffs, rel, rhs in zip(dual.M, dual.rel, dual.b):
            gap = float(coeffs @ y) - rhs
            if rel == lp.GE:
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
        assert all(rel == lp.GE for rel in dual.rel)
        assert dual.bounds == (lp.NONNEG, lp.NONNEG)
        # min b.y  s.t.  A^T y >= c
        assert dual.M.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert dual.b.tolist() == [1.0, 1.0]

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
            lp.dualize(lp.LpModel(lp.MAX, [1.0], [], [], []))


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

    def test_solution_of_another_model_is_an_input_error(self):
        model = box_problem()
        other = build_primal_lp(random_tpass(3, 2, -1.0, 1.0, seed=1))
        want = (f"^solution is {other.n_rows}x{other.n_vars} \\(rows x variables\\), "
                f"but the model is {model.n_rows}x{model.n_vars}$")
        with pytest.raises(InputError, match=want):
            lp.check_complementary_slackness(model, lp.solve(other))


class TestOneTableau:
    def test_joint_lp_is_solved_on_one_tableau(self, tableaus):
        # 26 x 26: 54 rows in two blocks that share no variable, solved on
        # one tableau.  It stores only the nonbasic columns: 52 nonnegative
        # variables, both halves of 2 free ones and the surplus of each
        # <= row flipped by a negative right-hand side.  The starting
        # basis, one slack or artificial per row, is not stored.
        model = build_joint_lp(random_tpass(26, 26, -1.0, 1.0, seed=18))
        assert lp.solve(model).status == lp.OPTIMAL
        assert len(tableaus) == 1
        tableau = tableaus[0]
        assert tableau.nonbasic.size == 56 + int((model.b < 0).sum())
        assert tableau.T.shape == (model.n_rows + 1, tableau.nonbasic.size + 1)


def beale():
    """Beale's cycling instance, as in TestSolveBasics."""
    return lp.LpModel(
        lp.MIN,
        [-0.75, 150.0, -0.02, 6.0],
        [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [lp.LE, lp.LE, lp.LE],
        [0.0, 0.0, 1.0],
    )


@pytest.fixture
def drive_outs(monkeypatch):
    """(pivots, redundant rows) of each drive-out of phase-1 artificials:
    the redundant rows are those whose artificial is still basic after it."""
    log = []
    drive_out = lp._Tableau._drive_out_artificials

    def spy(self):
        pivots = self.iterations
        drive_out(self)
        log.append((self.iterations - pivots, int(self.artificial[self.basis].sum())))

    monkeypatch.setattr(lp._Tableau, "_drive_out_artificials", spy)
    return log


@pytest.fixture
def pricing_rules(monkeypatch):
    """The ``bland`` flag of every pivot choice."""
    log = []
    choose = lp._Tableau._choose

    def spy(self, bland):
        log.append(bland)
        return choose(self, bland)

    monkeypatch.setattr(lp._Tableau, "_choose", spy)
    return log


class TestTableauBranches:
    def test_false_phase_1_ray_at_a_feasible_basis_goes_on_to_phase_2(self):
        # Phase 1 of this dual LP pivots on an entry of 4e-8 and reaches a
        # zero infeasibility, then prices a column of nonpositive entries
        # at -3.7e-9, pure roundoff: a false ray, since the phase-1
        # objective is bounded above by zero.  From that feasible basis
        # phase 2 reaches the optimum, which the primal LP confirms
        g = TpassGame([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 1.5, -5.96046448e-08]], [0.0, 0.0],
                      [0.0, 1.0, 0.0, -1.25920273e-175])
        primal, dual = lp.solve(build_primal_lp(g)), lp.solve(build_dual_lp(g))
        assert dual.status == lp.OPTIMAL
        assert dual.objective_value == pytest.approx(primal.objective_value, abs=lp.TOL_GAP)

    def test_ray_with_a_roundoff_entry_is_unbounded(self):
        # After 4 pivots the entering column is [-1/3, 1.1e-16, -1/3]: its
        # one positive entry is roundoff, so the column is a ray.
        model = lp.LpModel(
            lp.MAX,
            [-2.0, -3.0, -1.0, 3.0, -1.0],
            [[2.0, -1.0, 2.0, 3.0, 0.0], [2.0, 1.0, 0.0, 1.0, -1.0], [-3.0, 2.0, 3.0, 2.0, -2.0]],
            [lp.GE, lp.LE, lp.EQ],
            [0.0, 0.0, 0.0],
        )
        sol = lp.solve(model)
        assert sol.status == lp.UNBOUNDED
        assert sol.objective_value == np.inf

    @pytest.mark.parametrize(
        "model, false_ray, optimum",
        [
            # optimum 1 at x = 1000, but the column [1e-12] has no entry
            # above PIVOT_EPS, so the solver cannot pivot on it and offers
            # the column as a ray
            (lp.LpModel(lp.MAX, [1e-3], [[1e-12]], [lp.LE], [1e-9]), [1.0], None),
            # optimum 0 at x = [0, 4e5, -2e5, 0], which steepest edge
            # reaches in 2 pivots; Dantzig's rule pivoted on entries near
            # 1e6 until a surplus column priced at -2.3e-10, pure
            # roundoff, over a nonpositive column, and offered this ray
            (
                lp.LpModel(
                    lp.MAX,
                    [-2.0, 1.0, 2.0, -2.0],
                    [[0.0, -1e-6, -2e-6, 1e-6], [1e-6, 2e-6, -1e-6, 2e-6]],
                    [lp.GE, lp.GE],
                    [0.0, 1.0],
                    (lp.NONNEG, lp.NONNEG, lp.FREE, lp.NONNEG),
                ),
                [0.0, 4e5, -2e5, 0.0],
                [0.0, 4e5, -2e5, 0.0],
            ),
        ],
        ids=["tiny-column", "roundoff-reduced-cost"],
    )
    def test_false_ray_is_refused(self, model, false_ray, optimum):
        # neither model is unbounded: the ray re-check refuses the ray
        with pytest.raises(SolverFailure, match="ray fails the re-check"):
            lp._Tableau(model)._verify_ray(np.array(false_ray))
        if optimum is None:
            with pytest.raises(SolverFailure, match="ray fails the re-check"):
                lp.solve(model)
            return
        sol = lp.solve(model)
        assert sol.status == lp.OPTIMAL
        assert sol.iterations == 2
        assert sol.objective_value == 0.0
        assert np.allclose(sol.x, optimum, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("sense", [lp.MAX, lp.MIN])
    def test_infeasibility_needs_a_farkas_certificate(self, sense):
        # x1 + x2 >= 1 and x1 - x2 = 0 hold at (0.5, 0.5), and -x1 >= 0 at
        # x1 = 0.  The multipliers of the starting basis, -1 on each
        # artificial row, prove nothing: M'y is negative on x1 in the first
        # model, and b'y is 0 in the second
        cost = [1.0, 1.0] if sense == lp.MIN else [-1.0, -1.0]
        for model in (lp.LpModel(sense, cost, [[1.0, 1.0], [1.0, -1.0]], [lp.GE, lp.EQ],
                                 [1.0, 0.0], (lp.NONNEG, lp.FREE)),
                      lp.LpModel(sense, cost[:1], [[-1.0]], [lp.GE], [0.0])):
            with pytest.raises(SolverFailure,
                               match="^infeasibility certificate fails the re-check"):
                lp._Tableau(model)._verify_infeasible()
            assert lp.solve(model).status == lp.OPTIMAL
        # x1 >= 1 and -x1 <= 2 hold at x1 = 1.  On the basis of x1 and the
        # first row's artificial, y = (-1, -1) has M'y = 0 and b'y = -3,
        # but a <= row's multiplier must not be negative
        model = lp.LpModel(sense, cost[:1], [[1.0], [-1.0]], [lp.GE, lp.LE], [1.0, 2.0])
        tableau = lp._Tableau(model)
        tableau.basis = np.array([0, tableau.n_cols])
        with pytest.raises(SolverFailure, match="^infeasibility certificate fails the re-check"):
            tableau._verify_infeasible()
        # with x1 + x2 <= -1 added the rows cannot hold, and phase 1's
        # multipliers certify it
        infeasible = lp.LpModel(sense, cost, [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
                                [lp.GE, lp.EQ, lp.LE], [1.0, 0.0, -1.0], (lp.NONNEG, lp.FREE))
        assert lp.solve(infeasible).status == lp.INFEASIBLE

    def test_a_singular_phase_1_basis_is_refused(self):
        # LP 1027 of tests/test_reference.py's stream with M times 1e-6:
        # feasible at x = (1e6, 0, 1e6, 0), but phase 1 blows the tableau
        # up and stops on a singular basis with an artificial above zero
        model = lp.LpModel(
            lp.MAX, [-2.0, -3.0, -2.0, 2.0],
            1e-6 * np.array([[0, 1, 0, 2], [3, 2, -3, 1], [-2, 2, -1, -3], [-2, -3, 1, 2]]),
            [lp.LE] * 4, [0.0, 0.0, 0.0, -1.0],
        )
        with pytest.raises(SolverFailure, match="^infeasible basis is numerically singular"):
            lp.solve(model)

    def test_drive_out_pivot(self, drive_outs):
        model = lp.LpModel(
            lp.MAX,
            [-1.0, 2.0, -1.0, 2.0],
            [[1.0, -1.0, 3.0, -3.0], [1.0, 2.0, 2.0, 0.0], [-1.0, -1.0, -1.0, 0.0],
             [2.0, 3.0, -3.0, 3.0]],
            [lp.EQ, lp.LE, lp.GE, lp.LE],
            [0.0, 0.0, 0.0, 0.0],
        )
        sol = lp.solve(model)
        assert drive_outs == [(1, 0)]
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == 0.0
        assert sol.x.tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "M, b, x, duals, pivots",
        [
            ([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], 1),
            ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0], 1),
            # row 3 is row 1 plus row 2: its entries are zero only after
            # phase 1's two pivots
            ([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]], [1.0, 0.0, 1.0], [0.5, 0.5],
             [0.5, 0.5, 0.0], 2),
        ],
        ids=["zero-row", "duplicated-row", "sum-of-rows"],
    )
    def test_redundant_equality_row_is_dropped(self, drive_outs, M, b, x, duals, pivots):
        model = lp.LpModel(lp.MAX, [1.0, 0.0], M, [lp.EQ] * len(b), b)
        sol = lp.solve(model)
        assert drive_outs == [(0, 1)]
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == x[0]  # the objective is x1
        assert sol.x.tolist() == x
        assert sol.duals.tolist() == duals
        assert sol.iterations == pivots

    def test_tiny_pivot_gives_way_to_a_stable_one(self, monkeypatch):
        # x1 prices best under steepest edge, but its ratio-test pivot is
        # 1e-9; the stability scan takes x2 first, Bland the tiny pivot.
        model = lp.LpModel(lp.MAX, [10.0, 1.0], [[1e-9, 1.0], [1.0, 0.0]], [lp.LE, lp.LE],
                           [1e-9, 5.0])
        tableau = lp._Tableau(model)
        tableau._price_out(tableau.phase2_costs)
        assert tableau._choose(bland=False) == (1, 0)
        assert tableau._choose(bland=True) == (0, 0)
        # a scan that sees only x1 settles for its tiny pivot
        monkeypatch.setattr(lp._Tableau, "_SCAN_LIMIT", 1)
        assert tableau._choose(bland=False) == (0, 0)
        monkeypatch.undo()
        sol = lp.solve(model)
        assert sol.objective_value == 10.0
        assert sol.x.tolist() == [1.0, 0.0]

    def test_bland_switch(self, monkeypatch, pricing_rules):
        sol = lp.solve(beale())
        assert sol.iterations == 2
        assert not any(pricing_rules)
        pricing_rules.clear()
        # no stall allowed: the first degenerate pivot hands over to Bland
        monkeypatch.setattr(lp._Tableau, "_STALL_PER_ROW", 0)
        sol = lp.solve(beale())
        assert pricing_rules[0] is False and pricing_rules[1:] and all(pricing_rules[1:])
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
        assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)


class TestSetUpBranches:
    def test_flipped_matrix_game_lp_solves_alike(self, tableaus):
        # The matrix-game LP written as -Zh y >= -1 goes through the sign
        # flip and must come back to the Zh y <= 1 tableau: the same
        # pivots and x, and duals negated by the flip.
        rng = np.random.default_rng(16)
        for seed in range(300):
            m, n = (int(k) for k in rng.integers(2, 9, size=2))
            Zh = _onto_one_two(zero_sum_matrix(random_tpass(m, n, -1.0, 1.0, seed=seed)))
            tableaus.clear()
            plain = lp.solve(lp.LpModel(lp.MAX, np.ones(n), Zh, [lp.LE] * m, np.ones(m)))
            flipped = lp.solve(lp.LpModel(lp.MAX, np.ones(n), -Zh, [lp.GE] * m, -np.ones(m)))
            assert tableaus[0].sigma is None and tableaus[1].sigma is not None
            assert flipped.iterations == plain.iterations
            assert np.array_equal(flipped.x, plain.x)
            assert flipped.objective_value == plain.objective_value
            assert np.array_equal(flipped.duals, -plain.duals)


def _outcome(verify, *args):
    """The message ``verify`` raises on ``args``, or None if it passes."""
    try:
        verify(*args)
    except SolverFailure as exc:
        return str(exc)
    return None


class TestPackingInput:
    @pytest.mark.parametrize(
        "P",
        [None, "x", [1.0, 2.0], np.zeros((0, 3)), [[1.0, np.nan]], [[1.0, np.inf]],
         [[1.0, 0.0]], [[1.0, -2.0]]],
        ids=["none", "string", "1-d", "no-rows", "nan", "inf", "zero", "negative"],
    )
    def test_input_that_is_not_a_positive_matrix_is_refused(self, P):
        with pytest.raises(InputError, match="^P "):
            lp.solve(P)

    def test_a_list_of_lists_solves(self):
        sol = lp.solve([[1, 2]])
        assert sol.status == lp.OPTIMAL
        assert sol.x.tolist() == [1.0, 0.0]
        assert sol.duals.tolist() == [1.0]
        assert sol.objective_value == 1.0

    @pytest.mark.parametrize("source, seed", PACKING_SOURCES)
    def test_matrix_and_model_solve_alike_bit_for_bit(self, monkeypatch, source, seed):
        # the packing set-up is the model route's tableau after pricing
        # out, so the pivots and every reported number are the same
        for P in packing_matrices(monkeypatch, source, seed):
            sol, want = lp.solve(P), lp.solve(packing_model(P))
            assert sol.status == want.status == lp.OPTIMAL
            assert sol.iterations == want.iterations
            assert sol.x.tobytes() == want.x.tobytes()
            assert sol.duals.tobytes() == want.duals.tobytes()
            assert np.float64(sol.objective_value).tobytes() == np.float64(want.objective_value).tobytes()

    @pytest.mark.parametrize("source, seed", PACKING_SOURCES)
    def test_both_set_ups_record_the_same_state(self, monkeypatch, source, seed):
        # the matrix's tableau and its model's, right after set-up: the
        # same attributes in the same order, every array with the same
        # dtype and bytes (T with its phase-2 reduced costs), every other
        # value equal
        for P in packing_matrices(monkeypatch, source, seed):
            packing, model = lp._Tableau(P), lp._Tableau(packing_model(P))
            assert list(vars(packing)) == list(vars(model))
            for name, value in vars(packing).items():
                other = getattr(model, name)
                if isinstance(value, np.ndarray):
                    assert value.dtype == other.dtype, name
                    assert value.tobytes() == other.tobytes(), name
                else:
                    assert value == other, name

    @pytest.mark.parametrize("P", [[[1e-12]], [[1e-12, 1.0]]], ids=["tiny", "tiny-beside-one"])
    def test_a_column_below_pivot_eps_is_no_ray(self, P):
        # both LPs are bounded, with optimum 1e12 at y = (1e12, 0), but no
        # entry of the first column can be pivoted on, so the solver offers
        # it as a ray; the ray re-check refuses it on the matrix and on its
        # model alike
        for problem in (P, packing_model(P)):
            with pytest.raises(SolverFailure, match=r"^unbounded ray fails the re-check \("):
                lp.solve(problem)

    def test_verifiers_agree_at_and_past_each_tolerance(self, monkeypatch):
        # each optimality condition is pushed past by half and by twice its
        # tolerance; the re-check of the matrix's tableau and of its
        # model's must raise the same message, or both pass
        seen = {0.5: set(), 2.0: set()}
        for P in packing_matrices(monkeypatch, "random", 5)[:300]:
            packing, model = lp._Tableau(P), lp._Tableau(packing_model(P))
            sol = lp.solve(P)
            y, u = sol.x, sol.duals
            for factor in seen:
                d = factor * lp.TOL_FEAS
                gap = factor * lp.TOL_GAP * max(1.0, abs(sol.objective_value))
                pushed = [(y * (1.0 + d), u, 0.0),  # P y <= 1
                          (y, u * (1.0 - d), 0.0),  # P'u >= 1
                          (y, u, gap)]  # 1'y = 1'u
                # y >= 0 and u >= 0: their zero entries, if any, set to -d
                if (y == 0.0).any():
                    pushed.append((np.where(y == 0.0, -d, y), u, 0.0))
                if (u == 0.0).any():
                    pushed.append((y, np.where(u == 0.0, -d, u), 0.0))
                for y2, u2, shift in pushed:
                    value = float(np.ones(y2.size) @ y2) + shift
                    got = _outcome(packing._verify, y2, u2, value)
                    assert got == _outcome(model._verify, y2, u2, value)
                    seen[factor].add(got and got.split(" (")[0])
        # a zero entry of u set to -d also lowers P'u, by up to d max(P)
        assert None in seen[0.5]
        assert seen[2.0] == {
            "optimal basis fails the primal feasibility re-check",
            "optimal basis fails the dual feasibility re-check",
            "primal and dual objectives disagree",
        }


def standard_form(model):
    """``model`` in the solver's documented standard form: each row with a
    negative right-hand side negated, free variables split in two, then a
    -1 surplus column per row that is ``>=`` after the flip, then one
    logical ``+e_i`` per row ``i`` (a slack or an artificial).  Returns
    the matrix, the right-hand side, the phase-2 costs (maximized) and
    the number of columns before the logicals."""
    m = model.n_rows
    sigma = np.where(model.b < 0, -1.0, 1.0)
    kind = sigma * ((model.rel == lp.LE).astype(float) - (model.rel == lp.GE))
    M = model.M * sigma[:, None]
    c = model.objective if model.sense == lp.MAX else -model.objective
    columns, costs = [], []
    for j, bound in enumerate(model.bounds):
        columns.append(M[:, j])
        costs.append(c[j])
        if bound == lp.FREE:
            columns.append(-M[:, j])
            costs.append(-c[j])
    unit = np.eye(m)
    columns += [-unit[i] for i in range(m) if kind[i] < 0]
    n_cols = len(columns)
    columns += list(unit)
    costs += [0.0] * (len(columns) - len(costs))
    return np.column_stack(columns), model.b * sigma, np.array(costs), n_cols


class TestStructuralBasisSolve:
    def test_matches_a_dense_solve_of_the_whole_basis(self, monkeypatch, tableaus):
        # the final basis of every optimal LP among the random LPs that
        # test_reference.py compares with HiGHS
        counts = {"solves": 0, "redundant row": 0, "logical outside its row": 0}
        extract = lp._Tableau._extract

        def spy(self):
            model = self.given
            A, b, costs, n_cols = standard_form(model)
            # every row, a redundant one with its basic artificial's unit
            # column
            basis = self.basis
            whole = A[:, basis]
            want_values = np.zeros(A.shape[1])
            want_values[basis] = np.linalg.solve(whole, b)
            want_duals = np.linalg.solve(whole.T, costs[basis])
            values, duals = self._basis_solve(b)
            for got, want in ((values, want_values[:n_cols]), (duals, want_duals)):
                assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
            counts["solves"] += 1
            counts["redundant row"] += self.artificial[basis].any()
            counts["logical outside its row"] += any(
                var >= n_cols and var - n_cols != row for row, var in enumerate(basis.tolist())
            )
            return extract(self)

        monkeypatch.setattr(lp._Tableau, "_extract", spy)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            lp.solve(random_lp(rng))
        assert all(counts.values()), counts
