import numpy as np
import pytest
from hypothesis import given, settings

from tpass import lp
from tpass.demo import dilemma
from tpass.equilibrium import (
    _transposed,
    build_dual_lp,
    build_joint_lp,
    build_primal_lp,
    check_joint_lp,
    solve_equilibrium,
    solve_joint_lp,
    verify_lp_pair,
)
from tpass.errors import CertificationFailure, InputError
from tpass.game import TpassGame, is_equilibrium, payoff_col, payoff_row, random_tpass

from gamegen import games, random_games, random_simplex


def matching_pennies():
    return TpassGame([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0], [0.0, 0.0])


def zero_game():
    return TpassGame(np.zeros((2, 2)), np.zeros(2), np.zeros(2))


def _normalize_row(coeffs, rel, rhs):
    coeffs = np.array(coeffs)
    pivot = coeffs[np.nonzero(coeffs)[0][0]] if coeffs.any() else 1.0
    if pivot < 0:
        coeffs, rhs = -coeffs, -rhs
    rel = {lp.LE: lp.GE, lp.GE: lp.LE, lp.EQ: lp.EQ}[rel] if pivot < 0 else rel
    return rel, tuple(np.round(coeffs, 12)), round(rhs, 12)


class TestBuilders:
    def test_primal_structure_for_dilemma(self):
        model = build_primal_lp(dilemma())
        assert model.sense == lp.MAX
        assert model.objective.tolist() == [0.5, 0.75, -1.0]
        assert model.bounds == (lp.NONNEG, lp.NONNEG, lp.FREE)
        rows = [(c.tolist(), rel, rhs) for c, rel, rhs in zip(model.M, model.rel, model.b)]
        assert rows == [
            ([0.0, 1.0, -1.0], lp.LE, -0.5),
            ([-1.0, 0.0, -1.0], lp.LE, -0.75),
            ([1.0, 1.0, 0.0], lp.EQ, 1.0),
        ]

    def test_dual_structure_for_dilemma(self):
        model = build_dual_lp(dilemma())
        assert model.sense == lp.MIN
        assert model.objective.tolist() == [-0.5, -0.75, 1.0]
        rows = [(c.tolist(), rel, rhs) for c, rel, rhs in zip(model.M, model.rel, model.b)]
        assert rows == [
            ([0.0, -1.0, 1.0], lp.GE, 0.5),
            ([1.0, 0.0, 1.0], lp.GE, 0.75),
            ([1.0, 1.0, 0.0], lp.EQ, 1.0),
        ]

    @given(games(min_m=2, min_n=2))
    @settings(max_examples=30, deadline=None)
    def test_dualize_agrees_with_handwritten_dual(self, g):
        mechanical = lp.dualize(build_primal_lp(g))
        handwritten = build_dual_lp(g)
        assert mechanical.sense == handwritten.sense
        assert np.allclose(mechanical.objective, handwritten.objective, atol=1e-12)
        assert mechanical.bounds == handwritten.bounds
        lhs = sorted(_normalize_row(*c) for c in zip(mechanical.M, mechanical.rel, mechanical.b))
        rhs = sorted(_normalize_row(*c) for c in zip(handwritten.M, handwritten.rel, handwritten.b))
        assert lhs == rhs

    def test_joint_structure(self):
        g = random_tpass(3, 2, -1.0, 1.0, seed=4)
        model = build_joint_lp(g)
        assert model.n_vars == 3 + 2 + 2
        assert model.n_rows == 3 + 2 + 2
        assert model.bounds == (lp.NONNEG,) * 5 + (lp.FREE, lp.FREE)
        # block decoupling: p appears only in column rows, q only in row rows
        for i in range(3):
            assert not model.M[i, :3].any()
        for j in range(3, 5):
            assert not model.M[j, 3:5].any()


class TestPrimalValues:
    def test_zero_game_value_zero(self):
        sol = lp.solve(build_primal_lp(zero_game()))
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_dilemma_value_zero(self):
        assert lp.solve(build_primal_lp(dilemma())).objective_value == pytest.approx(
            0.0, abs=1e-12
        )
        assert lp.solve(build_dual_lp(dilemma())).objective_value == pytest.approx(
            0.0, abs=1e-12
        )


class TestSolveEquilibrium:
    def test_dilemma(self):
        sol = solve_equilibrium(dilemma())
        assert np.allclose(sol.p.weights, [1.0, 0.0], atol=1e-12)
        assert np.allclose(sol.q.weights, [1.0, 0.0], atol=1e-12)
        assert sol.alpha == pytest.approx(0.5, abs=1e-12)
        assert sol.beta == pytest.approx(0.5, abs=1e-12)

    def test_matching_pennies(self):
        sol = solve_equilibrium(matching_pennies())
        assert np.allclose(sol.p.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.q.weights, [0.5, 0.5], atol=1e-12)
        assert sol.alpha == pytest.approx(0.0, abs=1e-12)
        assert sol.beta == pytest.approx(0.0, abs=1e-12)

    def test_zero_kernel_decouples_players(self):
        g = TpassGame(np.zeros((2, 2)), [0.0, 1.0], [1.0, 0.0])
        sol = solve_equilibrium(g)
        assert np.allclose(sol.p.weights, [0.0, 1.0], atol=1e-12)
        assert np.allclose(sol.q.weights, [1.0, 0.0], atol=1e-12)
        assert sol.alpha == pytest.approx(1.0, abs=1e-12)
        assert sol.beta == pytest.approx(1.0, abs=1e-12)

    def test_solution_invariants_on_random_games(self):
        for g in random_games(60, seed_base=10_000, rng_seed=1):
            sol = solve_equilibrium(g, 1e-8)
            assert is_equilibrium(g, sol.p, sol.q, 1e-8).is_equilibrium
            assert sol.alpha == pytest.approx(payoff_row(g, sol.p, sol.q), abs=1e-8)
            assert sol.beta == pytest.approx(payoff_col(g, sol.p, sol.q), abs=1e-8)
            assert sol.slackness_residual <= 1e-8

    @given(games(min_m=2, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_existence_property(self, g):
        sol = solve_equilibrium(g, 1e-8)
        assert is_equilibrium(g, sol.p, sol.q, 1e-8).is_equilibrium

    def test_tall_game_reads_the_dual_lp(self):
        g = random_tpass(12, 3, -1.0, 1.0, seed=17)
        sol = solve_equilibrium(g)
        dual = lp.solve(build_dual_lp(g))
        assert sol.lp_value == dual.objective_value
        assert np.allclose(sol.p.weights, dual.x[:12], atol=1e-12)
        assert sol.beta == dual.x[12]
        assert np.allclose(sol.q.weights, dual.duals[:3], atol=1e-12)
        assert sol.alpha == -dual.duals[3]
        assert sol.slackness_residual <= 1e-12

    @given(games(min_m=1, max_m=7, min_n=1, max_n=7).filter(lambda g: g.m != g.n))
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_on_value_in_both_orientations(self, g):
        # rho.q - alpha is minus the value of Z = A + pi 1' - 1 rho', so it
        # is the same at every equilibrium even when equilibria are not
        primal = solve_equilibrium(g, 1e-8)
        joint, _ = solve_joint_lp(g, 1e-8)
        assert float(g.rho @ primal.q.weights) - primal.alpha == pytest.approx(
            float(g.rho @ joint.q.weights) - joint.alpha, abs=1e-8
        )

    def test_transposed_game_swaps_the_players(self):
        # both orientations solve the same primal LP, so the swap is exact
        for g in random_games(40, seed_base=95_000, min_dim=1, max_dim=9, rng_seed=11):
            if g.m == g.n:
                continue
            sol = solve_equilibrium(g)
            swapped = solve_equilibrium(_transposed(g))
            assert np.array_equal(swapped.p.weights, sol.q.weights)
            assert np.array_equal(swapped.q.weights, sol.p.weights)
            assert swapped.alpha == sol.beta
            assert swapped.beta == sol.alpha
            assert swapped.lp_value == -sol.lp_value

    def test_report_certifies_the_returned_pair(self):
        for g in random_games(20, seed_base=96_000, min_dim=1, max_dim=6, rng_seed=12):
            for sol in (solve_equilibrium(g), solve_joint_lp(g)[0]):
                report = is_equilibrium(g, sol.p, sol.q)
                assert sol.report.is_equilibrium
                for field in ("row_violation", "col_violation", "simplex_violation",
                              "payoff_row", "payoff_col"):
                    assert getattr(sol.report, field) == getattr(report, field)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_solvers_reject_a_bad_tol(self, tol):
        for solve in (solve_equilibrium, solve_joint_lp):
            with pytest.raises(InputError, match="tol must be positive"):
                solve(dilemma(), tol)


class TestVerifyLpPair:
    def test_dilemma_equilibrium_passes(self):
        report = verify_lp_pair(dilemma(), [1, 0], [1, 0])
        assert report.is_equilibrium
        # both objectives equal zero at the certified pair
        g = dilemma()
        alpha = payoff_row(g, [1, 0], [1, 0])
        beta = payoff_col(g, [1, 0], [1, 0])
        assert float(g.rho @ [1, 0]) - alpha == pytest.approx(0.0, abs=1e-15)
        assert -float(g.pi @ [1, 0]) + beta == pytest.approx(0.0, abs=1e-15)

    def test_dilemma_cooperative_cell_fails_on_primal_row(self):
        report = verify_lp_pair(dilemma(), [0, 1], [0, 1])
        assert not report.is_equilibrium
        # q feasibility would need alpha >= 3/2 but the pair yields 3/4
        assert report.row_violation == pytest.approx(0.75, abs=1e-15)

    def test_matching_pennies_passes(self):
        report = verify_lp_pair(matching_pennies(), [0.5, 0.5], [0.5, 0.5])
        assert report.is_equilibrium

    def test_round_trip_with_solver_and_oracle(self):
        from tpass.decompose import compose
        from tpass.oracle import enumerate_equilibria

        rng = np.random.default_rng(8)
        for g in random_games(25, seed_base=20_000, min_dim=2, max_dim=4, rng_seed=2):
            sol = solve_equilibrium(g)
            assert verify_lp_pair(g, sol.p, sol.q).is_equilibrium
            for p, q in enumerate_equilibria(compose(g)):
                assert verify_lp_pair(g, p, q).is_equilibrium
            for _ in range(10):
                p = random_simplex(rng, g.m)
                q = random_simplex(rng, g.n)
                if not is_equilibrium(g, p, q).is_equilibrium:
                    assert not verify_lp_pair(g, p, q).is_equilibrium

    def test_rejects_off_simplex_inputs(self):
        with pytest.raises(InputError):
            verify_lp_pair(dilemma(), [0.7, 0.7], [1, 0])


class TestJointProgram:
    def test_componentwise_maxima_are_feasible_and_nonpositive(self):
        rng = np.random.default_rng(21)
        for g in random_games(40, seed_base=30_000, rng_seed=3):
            p = random_simplex(rng, g.m)
            q = random_simplex(rng, g.n)
            alpha = float((g.A @ q + g.pi).max())
            beta = float((-(g.A.T @ p) + g.rho).max())
            x = np.concatenate([p, q, [alpha, beta]])
            model = build_joint_lp(g)
            for coeffs, rel, rhs in zip(model.M, model.rel, model.b):
                gap = float(coeffs @ x) - rhs
                if rel == lp.LE:
                    assert gap <= 1e-10
                else:
                    assert abs(gap) <= 1e-10
            assert float(model.objective @ x) <= 1e-10

    def test_dilemma_optimum(self):
        sol, value = solve_joint_lp(dilemma())
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.p.weights, [1.0, 0.0], atol=1e-12)
        assert np.allclose(sol.q.weights, [1.0, 0.0], atol=1e-12)
        assert sol.alpha == pytest.approx(0.5, abs=1e-12)
        assert sol.beta == pytest.approx(0.5, abs=1e-12)

    def test_zero_game_optimum(self):
        _, value = solve_joint_lp(zero_game())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_zero_optimum_on_random_games(self):
        for g in random_games(100, seed_base=40_000, rng_seed=4):
            sol, value = solve_joint_lp(g, 1e-8)
            assert abs(value) <= 1e-8
            assert is_equilibrium(g, sol.p, sol.q, 1e-8).is_equilibrium

    @pytest.mark.parametrize("m, n", [(25, 25), (26, 26), (30, 24)])
    def test_player_lps_match_the_joint_tableau(self, monkeypatch, m, n):
        # from 54 joint rows on, the two player LPs are solved instead
        g = random_tpass(m, n, -1.0, 1.0, seed=97_000 + m + n)
        whole = lp.solve(build_joint_lp(g))
        real, pivots = lp.solve, []

        def counted(model):
            sol = real(model)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(lp, "solve", counted)
        sol, value = solve_joint_lp(g)
        assert len(pivots) == (1 if m + n + 2 < 54 else 2)
        assert sum(pivots) == whole.iterations
        x = whole.x
        assert np.abs(sol.p.weights - x[:m]).max() <= 1e-9
        assert np.abs(sol.q.weights - x[m : m + n]).max() <= 1e-9
        assert sol.alpha == pytest.approx(x[m + n], abs=1e-9)
        assert sol.beta == pytest.approx(x[m + n + 1], abs=1e-9)
        assert value == pytest.approx(whole.objective_value, abs=1e-9)

    def test_check_joint_dilemma_cases(self):
        g = dilemma()
        assert check_joint_lp(g, [1, 0], [1, 0])
        # the uniform mix leaves row 1 paying 1 against alpha = 5/8
        assert not check_joint_lp(g, [0.5, 0.5], [0.5, 0.5])

    def test_check_joint_agrees_with_best_response(self):
        rng = np.random.default_rng(31)
        checked = 0
        for g in random_games(150, seed_base=50_000, rng_seed=5):
            for _ in range(5):
                p = random_simplex(rng, g.m)
                q = random_simplex(rng, g.n)
                assert check_joint_lp(g, p, q) == is_equilibrium(g, p, q).is_equilibrium
                checked += 1
            sol = solve_equilibrium(g)
            assert check_joint_lp(g, sol.p, sol.q)
        assert checked == 750


def _worst_row_violation(model, x):
    """Largest violation of the model's rows at ``x``: signed for
    inequality rows, absolute for equality rows."""
    gap = model.M @ x - model.b
    signed = np.where(model.rel == lp.LE, gap, np.where(model.rel == lp.GE, -gap, np.abs(gap)))
    return float(signed.max())


class TestCertificateIdentities:
    def test_gaps_are_the_built_models_row_violations(self):
        rng = np.random.default_rng(41)
        for g in random_games(60, seed_base=60_000, min_dim=1, max_dim=8, rng_seed=9):
            for _ in range(5):
                p = random_simplex(rng, g.m)
                q = random_simplex(rng, g.n)
                alpha, beta = payoff_row(g, p, q), payoff_col(g, p, q)
                report = is_equilibrium(g, p, q)
                primal = _worst_row_violation(build_primal_lp(g), np.append(q, alpha))
                dual = _worst_row_violation(build_dual_lp(g), np.append(p, beta))
                joint = _worst_row_violation(build_joint_lp(g), np.concatenate([p, q, [alpha, beta]]))
                assert primal == pytest.approx(report.row_violation, abs=1e-12)
                assert dual == pytest.approx(report.col_violation, abs=1e-12)
                assert joint == pytest.approx(
                    max(report.row_violation, report.col_violation), abs=1e-12
                )

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf")])
    def test_every_certificate_rejects_nonpositive_tol(self, tol):
        for check in (is_equilibrium, verify_lp_pair, check_joint_lp):
            with pytest.raises(InputError):
                check(dilemma(), [1, 0], [1, 0], tol)

    def test_certificates_agree_on_a_pair_just_off_the_simplex(self):
        p, q = [1.0 + 5e-10, 0.0], [1.0, 0.0]
        for tol, verdict in ((1e-10, False), (1e-8, True)):
            assert is_equilibrium(dilemma(), p, q, tol).is_equilibrium is verdict
            assert verify_lp_pair(dilemma(), p, q, tol).is_equilibrium is verdict
            assert check_joint_lp(dilemma(), p, q, tol) is verdict

    @pytest.mark.parametrize(
        "route, game",
        [
            ("primal", dilemma()),
            ("joint", dilemma()),
            # three rows: solve_equilibrium takes the dual LP
            ("dual", TpassGame([[0, 1], [-1, 0], [-2, -1]], [0.5, 0.75, 0.0], [0.5, 0.75])),
        ],
    )
    def test_certification_failure_names_the_route(self, monkeypatch, route, game):
        # swapping the first two LP values moves the first player off the
        # unique (dominant-strategy) equilibrium
        real = lp.solve

        def swapped(model):
            sol = real(model)
            x = sol.x.copy()
            x[[0, 1]] = x[[1, 0]]
            return lp.LpSolution(sol.status, x, sol.objective_value, sol.duals, sol.iterations)

        monkeypatch.setattr(lp, "solve", swapped)
        solve = solve_joint_lp if route == "joint" else solve_equilibrium
        with pytest.raises(CertificationFailure, match=f"^{route} LP solution failed"):
            solve(game)


class TestZeroSumReduction:
    def test_matching_pennies_value(self):
        sol = solve_equilibrium(matching_pennies())
        assert sol.alpha == pytest.approx(0.0, abs=1e-9)
        assert sol.beta == pytest.approx(0.0, abs=1e-9)

    def test_random_zero_sum_values_match_closed_form(self):
        # closed form for 2x2 zero-sum: saddle value, else det formula
        def game_value(A):
            lower = A.min(axis=1).max()
            upper = A.max(axis=0).min()
            if upper <= lower + 1e-12:
                return 0.5 * (lower + upper)
            a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
            return (a * d - b * c) / (a + d - b - c)

        for k in range(100):
            base = random_tpass(2, 2, -1.0, 1.0, seed=70_000 + k)
            g = TpassGame(base.A, [0.0, 0.0], [0.0, 0.0])
            sol = solve_equilibrium(g)
            assert sol.alpha == pytest.approx(-sol.beta, abs=1e-9)
            assert sol.alpha == pytest.approx(game_value(g.A), abs=1e-8)
