import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpass import equilibrium, lp
from tpass.demo import dilemma
from tpass.equilibrium import (
    build_dual_lp,
    build_joint_lp,
    build_primal_lp,
    check_joint_lp,
    solve_equilibrium,
    solve_joint_lp,
    verify_lp_pair,
)
from tpass.errors import CertificationFailure, InputError, SolverFailure
from tpass.game import (
    TpassGame,
    is_equilibrium,
    payoff_col,
    payoff_row,
    random_tpass,
    zero_sum_matrix,
)

from gamegen import benchmark_games, games, packing_model, random_games, random_simplex


def matching_pennies():
    return TpassGame([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0], [0.0, 0.0])


def zero_game():
    return TpassGame(np.zeros((2, 2)), np.zeros(2), np.zeros(2))


def _strict_saddles(Z):
    """Every cell of ``Z`` below all other entries of its row and above
    all other entries of its column, found by comparing each cell with
    its whole row and column."""
    m, n = Z.shape
    row_min = (Z[:, None, :] > Z[:, :, None]).sum(axis=2) == n - 1
    col_max = (Z[None, :, :] < Z[:, None, :]).sum(axis=1) == m - 1
    return [tuple(cell) for cell in np.argwhere(row_min & col_max).tolist()]


def _strict_kernels(Z, candidates=None):
    """Every strict 2 x 2 kernel of ``Z`` among ``candidates`` (default
    all), as ``((i, k), (j, l), p, q)``: its rows, its columns and its
    weights on them in ``Fraction``.  A kernel ``[[a, b], [c, d]]`` is
    strict when its pair is completely mixed and every other row earns
    strictly less than its value, every other column strictly more, in
    exact arithmetic.  A float difference has the sign of the exact
    one, so the screen for a mixed pair compares the entries."""
    m, n = Z.shape
    if candidates is None:
        candidates = itertools.product(itertools.combinations(range(m), 2),
                                       itertools.combinations(range(n), 2))
    X, out = None, []
    for (i, k), (j, l) in candidates:
        a, b, c, d = Z[i, j], Z[i, l], Z[k, j], Z[k, l]
        if not (np.sign(a - b) == np.sign(d - c) != 0 and np.sign(a - c) == np.sign(d - b) != 0):
            continue
        X = X or [[Fraction(x) for x in row] for row in Z.tolist()]
        a, b, c, d = X[i][j], X[i][l], X[k][j], X[k][l]
        den = a - b - c + d
        p, q = (d - c) / den, (d - b) / den
        value = (a * d - b * c) / den
        if (all(X[r][j] * q + X[r][l] * (1 - q) < value for r in range(m) if r not in (i, k))
                and all(X[i][s] * p + X[k][s] * (1 - p) > value for s in range(n) if s not in (j, l))):
            out.append(((i, k), (j, l), (p, 1 - p), (q, 1 - q)))
    return out


def _one_step_cells(Z):
    """``(i, k), (j, l)``: the rows and columns of the kernel one
    best-response step on from the saddle search.  Row ``i`` has the
    largest row minimum, ``j`` is its smallest column, ``k`` the row of
    the largest entry in column ``j`` and ``l`` row ``k``'s smallest
    column."""
    i = int(Z.min(axis=1).argmax())
    j = int(Z[i].argmin())
    k = int(Z[:, j].argmax())
    return (i, k), (j, int(Z[k].argmin()))


def _one_step_kernel(Z):
    """The kernel of :func:`_one_step_cells` if it is strict
    (:func:`_strict_kernels`), or None."""
    (i, k), (j, l) = _one_step_cells(Z)
    rows, cols = tuple(sorted({i, k})), tuple(sorted({j, l}))
    if len(rows) < 2 or len(cols) < 2:
        return None
    found = _strict_kernels(Z, [(rows, cols)])
    return found[0] if found else None


def _support(pair):
    """The rows and columns where a pair puts weight."""
    return tuple(tuple(np.flatnonzero(s.weights).tolist()) for s in pair)


def _lp_route_only(monkeypatch):
    """Send every game to the LP route: the kernel search finds none."""
    monkeypatch.setattr(equilibrium, "_strict_kernel", lambda Z: None)


def _bits(record):
    """Every field of a solution, its strategies and its report, as
    type and bytes."""
    out = []
    for f in dataclasses.fields(record):
        v = getattr(record, f.name)
        out.append(_bits(v) if dataclasses.is_dataclass(v) else (type(v), np.asarray(v).tobytes()))
    return out


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
        # the textbook layout [[A', 1], [1', 0]] (p, beta) >= (rho, 1) and
        # minimize (-pi, 1) . (p, beta), bit for bit with the signed zeros
        m, n = g.shape
        textbook = {
            "M": np.block([[g.A.T, np.ones((n, 1))], [np.ones((1, m)), np.zeros((1, 1))]]),
            "b": np.append(g.rho, 1.0),
            "objective": np.append(-g.pi, 1.0),
        }
        dual = build_dual_lp(g)
        for name, expected in textbook.items():
            built = getattr(dual, name)
            assert np.array_equal(built, expected)
            assert np.array_equal(np.signbit(built), np.signbit(expected))
        assert dual.rel.tolist() == [lp.GE] * n + [lp.EQ]
        mechanical = lp.dualize(build_primal_lp(g))
        assert mechanical.sense == dual.sense
        assert np.allclose(mechanical.objective, dual.objective, atol=1e-12)
        assert mechanical.bounds == dual.bounds
        lhs = sorted(_normalize_row(*c) for c in zip(mechanical.M, mechanical.rel, mechanical.b))
        rhs = sorted(_normalize_row(*c) for c in zip(dual.M, dual.rel, dual.b))
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

    @pytest.mark.parametrize("m, n", [(12, 3), (3, 12)])
    def test_tall_and_wide_games_match_the_textbook_lp_pair(self, m, n):
        # the matrix-game LP's pair is the textbook primal and dual LPs'
        # optimum: a random game has one equilibrium, and both LPs' values
        # and multipliers pin it, so the two agree to roundoff
        g = random_tpass(m, n, -1.0, 1.0, seed=17)
        sol = solve_equilibrium(g)
        dual = lp.solve(build_dual_lp(g))
        primal = lp.solve(build_primal_lp(g))
        assert sol.lp_value == pytest.approx(dual.objective_value, abs=1e-12)
        assert sol.lp_value == pytest.approx(primal.objective_value, abs=1e-12)
        assert np.allclose(sol.p.weights, dual.x[:m], atol=1e-12)
        assert sol.beta == pytest.approx(dual.x[m], abs=1e-12)
        assert np.allclose(sol.q.weights, dual.duals[:n], atol=1e-12)
        assert sol.alpha == pytest.approx(-dual.duals[n], abs=1e-12)
        assert np.allclose(sol.q.weights, primal.x[:n], atol=1e-12)
        assert sol.alpha == pytest.approx(primal.x[n], abs=1e-12)
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

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**64 - 1),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_gauge_shift_moves_only_the_payoffs(self, m, n, seed, c, d):
        # a constant added to one player's bonuses changes no best response;
        # a continuous random game has one equilibrium, so both solvers
        # must return it again, with the constants added to the payoffs
        g = random_tpass(m, n, -1.0, 1.0, seed=seed)
        moved = TpassGame(g.A, g.pi + c, g.rho + d)
        for solve in (solve_equilibrium, lambda game: solve_joint_lp(game)[0]):
            base, sol = solve(g), solve(moved)
            assert np.abs(sol.p.weights - base.p.weights).max() <= 1e-9
            assert np.abs(sol.q.weights - base.q.weights).max() <= 1e-9
            scale = 1e-9 * (1.0 + abs(c) + abs(d))
            assert sol.alpha == pytest.approx(base.alpha + c, abs=scale)
            assert sol.beta == pytest.approx(base.beta + d, abs=scale)

    def test_transposed_game_swaps_the_players(self):
        # the transposed game's matrix-game LP is another LP with the same
        # equilibrium, so the swap holds to roundoff
        for g in random_games(40, seed_base=95_000, min_dim=1, max_dim=9, rng_seed=11):
            if g.m == g.n:
                continue
            sol = solve_equilibrium(g)
            swapped = solve_equilibrium(TpassGame(-g.A.T, g.rho, g.pi))
            assert np.abs(swapped.p.weights - sol.q.weights).max() <= 1e-12
            assert np.abs(swapped.q.weights - sol.p.weights).max() <= 1e-12
            assert swapped.alpha == pytest.approx(sol.beta, abs=1e-12)
            assert swapped.beta == pytest.approx(sol.alpha, abs=1e-12)
            assert swapped.lp_value == pytest.approx(-sol.lp_value, abs=1e-12)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**64 - 1),
           st.integers(-9, 9), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_and_gauge_shift_leave_the_solve_unchanged(self, m, n, seed, k, c, d):
        # equilibria do not move under a gauge shift and a scale, and both
        # routes' matrix-game LPs see the same Zh up to roundoff; at 10^-9 an
        # LP of absolute tolerances would certify a pair far off the equilibrium
        g = random_tpass(m, n, -1.0, 1.0, seed=seed)
        s = 10.0**k
        moved = TpassGame(g.A * s, (g.pi + c) * s, (g.rho + d) * s)
        tol = 1e-8 * max(1.0, s)
        for base, sol in ((solve_equilibrium(g), solve_equilibrium(moved, tol)),
                          (solve_joint_lp(g)[0], solve_joint_lp(moved, tol)[0])):
            assert np.abs(sol.p.weights - base.p.weights).max() <= 1e-12
            assert np.abs(sol.q.weights - base.q.weights).max() <= 1e-12

    def test_report_certifies_the_returned_pair(self):
        for g in random_games(20, seed_base=96_000, min_dim=1, max_dim=6, rng_seed=12):
            for sol in (solve_equilibrium(g), solve_joint_lp(g)[0]):
                report = is_equilibrium(g, sol.p, sol.q)
                assert sol.report.is_equilibrium
                for field in ("row_violation", "col_violation", "simplex_violation",
                              "payoff_row", "payoff_col"):
                    assert getattr(sol.report, field) == getattr(report, field)

    def test_large_games_take_few_pivots(self, monkeypatch, tableaus):
        # steepest-edge pricing solves these 36 matrix-game LPs in 267
        # pivots, where Dantzig's rule took 425; lower the bound as the
        # count falls, never raise it.  One of these games has a strict
        # 2 x 2 kernel, which skips the LP
        _lp_route_only(monkeypatch)
        for shape in ((64, 64), (200, 10), (10, 200)):
            for seed in range(12):
                solve_equilibrium(random_tpass(*shape, -1.0, 1.0, seed=seed))
        assert len(tableaus) == 36
        assert sum(t.iterations for t in tableaus) <= 267

    def test_mixed_magnitude_games_are_refused_no_more_often_than_measured(self):
        # each entry of A, pi and rho is +-10^U(-k, k): one game's payoffs
        # span 2k orders of magnitude, which breaks the absolute-tol verdict
        # far more often than scaling a whole game does, while the LP holds
        # up (a SolverFailure fails the test); lower the bounds as refusals
        # fall, never raise them
        rng = np.random.default_rng(5)

        def entries(k, size):
            return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-k, k, size)

        refused = {}
        for k in (4, 8, 12):
            refused[k] = 0
            for _ in range(400):
                m, n = rng.integers(2, 9, 2)
                try:
                    solve_equilibrium(TpassGame(entries(k, (m, n)), entries(k, m), entries(k, n)))
                except CertificationFailure as exc:
                    assert "failed the best-response check" in str(exc)
                    refused[k] += 1
        assert refused[4] <= 0
        assert refused[8] <= 57
        assert refused[12] <= 155

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), None, "x"])
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

    @pytest.mark.parametrize("m, n", [(25, 25), (26, 26), (30, 24), (64, 64), (200, 10)])
    def test_one_feasible_tableau_matches_the_joint_lp(self, monkeypatch, m, n):
        # one matrix-game LP for every shape, the packing LP of a positive
        # matrix, whose slack basis is feasible, reaching the joint LP's
        # optimum
        g = random_tpass(m, n, -1.0, 1.0, seed=97_000 + m + n)
        whole = lp.solve(build_joint_lp(g))
        real, models = lp.solve, []

        def recorded(model):
            models.append(model)
            return real(model)

        monkeypatch.setattr(lp, "solve", recorded)
        sol, value = solve_joint_lp(g)
        (P,) = models
        assert isinstance(P, np.ndarray) and P.shape == (m, n)
        assert (P > 0.0).all()
        x = whole.x
        assert np.abs(sol.p.weights - x[:m]).max() <= 1e-9
        assert np.abs(sol.q.weights - x[m : m + n]).max() <= 1e-9
        assert sol.alpha == pytest.approx(x[m + n], abs=1e-9)
        assert sol.beta == pytest.approx(x[m + n + 1], abs=1e-9)
        assert value == pytest.approx(whole.objective_value, abs=1e-9)

    @pytest.mark.parametrize("m, n", [(4, 4), (60, 40), (200, 10)])
    def test_joint_optimum_is_the_matrix_game_lp_and_its_duals(self, monkeypatch, tableaus, m, n):
        # the joint LP's optima are the LP pair's primal-dual pairs, so the
        # joint route reads its pair off the primal route's one LP; the
        # 4 x 4 game has a strict 2 x 2 kernel, which skips the LP
        _lp_route_only(monkeypatch)
        g = random_tpass(m, n, -1.0, 1.0, seed=99_000 + m + n)
        primal = solve_equilibrium(g)
        tableaus.clear()
        sol, value = solve_joint_lp(g)
        assert len(tableaus) == 1
        assert np.array_equal(sol.p.weights, primal.p.weights)
        assert np.array_equal(sol.q.weights, primal.q.weights)
        assert (sol.alpha, sol.beta) == (primal.alpha, primal.beta)
        # the joint optimum (rho.q - alpha) + (pi.p - beta) off the certificate
        assert value == 0.0 - (sol.report.row_violation + sol.report.col_violation)
        assert sol.lp_value == value

    def test_every_number_is_read_off_the_certificate(self):
        for g in random_games(60, seed_base=41_000, rng_seed=6):
            primal, (joint, value) = solve_equilibrium(g), solve_joint_lp(g)
            for sol in (primal, joint):
                r = sol.report
                assert sol.alpha == r.payoff_row + r.row_violation
                assert sol.beta == r.payoff_col + r.col_violation
                assert sol.slackness_residual == max(abs(r.row_violation), abs(r.col_violation))
            assert primal.lp_value == float(g.rho @ primal.q.weights) - primal.alpha
            r = joint.report
            assert value == joint.lp_value == 0.0 - (r.row_violation + r.col_violation)

    @pytest.mark.parametrize("m, n, seed", [
        (2, 5, 16647232389016630943),
        (5, 8, 6709127753205321489),
        (3, 6, 12378220232987519830),
    ])
    def test_zero_optimum_at_payoffs_near_1e9(self, m, n, seed):
        # separately summed, (rho.q - alpha) + (pi.p - beta) left roundoff
        # of these 10^9 payoffs beyond tol, though both gaps read exactly 0
        g = random_tpass(m, n, -1.0, 1.0, seed)
        g = TpassGame(g.A * 1e9, g.pi * 1e9, g.rho * 1e9)
        sol, value = solve_joint_lp(g, 1e-8)
        assert sol.report.is_equilibrium
        assert value == 0.0

    def test_zero_optimum_within_twice_tol_on_the_scale_probe(self, monkeypatch):
        # two games of the seed-201 scale probe whose pairs pass the
        # certificate at 1e-8.  The 2 x 6 game's gaps are 7.45e-9 each,
        # so its optimum -1.49e-8 lies within 2 tol; the 8 x 8 game's row
        # gap reads -1.19e-7, pure roundoff, and its optimum is refused.
        # These are the LP route's pairs: the 2 x 6 game has a strict
        # 2 x 2 kernel, whose pair's gaps read -7.45e-9 and +7.45e-9
        games = benchmark_games(monkeypatch, "scale-probe", 201)
        _lp_route_only(monkeypatch)
        within, beyond = games[18], games[25]
        assert (within.shape, beyond.shape) == ((2, 6), (8, 8))
        assert np.abs(within.A).max() > 1e7 and np.abs(beyond.A).max() > 1e8
        sol, value = solve_joint_lp(within, 1e-8)
        assert sol.report.is_equilibrium
        assert -2e-8 < value < -1e-8
        assert solve_equilibrium(beyond, 1e-8).report.is_equilibrium
        with pytest.raises(CertificationFailure,
                           match=r"^joint LP optimum 1.19e-07 is nonzero beyond 2 \* tol 2e-08"):
            solve_joint_lp(beyond, 1e-8)

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


class TestFeasibleStart:
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_game_tableaus_start_on_their_logicals(self, tableaus, k):
        # every game LP is the packing LP of a positive matrix of the
        # game's shape: <= rows of right-hand side 1 only, so no surplus
        # column and no artificial, on one tableau on both routes, for
        # every shape
        rng = np.random.default_rng(k + 3)
        lp_routes = 0
        for m, n in ((3, 5), (4, 4), (7, 2), (60, 40)):
            g = random_tpass(m, n, -1.0, 1.0, seed=int(rng.integers(1 << 32)))
            g = TpassGame(g.A * 10.0**k, g.pi * 10.0**k, g.rho * 10.0**k)
            # a game with a strict pure saddle, or whose kernel one step
            # on from the saddle search is strict, is answered without an LP
            Z = zero_sum_matrix(g)
            lp_route = not _strict_saddles(Z) and _one_step_kernel(Z) is None
            lp_routes += lp_route
            for solve in (solve_equilibrium, solve_joint_lp):
                tableaus.clear()
                solve(g)
                assert len(tableaus) == lp_route
                for tableau in tableaus:
                    P = tableau.given
                    assert isinstance(P, np.ndarray) and P.shape == (m, n)
                    assert (P > 0.0).all()
                    assert tableau.n_cols == n
                    assert int(tableau.artificial.sum()) == 0
        assert lp_routes >= 1

    def test_the_lp_as_a_model_gives_every_field_alike(self, monkeypatch):
        # lp.solve(Zh) solves the LP that LpModel(MAX, 1, Zh, <=, 1) states,
        # on the same pivots, so wrapping Zh in that model changes no bit
        # of either solver's solutions.  Every game takes the LP route
        games = _saddle_test_games(monkeypatch, "small-sweep", 1)
        _lp_route_only(monkeypatch)
        real, models = lp.solve, []
        calls = _lp_calls(monkeypatch)
        packing = _every_field(games)

        def as_model(P):
            models.append(packing_model(P))
            return real(models[-1])

        monkeypatch.setattr(lp, "solve", as_model)
        assert _every_field(games) == packing
        assert len(models) == len(calls) > len(games)


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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), None, "x", 1j])
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
        "route, game, field",
        [
            ("primal", dilemma(), "x"),
            ("joint", dilemma(), "x"),
            # three rows: one LP serves every shape, and the first player's
            # strategy is read off its duals, so swapping those fails too
            ("primal", TpassGame([[0, 1], [-1, 0], [-2, -1]], [0.5, 0.75, 0.0], [0.5, 0.75]), "x"),
            ("primal", TpassGame([[0, 1], [-1, 0], [-2, -1]], [0.5, 0.75, 0.0], [0.5, 0.75]), "duals"),
        ],
        # the id's first word names the LP vector swapped: primal or joint
        # values, or the matrix-game LP's duals
        ids=["primal-game0", "joint-game1", "primal-game2", "dual-game2"],
    )
    def test_certification_failure_names_the_route(self, monkeypatch, route, game, field):
        # swapping the first two LP values (or duals) moves a player off the
        # unique (dominant-strategy) equilibrium
        real = lp.solve

        def swapped(model):
            sol = real(model)
            vectors = {"x": sol.x.copy(), "duals": sol.duals.copy()}
            vectors[field][[0, 1]] = vectors[field][[1, 0]]
            return lp.LpSolution(sol.status, vectors["x"], sol.objective_value, vectors["duals"], sol.iterations)

        monkeypatch.setattr(lp, "solve", swapped)
        # these games have strict pure saddles, which skip the LP
        _lp_route_only(monkeypatch)
        solve = solve_joint_lp if route == "joint" else solve_equilibrium
        with pytest.raises(CertificationFailure, match=f"^{route} LP solution failed"):
            solve(game)


def _crafted_solve(status, x, duals):
    """A stand-in for :func:`lp.solve` that returns the given solution."""
    def solve(model):
        vectors = [None if v is None else np.array(v, dtype=float) for v in (x, duals)]
        return lp.LpSolution(status, vectors[0], 1.0, vectors[1], 1)

    return solve


_TOL = 1e-8
_NEAR_HALF = (0.5 + 0.3 * _TOL, 0.5 - 0.3 * _TOL)
# Z = A + pi 1' - 1 rho' = 0: every pair is an equilibrium
_CONSTANT_GAME = TpassGame(np.full((2, 2), -1.9e9), np.full(2, 2e9), np.full(2, 1e8))


class TestRefusals:
    @pytest.mark.parametrize(
        "solve, game, crafted, error, message",
        [
            (solve_equilibrium, matching_pennies(), (lp.OPTIMAL, (1 + 2e-8, -2e-8), (0.5, 0.5)),
             CertificationFailure, "^q from the LP has a negative coordinate -2e-08"),
            # eleven entries just inside -tol clamp to a sum 1.1e-7 above 1
            (solve_equilibrium, TpassGame(np.zeros((2, 12)), np.zeros(2), np.zeros(12)),
             (lp.OPTIMAL, (1 + 11 * 0.99e-8,) + (-0.99e-8,) * 11, (0.5, 0.5)),
             CertificationFailure, "^q from the LP sums to 1.0000001"),
            (solve_joint_lp, matching_pennies(), (lp.UNBOUNDED, None, None),
             SolverFailure, "^joint LP terminated unbounded"),
            # every pair of this constant game is an equilibrium, but with
            # its 2e9 offsets the row gap of this one reads -2.4e-7, past
            # what two gaps within tol can sum to
            (solve_joint_lp, _CONSTANT_GAME, (lp.OPTIMAL, (1.0, 1.0), (1.0, 2.0)),
             CertificationFailure,
             r"^joint LP optimum 2.38e-07 is nonzero beyond 2 \* tol 2e-08"),
        ],
        ids=["negative-coordinate", "sum", "unbounded", "nonzero-joint-optimum"],
    )
    def test_refusals_of_a_doubtful_lp_solution(self, monkeypatch, solve, game, crafted, error,
                                                message):
        monkeypatch.setattr(lp, "solve", _crafted_solve(*crafted))
        # matching pennies is a strict 2 x 2 kernel, which skips the LP
        _lp_route_only(monkeypatch)
        with pytest.raises(error, match=message):
            solve(game, _TOL)

    def test_the_joint_refusal_is_of_a_certified_pair(self, monkeypatch):
        monkeypatch.setattr(lp, "solve", _crafted_solve(lp.OPTIMAL, (1.0, 1.0), (1.0, 2.0)))
        sol = solve_equilibrium(_CONSTANT_GAME, _TOL)
        assert sol.report.is_equilibrium
        assert sol.report.row_violation + sol.report.col_violation < -2 * _TOL

    def test_two_gaps_within_tol_sum_within_the_joint_bound(self, monkeypatch):
        # both gaps are 0.6 tol: their sum is past tol but within 2 tol
        monkeypatch.setattr(lp, "solve", _crafted_solve(lp.OPTIMAL, _NEAR_HALF, _NEAR_HALF))
        _lp_route_only(monkeypatch)
        sol, value = solve_joint_lp(matching_pennies(), _TOL)
        assert sol.report.is_equilibrium
        assert -2 * _TOL < value < -_TOL


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


def _saddle_test_games(monkeypatch, source, seed):
    """The games of the benchmark's ``small-sweep`` workload at ``seed``,
    or 3000 games of 1..5 per side with every payoff in {-2, ..., 2}."""
    if source == "integer":
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(3000):
            m, n = (int(k) for k in rng.integers(1, 6, 2))
            out.append(TpassGame(rng.integers(-2, 3, (m, n)), rng.integers(-2, 3, m),
                                 rng.integers(-2, 3, n)))
        return out
    return benchmark_games(monkeypatch, source, seed)


_SADDLE_SOURCES = pytest.mark.parametrize(
    "source, seed", [("small-sweep", 1), ("small-sweep", 201), ("integer", 17)]
)


def _every_field(games):
    """Every field of both solvers' solutions of each game, as bits."""
    out = []
    for g in games:
        joint, value = solve_joint_lp(g)
        out.append((_bits(solve_equilibrium(g)), _bits(joint), type(value),
                    np.float64(value).tobytes()))
    return out


def _lp_calls(monkeypatch):
    """The argument of every :func:`lp.solve` call from now on."""
    calls = []
    real = lp.solve
    monkeypatch.setattr(lp, "solve", lambda model: calls.append(model) or real(model))
    return calls


class TestStrictSaddle:
    @_SADDLE_SOURCES
    def test_strict_saddle_is_found_exactly_when_one_exists(self, monkeypatch, source, seed):
        # the search returns a pure pair, a 1 x 1 kernel, exactly at a
        # strict saddle, and any other pair it returns is mixed
        games = _saddle_test_games(monkeypatch, source, seed)
        found = 0
        for g in games:
            Z = zero_sum_matrix(g)
            cells = _strict_saddles(Z)
            assert len(cells) <= 1
            pair = equilibrium._strict_kernel(Z)
            support = None if pair is None else _support(pair)
            pure = support is not None and support[0] + support[1] in cells[:1]
            assert pure == bool(cells)
            assert support is None or pure or (len(support[0]), len(support[1])) == (2, 2)
            found += bool(cells)
        assert 0.3 * len(games) < found < 0.7 * len(games)

    @_SADDLE_SOURCES
    def test_saddle_route_matches_the_lp_route_bit_for_bit(self, monkeypatch, source, seed):
        # the LP returns exactly the saddle's unit vectors, so every field
        # of the solution and its report is the LP route's, on both solvers
        games = _saddle_test_games(monkeypatch, source, seed)
        games = [g for g in games if _strict_saddles(zero_sum_matrix(g))]
        assert len(games) > 800
        calls = _lp_calls(monkeypatch)
        saddle = _every_field(games)
        assert calls == []
        _lp_route_only(monkeypatch)
        assert _every_field(games) == saddle
        assert len(calls) == 2 * len(games)

    def test_a_dominant_strategy_game_solves_no_lp(self, monkeypatch):
        calls = _lp_calls(monkeypatch)
        sol = solve_equilibrium(dilemma())
        joint, value = solve_joint_lp(dilemma())
        assert calls == []
        for s in (sol, joint):
            assert s.p.weights.tolist() == [1.0, 0.0]
            assert s.q.weights.tolist() == [1.0, 0.0]
            assert s.report.is_equilibrium
        assert value == 0.0

    @given(games(), st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_permuting_a_strict_saddle_game_permutes_its_pair(self, g, data):
        assume(_strict_saddles(zero_sum_matrix(g)))
        rows = np.array(data.draw(st.permutations(range(g.m))))
        cols = np.array(data.draw(st.permutations(range(g.n))))
        permuted = TpassGame(g.A[rows][:, cols], g.pi[rows], g.rho[cols])
        for solve in (solve_equilibrium, lambda game: solve_joint_lp(game)[0]):
            sol, other = solve(g), solve(permuted)
            assert np.array_equal(other.p.weights, sol.p.weights[rows])
            assert np.array_equal(other.q.weights, sol.q.weights[cols])


class TestStrictKernel:
    @_SADDLE_SOURCES
    def test_a_mixed_pair_is_the_one_strict_2x2_kernel(self, monkeypatch, source, seed):
        # the search returns a mixed pair exactly where the kernel one step
        # on from the saddle search is strict; the scan of every 2 x 2
        # kernel then finds that one alone, and the pair is its weights
        # to within roundoff
        games = _saddle_test_games(monkeypatch, source, seed)
        found = 0
        for g in games:
            Z = zero_sum_matrix(g)
            pair = equilibrium._strict_kernel(Z)
            if pair is not None and _support(pair) in (((i,), (j,)) for i, j in _strict_saddles(Z)):
                continue
            kernel = _one_step_kernel(Z)
            assert (pair is None) == (kernel is None)
            if pair is None:
                continue
            found += 1
            assert _strict_kernels(Z) == [kernel]
            (rows, cols, p, q) = kernel
            assert _support(pair) == (rows, cols)
            for s, index, exact in ((pair[0], rows, p), (pair[1], cols, q)):
                assert np.allclose(s.weights[list(index)], [float(w) for w in exact],
                                   rtol=0.0, atol=1e-15)
        assert found > {"small-sweep": 600, "integer": 50}[source]

    @pytest.mark.parametrize("seed", [1, 201])
    def test_exact_ties_go_to_the_lp(self, monkeypatch, seed):
        # a copy of a kernel row or column, or the mean of the two, earns
        # the value (the mean up to its roundoff), so the equilibrium is
        # no longer unique and no kernel is strict, whatever path the
        # search takes.  On integer games every exact tie of the search's
        # kernel is refused too
        games = _saddle_test_games(monkeypatch, "small-sweep", seed)
        fired = 0
        for g in games:
            Z = zero_sum_matrix(g)
            pair = equilibrium._strict_kernel(Z)
            if pair is None or len(_support(pair)[0]) == 1:
                continue
            (i, k), (j, l) = _support(pair)
            fired += 1
            for row in (Z[i], Z[k], (Z[i] + Z[k]) / 2):
                assert equilibrium._strict_kernel(np.vstack([Z, row])) is None
            for col in (Z[:, j], Z[:, l], (Z[:, j] + Z[:, l]) / 2):
                assert equilibrium._strict_kernel(np.column_stack([Z, col])) is None
        assert fired > 600
        ties = 0
        for g in _saddle_test_games(monkeypatch, "integer", 17):
            Z = zero_sum_matrix(g)
            (i, k), (j, l) = _one_step_cells(Z)
            a, b, c, d = Z[i, j], Z[i, l], Z[k, j], Z[k, l]
            if not (a < b and a < c and d < b and d < c) or _one_step_kernel(Z) is not None:
                continue
            # a mixed kernel that is not strict: some row or column ties
            # its value or beats it
            ties += 1
            assert equilibrium._strict_kernel(Z) is None
        assert ties > 50

    @pytest.mark.parametrize("seed", [1, 201])
    def test_the_kernel_pair_is_the_lp_route_pair(self, monkeypatch, seed):
        games = [g for g in _saddle_test_games(monkeypatch, "small-sweep", seed)
                 if _one_step_kernel(zero_sum_matrix(g)) is not None]
        assert len(games) > 600
        kernel = [(solve_equilibrium(g), solve_joint_lp(g)[0]) for g in games]
        calls = _lp_calls(monkeypatch)
        _lp_route_only(monkeypatch)
        for g, sols in zip(games, kernel):
            for sol, lp_sol in zip(sols, (solve_equilibrium(g), solve_joint_lp(g)[0])):
                assert np.abs(sol.p.weights - lp_sol.p.weights).max() <= 1e-12
                assert np.abs(sol.q.weights - lp_sol.q.weights).max() <= 1e-12
                assert sol.report.is_equilibrium
        assert len(calls) == 2 * len(games)

    def test_matching_pennies_solves_no_lp(self, monkeypatch):
        calls = _lp_calls(monkeypatch)
        sol, (joint, value) = solve_equilibrium(matching_pennies()), solve_joint_lp(matching_pennies())
        assert calls == []
        for s in (sol, joint):
            assert s.p.weights.tolist() == s.q.weights.tolist() == [0.5, 0.5]
            assert (s.alpha, s.beta) == (0.0, 0.0)
        assert value == 0.0

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**64 - 1), st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_permuting_a_kernel_game_permutes_its_pair(self, m, n, seed, data):
        # on games without ties, which the search breaks by order
        g = random_tpass(m, n, -1.0, 1.0, seed=seed)
        pair = equilibrium._strict_kernel(zero_sum_matrix(g))
        assume(pair is not None and len(_support(pair)[0]) == 2)
        rows = np.array(data.draw(st.permutations(range(g.m))))
        cols = np.array(data.draw(st.permutations(range(g.n))))
        permuted = TpassGame(g.A[rows][:, cols], g.pi[rows], g.rho[cols])
        for solve in (solve_equilibrium, lambda game: solve_joint_lp(game)[0]):
            sol, other = solve(g), solve(permuted)
            assert np.array_equal(other.p.weights, sol.p.weights[rows])
            assert np.array_equal(other.q.weights, sol.q.weights[cols])

    @pytest.mark.parametrize("seed", [1, 201])
    def test_a_power_of_two_scale_leaves_the_pair_bit_for_bit(self, monkeypatch, seed):
        # 2^k scales Z exactly, so every comparison and ratio of the search
        # is unchanged; the tolerance scales with the game
        games = [g for g in _saddle_test_games(monkeypatch, "small-sweep", seed)
                 if _one_step_kernel(zero_sum_matrix(g)) is not None][:40]
        for g in games:
            base = solve_equilibrium(g)
            for k in range(-20, 21):
                s = 2.0**k
                scaled = TpassGame(g.A * s, g.pi * s, g.rho * s)
                for sol in (solve_equilibrium(scaled, 1e-8 * s), solve_joint_lp(scaled, 1e-8 * s)[0]):
                    assert sol.p.weights.tobytes() == base.p.weights.tobytes()
                    assert sol.q.weights.tobytes() == base.q.weights.tobytes()
