import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpass.decompose import (
    BimatrixGame,
    compose,
    decompose,
    default_separability_tol,
    is_separable_sum,
)
from tpass.demo import dilemma, dilemma_near_miss
from tpass.errors import InputError, NotSeparable
from tpass.game import TpassGame, build_payoff_matrices, is_equilibrium, random_tpass

from gamegen import games, random_simplex


def test_bimatrix_shapes_must_match():
    with pytest.raises(InputError):
        BimatrixGame([[1.0, 2.0]], [[1.0], [2.0]])


def test_compose_matches_payoff_matrices():
    g = random_tpass(3, 2, -1.0, 1.0, seed=5)
    bg = compose(g)
    B, C = build_payoff_matrices(g)
    assert np.array_equal(bg.B, B)
    assert np.array_equal(bg.C, C)


def test_compose_zero_game():
    bg = compose(TpassGame(np.zeros((2, 2)), np.zeros(2), np.zeros(2)))
    assert not bg.B.any() and not bg.C.any()


class TestSeparability:
    def test_composed_dyadic_game_exactly_separable(self):
        # dyadic entries make the float tetrads vanish exactly
        ok, residual = is_separable_sum(compose(dilemma()))
        assert ok
        assert residual == 0.0

    @given(games())
    @settings(max_examples=60)
    def test_composed_games_separable(self, g):
        ok, residual = is_separable_sum(compose(g))
        assert ok
        assert residual <= 1e-12

    def test_near_miss_matrices_fail_with_residual_three_halves(self):
        ok, residual = is_separable_sum(dilemma_near_miss())
        assert not ok
        assert residual == 1.5

    def test_one_dimensional_games_always_separable(self):
        rng = np.random.default_rng(3)
        row = BimatrixGame(rng.random((1, 4)), rng.random((1, 4)))
        col = BimatrixGame(rng.random((4, 1)), rng.random((4, 1)))
        assert is_separable_sum(row) == (True, 0.0)
        assert is_separable_sum(col) == (True, 0.0)

    def test_payoffs_at_the_float_limit_keep_their_residual(self):
        # S - S[:, :1] of [[1e308, -1e308]] is -inf unless S is scaled first
        bg = BimatrixGame([[1e308, -1e308]], [[0.0, 0.0]])
        assert is_separable_sum(bg) == (True, 0.0)
        assert decompose(bg).max_residual == 0.0
        # a power-of-two scale near the limit scales the residual exactly
        near = dilemma_near_miss()
        big = BimatrixGame(np.ldexp(near.B, 1020), np.ldexp(near.C, 1020))
        assert is_separable_sum(big)[1] == np.ldexp(1.5, 1020)
        # a residual beyond the float range reads inf, not nan
        huge = BimatrixGame([[1e308, -1e308], [0.0, 1e308]], np.zeros((2, 2)))
        assert is_separable_sum(huge) == (False, np.inf)

    def test_decompose_reports_the_separability_residual(self):
        # decompose forms S = B + C once, as is_separable_sum does: the
        # residual its NotSeparable carries is exactly the test's, at the
        # default tol and at a given one
        bg = BimatrixGame(*build_payoff_matrices(random_tpass(4, 5, -3.0, 3.0, seed=21)))
        B = np.array(bg.B)
        B[2, 3] += 0.25
        bg = BimatrixGame(B, bg.C)
        for tol in (None, 1e-3):
            ok, residual = is_separable_sum(bg, tol)
            assert not ok
            with pytest.raises(NotSeparable) as caught:
                decompose(bg, tol)
            assert caught.value.residual == residual
            assert caught.value.tol == (default_separability_tol(bg) if tol is None else tol)

    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_overflowing_payoff_sum_rejected(self, tol):
        bg = BimatrixGame([[1e308, 0.0], [0.0, 0.0]], [[1e308, 0.0], [0.0, 0.0]])
        for check in (is_separable_sum, decompose):
            with pytest.raises(InputError, match="B \\+ C must be finite"):
                check(bg, tol)

    @pytest.mark.parametrize(
        "B, C",
        [([[0.0, 1.7e308]], [[-8.5e307, -8.5e307]]), ([[0.0, 0.0]], [[-8.5e307, 1.7e308]])],
        ids=["A", "rho"],
    )
    def test_overflowing_split_rejected(self, B, C):
        # B + C is finite and separable, but the gauge-fixed split
        # overflows: A = B - pi 1' in the first game, rho in the second
        with pytest.raises(InputError, match="^payoffs overflow: pi, rho and A must be finite$"):
            decompose(BimatrixGame(B, C))

    def test_negative_tol_rejected(self):
        with pytest.raises(InputError):
            is_separable_sum(compose(dilemma()), tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), "x"])
    def test_non_finite_tol_rejected(self, tol):
        for check in (is_separable_sum, decompose):
            with pytest.raises(InputError):
                check(compose(dilemma()), tol=tol)

    def test_zero_tol_allowed(self):
        assert is_separable_sum(compose(dilemma()), tol=0.0) == (True, 0.0)
        assert decompose(compose(dilemma()), tol=0.0).max_residual == 0.0

    def test_zero_tol_decomposes_an_exactly_separable_game(self):
        # the tetrads vanish exactly, but rebuilding C costs an ulp
        bg = compose(random_tpass(3, 4, -1.0, 1.0, seed=3))
        assert is_separable_sum(bg, tol=0.0) == (True, 0.0)
        result = decompose(bg, tol=0.0)
        assert 0.0 < result.max_residual <= 4 * np.finfo(float).eps * np.abs(bg.C).max()

    def test_default_tol_scales_with_payoffs(self):
        big = BimatrixGame([[1e6, 0.0], [0.0, 0.0]], [[1e6, 0.0], [0.0, 0.0]])
        assert default_separability_tol(big) == pytest.approx(2e-3, rel=1e-6)

    @given(games(min_m=2, min_n=2))
    @settings(max_examples=40)
    def test_single_entry_perturbations_rejected(self, g):
        bg = compose(g)
        rng = np.random.default_rng(17)
        B = np.array(bg.B)
        i = rng.integers(0, g.m)
        j = rng.integers(0, g.n)
        B[i, j] += 1e-3
        ok, residual = is_separable_sum(BimatrixGame(B, bg.C), tol=1e-9)
        assert not ok
        assert residual >= 0.5e-3

    def test_permuted_separable_game_still_passes(self):
        g = random_tpass(4, 3, -1.0, 1.0, seed=77)
        bg = compose(g)
        rng = np.random.default_rng(5)
        pr = rng.permutation(4)
        pc = rng.permutation(3)
        shuffled = BimatrixGame(bg.B[np.ix_(pr, pc)], bg.C[np.ix_(pr, pc)])
        ok, residual = is_separable_sum(shuffled)
        assert ok
        assert residual <= 1e-12


class TestDecompose:
    def test_constant_sum_example(self):
        bg = BimatrixGame([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
        result = decompose(bg)
        g = result.game
        assert g.pi.tolist() == [0.5, 0.5]
        assert g.rho.tolist() == [0.5, 0.5]
        assert np.array_equal(g.A, bg.B - 0.5)

    def test_recovers_dilemma_generators_exactly(self):
        result = decompose(compose(dilemma()))
        g = result.game
        assert g.A.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
        assert g.pi.tolist() == [0.5, 0.75]
        assert g.rho.tolist() == [0.5, 0.75]
        assert result.max_residual == 0.0

    def test_not_separable_raises_with_residual(self):
        with pytest.raises(NotSeparable) as err:
            decompose(dilemma_near_miss())
        assert err.value.residual == 1.5

    @given(games())
    @settings(max_examples=60)
    def test_round_trip(self, g):
        bg = compose(g)
        result = decompose(bg)
        back = compose(result.game)
        assert np.abs(back.B - bg.B).max() <= 1e-12
        assert np.abs(back.C - bg.C).max() <= 1e-12

    @given(games())
    @settings(max_examples=40)
    def test_residual_within_documented_bound(self, g):
        bg = compose(g)
        tol = default_separability_tol(bg)
        result = decompose(bg)
        assert result.max_residual <= (g.m + g.n) * tol


class TestGaugeFreedom:
    @given(games(), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=40)
    def test_shift_moves_payoff_matrices_oppositely(self, g, c):
        shifted = TpassGame(g.A, g.pi + c, g.rho - c)
        B0, C0 = build_payoff_matrices(g)
        B1, C1 = build_payoff_matrices(shifted)
        assert np.abs(B1 - (B0 + c)).max() <= 1e-12
        assert np.abs(C1 - (C0 - c)).max() <= 1e-12

    def test_equilibrium_verdicts_are_gauge_invariant(self):
        rng = np.random.default_rng(11)
        for k in range(30):
            g = random_tpass(3, 3, -1.0, 1.0, seed=60_000 + k)
            shifted = TpassGame(g.A, g.pi + 0.7, g.rho - 0.7)
            p = random_simplex(rng, 3)
            q = random_simplex(rng, 3)
            a = is_equilibrium(g, p, q, 1e-8).is_equilibrium
            b = is_equilibrium(shifted, p, q, 1e-8).is_equilibrium
            assert a == b
