import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpass import game, lp
from tpass.decompose import BimatrixGame
from tpass.demo import dilemma
from tpass.errors import InputError
from tpass.game import (
    MixedStrategy,
    TpassGame,
    build_payoff_matrices,
    is_equilibrium,
    payoff_col,
    payoff_row,
    pure_payoffs,
    random_tpass,
)
from tpass.gamefile import dumps_game

from gamegen import games, games_with_strategies, random_simplex


class TestTypes:
    def test_game_dimensions_must_match(self):
        with pytest.raises(InputError):
            TpassGame([[0.0, 1.0]], [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(InputError):
            TpassGame([[0.0, 1.0]], [1.0], [0.0])

    def test_game_rejects_non_finite(self):
        with pytest.raises(InputError):
            TpassGame([[np.inf]], [0.0], [0.0])

    def test_game_rejects_entries_beyond_float_range(self):
        with pytest.raises(InputError, match="^A is not a real array"):
            TpassGame([[10**400]], [0], [0])
        with pytest.raises(InputError, match="^pi is not a real array"):
            TpassGame([[0.0]], [-(10**400)], [0])

    @pytest.mark.parametrize(
        "A, pi, rho",
        [([[1e308, 0.0]], [1e308], [0.0, 0.0]), ([[-1e308]], [0.0], [1e308]),
         ([[0.0]], [1e308], [-1e308])],
        ids=["row-payoffs", "column-payoffs", "zero-sum-matrix"],
    )
    def test_game_rejects_payoffs_that_overflow(self, A, pi, rho):
        # finite entries whose sums are not: A + pi 1', -A + 1 rho', and
        # in the last case only Z = A + pi 1' - 1 rho'
        with pytest.raises(InputError, match="^payoffs overflow"):
            TpassGame(A, pi, rho)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TpassGame([[1j]], [0], [0]), "^A is not a real array"),
            (lambda: TpassGame({}, [0], [0]), "^A is not a real array"),
            (lambda: MixedStrategy([1j]), "^strategy weights is not a real array"),
            (lambda: BimatrixGame([["x"]], [[0]]), "^B is not a real array"),
            (lambda: is_equilibrium(dilemma(), "ab", [1, 0]), "^p is not a real vector"),
            (lambda: payoff_row(dilemma(), {}, [1, 0]), "^p is not a real vector"),
            (lambda: lp.LpModel(lp.MAX, [1j], [], [], []), "^objective is not an array"),
            (lambda: lp.LpModel(lp.MAX, "ab", [], [], []), "^objective is not an array"),
            (lambda: lp.LpModel(lp.MAX, [1.0], [[1.0]], [lp.LE], [1j]), "^b is not an array"),
            (lambda: lp.LpModel(lp.MAX, [1.0], [], [], [], bounds=5), "^bounds must be a sequence"),
            (lambda: TpassGame([0.0, 1.0], [0], [0]), "^A must be a nonempty 2-d real array"),
            (lambda: MixedStrategy([]), "^strategy weights must be a nonempty 1-d"),
            (lambda: is_equilibrium(dilemma(), [np.nan, 1], [1, 0]), "^p contains non-finite"),
            (lambda: lp.LpModel(lp.MAX, [[1.0]], [], [], []), "^objective must be a 1-d vector"),
            (lambda: lp.LpModel(lp.MAX, [], [], [], []), "^objective must be a 1-d vector"),
            (lambda: lp.LpModel(lp.MAX, [1.0], [], [], [], bounds=[]), "^bounds has length 0"),
            (lambda: dumps_game(dilemma().A), "^cannot serialize ndarray"),
        ],
        ids=["complex-A", "dict-A", "complex-weights", "string-B", "string-p", "dict-p",
             "complex-objective", "string-objective", "complex-b", "int-bounds", "1d-A",
             "empty-weights", "nan-p", "2d-objective", "empty-objective", "short-bounds",
             "array-game"],
    )
    def test_non_numeric_input_is_an_input_error(self, build, message):
        with pytest.raises(InputError, match=message):
            build()

    def test_game_arrays_are_read_only(self):
        g = dilemma()
        with pytest.raises(ValueError):
            g.A[0, 0] = 5.0

    def test_strategy_normalizes_within_tolerance(self):
        s = MixedStrategy([0.5, 0.5 + 1e-12])
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_strategy_rejects_off_simplex(self):
        with pytest.raises(InputError):
            MixedStrategy([0.6, 0.5])
        with pytest.raises(InputError):
            MixedStrategy([1.5, -0.5])

    def test_pure_strategy_is_one_hot(self):
        s = MixedStrategy.pure(2, 3)
        assert s.weights.tolist() == [0.0, 1.0, 0.0]
        assert len(s) == 3
        with pytest.raises(InputError):
            MixedStrategy.pure(0, 3)

    @pytest.mark.parametrize(
        "size, message",
        [(3.0, "must be an integer"), ("3", "must be an integer"), (None, "must be an integer"),
         (0, "must be at least 1"), (-1, "must be at least 1")],
    )
    def test_pure_strategy_size_must_be_a_positive_integer(self, size, message):
        with pytest.raises(InputError, match=f"^size {message}"):
            MixedStrategy.pure(1, size)

    def test_array_of_strategy_is_a_writable_copy(self):
        s = MixedStrategy([0.25, 0.75])
        copied = np.array(s)
        copied[0] = 1.0
        assert s.weights.tolist() == [0.25, 0.75]
        assert np.shares_memory(np.asarray(s), s.weights)


class TestPurePayoffs:
    def test_zero_kernel_leaves_bonuses(self):
        g = TpassGame([[0.0]], [2.0], [5.0])
        assert pure_payoffs(g, 1, 1) == (2.0, 5.0)

    def test_dilemma_corner_cells(self):
        g = dilemma()
        assert pure_payoffs(g, 1, 1) == (0.5, 0.5)
        # direct evaluation: A[1][2] + pi[1] = 1 + 1/2
        assert pure_payoffs(g, 1, 2) == (1.5, -0.25)

    def test_index_out_of_range(self):
        g = dilemma()
        for i, j in [(0, 1), (3, 1), (1, 0), (1, 3)]:
            with pytest.raises(InputError):
                pure_payoffs(g, i, j)

    @pytest.mark.parametrize("index", [2.0, 1.5, "1", None, np.float64(1.0)])
    def test_non_integer_index_is_an_input_error(self, index):
        g = dilemma()
        with pytest.raises(InputError, match="must be an integer"):
            MixedStrategy.pure(index, 3)
        with pytest.raises(InputError, match="must be an integer"):
            pure_payoffs(g, 1, index)
        with pytest.raises(InputError, match="must be an integer"):
            pure_payoffs(g, index, 1)

    @pytest.mark.parametrize("index", [np.int64(2), np.uint8(2)])
    def test_numpy_integers_are_indices(self, index):
        assert MixedStrategy.pure(index, 3).weights.tolist() == [0.0, 1.0, 0.0]
        assert pure_payoffs(dilemma(), index, index) == pure_payoffs(dilemma(), 2, 2)

    @given(games())
    def test_pair_sums_to_bonus_total(self, g):
        for i in range(1, g.m + 1):
            for j in range(1, g.n + 1):
                r, c = pure_payoffs(g, i, j)
                assert r + c == pytest.approx(g.pi[i - 1] + g.rho[j - 1], abs=1e-12)


class TestMixedPayoffs:
    def test_vertices_reduce_to_pure_payoffs(self):
        g = random_tpass(3, 4, -2.0, 2.0, seed=11)
        for i in range(1, 4):
            for j in range(1, 5):
                p = MixedStrategy.pure(i, 3)
                q = MixedStrategy.pure(j, 4)
                expected = pure_payoffs(g, i, j)
                assert payoff_row(g, p, q) == pytest.approx(expected[0], abs=1e-12)
                assert payoff_col(g, p, q) == pytest.approx(expected[1], abs=1e-12)

    def test_dilemma_values(self):
        g = dilemma()
        assert payoff_row(g, [1, 0], [1, 0]) == 0.5
        assert payoff_col(g, [1, 0], [1, 0]) == 0.5
        assert payoff_col(g, [1, 0], [0, 1]) == -0.25

    def test_dilemma_uniform_mix_against_brute_force(self):
        # oracle: explicit double sum over cells
        g = dilemma()
        p = q = np.array([0.5, 0.5])
        brute = sum(
            p[i] * q[j] * (g.A[i, j] + g.pi[i]) for i in range(2) for j in range(2)
        )
        assert brute == pytest.approx(0.625, abs=1e-15)
        assert payoff_row(g, p, q) == pytest.approx(brute, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        g = dilemma()
        with pytest.raises(InputError):
            payoff_row(g, [1.0, 0.0, 0.0], [1.0, 0.0])
        with pytest.raises(InputError):
            payoff_col(g, [1.0, 0.0], [1.0])

    @given(games_with_strategies())
    def test_sum_identity(self, gpq):
        # the +/- p.Aq terms cancel, leaving the separable bonus total
        g, p, q = gpq
        total = payoff_row(g, p, q) + payoff_col(g, p, q)
        assert total == pytest.approx(float(p @ g.pi + g.rho @ q), abs=1e-12)

    @given(games_with_strategies())
    def test_matrix_form_identity(self, gpq):
        g, p, q = gpq
        R = np.tile(g.pi[:, None], (1, g.n))
        Cm = np.tile(g.rho[None, :], (g.m, 1))
        assert float(p @ R @ q) == pytest.approx(float(p @ g.pi), abs=1e-12)
        assert float(p @ Cm @ q) == pytest.approx(float(g.rho @ q), abs=1e-12)


class TestPayoffMatrices:
    def test_zero_kernel(self):
        g = TpassGame(np.zeros((2, 3)), [1.0, 2.0], [3.0, 4.0, 5.0])
        B, C = build_payoff_matrices(g)
        assert np.array_equal(B, np.tile(g.pi[:, None], (1, 3)))
        assert np.array_equal(C, np.tile(g.rho[None, :], (2, 1)))

    def test_dilemma_matrices(self):
        B, C = build_payoff_matrices(dilemma())
        assert B.tolist() == [[0.5, 1.5], [-0.25, 0.75]]
        assert C.tolist() == [[0.5, -0.25], [1.5, 0.75]]

    @given(games())
    def test_entries_match_pure_payoffs(self, g):
        B, C = build_payoff_matrices(g)
        for i in range(g.m):
            for j in range(g.n):
                assert (B[i, j], C[i, j]) == pure_payoffs(g, i + 1, j + 1)

    @given(games(), st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_constant_bonuses_give_constant_sum(self, g, c, d):
        constant_sum = TpassGame(g.A, np.full(g.m, c), np.full(g.n, d))
        B, C = build_payoff_matrices(constant_sum)
        assert np.abs((B + C) - (c + d)).max() <= 1e-12


class TestIsEquilibrium:
    def test_matching_pennies_center(self):
        g = TpassGame([[1, -1], [-1, 1]], [0, 0], [0, 0])
        rep = is_equilibrium(g, [0.5, 0.5], [0.5, 0.5])
        assert rep.is_equilibrium
        assert rep.max_violation <= 1e-12

    def test_dilemma_dominant_pair(self):
        rep = is_equilibrium(dilemma(), [1, 0], [1, 0])
        assert rep.is_equilibrium
        assert rep.row_violation == 0.0
        assert rep.col_violation == 0.0

    def test_dilemma_cooperative_cell_fails(self):
        rep = is_equilibrium(dilemma(), [0, 1], [0, 1])
        assert not rep.is_equilibrium
        assert rep.row_violation == pytest.approx(0.75, abs=1e-15)

    def test_rejects_bad_inputs(self):
        g = dilemma()
        with pytest.raises(InputError):
            is_equilibrium(g, [1, 0, 0], [1, 0])
        with pytest.raises(InputError):
            is_equilibrium(g, [0.6, 0.5], [1, 0])
        with pytest.raises(InputError):
            is_equilibrium(g, [1, 0], [1, 0], tol=0.0)

    @given(games_with_strategies(min_m=2, min_n=2))
    @settings(max_examples=50)
    def test_mixed_deviations_never_beat_best_pure(self, gpq):
        # bilinearity: the pure-deviation reduction is exact
        g, p, q = gpq
        rng = np.random.default_rng(7)
        best_row = float((g.A @ q + g.pi).max())
        best_col = float((-(g.A.T @ p) + g.rho).max())
        for _ in range(20):
            assert payoff_row(g, random_simplex(rng, g.m), q) <= best_row + 1e-12
            assert payoff_col(g, p, random_simplex(rng, g.n)) <= best_col + 1e-12


class TestRandomTpass:
    def test_same_seed_same_game(self):
        a = random_tpass(3, 4, -1.0, 1.0, seed=42)
        b = random_tpass(3, 4, -1.0, 1.0, seed=42)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.rho, b.rho)

    def test_different_seeds_differ(self):
        a = random_tpass(3, 4, -1.0, 1.0, seed=1)
        b = random_tpass(3, 4, -1.0, 1.0, seed=2)
        assert not np.array_equal(a.A, b.A)

    def test_degenerate_range_gives_zero_game(self):
        g = random_tpass(2, 2, 0.0, 0.0, seed=9)
        assert np.array_equal(g.A, np.zeros((2, 2)))
        assert np.array_equal(g.pi, np.zeros(2))

    def test_shape_and_bounds(self):
        g = random_tpass(3, 4, -1.0, 1.0, seed=42)
        assert g.shape == (3, 4)
        for arr in (g.A, g.pi, g.rho):
            assert arr.min() >= -1.0 and arr.max() < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(InputError):
            random_tpass(0, 2, -1.0, 1.0, seed=1)
        with pytest.raises(InputError):
            random_tpass(2, 2, 1.0, -1.0, seed=1)
        with pytest.raises(InputError):
            random_tpass(2, 2, -np.inf, 1.0, seed=1)

    def test_rejects_non_integer_sizes_and_seeds(self):
        for args in ((2.7, 3, -1.0, 1.0, 0), (2, "3", -1.0, 1.0, 0), (2, 3, -1.0, 1.0, 1.9)):
            with pytest.raises(InputError, match="must be integers"):
                random_tpass(*args)

    def test_rejects_non_numeric_bounds(self):
        for lo, hi in (("a", 1.0), (None, 1.0), (-1.0, [1.0])):
            with pytest.raises(InputError, match="must be real numbers"):
                random_tpass(2, 2, lo, hi, seed=0)

    def test_rejects_a_range_whose_width_overflows(self):
        with pytest.raises(InputError, match=r"lo=-1e\+308, hi=1e\+308"):
            random_tpass(2, 2, -1e308, 1e308, seed=0)

    def test_rejects_a_size_past_numpy_index_range(self):
        # numpy refuses the draw before it allocates anything
        with pytest.raises(InputError, match="10000000000x10000000000 game is too large"):
            random_tpass(10**10, 10**10, -1.0, 1.0, seed=0)

    def test_rejects_a_size_that_cannot_be_allocated(self, monkeypatch):
        def out_of_memory(seed, count):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(game, "_splitmix64", out_of_memory)
        with pytest.raises(InputError, match="100000x100000 game is too large"):
            random_tpass(100000, 100000, -1.0, 1.0, seed=0)


_MASK64 = (1 << 64) - 1


def _splitmix64_reference(seed, count):
    """The README's SplitMix64 recurrence, one scalar step per draw."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.append((z >> 11) * 2.0**-53)
    return out


class TestSplitMix64Stream:
    def test_seed_zero_gives_published_outputs(self):
        g = random_tpass(1, 1, 0.0, 1.0, seed=0)
        published = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        expected = [(x >> 11) * 2.0**-53 for x in published]
        assert [g.A[0, 0], g.pi[0], g.rho[0]] == expected

    def test_matches_scalar_recurrence(self):
        rng = random.Random(2014)
        seeds = [
            lambda: rng.randrange(-(2**63), 0),
            lambda: rng.randrange(2**63, 2**64),
            lambda: rng.randrange(0, 2**63),
            lambda: rng.randrange(-1000, 1000),
        ]
        for k in range(600):
            m, n = rng.randint(1, 11), rng.randint(1, 11)
            seed = seeds[k % len(seeds)]()
            lo = rng.uniform(-1e6, 1e6)
            hi = lo + 10.0 ** rng.uniform(-6, 6)
            u = np.array([lo + (hi - lo) * x for x in _splitmix64_reference(seed, m * n + m + n)])
            g = random_tpass(m, n, lo, hi, seed)
            assert np.array_equal(g.A, u[: m * n].reshape(m, n))
            assert np.array_equal(g.pi, u[m * n : m * n + m])
            assert np.array_equal(g.rho, u[m * n + m :])
