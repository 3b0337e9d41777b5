import numpy as np
import pytest

from tpass.decompose import BimatrixGame, compose
from tpass.demo import dilemma
from tpass.equilibrium import EquilibriumSolution, solve_equilibrium
from tpass.errors import InputError
from tpass.game import MixedStrategy, is_equilibrium, random_tpass
from tpass import oracle
from tpass.oracle import cross_check, enumerate_equilibria

from gamegen import random_games


def as_pairs(equilibria):
    return [(p.weights.tolist(), q.weights.tolist()) for p, q in equilibria]


def test_matching_pennies_unique_mix():
    bg = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    assert as_pairs(enumerate_equilibria(bg)) == [([0.5, 0.5], [0.5, 0.5])]


def test_coordination_game_three_equilibria():
    bg = BimatrixGame([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert as_pairs(enumerate_equilibria(bg)) == [
        ([1.0, 0.0], [1.0, 0.0]),
        ([0.5, 0.5], [0.5, 0.5]),
        ([0.0, 1.0], [0.0, 1.0]),
    ]


def test_dilemma_single_dominant_equilibrium():
    assert as_pairs(enumerate_equilibria(compose(dilemma()))) == [([1.0, 0.0], [1.0, 0.0])]


def test_one_dimensional_game():
    bg = BimatrixGame([[1.0, 2.0, 3.0]], [[5.0, 4.0, 3.0]])
    assert as_pairs(enumerate_equilibria(bg)) == [([1.0], [1.0, 0.0, 0.0])]


def test_degenerate_duplicate_rows_no_crash():
    bg = BimatrixGame([[1.0, 1.0], [1.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]])
    for p, q in enumerate_equilibria(bg):
        pw, qw = np.asarray(p, float), np.asarray(q, float)
        assert (bg.B @ qw).max() <= float(pw @ bg.B @ qw) + 1e-8


def test_size_cap_enforced():
    big = BimatrixGame(np.zeros((6, 2)), np.zeros((6, 2)))
    with pytest.raises(InputError):
        enumerate_equilibria(big)
    # explicit opt-in raises the cap
    assert enumerate_equilibria(big, size_cap=6)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tol_rejected(tol):
    g = dilemma()
    sol = solve_equilibrium(g)
    with pytest.raises(InputError, match="tol must be positive"):
        enumerate_equilibria(compose(g), tol)
    with pytest.raises(InputError, match="tol must be positive"):
        cross_check(g, sol, tol)


def test_output_is_deterministic():
    g = random_tpass(3, 3, -1.0, 1.0, seed=404)
    bg = compose(g)
    first = as_pairs(enumerate_equilibria(bg))
    second = as_pairs(enumerate_equilibria(bg))
    assert first == second


def test_oracle_soundness_on_separable_games():
    for g in random_games(40, seed_base=80_000, min_dim=2, max_dim=4, rng_seed=6):
        for p, q in enumerate_equilibria(compose(g)):
            assert is_equilibrium(g, p, q, 1e-8).is_equilibrium


def test_odd_equilibrium_counts_on_nondegenerate_games():
    rng = np.random.default_rng(2718281828)
    total = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        B = rng.uniform(-1, 1, (m, n))
        C = rng.uniform(-1, 1, (m, n))
        if len(set(B.ravel())) < B.size or len(set(C.ravel())) < C.size:
            continue
        assert len(enumerate_equilibria(BimatrixGame(B, C))) % 2 == 1
        total += 1
    assert total >= 90


class TestCrossCheck:
    def test_confirms_lp_solution_on_dilemma(self):
        g = dilemma()
        assert cross_check(g, solve_equilibrium(g))

    def test_confirms_matching_pennies(self):
        from tpass.game import TpassGame

        g = TpassGame([[1, -1], [-1, 1]], [0, 0], [0, 0])
        assert cross_check(g, solve_equilibrium(g))

    def test_rejects_fabricated_pair(self):
        g = dilemma()
        fake = EquilibriumSolution(
            MixedStrategy([0.0, 1.0]), MixedStrategy([0.0, 1.0]), 0.75, 0.75, 0.0, 0.0
        )
        assert not cross_check(g, fake)

    def test_size_cap(self):
        g = random_tpass(6, 2, -1.0, 1.0, seed=1)
        sol = solve_equilibrium(g)
        with pytest.raises(InputError):
            cross_check(g, sol)

    def test_agreement_on_random_games(self):
        for g in random_games(60, seed_base=90_000, min_dim=2, max_dim=4, rng_seed=7):
            assert cross_check(g, solve_equilibrium(g))

    @pytest.mark.parametrize(
        "stub",
        [
            [],
            # off-equilibrium cells whose value of Z differs from the game's 0
            [(MixedStrategy([0.0, 1.0]), MixedStrategy([1.0, 0.0]))],
            [(MixedStrategy([1.0, 0.0]), MixedStrategy([0.0, 1.0]))],
        ],
        ids=["empty", "row-2-col-1", "row-1-col-2"],
    )
    def test_rejects_a_certified_solve_when_the_enumeration_disagrees(self, monkeypatch, stub):
        g = dilemma()
        sol = solve_equilibrium(g)
        monkeypatch.setattr(oracle, "enumerate_equilibria", lambda *args, **kwargs: stub)
        assert not cross_check(g, sol)

    def test_rejects_enumerated_equilibria_with_different_values(self, monkeypatch):
        g = dilemma()
        sol = solve_equilibrium(g)
        found = [(sol.p, sol.q), (MixedStrategy([0.0, 1.0]), MixedStrategy([1.0, 0.0]))]
        monkeypatch.setattr(oracle, "enumerate_equilibria", lambda *args, **kwargs: found)
        assert not cross_check(g, sol)

    def test_confirms_both_routes_on_random_games(self):
        from tpass.equilibrium import solve_joint_lp

        for g in random_games(60, seed_base=91_000, min_dim=1, max_dim=5, rng_seed=8):
            assert cross_check(g, solve_equilibrium(g))
            assert cross_check(g, solve_joint_lp(g)[0])
