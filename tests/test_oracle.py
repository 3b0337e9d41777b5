from itertools import combinations

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


# {-2..2} payoffs scaled by 10^6: three overdetermined systems on the q
# side, rows {1,2,4}, {2,3,4} and {1,2,3,4} against columns {2,3}, solve
# exactly although they are ill-conditioned
SCALED_4X3 = BimatrixGame(
    1e6 * np.array([[0, -1, 0], [2, -1, 2], [-1, -1, 0], [1, -1, -2]]),
    1e6 * np.array([[-1, 0, -2], [0, 0, -1], [0, 1, 0], [-2, -2, 2]]),
)


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), None, "x"])
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


def indifference_solution(payoffs, support, opp_support, full_size, tol):
    """One side of one support pair, solved on its own: the opponent
    mixture over ``opp_support`` equalizing ``support``'s payoffs, embedded
    at full length, or None."""
    k, l = len(support), len(opp_support)
    M = np.zeros((k + 1, l + 1))
    M[:k, :l] = payoffs[np.ix_(support, opp_support)]
    M[:k, l] = -1.0
    M[k, :l] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    if k == l:
        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            return None
    else:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.abs(M @ sol - rhs).max() > max(tol, 1e-10):
            return None
    if not np.all(np.isfinite(sol)):
        return None
    mix = sol[:l]
    if mix.min() < -tol:
        return None
    full = np.zeros(full_size)
    full[list(opp_support)] = np.clip(mix, 0.0, None)
    total = full.sum()
    if total <= 0.0:
        return None
    return full / total


def supports(count):
    """The nonempty subsets of ``range(count)``, by size and then
    lexicographically."""
    for size in range(1, count + 1):
        yield from combinations(range(count), size)


def per_pair_enumeration(bg, tol=1e-8):
    """The enumeration as one loop over support pairs, a system at a time:
    the reference the stacked solves must reproduce bit for bit."""
    m, n = bg.shape
    B, C = bg.B, bg.C
    found = []
    for rows in supports(m):
        for cols in supports(n):
            q = indifference_solution(B, rows, cols, n, tol)
            if q is None:
                continue
            p = indifference_solution(C.T, cols, rows, m, tol)
            if p is None:
                continue
            row_value = float(p @ B @ q)
            col_value = float(p @ C @ q)
            if (B @ q).max() > row_value + tol:
                continue
            if (C.T @ p).max() > col_value + tol:
                continue
            duplicate = any(
                max(np.abs(p - fp).max(), np.abs(q - fq).max()) <= oracle.DEDUP_EPS
                for _, _, fp, fq in found
            )
            if not duplicate:
                found.append((rows, cols, p, q))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(MixedStrategy(p), MixedStrategy(q)) for _, _, p, q in found]


class TestStackedSolves:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """Count the square systems found singular and the rectangular
        systems solved by least squares."""
        counts = {"singular": 0, "least_squares": 0}
        least_squares, slogdet = oracle._least_squares, np.linalg.slogdet

        def counted_least_squares(M, tol):
            counts["least_squares"] += len(M)
            return least_squares(M, tol)

        def counted_slogdet(M):
            result = slogdet(M)
            counts["singular"] += int((result[0] == 0).sum())
            return result

        monkeypatch.setattr(oracle, "_least_squares", counted_least_squares)
        monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
        return counts

    def test_random_games_match_the_per_pair_loop(self):
        rng = np.random.default_rng(1729)
        for _ in range(300):
            m, n = (int(d) for d in rng.integers(1, 6, 2))
            bg = BimatrixGame(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, n)))
            assert as_pairs(enumerate_equilibria(bg)) == as_pairs(per_pair_enumeration(bg))

    def test_integer_games_match_the_per_pair_loop_through_both_fallbacks(self, fallbacks):
        # small integer payoffs make singular square systems and
        # rectangular systems that solve exactly
        rng = np.random.default_rng(31415)
        for _ in range(300):
            m, n = (int(d) for d in rng.integers(1, 6, 2))
            B, C = rng.integers(-2, 3, (2, m, n)).astype(float)
            bg = BimatrixGame(B, C)
            assert as_pairs(enumerate_equilibria(bg)) == as_pairs(per_pair_enumeration(bg))
        assert fallbacks["singular"] > 0
        assert fallbacks["least_squares"] > 0

    def test_scaled_games_at_three_tols_match_the_per_pair_loop(self):
        # payoffs scaled by 10^k and tols far from the default reach least
        # squares solutions that only the exactness check refuses
        rng = np.random.default_rng(2026)
        for g in range(100):
            m, n = (int(d) for d in rng.integers(1, 6, 2))
            if g % 2:
                B, C = rng.integers(-2, 3, (2, m, n)).astype(float)
            else:
                B, C = rng.uniform(-1, 1, (2, m, n))
            bg = BimatrixGame(*(10.0 ** int(rng.integers(-9, 10)) * np.array([B, C])))
            for tol in (1e-4, 1e-8, 1e-12):
                assert as_pairs(enumerate_equilibria(bg, tol)) == as_pairs(
                    per_pair_enumeration(bg, tol)
                )

    def test_perturbed_integer_games_match_the_per_pair_loop(self, fallbacks):
        # 3..5 per side, so that size groups hold up to 100 pairs and the
        # screen leaves some groups empty
        rng = np.random.default_rng(271)
        for _ in range(40):
            m, n = (int(d) for d in rng.integers(3, 6, 2))
            B, C = rng.integers(-2, 3, (2, m, n)).astype(float)
            for bg in (BimatrixGame(B, C), BimatrixGame(B + rng.uniform(-0.1, 0.1, B.shape), C)):
                assert as_pairs(enumerate_equilibria(bg)) == as_pairs(per_pair_enumeration(bg))
        assert fallbacks["singular"] > 0
        assert fallbacks["least_squares"] > 0

    @pytest.mark.parametrize(
        "bg",
        [
            BimatrixGame(
                8.5e307 * np.array([[1, 0], [2, -1], [2, 1]]),
                8.5e307 * np.array([[2, -2], [1, 2], [-2, -1]]),
            ),
            BimatrixGame(
                5e-324 * np.array([[-1, 0, -2], [2, 2, -2]]),
                5e-324 * np.array([[2, 0, -2], [2, 2, -2]]),
            ),
        ],
        ids=["overflowing-log-determinant", "zero-log-determinant"],
    )
    def test_payoffs_near_the_float_limits_warn_nothing(self, bg):
        # only slogdet's sign is read; its log-determinant of these stacks
        # overflows or is log(0), which must not warn (warnings are errors
        # here)
        assert as_pairs(enumerate_equilibria(bg)) == as_pairs(per_pair_enumeration(bg))

    def test_slogdet_sign_is_zero_exactly_where_a_lone_solve_raises(self):
        # every square system, both sides, of the 300 {-2..2} games above:
        # _mixtures finds the singular systems of a stack by that sign
        rng = np.random.default_rng(31415)
        singular = 0
        for _ in range(300):
            m, n = (int(d) for d in rng.integers(1, 6, 2))
            B, C = rng.integers(-2, 3, (2, m, n)).astype(float)
            for I, J in zip(oracle._by_size(m), oracle._by_size(n)):
                rows, cols = np.repeat(I, len(J), axis=0), np.tile(J, (len(I), 1))
                for M in (oracle._systems(B, rows, cols), oracle._systems(C.T, cols, rows)):
                    for system, sign in zip(M, np.linalg.slogdet(M)[0]):
                        try:
                            np.linalg.solve(system, np.eye(len(system))[-1])
                        except np.linalg.LinAlgError:
                            raised = True
                        else:
                            raised = False
                        assert (sign == 0) == raised
                        singular += raised
        assert singular > 0

    def test_the_screen_passes_every_system_that_least_squares_accepts(self):
        # the overdetermined side of every rectangular support pair, over
        # payoffs scaled by 10^k that make many of them ill-conditioned
        rng = np.random.default_rng(1618)
        games = [SCALED_4X3]
        for g in range(200):
            m, n = (int(d) for d in rng.integers(1, 6, 2))
            if g % 2:
                B, C = rng.integers(-2, 3, (2, m, n)).astype(float)
            else:
                B, C = rng.uniform(-1, 1, (2, m, n))
            games.append(BimatrixGame(*(10.0 ** int(rng.integers(-9, 10)) * np.array([B, C]))))
        accepted = 0
        for bg in games:
            for I in oracle._by_size(bg.m):
                for J in oracle._by_size(bg.n):
                    if I.shape[1] == J.shape[1]:
                        continue
                    rows, cols = np.repeat(I, len(J), axis=0), np.tile(J, (len(I), 1))
                    side = (bg.B, rows, cols) if I.shape[1] > J.shape[1] else (bg.C.T, cols, rows)
                    M = oracle._systems(*side)
                    for tol in (1e-4, 1e-8, 1e-12):
                        solved = np.isfinite(oracle._least_squares(M, tol)).all(axis=1)
                        assert oracle._may_solve_exactly(*side, tol)[solved].all()
                        accepted += int(solved.sum())
        assert accepted > 0

    def test_the_scaled_4x3_game_has_14_equilibria(self):
        assert len(enumerate_equilibria(SCALED_4X3, 1e-8)) == 14

    @pytest.mark.parametrize(
        "bg",
        [
            BimatrixGame(np.zeros((3, 3)), np.zeros((3, 3))),
            BimatrixGame([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
            SCALED_4X3,
        ],
        ids=["zero-3x3", "coordination", "scaled-4x3"],
    )
    def test_degenerate_games_match_the_per_pair_loop(self, bg):
        assert as_pairs(enumerate_equilibria(bg)) == as_pairs(per_pair_enumeration(bg))


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
        with pytest.raises(InputError, match="at most 5x5$"):
            cross_check(g, sol)

    def test_solution_of_another_shape_is_an_input_error(self):
        sol = solve_equilibrium(random_tpass(3, 2, -1.0, 1.0, seed=1))
        with pytest.raises(InputError, match="^solution is 3x2, but the game is 2x2$"):
            cross_check(dilemma(), sol)
        # checked before the enumeration, which would refuse a 6x2 game
        with pytest.raises(InputError, match="^solution is 3x2, but the game is 6x2$"):
            cross_check(random_tpass(6, 2, -1.0, 1.0, seed=1), sol)

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
