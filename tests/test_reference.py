"""Differential tests against an independent LP solver (SciPy's HiGHS).

The game ``(A, pi, rho)`` is strategically equivalent to the zero-sum
game ``Z = A + pi 1' - 1 rho'`` with the row player maximizing, so every
equilibrium ``(p, q)`` with row payoff ``alpha`` has
``rho . q - alpha = -value(Z)``.  HiGHS computes ``value(Z)`` without
touching this package's solver.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from tpass.equilibrium import solve_equilibrium, solve_joint_lp  # noqa: E402
from tpass.game import is_equilibrium, random_tpass  # noqa: E402

TOL = 1e-8


def zero_sum_value(game) -> float:
    """``min_q max_i (Z q)_i``, the value of ``Z`` for the maximizing row player."""
    Z = game.A + game.pi[:, None] - game.rho[None, :]
    m, n = Z.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([Z, -np.ones((m, 1))]),
        b_ub=np.zeros(m),
        A_eq=np.concatenate([np.ones(n), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _solve(game, method):
    if method == "primal":
        return solve_equilibrium(game, TOL)
    return solve_joint_lp(game, TOL)[0]


@pytest.mark.parametrize("method", ["primal", "joint"])
@pytest.mark.parametrize(
    "shape", [(200, 10), (10, 200), (64, 64), (128, 128)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_large_games_match_highs(shape, method):
    game = random_tpass(*shape, -1.0, 1.0, seed=sum(shape))
    sol = _solve(game, method)
    assert is_equilibrium(game, sol.p, sol.q, TOL).is_equilibrium
    claim = float(game.rho @ sol.q.weights) - sol.alpha
    assert claim == pytest.approx(-zero_sum_value(game), abs=1e-7)
