"""Differential tests against an independent LP solver (SciPy's HiGHS).

Small random general-form LPs are solved by :func:`tpass.lp.solve` and
by HiGHS, which must agree on the status and the optimum.  Scaled copies
may make the solver refuse, but never disagree.

For games, the game ``(A, pi, rho)`` is strategically equivalent to the zero-sum
game ``Z = A + pi 1' - 1 rho'`` with the row player maximizing, so every
equilibrium ``(p, q)`` with row payoff ``alpha`` has
``rho . q - alpha = -value(Z)``.  HiGHS computes ``value(Z)`` without
touching this package's solver.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from tpass import lp  # noqa: E402
from tpass.equilibrium import solve_equilibrium, solve_joint_lp  # noqa: E402
from tpass.errors import SolverFailure  # noqa: E402
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


_HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}


def _highs(model, objective, presolve=True):
    """HiGHS on ``model`` with ``objective`` minimized."""
    le, ge, eq = (model.rel == rel for rel in (lp.LE, lp.GE, lp.EQ))
    rows = {}
    if (le | ge).any():
        rows["A_ub"] = np.vstack([model.M[le], -model.M[ge]])
        rows["b_ub"] = np.concatenate([model.b[le], -model.b[ge]])
    if eq.any():
        rows["A_eq"], rows["b_eq"] = model.M[eq], model.b[eq]
    bounds = [(None, None) if kind == lp.FREE else (0, None) for kind in model.bounds]
    return linprog(objective, bounds=bounds, method="highs", options={"presolve": presolve},
                   **rows)


def highs_reference(model) -> tuple[str, float]:
    """HiGHS's status and optimal value for ``model``.

    HiGHS's presolve reports some unbounded LPs infeasible, so an
    "infeasible" is confirmed with a zero-objective solve; if that finds
    a feasible point, the status is HiGHS's without presolve.
    """
    sign = -1.0 if model.sense == lp.MAX else 1.0
    res = _highs(model, sign * model.objective)
    if res.status == 2 and _highs(model, np.zeros(model.n_vars)).status == 0:
        res = _highs(model, sign * model.objective, presolve=False)
    assert res.status in _HIGHS_STATUS, res.message
    return _HIGHS_STATUS[res.status], sign * res.fun if res.status == 0 else None


def random_lp(rng) -> lp.LpModel:
    """``m`` 1..4 rows, ``n`` 1..5 variables, integer entries in -3..3,
    60% zero right-hand sides, mixed relations, 20% free variables."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    b = np.where(rng.random(m) < 0.6, 0, rng.integers(-3, 4, size=m))
    return lp.LpModel(
        lp.MAX if rng.random() < 0.5 else lp.MIN,
        rng.integers(-3, 4, size=n),
        rng.integers(-3, 4, size=(m, n)),
        rng.choice([lp.LE, lp.EQ, lp.GE], size=m),
        b,
        tuple(lp.FREE if free else lp.NONNEG for free in rng.random(n) < 0.2),
    )


def test_highs_presolve_calls_a_feasible_lp_infeasible():
    # feasible at (0, 0, 4, 1), and -x4 decreases without limit
    model = lp.LpModel(
        lp.MAX,
        [0.0, 0.0, 0.0, 1.0],
        [[-2.0, 1.0, 1.0, -3.0], [2.0, -3.0, -2.0, 2.0], [2.0, 3.0, 0.0, -1.0]],
        [lp.LE, lp.LE, lp.LE],
        [1.0, 0.0, -1.0],
        (lp.NONNEG,) * 3 + (lp.FREE,),
    )
    assert highs_reference(model) == (lp.UNBOUNDED, None)
    assert lp.solve(model).status == lp.UNBOUNDED


def test_small_lps_match_highs():
    # this sample includes unbounded LPs whose ray column holds a
    # positive roundoff entry below PIVOT_EPS
    rng = np.random.default_rng(5)
    for _ in range(2000):
        model = random_lp(rng)
        status, value = highs_reference(model)
        sol = lp.solve(model)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.objective_value == pytest.approx(value, abs=1e-7)


@pytest.mark.parametrize("k", [-6, -3, 3])
@pytest.mark.parametrize("part", ["M", "model"])
def test_scaled_lps_match_highs_or_fail(k, part):
    """The random LPs with the constraint matrix, or every entry, times
    ``10**k``.  Tiny or huge entries may make the solver refuse
    (``SolverFailure``), but never return a status HiGHS disagrees with."""
    scale = 10.0**k
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(1000):
        model = random_lp(rng)
        if part == "M":
            model = replace(model, M=scale * model.M)
            value_scale = 1.0 / scale  # x scales by 1/scale
        else:
            model = replace(model, objective=scale * model.objective, M=scale * model.M,
                            b=scale * model.b)
            value_scale = scale
        status, value = highs_reference(model)
        try:
            sol = lp.solve(model)
        except SolverFailure:
            refused += 1
            continue
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.objective_value == pytest.approx(value, rel=1e-7, abs=1e-7 * value_scale)
    assert refused <= 10
