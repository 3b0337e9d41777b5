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

from gamegen import PACKING_SOURCES, packing_matrices, random_lp  # noqa: E402

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


@pytest.mark.parametrize("source, seed", PACKING_SOURCES)
def test_packing_lps_match_highs(monkeypatch, source, seed):
    # entries up to 10^12 apart: with 10^U(-9, 9) entries, HiGHS at its
    # default tolerances stops short of the optimum on about a tenth of
    # these LPs.  A SolverFailure fails the test: none is refused.
    for P in packing_matrices(monkeypatch, source, seed):
        m, n = P.shape
        sol = lp.solve(P)
        res = linprog(-np.ones(n), A_ub=P, b_ub=np.ones(m), method="highs")
        assert res.status == 0, res.message
        assert sol.objective_value == pytest.approx(-res.fun, rel=1e-7, abs=0.0)


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


@pytest.mark.parametrize("sense", [lp.MAX, lp.MIN])
def test_every_set_up_branch_at_once_matches_highs(sense, tableaus):
    # x2 free, a >= row, a <= row with b < 0 (a >= row after the flip)
    # and a >= row with b < 0 (a <= row after it): the split, the flip,
    # two surplus columns and a phase 1 on one tableau
    model = lp.LpModel(
        sense,
        [1.0, 1.0, -1.0],
        [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]],
        [lp.LE, lp.GE, lp.LE, lp.GE],
        [4.0, 1.0, -1.0, -3.0],
        (lp.NONNEG, lp.FREE, lp.NONNEG),
    )
    sol = lp.solve(model)
    (tableau,) = tableaus
    assert tableau.split and tableau.flips.tolist() == [1.0, 1.0, -1.0, -1.0]
    assert tableau.n_cols == model.n_vars + 1 + 2
    assert tableau.artificial.tolist() == [False] * 6 + [False, True, True, False]
    status, value = highs_reference(model)
    assert sol.status == status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(value, abs=1e-9)


def test_small_lps_match_highs(monkeypatch):
    # this sample includes unbounded LPs whose ray column holds a
    # positive roundoff entry below PIVOT_EPS; every pivot is watched too:
    # an artificial that leaves the basis leaves an all-zero column that
    # never enters again
    real_pivot, departures = lp._Tableau._pivot, []

    def pivot(tableau, row, col):
        assert not tableau.artificial[tableau.nonbasic[col]]
        departures.append(bool(tableau.artificial[tableau.basis[row]]))
        real_pivot(tableau, row, col)
        assert not tableau.T[:, :-1][:, tableau.artificial[tableau.nonbasic]].any()

    monkeypatch.setattr(lp._Tableau, "_pivot", pivot)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        model = random_lp(rng)
        status, value = highs_reference(model)
        sol = lp.solve(model)
        assert sol.status == status
        if status == lp.OPTIMAL:
            assert sol.objective_value == pytest.approx(value, abs=1e-7)
    assert sum(departures) > 1000


@pytest.mark.parametrize("k", [-6, -3, 3])
@pytest.mark.parametrize("part", ["M", "model"])
def test_scaled_lps_match_highs_or_fail(k, part):
    """The random LPs with the constraint matrix, or every entry, times
    ``10**k``.  Tiny or huge entries may make the solver refuse
    (``SolverFailure``), but never return a status HiGHS disagrees with.
    At ``10**-6`` all 2000 are read: LP 1027 was reported infeasible."""
    scale = 10.0**k
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(2000 if k == -6 else 1000):
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


def test_a_feasible_lp_is_refused_not_called_infeasible():
    # LP 1027 of the stream with M times 1e-6: HiGHS finds the optimum
    # -4e6 at x = (1e6, 0, 1e6, 0), but phase 1 stops with an artificial
    # above zero on a blown-up tableau.  Its final basis is singular, so
    # the Farkas re-check refuses the answer
    rng = np.random.default_rng(5)
    models = [random_lp(rng) for _ in range(1028)]
    model = replace(models[1027], M=1e-6 * models[1027].M)
    status, value = highs_reference(model)
    assert status == lp.OPTIMAL
    assert value == pytest.approx(-4e6, rel=1e-9)
    with pytest.raises(SolverFailure, match="^infeasible basis is numerically singular"):
        lp.solve(model)


def test_large_scale_statuses_match_highs():
    """With every entry of the random LPs times 10^6, phase 1 can end on a
    false ray, a roundoff reduced cost over a nonpositive column; met at a
    basis feasible by the infeasibility measure, phase 2 goes on from it.
    Every status not refused must still be HiGHS's.  4 of these LPs are
    still refused, all by ``_verify`` (ROADMAP item 7)."""
    rng = np.random.default_rng(5)
    wrong = []
    refused = 0
    for index in range(1000):
        model = random_lp(rng)
        model = replace(model, objective=1e6 * model.objective, M=1e6 * model.M, b=1e6 * model.b)
        try:
            sol = lp.solve(model)
        except SolverFailure:
            refused += 1
            continue
        status, value = highs_reference(model)
        if sol.status != status or (
            status == lp.OPTIMAL
            and sol.objective_value != pytest.approx(value, rel=1e-7, abs=1e-7 * 1e6)
        ):
            wrong.append(index)
    assert wrong == []
    assert refused <= 4
