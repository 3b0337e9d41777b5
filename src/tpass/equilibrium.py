"""Equilibrium computation and certification via linear programming.

Three programs drive everything.  For a game ``(A, pi, rho)`` with ``m``
rows and ``n`` columns:

**Primal LP** over ``(q, alpha)`` with ``q >= 0`` and ``alpha`` free::

    maximize    rho . q - alpha
    subject to  A q - alpha 1 <= -pi        (m rows)
                sum(q) = 1

Feasibility forces ``alpha >= max_i (A q + pi)_i``, the row player's
best-response value against ``q``, so the program searches for a column
strategy that closes the row player's advantage.

**Dual LP** over ``(p, beta)`` with ``p >= 0`` and ``beta`` free::

    minimize    -pi . p + beta
    subject to  A' p + beta 1 >= rho        (n rows)
                sum(p) = 1

This is exactly the LP dual of the primal program (the simplex equality
normalized to ``sum(p) = 1``), so both share one optimal value.  At a
joint optimum, complementary slackness pins the scalars to the expected
payoffs: ``alpha = p.Aq + p.pi`` and ``beta = -p.Aq + rho.q``, and the
pair ``(p, q)`` read from primal solution and dual multipliers is an
equilibrium.  :func:`solve_equilibrium` therefore solves one of the two
LPs and reads the other player's half off its multipliers.  It solves
the one with fewer rows: the primal when ``m <= n``, and the dual LP,
which is the ``m > n`` solve path, otherwise.  Simplex pivots grow with
the row count, so a 200 x 10 game costs about what a 10 x 200 one does.

**Joint LP** over ``(p, q, alpha, beta)``, all of the above at once::

    maximize    pi . p + rho . q - alpha - beta
    subject to  A q + pi - alpha 1 <= 0     (m rows)
                -A' p + rho - beta 1 <= 0   (n rows)
                sum(p) = 1,  sum(q) = 1

``p`` appears only in the second block and ``q`` only in the first, so
this is a genuine linear program.  Premultiplying the blocks by ``p``
and ``q`` shows the objective equals ``-(alpha - payoff_row) -
(beta - payoff_col) <= 0`` at every feasible point; equilibria are
exactly the feasible points reaching 0, and the optimum is always 0
because an equilibrium always exists.  :func:`solve_joint_lp` asserts
the zero optimum and reads the equilibrium off the optimal vertex.  The
two blocks share no variable, so :func:`lp.solve` solves them on
separate tableaus once the model is large enough to repay the split.

Multiplicity: these LPs can have many optima (one per equilibrium, plus
faces between them).  The solvers return the single vertex selected by
the deterministic pivot rule; enumerating equilibria is the oracle
module's job at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import CertificationFailure, SolverFailure
from .game import (
    EquilibriumReport,
    MixedStrategy,
    TOL_EQUILIBRIUM,
    TpassGame,
    _validated_strategy,
    is_equilibrium,
    payoff_col,
    payoff_row,
    simplex_deviation,
)


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """A certified equilibrium with its LP provenance.

    ``alpha`` and ``beta`` are the players' equilibrium payoffs,
    ``lp_value`` the objective value of the LP that produced the pair
    (primal or dual LP for :func:`solve_equilibrium`, which share one
    optimal value; joint LP for :func:`solve_joint_lp`), and
    ``slackness_residual`` the worst violation of the optimality
    identities ``p.Aq - alpha = -p.pi`` and ``p.Aq + beta = rho.q``.
    """

    p: MixedStrategy
    q: MixedStrategy
    alpha: float
    beta: float
    lp_value: float
    slackness_residual: float


def build_primal_lp(game: TpassGame) -> lp.LpModel:
    """The primal program over ``(q, alpha)`` (variables in that order)."""
    m, n = game.shape
    M = np.zeros((m + 1, n + 1))
    M[:m, :n] = game.A
    M[:m, n] = -1.0
    M[m, :n] = 1.0
    rel = np.full(m + 1, lp.LE)
    rel[m] = lp.EQ
    bounds = (lp.NONNEG,) * n + (lp.FREE,)
    return lp.LpModel.from_arrays(
        lp.MAX, np.append(game.rho, -1.0), M, rel, np.append(-game.pi, 1.0), bounds
    )


def build_dual_lp(game: TpassGame) -> lp.LpModel:
    """The dual program over ``(p, beta)`` (variables in that order)."""
    m, n = game.shape
    M = np.zeros((n + 1, m + 1))
    M[:n, :m] = game.A.T
    M[:n, m] = 1.0
    M[n, :m] = 1.0
    rel = np.full(n + 1, lp.GE)
    rel[n] = lp.EQ
    bounds = (lp.NONNEG,) * m + (lp.FREE,)
    return lp.LpModel.from_arrays(
        lp.MIN, np.append(-game.pi, 1.0), M, rel, np.append(game.rho, 1.0), bounds
    )


def build_joint_lp(game: TpassGame) -> lp.LpModel:
    """The joint program over ``(p, q, alpha, beta)`` (in that order)."""
    m, n = game.shape
    k = m + n
    M = np.zeros((k + 2, k + 2))
    M[:m, m:k] = game.A
    M[:m, k] = -1.0
    M[m:k, :m] = -game.A.T
    M[m:k, k + 1] = -1.0
    M[k, :m] = 1.0
    M[k + 1, m:k] = 1.0
    rel = np.full(k + 2, lp.LE)
    rel[k:] = lp.EQ
    objective = np.concatenate([game.pi, game.rho, [-1.0, -1.0]])
    b = np.concatenate([-game.pi, -game.rho, [1.0, 1.0]])
    bounds = (lp.NONNEG,) * k + (lp.FREE, lp.FREE)
    return lp.LpModel.from_arrays(lp.MAX, objective, M, rel, b, bounds)


def _optimality_residual(game: TpassGame, p: np.ndarray, q: np.ndarray,
                         alpha: float, beta: float) -> float:
    pAq = float(p @ game.A @ q)
    return max(
        abs(pAq - alpha + float(p @ game.pi)),
        abs(pAq + beta - float(game.rho @ q)),
    )


def _clean_simplex(v: np.ndarray, tol: float, name: str) -> np.ndarray:
    """Clamp solver roundoff off a simplex point; reject real violations."""
    low = float(v.min())
    if low < -tol:
        raise CertificationFailure(
            f"{name} from the LP has a negative coordinate {low:.3g} beyond tol {tol:g}"
        )
    v = np.clip(v, 0.0, None)
    total = v.sum()
    if abs(total - 1.0) > 10.0 * max(tol, 1e-9):
        raise CertificationFailure(f"{name} from the LP sums to {total}, expected 1")
    return v / total


def solve_equilibrium(game: TpassGame, tol: float = TOL_EQUILIBRIUM) -> EquilibriumSolution:
    """Compute one equilibrium from the primal or the dual LP and certify it.

    The LP with fewer rows is solved: the primal (``m + 1`` rows) unless
    ``m > n``, then the dual (``n + 1`` rows).  From the primal, ``q``
    and ``alpha`` are its values and ``p`` and ``beta`` the multipliers
    of the inequality block and the simplex equality.  From the dual,
    ``p`` and ``beta`` are its values, ``q`` the multipliers of its
    inequality block and ``alpha`` minus the multiplier of its simplex
    equality.  The assembled pair must pass :func:`is_equilibrium` at
    ``tol`` or :class:`CertificationFailure` is raised.
    """
    m, n = game.shape
    if m > n:
        sol = _solved(build_dual_lp(game), "dual")
        p, beta = sol.x[:m], float(sol.x[m])
        q, alpha = sol.duals[:n], -float(sol.duals[n])
    else:
        sol = _solved(build_primal_lp(game), "primal")
        q, alpha = sol.x[:n], float(sol.x[n])
        p, beta = sol.duals[:m], float(sol.duals[m])
    q = _clean_simplex(q, tol, "q")
    p = _clean_simplex(p, tol, "p")
    report = is_equilibrium(game, p, q, tol)
    if not report.is_equilibrium:
        raise CertificationFailure(
            f"LP solution failed the best-response check "
            f"(max violation {report.max_violation:.3g} at tol {tol:g})"
        )
    return EquilibriumSolution(
        MixedStrategy(p),
        MixedStrategy(q),
        alpha,
        beta,
        lp_value=sol.objective_value,
        slackness_residual=_optimality_residual(game, p, q, alpha, beta),
    )


def _solved(model: lp.LpModel, name: str) -> lp.LpSolution:
    sol = lp.solve(model)
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(f"{name} LP terminated {sol.status}; the program is always solvable")
    return sol


def verify_lp_pair(game: TpassGame, p, q, tol: float = TOL_EQUILIBRIUM) -> EquilibriumReport:
    """Certify that a strategy pair yields optima of the primal/dual LPs.

    With ``alpha = payoff_row(p, q)`` and ``beta = payoff_col(p, q)``,
    checks that ``(q, alpha)`` is primal-feasible, ``(p, beta)`` is
    dual-feasible, and the two objective values agree; matching feasible
    objectives certify joint optimality.  All three hold exactly when
    ``(p, q)`` is an equilibrium.

    Report fields: ``row_violation`` is the worst primal-row violation,
    ``col_violation`` the worst dual-row violation, and
    ``simplex_violation`` folds the simplex deviations together with the
    primal-dual objective gap (which is zero by construction up to
    roundoff).
    """
    pw, _ = _validated_strategy(p, game.m, "p")
    qw, _ = _validated_strategy(q, game.n, "q")
    alpha = payoff_row(game, pw, qw)
    beta = payoff_col(game, pw, qw)
    primal_violation = float((game.A @ qw + game.pi).max() - alpha)
    dual_violation = float((game.rho - game.A.T @ pw).max() - beta)
    gap = abs((float(game.rho @ qw) - alpha) - (-float(game.pi @ pw) + beta))
    off_simplex = max(simplex_deviation(pw), simplex_deviation(qw), gap)
    ok = max(primal_violation, dual_violation, off_simplex) <= tol
    return EquilibriumReport(ok, primal_violation, dual_violation, off_simplex)


def check_joint_lp(game: TpassGame, p, q, tol: float = TOL_EQUILIBRIUM) -> bool:
    """Whether ``(p, q)`` is certified by the joint program.

    Sets ``alpha = payoff_row(p, q)`` and ``beta = payoff_col(p, q)``,
    which make the joint objective exactly zero, and tests feasibility
    of ``(p, q, alpha, beta)`` within ``tol``.  True exactly when the
    pair is an equilibrium.
    """
    pw, _ = _validated_strategy(p, game.m, "p")
    qw, _ = _validated_strategy(q, game.n, "q")
    alpha = payoff_row(game, pw, qw)
    beta = payoff_col(game, pw, qw)
    row_block = float((game.A @ qw + game.pi).max() - alpha)
    col_block = float((-(game.A.T @ pw) + game.rho).max() - beta)
    return max(row_block, col_block) <= tol


def solve_joint_lp(game: TpassGame, tol: float = TOL_EQUILIBRIUM) -> tuple[EquilibriumSolution, float]:
    """Solve the joint program and read an equilibrium off its optimum.

    Returns the certified solution together with the optimal objective
    value, which must vanish within ``tol``: an equilibrium always
    exists, so a nonzero optimum signals a numerical problem and raises
    :class:`CertificationFailure`.
    """
    sol = _solved(build_joint_lp(game), "joint")
    value = sol.objective_value
    if abs(value) > tol:
        raise CertificationFailure(
            f"joint LP optimum {value:.3g} is nonzero beyond tol {tol:g}"
        )
    m, n = game.shape
    p = _clean_simplex(sol.x[:m], tol, "p")
    q = _clean_simplex(sol.x[m : m + n], tol, "q")
    alpha = float(sol.x[m + n])
    beta = float(sol.x[m + n + 1])
    report = is_equilibrium(game, p, q, tol)
    if not report.is_equilibrium:
        raise CertificationFailure(
            f"joint LP vertex failed the best-response check "
            f"(max violation {report.max_violation:.3g} at tol {tol:g})"
        )
    solution = EquilibriumSolution(
        MixedStrategy(p),
        MixedStrategy(q),
        alpha,
        beta,
        lp_value=value,
        slackness_residual=_optimality_residual(game, p, q, alpha, beta),
    )
    return solution, value
