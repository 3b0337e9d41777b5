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
equilibrium.

The dual LP is also the primal LP of the transposed game ``(-A', rho,
pi)``, in which the players swap seats: negating its objective and its
rows gives ``maximize pi . p - beta`` subject to ``-A' p - beta 1 <=
-rho`` and ``sum(p) = 1``, the primal program with ``(q, alpha)``
renamed ``(p, beta)``, whose optimum is minus the dual's.  So one
builder, :func:`build_primal_lp`, serves both orientations, and every
solve reads the same way: ``(q, alpha)`` off the values and ``(p,
beta)`` off the multipliers of the game it was built from.
:func:`solve_equilibrium` solves the orientation with fewer rows: the
game's own primal LP (route ``primal``, ``m + 1`` rows) when ``m <= n``,
otherwise the transposed game's (route ``dual``, ``n + 1`` rows), whose
two halves it swaps back.  Simplex pivots grow with the row count, so a
200 x 10 game costs about what a 10 x 200 one does.

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
two blocks share no variable: the first ``m`` rows with ``sum(q) = 1``
are the game's primal LP and the next ``n`` rows with ``sum(p) = 1`` the
transposed game's, row for row and column for column.  From
:data:`SPLIT_MIN_ROWS` joint rows on, :func:`solve_joint_lp` solves the
two player LPs on their own tableaus, and the joint optimum is the sum
of theirs; below that, one joint tableau is cheaper.

Certification: a pair is an equilibrium exactly when it solves the LP
pair, and exactly when it reaches the joint LP's zero optimum.  So the
LP-pair and joint-LP certificates are the best-response gaps of
:func:`tpass.game.is_equilibrium` under other names, and they are
computed once: :func:`verify_lp_pair` returns its report and
:func:`check_joint_lp` its verdict, and their docstrings state the
identities.  Both solvers end in one tail: the simplex points read off
the LP are cleaned of roundoff and certified at ``tol``, a failure
raises :class:`CertificationFailure` naming the route (primal, dual or
joint), and the slackness residual compares the LP's ``alpha`` and
``beta`` with the payoffs the certificate computed.

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
    _check_tol,
    is_equilibrium,
)

# Joint-LP rows (m + n + 2) from which solve_joint_lp solves the two
# player LPs on separate tableaus.  A pivot then updates only its own
# program's rows and columns, which repays the second tableau's set-up
# from about a 26 x 26 game on; the constant is the measured break-even.
SPLIT_MIN_ROWS = 54


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """A certified equilibrium with its LP provenance.

    ``alpha`` and ``beta`` are the players' equilibrium payoffs,
    ``lp_value`` the optimal value of the primal/dual LP pair for
    :func:`solve_equilibrium` and of the joint LP for
    :func:`solve_joint_lp`, and ``slackness_residual`` the worst
    violation of the optimality identities ``alpha = p.Aq + p.pi`` and
    ``beta = -p.Aq + rho.q``.  ``report`` is the :func:`is_equilibrium`
    certificate of exactly ``p`` and ``q``; the solvers always set it.
    """

    p: MixedStrategy
    q: MixedStrategy
    alpha: float
    beta: float
    lp_value: float
    slackness_residual: float
    report: EquilibriumReport | None = None


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
    return lp.LpModel(
        lp.MAX, np.append(game.rho, -1.0), M, rel, np.append(-game.pi, 1.0), bounds
    )


def build_dual_lp(game: TpassGame) -> lp.LpModel:
    """The dual program over ``(p, beta)`` (variables in that order), in
    its textbook minimize form.

    The solvers do not use it: they solve the same program as
    ``build_primal_lp(_transposed(game))``.  Where a bonus ``rho[j]`` is
    exactly 0, this form's ``>=`` row has a zero right-hand side and
    needs an artificial column, which costs phase-1 pivots the
    maximize form's slack does not.
    """
    m, n = game.shape
    M = np.zeros((n + 1, m + 1))
    M[:n, :m] = game.A.T
    M[:n, m] = 1.0
    M[n, :m] = 1.0
    rel = np.full(n + 1, lp.GE)
    rel[n] = lp.EQ
    bounds = (lp.NONNEG,) * m + (lp.FREE,)
    return lp.LpModel(
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
    return lp.LpModel(lp.MAX, objective, M, rel, b, bounds)


def _transposed(game: TpassGame) -> TpassGame:
    """The game with the players' seats swapped: ``(-A', rho, pi)``."""
    return TpassGame(-game.A.T, game.rho, game.pi)


def _clean_simplex(v: np.ndarray, tol: float, name: str) -> MixedStrategy:
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
    return MixedStrategy(v / total)


def solve_equilibrium(game: TpassGame, tol: float = TOL_EQUILIBRIUM) -> EquilibriumSolution:
    """Compute one equilibrium from the primal LP of the game or of its
    transpose, and certify it.

    The orientation with fewer rows is solved: the game's primal LP
    (``m + 1`` rows, route ``primal``) unless ``m > n``, then the
    transposed game's (``n + 1`` rows, route ``dual``), whose ``(q,
    alpha)`` and ``(p, beta)`` are the game's ``(p, beta)`` and ``(q,
    alpha)``, and whose optimum is minus the dual LP's.  The pair must
    pass :func:`is_equilibrium` at ``tol`` or
    :class:`CertificationFailure` is raised; a ``tol`` that is not
    positive and finite raises :class:`InputError` before any work.
    """
    _check_tol(tol)
    if game.m > game.n:
        p, beta, q, alpha, value = _player_lp(_transposed(game), "dual")
        return _certified(game, "dual", p, q, alpha, beta, -value, tol)
    q, alpha, p, beta, value = _player_lp(game, "primal")
    return _certified(game, "primal", p, q, alpha, beta, value, tol)


def _player_lp(game: TpassGame, route: str) -> tuple[np.ndarray, float, np.ndarray, float, float]:
    """Solve ``build_primal_lp(game)``: ``(q, alpha)`` from its values,
    ``(p, beta)`` from its multipliers, then its optimal value."""
    m, n = game.shape
    sol = _solved(build_primal_lp(game), route)
    return sol.x[:n], float(sol.x[n]), sol.duals[:m], float(sol.duals[m]), sol.objective_value


def _solved(model: lp.LpModel, route: str) -> lp.LpSolution:
    sol = lp.solve(model)
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(f"{route} LP terminated {sol.status}; the program is always solvable")
    return sol


def _certified(game: TpassGame, route: str, p: np.ndarray, q: np.ndarray, alpha: float,
               beta: float, lp_value: float, tol: float) -> EquilibriumSolution:
    """The certified solution read off the ``route`` LP.

    Cleans the simplex points into the strategies it returns, certifies
    them with :func:`is_equilibrium` and measures the slackness residual
    from the payoffs the certificate computed.
    """
    p = _clean_simplex(p, tol, "p")
    q = _clean_simplex(q, tol, "q")
    report = is_equilibrium(game, p, q, tol)
    if not report.is_equilibrium:
        raise CertificationFailure(
            f"{route} LP solution failed the best-response check "
            f"(max violation {report.max_violation:.3g} at tol {tol:g})"
        )
    return EquilibriumSolution(
        p,
        q,
        alpha,
        beta,
        lp_value=lp_value,
        slackness_residual=max(abs(report.payoff_row - alpha), abs(report.payoff_col - beta)),
        report=report,
    )


def verify_lp_pair(game: TpassGame, p, q, tol: float = TOL_EQUILIBRIUM) -> EquilibriumReport:
    """Certify that a strategy pair yields optima of the primal/dual LPs.

    With ``alpha = payoff_row(p, q)`` and ``beta = payoff_col(p, q)``,
    the pair solves the LP pair exactly when ``(q, alpha)`` is
    primal-feasible, ``(p, beta)`` is dual-feasible and the objectives
    agree.  Each reading is an identity of :func:`is_equilibrium`, whose
    report is returned:

    * the worst primal-row violation ``max(A q + pi) - alpha`` at
      ``(q, alpha)`` is its ``row_violation``;
    * the worst dual-row violation ``max(rho - A' p) - beta`` at
      ``(p, beta)`` is its ``col_violation``;
    * the objective gap ``(rho.q - alpha) - (-pi.p + beta)`` is
      identically zero, since both sides equal ``rho.q - p.Aq - p.pi``.
    """
    return is_equilibrium(game, p, q, tol)


def check_joint_lp(game: TpassGame, p, q, tol: float = TOL_EQUILIBRIUM) -> bool:
    """Whether ``(p, q)`` is certified by the joint program.

    With ``alpha = payoff_row(p, q)`` and ``beta = payoff_col(p, q)``
    the joint objective is exactly zero, and ``(p, q, alpha, beta)`` is
    feasible within ``tol`` when both of :func:`is_equilibrium`'s gaps
    are: the joint LP's two inequality blocks are the primal and dual
    rows of :func:`verify_lp_pair`, and its equality rows are the
    simplex conditions.  So the verdict is :func:`is_equilibrium`'s.
    """
    return is_equilibrium(game, p, q, tol).is_equilibrium


def solve_joint_lp(game: TpassGame, tol: float = TOL_EQUILIBRIUM) -> tuple[EquilibriumSolution, float]:
    """Solve the joint program and read an equilibrium off its optimum.

    Below :data:`SPLIT_MIN_ROWS` joint rows the joint LP is solved on one
    tableau.  From there on its two blocks are solved as what they are,
    the primal LPs of the game and of its transpose: ``(q, alpha)`` and
    ``(p, beta)`` are their values, and the joint optimum is the sum of
    their optima.  Returns the certified solution together with that
    optimal value, which must vanish within ``tol``: an equilibrium
    always exists, so a nonzero optimum signals a numerical problem and
    raises :class:`CertificationFailure`.  ``tol`` must be positive and
    finite, as for :func:`solve_equilibrium`.
    """
    _check_tol(tol)
    m, n = game.shape
    if m + n + 2 < SPLIT_MIN_ROWS:
        sol = _solved(build_joint_lp(game), "joint")
        p, q = sol.x[:m], sol.x[m : m + n]
        alpha, beta = float(sol.x[m + n]), float(sol.x[m + n + 1])
        value = sol.objective_value
    else:
        q, alpha, _, _, row_value = _player_lp(game, "joint")
        p, beta, _, _, col_value = _player_lp(_transposed(game), "joint")
        value = row_value + col_value
    if abs(value) > tol:
        raise CertificationFailure(
            f"joint LP optimum {value:.3g} is nonzero beyond tol {tol:g}"
        )
    solution = _certified(game, "joint", p, q, alpha, beta, value, tol)
    return solution, value
