"""Equilibrium computation and certification via linear programming.

Four programs drive everything.  For a game ``(A, pi, rho)`` with ``m``
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
renamed ``(p, beta)``, whose optimum is minus the dual's.

**Matrix-game LP**, which both solvers solve.  The game is
strategically equivalent to the zero-sum matrix ``Z = A + pi 1' - 1
rho'``, the row player maximizing (Moulin & Vial 1978), and the LP pair
above is that matrix game's: ``rho . q - alpha = -max_i (Z q)_i``.  Mapped
affinely onto ``[1, 2]`` as ``Zh = 1 + (Z - min Z) / ptp(Z)``, it has the
textbook LP of a positive matrix game (Dantzig 1951)::

    maximize    1' y
    subject to  Zh y <= 1                   (m rows)
                y >= 0

whose every row starts on its slack, so it needs no phase 1.  ``q = y /
1'y``, the row multipliers normalized the same way are ``p``, and
``alpha``, ``beta`` and the primal optimum are read off the pair's
certificate (below).  A scale or a gauge shift of the game changes
``Zh`` only by roundoff, so the solve does not depend on either.

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
because an equilibrium always exists.  Its two blocks share no
variable: they are the primal LP and the dual LP with its objective
negated, side by side, so its optima are exactly the primal-dual optimal
pairs of the LP pair, where the two objectives meet at zero.  The
matrix-game LP's values and multipliers give such a pair, so
:func:`solve_joint_lp` solves no second LP: it reads ``(p, q, alpha,
beta)`` off the matrix-game LP that :func:`solve_equilibrium` solves.
With ``alpha`` and ``beta`` the best-response values, the joint optimum
``(rho.q - alpha) + (pi.p - beta)`` is ``-(row_violation +
col_violation)`` of the pair's certificate, so the joint route's checks
are that certificate, its zero optimum at ``tol`` and, in the tests,
scipy's HiGHS.

Certification: a pair is an equilibrium exactly when it solves the LP
pair, and exactly when it reaches the joint LP's zero optimum.  So the
LP-pair and joint-LP certificates are the best-response gaps of
:func:`tpass.game.is_equilibrium` under other names, and they are
computed once: :func:`verify_lp_pair` returns its report and
:func:`check_joint_lp` its verdict, and their docstrings state the
identities.  Both solvers run one body, which finds the pair by one
of two routes and certifies it at ``tol``; a failure raises
:class:`CertificationFailure` naming the route (primal or joint).  When
``Z`` has a strict pure saddle, an entry that is the unique minimum of
its row and the unique maximum of its column, that cell is the game's
only equilibrium and the body returns it as a pure pair, found exactly
by comparisons on ``Z``, with no LP.  The matrix-game LP stops at the
same unit vectors, so the answer has the LP's bits, except where
roundoff in ``Zh`` ties entries within the LP's tolerance and the LP
may stop at another pair.  Every other game, a saddle with ties
included, takes the LP route: solve the matrix-game LP and clean the
simplex points read off it of roundoff.  Every other number is read
off the one report: ``alpha = payoff_row + row_violation``, ``beta =
payoff_col + col_violation``, the primal optimum ``rho.q - alpha``, the
joint optimum ``-(row_violation + col_violation)`` and the slackness
residual, the larger of the two gaps.

Multiplicity: these LPs can have many optima (one per equilibrium, plus
faces between them).  The solvers return the single vertex selected by
the deterministic pivot rule; enumerating equilibria is the oracle
module's job at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    zero_sum_matrix,
)


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """A certified equilibrium with its LP provenance.

    ``alpha = max_i (A q + pi)_i`` and ``beta = max_j (rho - A' p)_j``
    are the players' best-response values, read off the certificate as
    ``payoff_row + row_violation`` and ``payoff_col + col_violation``;
    at an equilibrium they are its payoffs.  ``lp_value`` is the primal
    LP's optimum ``rho.q - alpha = -value(Z)`` for
    :func:`solve_equilibrium` and the joint LP's ``(rho.q - alpha) +
    (pi.p - beta) = -(row_violation + col_violation)`` for
    :func:`solve_joint_lp`.  ``slackness_residual`` is the worst
    violation of the optimality identities ``alpha = p.Aq + p.pi`` and
    ``beta = -p.Aq + rho.q``: the certificate's two gaps under another
    name, ``max(|row_violation|, |col_violation|)``.  ``report`` is the
    :func:`is_equilibrium` certificate of exactly ``p`` and ``q``; the
    solvers always set it.
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
    its textbook minimize form: the primal program of the transposed
    game ``(-A', rho, pi)`` with its objective and its ``<=`` rows
    negated.

    The solvers do not use it: both solve matrix-game LPs.
    """
    primal = build_primal_lp(TpassGame(-game.A.T, game.rho, game.pi))
    le = primal.rel == lp.LE
    sign = np.where(le, -1.0, 1.0)
    return lp.LpModel(lp.MIN, -primal.objective, primal.M * sign[:, None],
                      np.where(le, lp.GE, primal.rel), primal.b * sign, primal.bounds)


def build_joint_lp(game: TpassGame) -> lp.LpModel:
    """The joint program over ``(p, q, alpha, beta)`` (in that order)."""
    return _joint_model(game.A, game.pi, game.rho)


def _joint_model(A: np.ndarray, pi: np.ndarray, rho: np.ndarray) -> lp.LpModel:
    """:func:`build_joint_lp` of the game ``(A, pi, rho)``, whose arrays
    come from a validated game."""
    m, n = A.shape
    k = m + n
    M = np.zeros((k + 2, k + 2))
    M[:m, m:k] = A
    M[:m, k] = -1.0
    M[m:k, :m] = -A.T
    M[m:k, k + 1] = -1.0
    M[k, :m] = 1.0
    M[k + 1, m:k] = 1.0
    rel = np.full(k + 2, lp.LE)
    rel[k:] = lp.EQ
    objective = np.concatenate([pi, rho, [-1.0, -1.0]])
    b = np.concatenate([-pi, -rho, [1.0, 1.0]])
    bounds = (lp.NONNEG,) * k + (lp.FREE, lp.FREE)
    return lp.LpModel(lp.MAX, objective, M, rel, b, bounds)


def _clean_simplex(v: np.ndarray, tol: float, name: str) -> MixedStrategy:
    """Clamp solver roundoff off a simplex point; reject real violations."""
    low = float(v.min())
    if low < -tol:
        raise CertificationFailure(
            f"{name} from the LP has a negative coordinate {low:.3g} beyond tol {tol:g}"
        )
    v = np.maximum(v, 0.0)
    total = v.sum()
    if abs(total - 1.0) > 10.0 * max(tol, 1e-9):
        raise CertificationFailure(f"{name} from the LP sums to {total}, expected 1")
    return MixedStrategy(v / total)


def _onto_one_two(Z: np.ndarray) -> np.ndarray:
    """``Zh = 1 + (Z - min Z) / ptp(Z)``: ``Z`` mapped affinely onto
    ``[1, 2]``.

    ``Z`` is first scaled by a power of two to ``max|Z| < 1``, which is
    exact and keeps ``Z - min Z`` finite for every game; a ``Z`` of equal
    entries has its zero range read as 1.
    """
    Z = np.ldexp(Z, -np.frexp(np.abs(Z).max())[1])
    low = Z.min()
    width = Z.max() - low or 1.0
    return 1.0 + (Z - low) / width


def _strict_saddle(Z: np.ndarray) -> tuple[int, int] | None:
    """The strict pure saddle ``(i, j)`` of ``Z`` (0-based), or None.

    ``Z[i, j]`` is a strict saddle when it is the unique maximum of its
    column and the unique minimum of its row; it is then the matrix
    game's only equilibrium.  Every other row's minimum is then strictly
    smaller, so the row of the largest row minimum and that row's
    smallest entry find it whenever it exists, and the test is exact.
    The column is tested first, where most games without a saddle fail.
    """
    i = int(Z.min(axis=1).argmax())
    j = int(Z[i].argmin())
    v = Z[i, j]
    if np.count_nonzero(Z[:, j] >= v) == 1 and np.count_nonzero(Z[i] <= v) == 1:
        return i, j
    return None


def _certified(game: TpassGame, route: str, tol: float) -> EquilibriumSolution:
    """The certified solution of the game: ``(p, q)`` is the strict pure
    saddle of ``Z`` if it has one, else the normalized multipliers and
    values of its matrix-game LP, maximize ``1'y`` subject to ``Zh y <=
    1`` and ``y >= 0``; every other number comes from the pair's
    :func:`is_equilibrium` report.  Failures name ``route``.
    """
    _check_tol(tol)
    Z = zero_sum_matrix(game)
    m, n = Z.shape
    saddle = _strict_saddle(Z)
    if saddle is not None:
        p, q = MixedStrategy.pure(saddle[0] + 1, m), MixedStrategy.pure(saddle[1] + 1, n)
    else:
        Zh = _onto_one_two(Z)
        sol = lp.solve(lp.LpModel(lp.MAX, np.ones(n), Zh, np.full(m, lp.LE), np.ones(m)))
        if sol.status != lp.OPTIMAL:
            raise SolverFailure(f"{route} LP terminated {sol.status}; the program is always solvable")
        p = _clean_simplex(sol.duals / sol.duals.sum(), tol, "p")
        q = _clean_simplex(sol.x / sol.x.sum(), tol, "q")
    report = is_equilibrium(game, p, q, tol)
    if not report.is_equilibrium:
        raise CertificationFailure(
            f"{route} LP solution failed the best-response check "
            f"(max violation {report.max_violation:.3g} at tol {tol:g})"
        )
    alpha = report.payoff_row + report.row_violation
    return EquilibriumSolution(
        p,
        q,
        alpha,
        report.payoff_col + report.col_violation,
        lp_value=float(game.rho @ q.weights) - alpha,
        slackness_residual=max(abs(report.row_violation), abs(report.col_violation)),
        report=report,
    )


def solve_equilibrium(game: TpassGame, tol: float = TOL_EQUILIBRIUM) -> EquilibriumSolution:
    """Compute one equilibrium from the matrix-game LP and certify it.

    The LP's values normalized to sum 1 are ``q`` and its multipliers
    normalized alike are ``p``; a game whose ``Z`` has a strict pure
    saddle skips the LP and returns that saddle, the LP's own optimum
    there, as a pure pair.  ``alpha = max_i (A q + pi)_i`` and ``beta
    = max_j (rho - A' p)_j`` are the players' best-response values, and
    ``rho.q - alpha`` is the primal LP's optimum.  One LP serves every
    shape, and every scale and gauge shift of a game gives it the same
    ``Zh`` up to roundoff.  The pair must pass :func:`is_equilibrium` at
    ``tol`` or :class:`CertificationFailure` is raised, naming route
    ``primal``; a ``tol`` that is not positive and finite raises
    :class:`InputError` before any work.
    """
    return _certified(game, "primal", tol)


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
    """Read an optimum of the joint program, and an equilibrium, off the
    matrix-game LP.

    The joint LP is the primal LP over ``(q, alpha)`` and the negated
    dual LP over ``(p, beta)`` side by side, so its optima are the LP
    pair's primal-dual optimal pairs.  The matrix-game LP that
    :func:`solve_equilibrium` solves gives one: ``q`` from its values and
    ``p`` from its multipliers, with no second LP, or, as there, the
    strict pure saddle of ``Z`` with no LP at all.

    Returns the certified solution together with the joint optimum
    ``(rho.q - alpha) + (pi.p - beta)``, read off the certificate as
    ``-(row_violation + col_violation)``.  It must vanish within ``tol``
    by the strong duality of the pair: the pair is certified first, and
    a nonzero optimum then signals a numerical problem and raises
    :class:`CertificationFailure`.  Failures name route ``joint``.
    ``tol`` must be positive and finite, as for :func:`solve_equilibrium`.
    """
    sol = _certified(game, "joint", tol)
    # 0.0 - keeps an exact zero optimum +0.0, where a plain minus gives -0.0
    value = 0.0 - (sol.report.row_violation + sol.report.col_violation)
    if abs(value) > tol:
        raise CertificationFailure(
            f"joint LP optimum {value:.3g} is nonzero beyond tol {tol:g}"
        )
    return replace(sol, lp_value=value), value
