"""Brute-force support enumeration: ground truth at desk scale.

For every pair of candidate supports (a nonempty row subset I and column
subset J) the column strategy must make the rows in I payoff-indifferent
and the row strategy must do the same for the columns in J:

    B[i, J] . q_J = v   for i in I,    sum(q_J) = 1
    C[I, j] . p_I = w   for j in J,    sum(p_I) = 1

Each side is a small dense linear system (square when |I| = |J|, the
generic case; rectangular systems are attempted by least squares and
kept only when they solve exactly).  Survivors must be nonnegative,
normalized, and pass the full best-response check; near-duplicates are
merged.  On a nondegenerate game this enumerates every equilibrium,
which is why the module serves as the oracle for the LP pipeline.

Cost grows as (2^m - 1)(2^n - 1) systems, so sizes are capped (default
5 x 5, under a thousand systems); raise the cap explicitly if you can
afford the blowup.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .decompose import BimatrixGame, compose
from .equilibrium import EquilibriumSolution
from .errors import InputError
from .game import MixedStrategy, TOL_EQUILIBRIUM, TpassGame, _check_tol, zero_sum_matrix

SIZE_CAP = 5
DEDUP_EPS = 1e-7


def _supports(count: int):
    for size in range(1, count + 1):
        yield from combinations(range(count), size)


def _indifference_solution(payoffs: np.ndarray, support: tuple[int, ...],
                           opp_support: tuple[int, ...], full_size: int,
                           tol: float) -> np.ndarray | None:
    """Opponent mixture over ``opp_support`` equalizing ``support``'s payoffs.

    ``payoffs[i, j]`` is what pure strategy ``i`` earns against opponent
    pure strategy ``j``.  Unknowns are the mixture plus the common payoff
    value; returns the embedded full-length mixture or None.
    """
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


def enumerate_equilibria(
    bg: BimatrixGame,
    tol: float = TOL_EQUILIBRIUM,
    *,
    size_cap: int = SIZE_CAP,
) -> list[tuple[MixedStrategy, MixedStrategy]]:
    """All equilibria found by support enumeration, deduplicated.

    Output order is normalized (lexicographic by support pair) so it is
    deterministic regardless of evaluation order.  Singular indifference
    systems are skipped, not errors.  Raises :class:`InputError` when
    ``tol`` is not positive and finite or a dimension exceeds
    ``size_cap``.
    """
    _check_tol(tol)
    m, n = bg.shape
    if m > size_cap or n > size_cap:
        raise InputError(
            f"game is {m}x{n} but the enumeration cap is {size_cap}; "
            f"raise size_cap explicitly to accept the exponential cost"
        )
    B, C = bg.B, bg.C
    found: list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]] = []
    for rows in _supports(m):
        for cols in _supports(n):
            q = _indifference_solution(B, rows, cols, n, tol)
            if q is None:
                continue
            p = _indifference_solution(C.T, cols, rows, m, tol)
            if p is None:
                continue
            row_value = float(p @ B @ q)
            col_value = float(p @ C @ q)
            if (B @ q).max() > row_value + tol:
                continue
            if (C.T @ p).max() > col_value + tol:
                continue
            duplicate = any(
                max(np.abs(p - fp).max(), np.abs(q - fq).max()) <= DEDUP_EPS
                for _, _, fp, fq in found
            )
            if not duplicate:
                found.append((rows, cols, p, q))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(MixedStrategy(p), MixedStrategy(q)) for _, _, p, q in found]


def cross_check(
    game: TpassGame,
    sol: EquilibriumSolution,
    tol: float = TOL_EQUILIBRIUM,
    *,
    size_cap: int = SIZE_CAP,
) -> bool:
    """Confirm an LP solution against the enumeration oracle.

    The game is strategically equivalent to the zero-sum game
    ``Z = A + pi 1' - 1 rho'`` (Moulin & Vial 1978): its equilibria are
    exactly the saddle points of ``Z``, which all share the value of
    ``Z``.  The enumerated equilibria supply that value ``v = p'Z q``;
    False when there are none or they disagree on ``v`` by more than
    ``tol``.  Otherwise the LP pair is confirmed when it is a saddle
    point at that value: ``max_i (Z q)_i <= v + tol`` and
    ``min_j (p'Z)_j >= v - tol``.  A pair on a degenerate face that the
    enumeration represents by other points is confirmed too.  Raises
    :class:`InputError` when ``tol`` is not positive and finite.
    """
    _check_tol(tol)
    m, n = game.shape
    if m > size_cap or n > size_cap:
        raise InputError(f"game is {m}x{n} but the oracle cap is {size_cap}")
    Z = zero_sum_matrix(game)
    values = [
        float(pe.weights @ Z @ qe.weights)
        for pe, qe in enumerate_equilibria(compose(game), tol, size_cap=size_cap)
    ]
    if not values or max(values) - min(values) > tol:
        return False
    v = values[0]
    return bool(
        (Z @ sol.q.weights).max() <= v + tol and (sol.p.weights @ Z).min() >= v - tol
    )
