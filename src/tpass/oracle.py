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

Cost grows as (2^m - 1)(2^n - 1) support pairs, so games are capped at
``SIZE_CAP`` = 5 per side (961 pairs).  The pairs are solved in groups
of equal support sizes, each group's systems stacked by fancy indexing;
at the cap the largest group holds 100 pairs.  A square stack takes one
stacked ``np.linalg.solve`` over the systems that ``np.linalg.slogdet``
finds nonsingular.  A rectangular group is screened on the side with
more equations than unknowns by one stacked QR projection, which cannot
refuse a system that solves exactly, and the pairs that pass go on to
``lstsq``, one system at a time.  The finiteness, sign and
normalization filters act on whole stacks, with the arithmetic of one
system; the best-response check and de-duplication take the surviving
pairs one at a time.  So the output has the bits of a loop that takes
one system at a time.  A random 5 x 5 game takes about 2.1 ms against
24 ms for that loop; a 5 x 5 game with payoffs in {-2..2}, whose square
stacks are often singular, about 5.2 ms against 29.
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
# The stacked QR screen passes what is within this factor of the
# exactness bound, plus roundoff; the per-system solve then decides.
_SCREEN = 1e3
# A least-squares system counts as solved when no residual exceeds
# max(tol, _EXACT).
_EXACT = 1e-10
_EPS = float(np.finfo(float).eps)


def _by_size(count: int) -> list[np.ndarray]:
    """The supports of each size as an index array, by size and then
    lexicographically."""
    return [np.array(list(combinations(range(count), size))) for size in range(1, count + 1)]


def _systems(payoffs: np.ndarray, supports: np.ndarray, opp_supports: np.ndarray) -> np.ndarray:
    """The indifference systems, one per row of ``supports``.

    ``payoffs[i, j]`` is what pure strategy ``i`` earns against opponent
    pure strategy ``j``.  The unknowns of each system are the opponent's
    mixture over its row of ``opp_supports`` plus the common payoff value;
    the right-hand side is the last unit vector.
    """
    count, k = supports.shape
    l = opp_supports.shape[1]
    M = np.zeros((count, k + 1, l + 1))
    M[:, :k, :l] = payoffs[supports[:, :, None], opp_supports[:, None, :]]
    M[:, :k, l] = -1.0
    M[:, k, :l] = 1.0
    return M


def _least_squares(M: np.ndarray, tol: float) -> np.ndarray:
    """The least-squares solution of each rectangular system of the stack
    ``M``, one ``lstsq`` per system (numpy has no stacked one); a nan row
    where a residual exceeds max(tol, _EXACT)."""
    rhs = np.zeros(M.shape[1])
    rhs[-1] = 1.0
    sol = np.full(M.shape[::2], np.nan)
    for i, system in enumerate(M):
        x, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        # a nan residual keeps x, for the finiteness filter to judge
        if not np.abs(system @ x - rhs).max() > max(tol, _EXACT):
            sol[i] = x
    return sol


def _mixtures(payoffs, supports, opp_supports, full_size, tol):
    """Solve the systems of one size: the indices of those that give a
    mixture, and those mixtures embedded at full length.

    A square stack takes one stacked ``np.linalg.solve`` over its
    nonsingular systems, which gives each system the LAPACK call it gets
    on its own, so the bits are the same.  ``np.linalg.slogdet`` marks
    the singular systems: its sign is 0 exactly where the same LU
    factorization meets a zero pivot, which is where a lone solve
    raises.  A rectangular stack goes to ``_least_squares``.  A singular
    or inexact system leaves a nan row.  A mixture must be finite, no
    weight below ``-tol``; it is clipped at 0 and normalized.
    """
    M = _systems(payoffs, supports, opp_supports)
    count, k = supports.shape
    if k == opp_supports.shape[1]:
        rhs = np.zeros((count, k + 1, 1))
        rhs[:, k] = 1.0
        # only the sign is read: the log-determinant of payoffs near the
        # float limits may overflow or be log(0), which is no error here
        with np.errstate(all="ignore"):
            regular = np.linalg.slogdet(M)[0] != 0
        sol = np.full((count, k + 1), np.nan)
        sol[regular] = np.linalg.solve(M[regular], rhs[regular])[..., 0]
    else:
        sol = _least_squares(M, tol)
    at = np.flatnonzero(np.isfinite(sol).all(axis=1))
    mix = sol[at, :-1]
    keep = ~(mix.min(axis=1) < -tol)
    at, mix = at[keep], mix[keep]
    full = np.zeros((len(at), full_size))
    full[np.arange(len(at))[:, None], opp_supports[at]] = np.clip(mix, 0.0, None)
    total = full.sum(axis=1)
    keep = total > 0.0
    return at[keep], full[keep] / total[keep, None]


def _may_solve_exactly(payoffs, supports, opp_supports, tol) -> np.ndarray:
    """Mask of the overdetermined systems of one size whose least-squares
    solution might pass ``_least_squares``'s exactness bound.

    One stacked reduced QR, ``M = QR``: the columns of ``Q`` span a space
    that holds the range of ``M``, so the right-hand side ``e`` (the last
    unit vector) less its projection ``Q Q'e`` is no longer than the
    least-squares residual.  A system passes when that is within
    ``_SCREEN`` times the bound plus the roundoff of these entries, or is
    nan; those go on to ``_least_squares``.
    """
    Q = np.linalg.qr(_systems(payoffs, supports, opp_supports))[0]
    residual = -(Q @ Q[:, -1, :, None])[..., 0]
    residual[:, -1] += 1.0
    worst = np.abs(residual).max(axis=1)
    scale = max(1.0, float(np.abs(payoffs).max()))
    return ~(worst > _SCREEN * (max(tol, _EXACT) + _EPS * scale))


def enumerate_equilibria(
    bg: BimatrixGame, tol: float = TOL_EQUILIBRIUM
) -> list[tuple[MixedStrategy, MixedStrategy]]:
    """All equilibria found by support enumeration, deduplicated.

    Output order is normalized (lexicographic by support pair) so it is
    deterministic regardless of evaluation order.  Singular indifference
    systems are skipped, not errors.  Raises :class:`InputError` when
    ``tol`` is not positive and finite or a dimension exceeds
    ``SIZE_CAP``.
    """
    _check_tol(tol)
    m, n = bg.shape
    if m > SIZE_CAP or n > SIZE_CAP:
        raise InputError(
            f"game is {m}x{n}, but support enumeration takes games of at most "
            f"{SIZE_CAP}x{SIZE_CAP}"
        )
    B, C = bg.B, bg.C
    # each pair's place in the order rows outer, columns inner, each by
    # size and then lexicographically
    col_count = 2 ** n - 1
    places, ps, qs = [], [], []
    row_sets, col_sets = _by_size(m), _by_size(n)
    row_start = 0
    for I in row_sets:
        col_start = 0
        for J in col_sets:
            pair = np.arange(len(I) * len(J))
            rows, cols = I[pair // len(J)], J[pair % len(J)]
            place = (row_start + pair // len(J)) * col_count + col_start + pair % len(J)
            col_start += len(J)
            k, l = I.shape[1], J.shape[1]
            if k != l:
                # the side with more equations than unknowns rarely
                # solves exactly; the other side nearly always does
                side = (B, rows, cols) if k > l else (C.T, cols, rows)
                passed = _may_solve_exactly(*side, tol)
                if not passed.any():
                    continue
                place, rows, cols = place[passed], rows[passed], cols[passed]
            on, q = _mixtures(B, rows, cols, n, tol)
            place, rows, cols = place[on], rows[on], cols[on]
            on, p = _mixtures(C.T, cols, rows, m, tol)
            places.append(place[on])
            ps.append(p)
            qs.append(q[on])
        row_start += len(I)
    # the first of near-duplicates in that order is the one kept
    place = np.concatenate(places)
    order = np.argsort(place)
    place, P, Q = place[order], np.concatenate(ps)[order], np.concatenate(qs)[order]
    row_supports, col_supports = ([tuple(s) for S in sets for s in S.tolist()]
                                  for sets in (row_sets, col_sets))
    found: list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]] = []
    for i, (p, q) in enumerate(zip(P, Q)):
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
            rows, cols = divmod(int(place[i]), col_count)
            found.append((row_supports[rows], col_supports[cols], p, q))
    found.sort(key=lambda item: (item[0], item[1]))
    return [(MixedStrategy(p), MixedStrategy(q)) for _, _, p, q in found]


def cross_check(
    game: TpassGame,
    sol: EquilibriumSolution,
    tol: float = TOL_EQUILIBRIUM,
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
    :class:`InputError` when ``sol`` is not of the game's shape, checked
    before the enumeration runs, and where :func:`enumerate_equilibria`
    does.
    """
    if (len(sol.p), len(sol.q)) != game.shape:
        raise InputError(f"solution is {len(sol.p)}x{len(sol.q)}, but the game is {game.m}x{game.n}")
    Z = zero_sum_matrix(game)
    values = [
        float(pe.weights @ Z @ qe.weights)
        for pe, qe in enumerate_equilibria(compose(game), tol)
    ]
    if not values or max(values) - min(values) > tol:
        return False
    v = values[0]
    return bool(
        (Z @ sol.q.weights).max() <= v + tol and (sol.p.weights @ Z).min() >= v - tol
    )
