"""Core types and payoff arithmetic for two-person additively separable
sum (TPASS) games.

A game is a triplet ``(A, pi, rho)``: an ``m x n`` kernel matrix ``A``, a
length-``m`` row bonus vector ``pi`` and a length-``n`` column bonus
vector ``rho``.  When the row player picks row ``i`` and the column
player picks column ``j``, the row player receives ``A[i, j] + pi[i]``
and the column player receives ``-A[i, j] + rho[j]``.  The kernel
contributions cancel in the sum, so the joint payoff ``pi[i] + rho[j]``
separates additively across the two choices.  When ``pi`` and ``rho``
are constant vectors the game is constant-sum.

Mixed strategies are points of the probability simplex and payoffs
extend bilinearly::

    payoff_row(p, q) =  p . A q + p . pi
    payoff_col(p, q) = -p . A q + rho . q

Indices in the public API (``pure_payoffs``, ``MixedStrategy.pure``) are
1-based; the numpy arrays carried by the types are ordinary 0-based
arrays.

All values are immutable: constructors copy their inputs and mark the
arrays read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Largest deviation from the probability simplex accepted on input.
#: Vectors inside this band are renormalized; anything further off is
#: rejected rather than silently fixed up.
TOL_SIMPLEX = 1e-9

#: Default tolerance for certifying a strategy pair as an equilibrium.
TOL_EQUILIBRIUM = 1e-8


def _frozen_array(values, ndim: int, name: str) -> tuple[np.ndarray, float]:
    """A read-only float copy of ``values`` and its largest magnitude."""
    try:
        arr = np.array(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a real array: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise InputError(f"{name} must be a nonempty {ndim}-d real array, got shape {arr.shape}")
    size = float(np.abs(arr).max())
    if not size < np.inf:  # nan fails the comparison too
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr, size


@dataclass(frozen=True, eq=False)
class TpassGame:
    """Additively separable sum game ``(A, pi, rho)``.

    ``A`` is the m x n kernel matrix, ``pi`` the row player's bonus per
    row, ``rho`` the column player's bonus per column.  Every entry must
    be finite, and so must every entry of the payoff matrices
    ``A + pi 1'`` and ``-A + 1 rho'`` and of :func:`zero_sum_matrix`;
    otherwise :class:`InputError` is raised.
    """

    A: np.ndarray
    pi: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        A, a_max = _frozen_array(self.A, 2, "A")
        pi, pi_max = _frozen_array(self.pi, 1, "pi")
        rho, rho_max = _frozen_array(self.rho, 1, "rho")
        if pi.shape[0] != A.shape[0]:
            raise InputError(f"pi has length {pi.shape[0]} but A has {A.shape[0]} rows")
        if rho.shape[0] != A.shape[1]:
            raise InputError(f"rho has length {rho.shape[0]} but A has {A.shape[1]} columns")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "rho", rho)
        # Every payoff matrix the package forms must be finite too.  Their
        # entries are at most this sum in magnitude, since rounding is
        # monotone, so only a game near the float limit is checked entry
        # by entry.
        if not a_max + pi_max + rho_max < np.inf:
            with np.errstate(over="ignore", invalid="ignore"):
                matrices = (*build_payoff_matrices(self), zero_sum_matrix(self))
                if not all(np.isfinite(M).all() for M in matrices):
                    raise InputError("payoffs overflow: A + pi 1', -A + 1 rho' and "
                                     "A + pi 1' - 1 rho' must be finite")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """A probability vector over a player's pure strategies.

    Weights must be nonnegative and sum to 1, both within
    ``TOL_SIMPLEX``; accepted vectors are clamped and renormalized so
    the stored weights form an exact simplex point.
    """

    weights: np.ndarray

    def __post_init__(self):
        w, _ = _frozen_array(self.weights, 1, "strategy weights")
        dev = simplex_deviation(w)
        if dev > TOL_SIMPLEX:
            raise InputError(
                f"weights are off the probability simplex by {dev:.3g} "
                f"(tolerance {TOL_SIMPLEX:g})"
            )
        w = np.maximum(w, 0.0)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def pure(cls, i: int, size: int) -> "MixedStrategy":
        """The vertex strategy playing pure strategy ``i`` (1-based)."""
        i = _one_based(i, size, "pure strategy index")
        w = np.zeros(size)
        w[i - 1] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.weights, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Outcome of a best-response check on a strategy pair.

    ``row_violation`` is the largest payoff gain available to the row
    player from any pure deviation, ``col_violation`` the same for the
    column player, and ``simplex_violation`` the largest deviation of
    the inputs from the probability simplex.  The pair is an equilibrium
    exactly when all three are at most the check's tolerance.
    ``payoff_row`` and ``payoff_col`` are the pair's expected payoffs,
    the baselines the two gains are measured from.
    """

    is_equilibrium: bool
    row_violation: float
    col_violation: float
    simplex_violation: float
    payoff_row: float
    payoff_col: float

    @property
    def max_violation(self) -> float:
        return max(self.row_violation, self.col_violation, self.simplex_violation)


def _one_based(i, size: int, name: str) -> int:
    """A 1-based index as an ``int`` in ``1..size``; any integer type is
    taken, through ``operator.index``, and anything else is an
    :class:`InputError`."""
    try:
        i = operator.index(i)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {i!r}") from None
    if not 1 <= i <= size:
        raise InputError(f"{name} {i} out of range 1..{size}")
    return i


def simplex_deviation(w: np.ndarray) -> float:
    """How far a vector is from the probability simplex (max norm)."""
    w = np.asarray(w, dtype=float)
    return float(max(abs(w.sum() - 1.0), max(0.0, -float(w.min()))))


def _weights_for(x, size: int, name: str) -> np.ndarray:
    """Coerce a strategy-like input to a length-``size`` float vector.

    A :class:`MixedStrategy`'s weights are taken as they are, after a
    length check: the type already holds a read-only, finite simplex
    point.
    """
    strategy = isinstance(x, MixedStrategy)
    try:
        w = x.weights if strategy else np.asarray(x, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a real vector: {exc}") from None
    if w.ndim != 1 or w.shape[0] != size:
        raise InputError(f"{name} must be a length-{size} vector, got shape {w.shape}")
    if not strategy and not np.all(np.isfinite(w)):
        raise InputError(f"{name} contains non-finite entries")
    return w


def _validated_strategy(x, size: int, name: str) -> tuple[np.ndarray, float]:
    """Like :func:`_weights_for` but also enforces the simplex invariant."""
    w = _weights_for(x, size, name)
    dev = simplex_deviation(w)
    if dev > TOL_SIMPLEX:
        raise InputError(
            f"{name} is not a probability vector: simplex deviation {dev:.3g} "
            f"exceeds {TOL_SIMPLEX:g}"
        )
    return w, dev


def pure_payoffs(game: TpassGame, i: int, j: int) -> tuple[float, float]:
    """Payoff pair at the pure strategy cell (row ``i``, column ``j``).

    Indices are 1-based.  The two payoffs always sum to
    ``pi[i] + rho[j]``.
    """
    i = _one_based(i, game.m, "row index")
    j = _one_based(j, game.n, "column index")
    a = game.A[i - 1, j - 1]
    return float(a + game.pi[i - 1]), float(-a + game.rho[j - 1])


def payoff_row(game: TpassGame, p, q) -> float:
    """Expected payoff ``p . A q + p . pi`` of the row player."""
    pw = _weights_for(p, game.m, "p")
    qw = _weights_for(q, game.n, "q")
    return float(pw @ game.A @ qw + pw @ game.pi)


def payoff_col(game: TpassGame, p, q) -> float:
    """Expected payoff ``-p . A q + rho . q`` of the column player."""
    pw = _weights_for(p, game.m, "p")
    qw = _weights_for(q, game.n, "q")
    return float(-(pw @ game.A @ qw) + game.rho @ qw)


def build_payoff_matrices(game: TpassGame) -> tuple[np.ndarray, np.ndarray]:
    """Dense payoff matrices ``(B, C)`` with ``B[i,j] = A[i,j] + pi[i]``
    and ``C[i,j] = -A[i,j] + rho[j]``."""
    B = game.A + game.pi[:, None]
    C = -game.A + game.rho[None, :]
    return B, C


def zero_sum_matrix(game: TpassGame) -> np.ndarray:
    """The zero-sum matrix ``Z = A + pi 1' - 1 rho'`` strategically
    equivalent to the game (Moulin & Vial 1978), the row player
    maximizing: ``Z`` differs from the row player's payoffs by a term in
    the column alone and from minus the column player's by a term in the
    row alone, so it has the game's best responses and equilibria."""
    return game.A + game.pi[:, None] - game.rho[None, :]


def _check_tol(tol: float) -> None:
    """Reject a certification tolerance that is not positive and finite
    (nan and values that are not real numbers included)."""
    try:
        ok = 0 < tol < float("inf")
    except TypeError:
        ok = False
    if not ok:
        raise InputError("tol must be positive and finite")


def is_equilibrium(game: TpassGame, p, q, tol: float = TOL_EQUILIBRIUM) -> EquilibriumReport:
    """Best-response check for the pair ``(p, q)``.

    Payoffs are bilinear, so a mixed deviation can never beat the best
    pure deviation; only the ``m + n`` pure deviations are examined.
    Violations are reported as absolute payoff gaps.  ``A q`` and
    ``A' p`` are formed once and both payoffs and both gaps are read off
    them.  This is the package's one equilibrium certificate: the LP-pair
    and joint-LP certificates of :mod:`tpass.equilibrium` are identities
    of it, and both solvers certify their pair with it.

    Raises :class:`InputError` when ``tol`` is not positive and finite,
    dimensions mismatch or either vector is off the simplex by more than
    ``TOL_SIMPLEX``.
    """
    _check_tol(tol)
    pw, pdev = _validated_strategy(p, game.m, "p")
    qw, qdev = _validated_strategy(q, game.n, "q")
    Aq = game.A @ qw
    Atp = game.A.T @ pw
    pAq = float(Atp @ qw)
    f_row = pAq + float(pw @ game.pi)
    f_col = -pAq + float(game.rho @ qw)
    row_violation = float((Aq + game.pi).max()) - f_row
    col_violation = float((game.rho - Atp).max()) - f_col
    simplex_violation = max(pdev, qdev)
    ok = max(row_violation, col_violation, simplex_violation) <= tol
    return EquilibriumReport(ok, row_violation, col_violation, simplex_violation, f_row, f_col)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014).  The generator is fixed
# so that fixtures can be reproduced bit-for-bit from the seed in any
# language.  Its state after k steps has the closed form
# z_k = seed + k * gamma (mod 2^64), k = 1, 2, ..., so the whole stream is
# one uint64 array expression; array arithmetic wraps without a warning.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms in [0, 1) of the SplitMix64 recurrence:

    state += 0x9E3779B97F4A7C15                      (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          (mod 2^64)
    z ^= z >> 31
    output (z >> 11) * 2^-53
    """
    z = np.uint64(seed % 2**64) + _SM_GAMMA * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> 30)) * _SM_MIX1
    z = (z ^ (z >> 27)) * _SM_MIX2
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def random_tpass(m: int, n: int, lo: float, hi: float, seed: int) -> TpassGame:
    """Deterministic random game with entries uniform on ``[lo, hi)``.

    The game takes the first ``m*n + m + n`` values of the documented
    SplitMix64 stream, row-major over ``A``, then ``pi``, then ``rho``,
    so the same seed reproduces the same game byte for byte (including
    across language ports).  Negative seeds are reduced modulo 2^64.
    """
    try:
        m, n, seed = (operator.index(v) for v in (m, n, seed))
    except TypeError as exc:
        raise InputError(f"m, n and seed must be integers: {exc}") from None
    if m < 1 or n < 1:
        raise InputError(f"dimensions must be at least 1, got m={m}, n={n}")
    try:
        lo, hi = float(lo), float(hi)
    except (TypeError, ValueError) as exc:
        raise InputError(f"lo and hi must be real numbers: {exc}") from None
    # hi - lo is finite exactly when both bounds are and the width does
    # not overflow (lo=-1e308, hi=1e308 would draw infinite entries).
    if not np.isfinite(hi - lo) or lo > hi:
        raise InputError(
            f"need finite bounds with lo <= hi and a finite width hi - lo, got lo={lo}, hi={hi}"
        )
    try:
        u = lo + (hi - lo) * _splitmix64(seed, m * n + m + n)
    except (MemoryError, ValueError) as exc:
        # numpy refuses a size past its index range with a ValueError
        raise InputError(f"a {m}x{n} game is too large to draw: {exc}") from None
    return TpassGame(u[: m * n].reshape(m, n), u[m * n : m * n + m], u[m * n + m :])
