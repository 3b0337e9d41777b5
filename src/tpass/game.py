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

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Largest deviation from the probability simplex accepted on input.
#: Vectors inside this band are renormalized; anything further off is
#: rejected rather than silently fixed up.
TOL_SIMPLEX = 1e-9

#: Default tolerance for certifying a strategy pair as an equilibrium.
TOL_EQUILIBRIUM = 1e-8


def _frozen_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise InputError(f"{name} must be a nonempty {ndim}-d real array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TpassGame:
    """Additively separable sum game ``(A, pi, rho)``.

    ``A`` is the m x n kernel matrix, ``pi`` the row player's bonus per
    row, ``rho`` the column player's bonus per column.
    """

    A: np.ndarray
    pi: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        A = _frozen_array(self.A, 2, "A")
        pi = _frozen_array(self.pi, 1, "pi")
        rho = _frozen_array(self.rho, 1, "rho")
        if pi.shape[0] != A.shape[0]:
            raise InputError(f"pi has length {pi.shape[0]} but A has {A.shape[0]} rows")
        if rho.shape[0] != A.shape[1]:
            raise InputError(f"rho has length {rho.shape[0]} but A has {A.shape[1]} columns")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "rho", rho)

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
        w = _frozen_array(self.weights, 1, "strategy weights")
        dev = simplex_deviation(w)
        if dev > TOL_SIMPLEX:
            raise InputError(
                f"weights are off the probability simplex by {dev:.3g} "
                f"(tolerance {TOL_SIMPLEX:g})"
            )
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def pure(cls, i: int, size: int) -> "MixedStrategy":
        """The vertex strategy playing pure strategy ``i`` (1-based)."""
        if not 1 <= i <= size:
            raise InputError(f"pure strategy index {i} out of range 1..{size}")
        w = np.zeros(size)
        w[i - 1] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.weights.astype(dtype)
        return self.weights


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


def simplex_deviation(w: np.ndarray) -> float:
    """How far a vector is from the probability simplex (max norm)."""
    w = np.asarray(w, dtype=float)
    return float(max(abs(w.sum() - 1.0), max(0.0, -float(w.min()))))


def _weights_for(x, size: int, name: str) -> np.ndarray:
    """Coerce a strategy-like input to a length-``size`` float vector."""
    w = np.asarray(x.weights if isinstance(x, MixedStrategy) else x, dtype=float)
    if w.ndim != 1 or w.shape[0] != size:
        raise InputError(f"{name} must be a length-{size} vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
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
    if not 1 <= i <= game.m:
        raise InputError(f"row index {i} out of range 1..{game.m}")
    if not 1 <= j <= game.n:
        raise InputError(f"column index {j} out of range 1..{game.n}")
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


def _check_tol(tol: float) -> None:
    """Reject a certification tolerance that is not positive and finite
    (nan included)."""
    if not 0 < tol < float("inf"):
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


# SplitMix64 constants.  The generator is fixed so that fixtures can be
# reproduced bit-for-bit from the seed in any language: state advances by
# the 64-bit recurrence below and each output is mapped to [0, 1) via its
# top 53 bits.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """Yield uniform floats in [0, 1) from the SplitMix64 recurrence:

    state += 0x9E3779B97F4A7C15                      (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          (mod 2^64)
    z ^= z >> 31
    output (z >> 11) * 2^-53
    """
    state = seed & _MASK64
    while True:
        state = (state + _SM_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
        z ^= z >> 31
        yield (z >> 11) * 2.0**-53


def random_tpass(m: int, n: int, lo: float, hi: float, seed: int) -> TpassGame:
    """Deterministic random game with entries uniform on ``[lo, hi)``.

    Draw order is row-major over ``A``, then ``pi``, then ``rho``, from
    the documented SplitMix64 stream, so the same seed reproduces the
    same game byte for byte (including across language ports).  Negative
    seeds are reduced modulo 2^64.
    """
    try:
        m = int(m)
        n = int(n)
        seed = int(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"m, n and seed must be integers: {exc}") from None
    if m < 1 or n < 1:
        raise InputError(f"dimensions must be at least 1, got m={m}, n={n}")
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise InputError(f"need finite bounds with lo <= hi, got lo={lo}, hi={hi}")
    stream = _splitmix64(seed)
    span = hi - lo
    draw = lambda count: np.array([lo + span * next(stream) for _ in range(count)])
    A = draw(m * n).reshape(m, n)
    pi = draw(m)
    rho = draw(n)
    return TpassGame(A, pi, rho)
