"""Recognizing separable-sum structure inside arbitrary bimatrix games.

A bimatrix game ``(B, C)`` admits a representation ``B = A + R(pi)``,
``C = -A + C(rho)`` (``R(pi)`` repeats ``pi`` down each column, ``C(rho)``
repeats ``rho`` along each row) exactly when the payoff sum
``S = B + C`` has the rank-one-plus-constant form ``S[i,j] = pi[i] + rho[j]``.
That holds iff every tetrad anchored at row 1 / column 1 vanishes::

    S[i,j] - S[i,1] - S[1,j] + S[1,1] = 0        for all i, j

which is an O(mn) test, equivalent to checking all O(m^2 n^2) tetrads.

The representation carries a one-parameter gauge freedom: ``(A, pi + c,
rho - c)`` composes to the same ``(B + c, C - c)`` shape of payoffs and
an identical best-response structure.  Extraction pins the gauge with
``rho[1] = S[1,1] / 2``, an arbitrary but deterministic choice, so
fixtures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotSeparable, TpassError
from .game import TpassGame, _frozen_array, build_payoff_matrices

#: Base separability tolerance; scaled by the magnitude of S = B + C.
TOL_SEPARABLE = 1e-9


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """Two-player game given by payoff matrices ``B`` (row player) and
    ``C`` (column player) of equal shape."""

    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        B, _ = _frozen_array(self.B, 2, "B")
        C, _ = _frozen_array(self.C, 2, "C")
        if B.shape != C.shape:
            raise InputError(f"B has shape {B.shape} but C has shape {C.shape}")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.B.shape


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """A gauge-fixed triplet recovered from a bimatrix game, along with
    the worst reconstruction error of ``C`` (``B`` is reproduced exactly
    by construction)."""

    game: TpassGame
    max_residual: float


def _payoff_sum(bg: BimatrixGame) -> np.ndarray:
    """``S = B + C``, which must be finite: an overflowing sum raises
    :class:`InputError` instead of a verdict read off ``inf`` entries."""
    with np.errstate(over="ignore"):
        S = bg.B + bg.C
    if not np.isfinite(S).all():
        raise InputError("payoffs overflow: B + C must be finite")
    return S


def _default_tol(size: float) -> float:
    return TOL_SEPARABLE * max(1.0, size)


def default_separability_tol(bg: BimatrixGame) -> float:
    """Acceptance tolerance scaled by the payoff-sum magnitude."""
    return _default_tol(float(np.abs(_payoff_sum(bg)).max()))


def _tetrad_residual(S: np.ndarray, size: float) -> float:
    # S is first scaled by a power of two to max|S| = size < 1, which is
    # exact and keeps the differences finite; the residual is scaled back.
    # Row 1 and column 1 of D are exactly zero by construction, so 1 x n
    # and m x 1 games always come out exactly separable.
    exponent = np.frexp(size)[1]
    S = np.ldexp(S, -exponent)
    D = (S - S[:, :1]) - (S[:1, :] - S[0, 0])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.abs(D).max(), exponent))


def _separability(bg: BimatrixGame, tol: float | None) -> tuple[np.ndarray, float, float]:
    """``(S, tol, residual)``: the payoff sum ``S``, formed once, the
    tolerance (:func:`default_separability_tol` for ``None``) and the
    tetrad residual."""
    if tol is not None:
        try:
            ok = 0 <= tol < np.inf
        except TypeError:
            ok = False
        if not ok:
            raise InputError("tol must be finite and nonnegative")
    S = _payoff_sum(bg)
    size = float(np.abs(S).max())
    return S, _default_tol(size) if tol is None else tol, _tetrad_residual(S, size)


def is_separable_sum(bg: BimatrixGame, tol: float | None = None) -> tuple[bool, float]:
    """Whether ``B + C`` is additively separable, plus the tetrad residual.

    ``tol=None`` uses :func:`default_separability_tol`; any other
    ``tol`` must be finite and nonnegative.
    """
    _, tol, residual = _separability(bg, tol)
    return residual <= tol, residual


def decompose(bg: BimatrixGame, tol: float | None = None) -> DecompositionResult:
    """Extract the gauge-fixed ``(A, pi, rho)`` from a separable game.

    Gauge: ``rho[1] = S[1,1] / 2``, then ``pi[i] = S[i,1] - rho[1]``,
    ``rho[j] = S[1,j] - pi[1]`` and ``A = B - R(pi)``.

    Raises :class:`NotSeparable` (carrying the tetrad residual) when the
    separability test fails at ``tol``, and :class:`TpassError` when the
    rebuilt ``C`` misses by more than ``(m + n) * tol`` plus a few ulps
    of the payoffs.
    """
    S, tol, residual = _separability(bg, tol)
    if not residual <= tol:
        raise NotSeparable(residual, tol)
    rho_1 = S[0, 0] / 2.0
    pi = S[:, 0] - rho_1
    rho = S[0, :] - pi[0]
    A = bg.B - pi[:, None]
    game = TpassGame(A, pi, rho)
    max_residual = float(np.abs(bg.C - (-A + rho[None, :])).max())
    # plus a few ulps of the payoffs, the roundoff of an exact split
    payoffs = max(float(np.abs(bg.B).max()), float(np.abs(bg.C).max()))
    bound = (bg.m + bg.n) * tol + 4 * np.finfo(float).eps * payoffs
    if max_residual > bound:
        raise TpassError(
            f"decomposition residual {max_residual:.6g} exceeds bound {bound:.6g}"
        )
    return DecompositionResult(game, max_residual)


def compose(game: TpassGame) -> BimatrixGame:
    """Package a triplet's payoff matrices as a bimatrix game."""
    B, C = build_payoff_matrices(game)
    return BimatrixGame(B, C)
