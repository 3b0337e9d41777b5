"""Correctness gate: checks every op's output without using the solver.

All arithmetic here is the benchmark's own NumPy code on the generated
triplet ``(A, pi, rho)``; nothing from ``tpass`` is called.  Tolerances
are relative to the game's payoff range, so a game scaled by ``10^k`` is
held to the same standard at every ``k``.

* A strategy pair passes when both vectors lie on the simplex and
  neither player gains more than ``GATE_TOL * scale`` by a pure
  deviation in the bimatrix ``B = A + pi 1'``, ``C = -A + 1 rho'``.
* A pair's claimed value of ``Z = A + pi 1' - 1 rho'`` (row player
  maximizes) must match the value computed by
  ``scipy.optimize.linprog(method="highs")``.  For a solve the claim is
  ``alpha - rho . q``, so ``rho . q - alpha`` must equal ``-value(Z)``.
* A compose/decompose round trip passes when the recovered triplet
  reproduces ``B`` and ``C``.

SciPy is imported only by :meth:`GameRef.value`, after the timed loop,
so it stays out of the measured process's peak RSS.
"""

from __future__ import annotations

import numpy as np

GATE_TOL = 1e-7
SIMPLEX_TOL = 1e-9


class GateError(RuntimeError):
    """The reference itself could not be computed."""


class GameRef:
    """Reference data of one generated game."""

    def __init__(self, A, pi, rho):
        A = np.array(A, dtype=float)
        pi = np.array(pi, dtype=float)
        rho = np.array(rho, dtype=float)
        self.rho = rho
        self.B = A + pi[:, None]
        self.C = rho[None, :] - A
        self.Z = self.B - rho[None, :]
        self.scale = max(float(np.ptp(self.B)), float(np.ptp(self.C)), float(np.ptp(self.Z)))
        if self.scale == 0.0:
            self.scale = max(1.0, float(np.abs(self.B).max()))
        self._value = None

    def pair_ok(self, p, q) -> bool:
        """Simplex membership plus the best-response check."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != (self.B.shape[0],) or q.shape != (self.B.shape[1],):
            return False
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            return False
        for w in (p, q):
            if w.min() < -SIMPLEX_TOL or abs(w.sum() - 1.0) > SIMPLEX_TOL:
                return False
        Bq = self.B @ q
        pC = p @ self.C
        row_gain = float(Bq.max() - p @ Bq)
        col_gain = float(pC.max() - pC @ q)
        return max(row_gain, col_gain) <= GATE_TOL * self.scale

    def pair_value(self, p, q) -> float:
        """``p' Z q`` for a pair that passed :meth:`pair_ok`."""
        return float(np.asarray(p, dtype=float) @ self.Z @ np.asarray(q, dtype=float))

    def solve_claim(self, q, alpha) -> float:
        """The value of ``Z`` that a solve's ``(q, alpha)`` claims."""
        return float(alpha) - float(self.rho @ np.asarray(q, dtype=float))

    def triplet_ok(self, A, pi, rho) -> bool:
        """Whether a recovered triplet reproduces ``B`` and ``C``."""
        A = np.asarray(A, dtype=float)
        if A.shape != self.B.shape:
            return False
        B = A + np.asarray(pi, dtype=float)[:, None]
        C = np.asarray(rho, dtype=float)[None, :] - A
        worst = max(float(np.abs(B - self.B).max()), float(np.abs(C - self.C).max()))
        return worst <= GATE_TOL * self.scale

    def value(self) -> float:
        """Value of the zero-sum game ``Z`` (row player maximizes), by HiGHS.

        ``Z`` is mapped onto [0, 1] first so that HiGHS's absolute
        tolerances mean the same thing at every payoff scale.
        """
        if self._value is None:
            from scipy.optimize import linprog

            Z = self.Z
            low = float(Z.min())
            span = float(np.ptp(Z))
            if span == 0.0:
                self._value = low
                return low
            m, n = Z.shape
            cost = np.zeros(n + 1)
            cost[-1] = 1.0
            a_ub = np.hstack([(Z - low) / span, -np.ones((m, 1))])
            a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
            res = linprog(
                cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0],
                bounds=[(0, None)] * n + [(None, None)], method="highs",
                options={"primal_feasibility_tolerance": 1e-10,
                         "dual_feasibility_tolerance": 1e-10},
            )
            if res.status != 0:
                raise GateError(f"HiGHS could not solve the reference LP: {res.message}")
            self._value = low + span * float(res.fun)
        return self._value

    def claim_ok(self, claim: float) -> bool:
        return abs(claim - self.value()) <= GATE_TOL * self.scale
