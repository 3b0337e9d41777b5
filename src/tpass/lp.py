"""General-form linear programs and a dense two-phase simplex solver.

The model container accepts maximize or minimize objectives, ``<=``,
``=`` and ``>=`` rows, and per-variable bound classes (nonnegative or
free).  A model stores its rows once, as arrays ``(M, rel, b)``, so the
equilibrium builders fill them from slices of the payoff matrix and the
solver's set-up and verification run vectorized.  The solver works on a
dense tableau and favors transparency over sparse machinery.

Solver design:

* Free variables enter the tableau as a split ``x = x+ - x-``; reported
  solutions recombine the halves.
* Rows are normalized to nonnegative right-hand sides; ``<=`` rows get a
  slack, ``>=`` rows a surplus plus an artificial, ``=`` rows an
  artificial.  Phase 1 maximizes minus the artificial sum; a nonzero
  optimum means infeasible.
* Artificial columns stay in the tableau at zero cost through phase 2
  (barred from re-entering the basis) so no column reindexing is needed.
  Basic artificials left over from phase 1 are driven out by degenerate
  pivots; rows that cannot be pivoted are redundant and are dropped with
  a zero dual.
* Pricing is Dantzig's rule with a stability twist: among the most
  favorable columns, one whose ratio-test pivot is not vanishingly small
  relative to its column is preferred, which avoids the roundoff blowup
  of near-degenerate pivots.  After ``50 * n_rows`` pivots without
  objective progress the solver switches permanently to Bland's rule
  (pure, unstabilized), which guarantees termination on degenerate
  (cycling) instances.
* The tableau only decides which basis is optimal.  The reported ``x``
  and duals are recomputed from that basis by a fresh factorization of
  the original data (``B x_B = b`` and ``B' y = c_B``), so accumulated
  tableau roundoff never leaks into results.
* Every "optimal" result is re-verified against the original model:
  primal feasibility and dual feasibility within :data:`TOL_FEAS` and a
  primal-dual objective gap within :data:`TOL_GAP`, which together certify
  optimality.  A violation raises :class:`SolverFailure` rather than
  returning a silently wrong status.

Dual sign convention (matching :func:`dualize`): for a maximize problem
``<=`` rows have nonnegative multipliers and ``>=`` rows nonpositive
ones; for a minimize problem the signs swap; equality rows are free
either way.  The dual objective is ``b . y`` and equals the primal
objective at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverFailure

MAX = "max"
MIN = "min"
LE = "<="
EQ = "="
GE = ">="
NONNEG = "nonneg"
FREE = "free"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

TOL_FEAS = 1e-9
TOL_GAP = 1e-8
PIVOT_EPS = 1e-11
# Reduced costs above -_RC_TOL count as nonnegative when pricing.
_RC_TOL = max(10.0 * PIVOT_EPS, TOL_FEAS / 10.0)

_RELATIONS = (LE, EQ, GE)
_BOUND_KINDS = (NONNEG, FREE)


@dataclass(frozen=True, eq=False)
class Constraint:
    """One linear row ``coeffs . x  <rel>  rhs``."""

    coeffs: np.ndarray
    rel: str
    rhs: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InputError(f"constraint coefficients must be a 1-d vector, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise InputError("constraint coefficients contain non-finite entries")
        if self.rel not in _RELATIONS:
            raise InputError(f"relation must be one of {_RELATIONS}, got {self.rel!r}")
        rhs = float(self.rhs)
        if not np.isfinite(rhs):
            raise InputError("constraint rhs must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _objective(sense, objective) -> np.ndarray:
    """Validated sense and objective of a model (the objective, frozen)."""
    if sense not in (MAX, MIN):
        raise InputError(f"sense must be '{MAX}' or '{MIN}', got {sense!r}")
    objective = _frozen(objective, float)
    if objective.ndim != 1 or objective.size == 0:
        raise InputError(f"objective must be a 1-d vector, got shape {objective.shape}")
    if not np.all(np.isfinite(objective)):
        raise InputError("objective contains non-finite entries")
    return objective


@dataclass(frozen=True, eq=False, init=False)
class LpModel:
    """A general-form linear program: optimize ``objective . x`` subject
    to ``M[i] . x  rel[i]  b[i]`` for every row ``i``.

    ``rel`` holds one of ``"<="``, ``"="`` or ``">="`` per row.
    ``bounds`` gives each variable's class, ``"nonneg"`` or ``"free"``;
    ``None`` means all nonnegative.  The constructor takes rows as
    :class:`Constraint` values or ``(coeffs, rel, rhs)`` triples;
    :meth:`from_arrays` takes ``(M, rel, b)`` directly.  Every array is
    a read-only copy.
    """

    sense: str
    objective: np.ndarray
    M: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    bounds: tuple[str, ...]

    def __init__(self, sense, objective, constraints=(), bounds=None):
        objective = _objective(sense, objective)
        n = objective.shape[0]
        rows = tuple(c if isinstance(c, Constraint) else Constraint(*c) for c in constraints)
        for k, con in enumerate(rows):
            if con.coeffs.shape[0] != n:
                raise InputError(
                    f"constraint {k + 1} has {con.coeffs.shape[0]} coefficients, expected {n}"
                )
        M = np.array([con.coeffs for con in rows]).reshape(len(rows), n)
        self._fill(
            sense, objective, M, [con.rel for con in rows], [con.rhs for con in rows], bounds
        )

    @classmethod
    def from_arrays(cls, sense, objective, M, rel, b, bounds=None) -> LpModel:
        """A model from its constraint arrays: ``M`` is rows by variables,
        ``rel`` and ``b`` have one entry per row."""
        model = cls.__new__(cls)
        model._fill(sense, _objective(sense, objective), M, rel, b, bounds)
        return model

    def _fill(self, sense, objective, M, rel, b, bounds) -> None:
        """Validate the constraint arrays and bounds and set every field;
        ``objective`` comes from :func:`_objective`."""
        n = objective.shape[0]
        M = _frozen(M, float)
        b = _frozen(b, float)
        rel = _frozen(rel, str)
        if M.ndim != 2 or M.shape[1] != n or b.shape != (M.shape[0],) or rel.shape != b.shape:
            raise InputError(
                f"constraint arrays have shapes M {M.shape}, rel {rel.shape}, b {b.shape}; "
                f"expected (k, {n}), (k,), (k,)"
            )
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
            raise InputError("constraint arrays contain non-finite entries")
        valid = (rel == LE) | (rel == EQ) | (rel == GE)
        if not valid.all():
            bad = rel[np.argmin(valid)]
            raise InputError(f"relation must be one of {_RELATIONS}, got {str(bad)!r}")
        bounds = tuple(bounds) if bounds is not None else (NONNEG,) * n
        if len(bounds) != n:
            raise InputError(f"bounds has length {len(bounds)}, expected {n}")
        for kind in bounds:
            if kind not in _BOUND_KINDS:
                raise InputError(f"variable bound must be one of {_BOUND_KINDS}, got {kind!r}")
        for name, value in (("sense", sense), ("objective", objective), ("M", M),
                            ("rel", rel), ("b", b), ("bounds", bounds),
                            ("_free", _frozen([kind == FREE for kind in bounds], bool))):
            object.__setattr__(self, name, value)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as :class:`Constraint` values, a read-only view."""
        return tuple(
            Constraint(row, str(rel), float(rhs)) for row, rel, rhs in zip(self.M, self.rel, self.b)
        )

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solve result.

    ``x`` and ``duals`` are present only when ``status == "optimal"``.
    ``objective_value`` is nan for infeasible models and +/-inf for
    unbounded ones (sign follows the model's sense).  ``duals`` holds
    one multiplier per constraint, in model order, under the sign
    convention documented in the module docstring.
    """

    status: str
    x: np.ndarray | None
    objective_value: float
    duals: np.ndarray | None
    iterations: int


class _Tableau:
    """Mutable solver state; private to a single :func:`solve` call."""

    def __init__(self, model: LpModel):
        self.model = model
        self.maximize = model.sense == MAX
        self.iterations = 0

        m, n = model.n_rows, model.n_vars
        c = model.objective if self.maximize else -model.objective

        # Split free variables: x[j] = column pos_col[j] - column neg_col[j].
        free = model._free
        pos_col = np.arange(n) + np.cumsum(free) - free
        neg_col = np.where(free, pos_col + 1, -1)
        n_struct = n + int(free.sum())
        self.pos_col = pos_col
        self.neg_col = neg_col

        # Row normalization: nonnegative rhs, with the applied sign kept
        # so original duals can be recovered.  kind is +1 for <=, -1 for
        # >= and 0 for = after the flip.
        sigma = np.where(model.b < 0, -1.0, 1.0)
        kind = sigma * ((model.rel == LE).astype(float) - (model.rel == GE))
        rows = model.M * sigma[:, None]
        self.sigma = sigma

        slack_rows = np.flatnonzero(kind != 0)
        art_rows = np.flatnonzero(kind <= 0)
        art_first = n_struct + slack_rows.size
        total = art_first + art_rows.size
        T = np.zeros((m + 1, total + 1))
        T[:m, pos_col] = rows
        T[:m, neg_col[free]] = -rows[:, free]
        T[:m, -1] = model.b * sigma
        slack_cols = n_struct + np.arange(slack_rows.size)
        art_cols = art_first + np.arange(art_rows.size)
        T[slack_rows, slack_cols] = kind[slack_rows]
        T[art_rows, art_cols] = 1.0

        basis = np.empty(m, dtype=int)
        basis[art_rows] = art_cols
        le = kind[slack_rows] > 0
        basis[slack_rows[le]] = slack_cols[le]

        self.T = T
        self.basis = basis
        self.row_ids = np.arange(m)
        # Pristine standard-form data for the final refactorization.
        self.A0 = T[:m, :-1].copy()
        self.b0 = T[:m, -1].copy()
        self.artificial = np.zeros(total, dtype=bool)
        self.artificial[art_first:] = True
        self.enterable = ~self.artificial

        self.phase1_costs = np.where(self.artificial, -1.0, 0.0)
        costs2 = np.zeros(total)
        costs2[pos_col] = c
        costs2[neg_col[free]] = -c[free]
        self.phase2_costs = costs2
        self.has_artificials = art_rows.size > 0

    # -- tableau mechanics ------------------------------------------------

    def _price_out(self, costs: np.ndarray) -> None:
        T = self.T
        cb = costs[self.basis]
        T[-1, :-1] = cb @ T[:-1, :-1] - costs
        T[-1, -1] = cb @ T[:-1, -1]

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        if abs(piv) < PIVOT_EPS:
            raise SolverFailure(
                "pivot element below PIVOT_EPS", pivot=piv, iterations=self.iterations
            )
        T[row] /= piv
        column = T[:, col].copy()
        column[row] = 0.0
        T -= np.outer(column, T[row])
        # Scrub roundoff in the pivot column.
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.iterations += 1

    def _ratio_row(self, col: int, bland: bool) -> tuple[str, int]:
        """Leaving row for an entering column: (kind, row) where kind is
        'ok', 'unbounded' or 'breakdown'."""
        T = self.T
        column = T[:-1, col]
        positive = column > PIVOT_EPS
        if not positive.any():
            if (column > 0).any():
                return "breakdown", -1
            return "unbounded", -1
        ratios = np.full(column.shape[0], np.inf)
        ratios[positive] = T[:-1, -1][positive] / column[positive]
        theta = ratios.min()
        ties = np.nonzero(ratios == theta)[0]
        if bland:
            row = int(ties[np.argmin(self.basis[ties])])
        else:
            # stabilizing tie-break: the largest pivot among exact ties
            row = int(ties[np.argmax(np.abs(column[ties]))])
        return "ok", row

    # How many favorable columns the stabilized Dantzig scan examines,
    # and how small a pivot must be (relative to its column) before a
    # better-conditioned alternative is preferred.
    _SCAN_LIMIT = 8
    _STABLE_REL = 1e-7

    def _choose_dantzig(self, phase: int) -> tuple[int, int] | str:
        T = self.T
        reduced = np.where(self.enterable, T[-1, :-1], np.inf)
        order = np.argsort(reduced, kind="stable")
        fallback = None
        saw_breakdown = False
        for rank in range(order.size):
            col = int(order[rank])
            if reduced[col] >= -_RC_TOL:
                break
            kind, row = self._ratio_row(col, bland=False)
            if kind == "unbounded":
                return UNBOUNDED
            if kind == "breakdown":
                saw_breakdown = True
                continue
            pivot = abs(T[row, col])
            column_scale = float(np.abs(T[:-1, col]).max())
            if pivot >= self._STABLE_REL * max(1.0, column_scale):
                return col, row
            if fallback is None:
                fallback = (col, row)
            if rank + 1 >= self._SCAN_LIMIT and fallback is not None:
                # bounded scan: settle for the best seen so far
                return fallback
        if fallback is not None:
            return fallback
        if saw_breakdown:
            raise SolverFailure(
                "pivot breakdown: all candidate pivots below PIVOT_EPS",
                phase=phase,
                iterations=self.iterations,
            )
        return OPTIMAL

    def _pivot_loop(self, phase: int) -> str:
        T = self.T
        stall_limit = 50 * max(1, T.shape[0] - 1)
        hard_cap = 10_000 + 200 * (T.shape[0] + T.shape[1])
        bland = False
        best = T[-1, -1]
        stall = 0
        while True:
            if bland:
                reduced = T[-1, :-1]
                favorable = np.nonzero(self.enterable & (reduced < -_RC_TOL))[0]
                if favorable.size == 0:
                    return OPTIMAL
                col = int(favorable[0])
                kind, row = self._ratio_row(col, bland=True)
                if kind == "unbounded":
                    return UNBOUNDED
                if kind == "breakdown":
                    raise SolverFailure(
                        "pivot breakdown: all candidate pivots below PIVOT_EPS",
                        phase=phase,
                        column=col,
                        iterations=self.iterations,
                    )
            else:
                choice = self._choose_dantzig(phase)
                if choice == OPTIMAL:
                    return OPTIMAL
                if choice == UNBOUNDED:
                    return UNBOUNDED
                col, row = choice
            self._pivot(row, col)
            self.basis[row] = col

            value = T[-1, -1]
            if value > best + 1e-12:
                best = value
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True
            if self.iterations > hard_cap:
                raise SolverFailure(
                    "iteration limit exceeded", phase=phase, iterations=self.iterations
                )

    def _drive_out_artificials(self) -> None:
        T = self.T
        drop = []
        for ri in range(len(self.basis)):
            if not self.artificial[self.basis[ri]]:
                continue
            row = T[ri, :-1]
            candidates = np.nonzero(self.enterable & (np.abs(row) > PIVOT_EPS))[0]
            if candidates.size:
                # rhs is zero here, so any pivot is degenerate-feasible;
                # take the largest for stability
                col = int(candidates[np.argmax(np.abs(row[candidates]))])
                self._pivot(ri, col)
                self.basis[ri] = col
            else:
                drop.append(ri)  # redundant row: zero outside artificials
        if drop:
            self.T = np.delete(self.T, drop, axis=0)
            self.basis = np.delete(self.basis, drop)
            self.row_ids = np.delete(self.row_ids, drop)

    # -- result assembly ---------------------------------------------------

    def _extract(self) -> LpSolution:
        """Recompute x and duals from the final basis and certify them.

        The basis matrix is rebuilt from the pristine standard-form data,
        so the reported numbers carry one factorization's worth of error
        rather than the whole pivot history's.
        """
        model = self.model
        values = np.zeros(self.A0.shape[1])
        duals_internal = np.zeros(model.n_rows)
        if self.basis.size:
            base = self.A0[self.row_ids][:, self.basis]
            try:
                values[self.basis] = np.linalg.solve(base, self.b0[self.row_ids])
                duals_internal[self.row_ids] = np.linalg.solve(
                    base.T, self.phase2_costs[self.basis]
                )
            except np.linalg.LinAlgError:
                raise SolverFailure(
                    "final basis is numerically singular", iterations=self.iterations
                ) from None
        x = values[self.pos_col].copy()
        split = self.neg_col >= 0
        x[split] -= values[self.neg_col[split]]

        duals = duals_internal * self.sigma
        if not self.maximize:
            duals = -duals
        objective_value = float(model.objective @ x)
        _verify(model, x, duals, objective_value, self.iterations)
        x.setflags(write=False)
        duals.setflags(write=False)
        return LpSolution(OPTIMAL, x, objective_value, duals, self.iterations)

    # -- driver -------------------------------------------------------------

    def run(self) -> LpSolution:
        if self.has_artificials:
            self._price_out(self.phase1_costs)
            status = self._pivot_loop(phase=1)
            if status != OPTIMAL:
                # Phase-1 objective is bounded above by zero.
                raise SolverFailure(
                    f"phase 1 terminated {status}", iterations=self.iterations
                )
            if self.T[-1, -1] < -TOL_FEAS:
                return LpSolution(INFEASIBLE, None, float("nan"), None, self.iterations)
            self._drive_out_artificials()
        self._price_out(self.phase2_costs)
        status = self._pivot_loop(phase=2)
        if status == UNBOUNDED:
            value = float("inf") if self.maximize else float("-inf")
            return LpSolution(UNBOUNDED, None, value, None, self.iterations)
        return self._extract()


def _verify(model: LpModel, x: np.ndarray, duals: np.ndarray, objective_value: float,
            iterations: int) -> None:
    """Certify optimality: primal feasible, dual feasible, zero gap."""
    M, b = model.M, model.b
    le, ge = model.rel == LE, model.rel == GE
    gap = M @ x - b
    row_viol = np.where(le, np.maximum(gap, 0.0), np.where(ge, np.maximum(-gap, 0.0), np.abs(gap)))
    worst = max(
        float((row_viol / np.maximum(1.0, np.abs(b))).max(initial=0.0)),
        float((-x[~model._free]).max(initial=0.0)),
    )
    if worst > TOL_FEAS:
        raise SolverFailure(
            "optimal basis fails the primal feasibility re-check",
            violation=worst,
            iterations=iterations,
        )

    # multiplier sign conditions per relation
    maximize = model.sense == MAX
    sign = np.where(le, 1.0, -1.0) if maximize else np.where(le, -1.0, 1.0)
    worst_dual = float((-sign * duals)[le | ge].max(initial=0.0))
    reduced = model.objective - M.T @ duals
    var_viol = np.maximum(reduced, 0.0) if maximize else np.maximum(-reduced, 0.0)
    var_viol = np.where(model._free, np.abs(reduced), var_viol)
    scale = np.maximum(1.0, np.abs(model.objective))
    worst_dual = max(worst_dual, float((var_viol / scale).max()))
    if worst_dual > TOL_FEAS:
        raise SolverFailure(
            "optimal basis fails the dual feasibility re-check",
            violation=worst_dual,
            iterations=iterations,
        )

    dual_objective = float(duals @ b)
    gap = abs(objective_value - dual_objective)
    if gap > TOL_GAP * max(1.0, abs(objective_value)):
        raise SolverFailure(
            "primal and dual objectives disagree",
            gap=gap,
            primal=objective_value,
            dual=dual_objective,
            iterations=iterations,
        )


def solve(model: LpModel) -> LpSolution:
    """Solve a model with the two-phase simplex method on one tableau.

    Deterministic: the same model always follows the same pivot path and
    returns the same solution and iteration count.  Raises
    :class:`SolverFailure` on numerical breakdown instead of returning
    an untrustworthy status.
    """
    return _Tableau(model).run()


def dualize(model: LpModel) -> LpModel:
    """The standard LP dual of ``model``.

    * maximize <-> minimize;
    * one dual variable per primal row: free for ``=`` rows, nonnegative
      otherwise (``>=`` rows of a max problem and ``<=`` rows of a min
      problem are negated first so their multipliers stay nonnegative);
    * one dual constraint per primal variable: an equality for free
      variables, an inequality (``>=`` when dualizing a max problem,
      ``<=`` for a min problem) for nonnegative ones.

    ``dualize(dualize(m))`` is equivalent to ``m`` up to these sign
    normalizations.
    """
    if model.n_rows == 0:
        raise InputError("cannot dualize a model with no constraints")
    maximize = model.sense == MAX
    flip = model.rel == (GE if maximize else LE)
    sign = np.where(flip, -1.0, 1.0)
    rel = np.where(flip, LE if maximize else GE, model.rel)
    dual_bounds = tuple(FREE if r == EQ else NONNEG for r in rel.tolist())
    dual_rel = np.where(model._free, EQ, GE if maximize else LE)
    return LpModel.from_arrays(
        MIN if maximize else MAX,
        model.b * sign,
        (model.M * sign[:, None]).T,
        dual_rel,
        model.objective,
        dual_bounds,
    )


def check_complementary_slackness(
    model: LpModel, sol: LpSolution, tol: float = TOL_GAP
) -> tuple[bool, float]:
    """Largest complementary-slackness product at a solved optimum.

    Checks ``|dual_i * slack_i|`` over constraints and
    ``|x_j * reduced_cost_j|`` over variables, where
    ``reduced_cost = objective - M^T duals``.  Returns ``(ok, residual)``
    with ``ok = residual <= tol``.
    """
    if sol.status != OPTIMAL:
        raise InputError(f"complementary slackness needs an optimal solution, got {sol.status!r}")
    slacks = model.b - model.M @ sol.x
    residual = float(np.abs(sol.duals * slacks).max(initial=0.0))
    reduced = model.objective - model.M.T @ sol.duals
    residual = max(residual, float(np.abs(sol.x * reduced).max()))
    return residual <= tol, residual
