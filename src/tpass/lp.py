"""General-form linear programs and a dense two-phase simplex solver.

A model, :class:`LpModel`, is one constructor over arrays: a maximize or
minimize objective, the rows ``(M, rel, b)`` with ``<=``, ``=`` and
``>=`` relations, and per-variable bound classes (nonnegative or free).
:func:`solve` also takes a 2-D array ``P`` of positive finite entries
for the packing LP ``maximize 1'y`` subject to ``P y <= 1``, ``y >=
0``, which every game LP is.  The solver's set-up and verification run
vectorized on a dense tableau and favor transparency over sparse
machinery.

Solver design:

* A model encodes its relations once, as a row sign: ``+1`` for
  ``<=``, ``-1`` for ``>=`` and ``0`` for ``=``.  The set-up and the
  optimality, ray and Farkas re-checks read the sign; none compares the
  relation strings again.
* The set-up builds only what the model has.  Free variables, if any,
  enter the tableau as a split ``x = x+ - x-``, and reported solutions
  recombine the halves; with none, ``x`` is the first ``n`` tableau
  values.  Rows with a negative right-hand side, if any, are negated so
  every right-hand side is nonnegative.  Each row has one logical
  variable with a ``+1`` in that row: a slack on a ``<=`` row, an
  artificial on ``=`` and ``>=`` rows; a ``>=`` row also gets a ``-1``
  surplus column.  Only when an artificial exists does phase 1 run, on
  costs formed then: it maximizes minus the artificial sum, and an
  artificial left above zero, relative to its row's right-hand side,
  means infeasible, once phase 1's multipliers pass a Farkas re-check
  (below).  Phase 1 is bounded, so a ray there is roundoff:
  from a basis feasible by that measure phase 2 goes on, and from any
  other the solver raises.  A packing LP's set-up forms its model's
  state from ``P`` directly, ``[P | 1; -1' | 0]`` on the slack basis.
  Both set-ups end priced out for phase 2, on the logical basis.
* The tableau stores only the nonbasic columns (the dictionary form of
  the simplex method), with the right-hand side and the reduced-cost
  row.  The starting basis is the identity, the logicals, so the
  starting tableau is the structural and surplus columns as given.  A
  pivot is an exchange: the leaving variable takes over the entering
  one's column, filled with what the full tableau's elimination makes
  of its unit column (``1/pivot`` in the pivot row, minus the entering
  column over the pivot elsewhere).  Every other column is updated as
  in the full tableau, so the pivots are the same.  An artificial that
  leaves the basis takes over a column of zeros instead, which every
  later pivot keeps zero and phase 2 prices at zero, so it never
  re-enters.  Basic artificials left over from phase 1 are driven out
  by degenerate pivots.  A row that cannot be pivoted is redundant: it
  stays, zeroed, with its artificial basic at zero, and the
  refactorization reads it as a logical with a zero dual.  So the
  tableau keeps every row, and its final basis decodes the whole solve.
* One chooser serves both pricing rules.  The default is steepest-edge
  pricing (Goldfarb & Reid 1977): a favorable column ``j`` is priced by
  its reduced cost over the length of its edge, ``d_j / sqrt(1 +
  ||T[:-1, j]||^2)``, exact here because the dense tableau holds every
  nonbasic column in the current basis.  It takes about a third fewer
  pivots than Dantzig's rule on the game LPs.  A stability twist rides
  along: among the best-priced columns, one whose ratio-test pivot is
  not vanishingly small relative to its column is preferred, which
  avoids the roundoff blowup of near-degenerate pivots.  After ``50 *
  n_rows`` pivots without objective progress the solver switches
  permanently to Bland's rule (pure, unstabilized), which guarantees
  termination on degenerate (cycling) instances.
  Under either rule, a favorable column with no entry above
  :data:`PIVOT_EPS` is taken for a ray, re-verified as below.
* The tableau only decides which basis is optimal.  The reported ``x``
  and duals are recomputed from that basis by a fresh factorization of
  the original data, so accumulated tableau roundoff never leaks into
  results.  A basic logical is a unit column of cost 0: its row's dual
  is 0, and the row drops out.  Only the structural and surplus basics
  are factorized, on the rows left over; at a game LP's optimum they
  are a few of the many basics.  A packing LP shares the pivots and
  this refactorization, so it returns its model's bits.
* Every "optimal" result is re-verified against the problem's own
  arrays: primal feasibility and dual feasibility within
  :data:`TOL_FEAS` and a primal-dual objective gap within
  :data:`TOL_GAP`, which together certify optimality.  Every
  "unbounded" result is re-verified too: along the ray, recomputed from
  the basis, every row and bound must hold and the objective must
  improve, each beyond roundoff of the terms involved; a column of tiny
  entries or a roundoff reduced cost is no ray.  Every "infeasible"
  result is re-verified by Farkas's lemma: phase 1's multipliers,
  recomputed from its final basis, must prove that no point satisfies
  the rows and bounds, beyond roundoff likewise.  A violation, or a
  singular final basis, raises :class:`SolverFailure` rather than
  returning a silently wrong status.

Dual sign convention (matching :func:`dualize`): for a maximize problem
``<=`` rows have nonnegative multipliers and ``>=`` rows nonpositive
ones; for a minimize problem the signs swap; equality rows are free
either way.  The dual objective is ``b . y`` and equals the primal
objective at optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# Relative slack of the ray re-check: roundoff, not a genuine violation.
_RAY_TOL = 1e-12

_RELATIONS = (LE, EQ, GE)
_BOUND_KINDS = (NONNEG, FREE)


def _frozen(values, dtype, name: str) -> np.ndarray:
    try:
        out = np.array(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{name} is not an array of {dtype.__name__}: {exc}") from None
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LpModel:
    """A general-form linear program: optimize ``objective . x`` subject
    to ``M[i] . x  rel[i]  b[i]`` for every row ``i``.

    ``M`` is rows by variables; ``rel`` holds one of ``"<="``, ``"="``
    or ``">="`` per row and ``b`` one right-hand side per row.
    ``bounds`` gives each variable's class, ``"nonneg"`` or ``"free"``;
    ``None`` means all nonnegative.  Every array is validated and stored
    as a read-only copy, and the relations are also kept as the private
    row sign ``_row_sign`` (``+1``, ``-1`` or ``0``), next to the mask
    ``_free`` of the free variables.
    """

    sense: str
    objective: np.ndarray
    M: np.ndarray
    rel: np.ndarray
    b: np.ndarray
    bounds: tuple[str, ...] | None = None
    _free: np.ndarray = field(init=False, repr=False)
    _row_sign: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.sense not in (MAX, MIN):
            raise InputError(f"sense must be '{MAX}' or '{MIN}', got {self.sense!r}")
        objective = _frozen(self.objective, float, "objective")
        if objective.ndim != 1 or objective.size == 0:
            raise InputError(f"objective must be a 1-d vector, got shape {objective.shape}")
        if not np.isfinite(objective).all():
            raise InputError("objective contains non-finite entries")
        n = objective.shape[0]
        M = _frozen(self.M, float, "M")
        b = _frozen(self.b, float, "b")
        rel = _frozen(self.rel, str, "rel")
        if M.size == 0 and M.ndim == 1:
            M = M.reshape(0, n)
        if M.ndim != 2 or M.shape[1] != n or b.shape != (M.shape[0],) or rel.shape != b.shape:
            raise InputError(
                f"constraint arrays have shapes M {M.shape}, rel {rel.shape}, b {b.shape}; "
                f"expected (k, {n}), (k,), (k,)"
            )
        if not (np.isfinite(M).all() and np.isfinite(b).all()):
            raise InputError("constraint arrays contain non-finite entries")
        le, ge = rel == LE, rel == GE
        valid = le | ge | (rel == EQ)
        if not valid.all():
            bad = rel[np.argmin(valid)]
            raise InputError(f"relation must be one of {_RELATIONS}, got {str(bad)!r}")
        if self.bounds is None:
            bounds, free = (NONNEG,) * n, np.zeros(n, dtype=bool)
        else:
            try:
                bounds = tuple(self.bounds)
            except TypeError:
                raise InputError(f"bounds must be a sequence, got {self.bounds!r}") from None
            if len(bounds) != n:
                raise InputError(f"bounds has length {len(bounds)}, expected {n}")
            for kind in bounds:
                if kind not in _BOUND_KINDS:
                    raise InputError(f"variable bound must be one of {_BOUND_KINDS}, got {kind!r}")
            free = np.array([kind == FREE for kind in bounds], dtype=bool)
        free.setflags(write=False)
        row_sign = le - ge.astype(float)
        row_sign.setflags(write=False)
        for name, value in (("objective", objective), ("M", M), ("rel", rel), ("b", b),
                            ("bounds", bounds), ("_free", free), ("_row_sign", row_sign)):
            object.__setattr__(self, name, value)

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
    """Mutable solver state; private to a single :func:`solve` call.

    Both set-ups record the same state in the same order: the problem as
    given, for the re-checks (``M``, ``b``, ``row_sign``, ``free``,
    ``objective``, ``maximize``, the ``=`` rows ``equality`` and the
    scales ``row_scale`` and ``cost_scale``), the row signs ``sigma``
    applied and the column maps ``split`` of the free variables (each
    None when unneeded), then the tableau.  The columns ``0..n_cols-1``
    are the structural variables (free ones split in two) and then one
    ``-1`` surplus column per ``>=`` row; variable ``n_cols + i`` is row
    ``i``'s logical, whose column is ``+e_i``: a slack on a ``<=`` row
    and an artificial on every other row.  ``T`` holds the nonbasic
    columns only, in the order of ``nonbasic``, then the right-hand side;
    its last row holds the reduced costs and the objective value.
    ``basis[i]`` is the variable basic in row ``i``, for every row: a
    redundant row keeps its artificial basic to the end.
    """

    def __init__(self, problem):
        self.iterations = 0
        if isinstance(problem, LpModel):
            self._set_up_model(problem)
        else:
            self._set_up_packing(problem)

    def _set_up_model(self, model: LpModel) -> None:
        self.M, self.b, self.row_sign = model.M, model.b, model._row_sign
        self.free, self.objective = model._free, model.objective
        self.maximize = model.sense == MAX
        equality = (model._row_sign == 0).nonzero()[0]
        self.equality = equality if equality.size else None
        self.row_scale = np.maximum(1.0, np.abs(model.b))
        self.cost_scale = np.maximum(1.0, np.abs(model.objective))

        m, n = model.n_rows, model.n_vars
        c = model.objective if self.maximize else -model.objective
        rows, rhs, kind = model.M, model.b, model._row_sign

        # Row normalization: nonnegative rhs, with the applied sign sigma
        # kept so original duals can be recovered.  kind is +1 for <=, -1
        # for >= and 0 for = after the flip; a >= row gets a surplus
        # column, and every row but a <= one an artificial logical.
        flip = rhs < 0
        self.sigma = None
        if flip.any():
            self.sigma = np.where(flip, -1.0, 1.0)
            rows, rhs, kind = rows * self.sigma[:, None], rhs * self.sigma, kind * self.sigma
        surplus = (kind < 0).nonzero()[0]

        # Split free variables, if any: x[j] = column pos_col[j] - column
        # neg_col[j], with split = (pos_col, neg_col).  With none, x[j] is
        # column j.
        free = model._free
        self.split = None
        n_struct = n
        if free.any():
            pos_col = np.arange(n) + np.cumsum(free) - free
            neg_col = np.where(free, pos_col + 1, -1)
            self.split = pos_col, neg_col
            n_struct += int(free.sum())

        n_cols = n_struct + surplus.size
        T = np.zeros((m + 1, n_cols + 1))
        costs = np.zeros(n_cols + m)
        if self.split is not None:
            T[:m, pos_col] = rows
            T[:m, neg_col[free]] = -rows[:, free]
            costs[pos_col] = c
            costs[neg_col[free]] = -c[free]
        else:
            T[:m, :n] = rows
            costs[:n] = c
        if surplus.size:
            T[surplus, np.arange(n_struct, n_cols)] = -1.0
        T[:m, -1] = rhs
        artificial = np.zeros(n_cols + m, dtype=bool)
        artificial[n_cols:] = kind <= 0
        # The pristine columns are the (flipped) model rows themselves
        # when no column was split or added.
        A0 = T[:m, :n_cols].copy() if self.split is not None or surplus.size else rows
        self._start(T, A0, rhs, costs, artificial)

    def _set_up_packing(self, P) -> None:
        """The packing LP of ``P`` as ``LpModel(MAX, ones(n), P, [LE] *
        m, ones(m))`` would set it up, with no model built."""
        P = _frozen(P, float, "P")
        if P.ndim != 2 or P.size == 0:
            raise InputError(f"P must be a nonempty 2-d array, got shape {P.shape}")
        if not (P.min() > 0.0 and P.max() < np.inf):  # a nan fails both
            raise InputError("P must have positive finite entries")
        m, n = P.shape
        ones = np.ones(m)  # b, the row sign of <= rows and max(1, |b|)
        costs = np.zeros(n + m)
        costs[:n] = 1.0
        self.M, self.b, self.row_sign = P, ones, ones
        self.free, self.objective = np.zeros(n, dtype=bool), costs[:n]
        self.maximize, self.equality = True, None
        self.row_scale, self.cost_scale = ones, self.objective
        self.sigma = self.split = None
        T = np.empty((m + 1, n + 1))
        T[:m, :n] = P
        T[:m, -1] = 1.0
        T[-1, -1] = 0.0
        self._start(T, P, ones, costs, np.zeros(n + m, dtype=bool))

    def _start(self, T, A0, b0, costs, artificial) -> None:
        """Start on the logical basis, of cost 0, so ``T`` gets the phase-2
        reduced costs ``0 - costs``; ``A0`` and ``b0``, the pristine columns
        and right-hand side, are for the final refactorization."""
        m, n_cols = T.shape[0] - 1, T.shape[1] - 1
        np.subtract(0.0, costs[:n_cols], out=T[-1, :-1])
        self.T = T
        self.basis = n_cols + np.arange(m)
        self.nonbasic = np.arange(n_cols)
        self.A0, self.b0 = A0, b0
        self.n_cols, self.n_rows = n_cols, m
        self.artificial = artificial
        self.phase2_costs = costs

    # -- tableau mechanics ------------------------------------------------

    def _price_out(self, costs: np.ndarray) -> None:
        T = self.T
        cb = costs[self.basis]
        T[-1, :-1] = cb @ T[:-1, :-1] - costs[self.nonbasic]
        T[-1, -1] = cb @ T[:-1, -1]

    def _pivot(self, row: int, col: int) -> None:
        """Exchange ``basis[row]`` and ``nonbasic[col]``: the leaving
        variable takes over the entering one's column, or a leaving
        artificial a column of zeros, which no later pivot changes."""
        T = self.T
        piv = T[row, col]
        if abs(piv) < PIVOT_EPS:
            raise SolverFailure(
                "pivot element below PIVOT_EPS", pivot=piv, iterations=self.iterations
            )
        T[row] /= piv
        column = T[:, col].copy()
        column[row] = 0.0
        T[:, col] = 0.0
        leaving = self.basis[row]
        if not self.artificial[leaving]:
            T[row, col] = 1.0 / piv
        T -= column[:, None] * T[row]
        self.basis[row] = self.nonbasic[col]
        self.nonbasic[col] = leaving
        self.iterations += 1

    # How many favorable columns the stabilized steepest-edge scan examines,
    # how small a pivot must be (relative to its column) before a
    # better-conditioned alternative is preferred, and how many pivots
    # per row may pass without objective progress before Bland's rule
    # takes over.
    _SCAN_LIMIT = 8
    _STABLE_REL = 1e-7
    _STALL_PER_ROW = 50

    def _choose(self, bland: bool) -> tuple[int, int] | str:
        """The pivot ``(col, row)``, or OPTIMAL or UNBOUNDED.

        The favorable columns are those with a reduced cost ``d_j`` below
        ``-_RC_TOL``; with none, the basis is OPTIMAL.
        Bland's rule takes the first, the one of the lowest variable id,
        and breaks ratio ties by the lowest basic id.  Steepest edge scans
        them from the most negative price ``d_j / sqrt(1 + ||T[:-1,
        j]||^2)``, ties going to the lowest variable id, breaks ratio ties
        by the largest pivot, and takes the first column whose pivot is not
        tiny relative to the column; if none of the first ``_SCAN_LIMIT``
        columns has one, it settles for the first of them.  A ratio test
        that meets a nan (an overflowed tableau) raises
        :class:`SolverFailure`.  A candidate
        column with no entry above ``PIVOT_EPS`` is taken for a ray, whose
        variable id is kept in ``ray_col``; :meth:`_verify_ray` certifies
        it.
        """
        T = self.T
        reduced = T[-1, :-1]
        favorable = (reduced < -_RC_TOL).nonzero()[0]
        if favorable.size == 0:
            return OPTIMAL
        if favorable.size > 1:  # one favorable column needs no order
            ids = self.nonbasic[favorable]
            if bland:
                favorable = favorable[np.argsort(ids)]
            else:
                edges = T[:-1, favorable]
                price = reduced[favorable] / np.sqrt(1.0 + np.einsum("ij,ij->j", edges, edges))
                favorable = favorable[np.lexsort((ids, price))]
        fallback = None
        for col in favorable[: self._SCAN_LIMIT].tolist():
            column = T[:-1, col]
            rows = (column > PIVOT_EPS).nonzero()[0]
            if rows.size == 0:
                self.ray_col = int(self.nonbasic[col])
                return UNBOUNDED
            ratios = T[rows, -1] / column[rows]
            ties = rows[ratios == ratios.min()]
            if ties.size == 0:  # a nan ratio: the tableau overflowed
                raise SolverFailure(
                    "ratio test met a non-finite entry", iterations=self.iterations
                )
            row = int(ties[0])
            if ties.size > 1:
                pick = np.argmin(self.basis[ties]) if bland else np.argmax(np.abs(column[ties]))
                row = int(ties[pick])
            if bland:
                return col, row
            if abs(column[row]) >= self._STABLE_REL * max(1.0, float(np.abs(column).max())):
                return col, row
            if fallback is None:
                fallback = (col, row)
        return fallback

    def _pivot_loop(self, phase: int) -> str:
        T = self.T
        stall_limit = self._STALL_PER_ROW * max(1, self.n_rows)
        # from the size of the full tableau: rows and standard-form columns
        hard_cap = 10_000 + 200 * (2 * self.n_rows + self.n_cols + 2)
        bland = False
        best = T[-1, -1]
        stall = 0
        while True:
            choice = self._choose(bland)
            if isinstance(choice, str):
                return choice
            col, row = choice
            self._pivot(row, col)

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
        """Pivot each artificial left basic by phase 1 out of the basis, at
        zero level, on its row's largest entry.  A row with no entry above
        ``PIVOT_EPS`` is redundant: its entries are set to exactly 0, so no
        later pivot selects or changes it, and its artificial stays basic
        at zero, a logical of cost 0 for :meth:`_basis_solve`."""
        T = self.T
        # a pivot replaces only its own row's basic variable
        for ri in np.flatnonzero(self.artificial[self.basis]).tolist():
            row = T[ri, :-1]
            candidates = (np.abs(row) > PIVOT_EPS).nonzero()[0]
            if candidates.size:
                # rhs is zero within phase 1's tolerance, so any pivot is
                # degenerate-feasible; take the largest, ties to the lowest
                # variable id
                size = np.abs(row[candidates])
                ties = candidates[size == size.max()]
                self._pivot(ri, int(ties[np.argmin(self.nonbasic[ties])]))
            else:
                row[:] = 0.0

    # -- result assembly ---------------------------------------------------

    def _basis_solve(self, rhs: np.ndarray) -> tuple:
        """Column values of ``B z = rhs`` and the duals ``y`` of ``B' y =
        c_B``, with ``B`` the final basis matrix rebuilt from the pristine
        data.

        A basic logical, a redundant row's artificial among them, is the
        unit column of its row, of phase-2 cost 0, so the dual of that row
        is 0 and the row drops out.  The basic columns ``S`` of ``A0`` then
        solve the square system on the rows ``R`` whose logical is
        nonbasic: ``A0[R, S] z_S = rhs[R]`` and ``A0[R, S]' y_R = c_S``.
        Returns ``z`` over the columns of ``A0``, zero off ``S``, and ``y``
        over the model rows, zero off ``R``.
        """
        basis, nonbasic = self.basis, self.nonbasic
        cols = basis[basis < self.n_cols]
        rows = np.sort(nonbasic[nonbasic >= self.n_cols]) - self.n_cols
        z = np.zeros(self.n_cols)
        y = np.zeros(self.n_rows)
        k = rows.size
        system = np.empty((2, k, k))
        system[0] = self.A0[rows[:, None], cols]
        system[1] = system[0].T
        right = np.empty((2, k, 1))
        right[0, :, 0] = rhs[rows]
        right[1, :, 0] = self.phase2_costs[cols]
        try:
            z[cols], y[rows] = np.linalg.solve(system, right)[:, :, 0]
        except np.linalg.LinAlgError:
            raise SolverFailure(
                "final basis is numerically singular", iterations=self.iterations
            ) from None
        return z, y

    def _recombine(self, values: np.ndarray) -> np.ndarray:
        """Problem-space values from structural ones: ``x = x+ - x-``, or
        the first ``n`` values when no variable is split."""
        if self.split is None:
            return values[: self.objective.size]
        pos_col, neg_col = self.split
        x = values[pos_col]
        split = neg_col >= 0
        x[split] -= values[neg_col[split]]
        return x

    def _extract(self) -> LpSolution:
        """Recompute x and duals from the final basis and certify them.

        The basis matrix is rebuilt from the pristine columns,
        so the reported numbers carry one factorization's worth of error
        rather than the whole pivot history's.
        """
        values, duals = self._basis_solve(self.b0)
        x = self._recombine(values)
        if self.sigma is not None:
            duals *= self.sigma
        if not self.maximize:
            duals = -duals
        objective_value = float(self.objective @ x)
        self._verify(x, duals, objective_value)
        x.setflags(write=False)
        duals.setflags(write=False)
        return LpSolution(OPTIMAL, x, objective_value, duals, self.iterations)

    def _row_excess(self, lhs: np.ndarray) -> np.ndarray:
        """How far each row's ``lhs`` exceeds its relation's side of zero:
        ``row_sign * lhs``, and ``|lhs|`` on an ``=`` row."""
        excess = self.row_sign * lhs
        if self.equality is not None:
            excess[self.equality] = np.abs(lhs[self.equality])
        return excess

    def _verify(self, x: np.ndarray, duals: np.ndarray, objective_value: float) -> None:
        """Certify optimality against the problem's arrays: primal and
        dual feasibility within :data:`TOL_FEAS` and the objectives within
        :data:`TOL_GAP`, else :class:`SolverFailure`.  A nan anywhere
        fails the check it reaches."""
        M, b, s = self.M, self.b, self.row_sign
        # violations stay signed: the initial 0 of a max clamps the worst
        worst = float(np.maximum(
            (self._row_excess(M @ x - b) / self.row_scale).max(initial=0.0),
            (-(x if self.split is None else x[~self.free])).max(initial=0.0),
        ))
        if not worst <= TOL_FEAS:
            raise SolverFailure("optimal basis fails the primal feasibility re-check",
                                violation=worst, iterations=self.iterations)

        # multiplier sign conditions per relation: s * duals >= 0 for a max
        # problem and <= 0 for a min one; an = row's sign is 0, so its free
        # multiplier adds only zeros
        signed = s * duals
        reduced = self.objective - M.T @ duals
        if self.maximize:
            worst_dual, var_viol = -signed.min(initial=0.0), reduced
        else:
            worst_dual, var_viol = signed.max(initial=0.0), -reduced
        if self.split is not None:
            var_viol = np.where(self.free, np.abs(reduced), var_viol)
        worst_dual = float(np.maximum(worst_dual, (var_viol / self.cost_scale).max()))
        if not worst_dual <= TOL_FEAS:
            raise SolverFailure("optimal basis fails the dual feasibility re-check",
                                violation=worst_dual, iterations=self.iterations)

        dual_objective = float(duals @ b)
        gap = abs(objective_value - dual_objective)
        if not gap <= TOL_GAP * max(1.0, abs(objective_value)):
            raise SolverFailure("primal and dual objectives disagree", gap=gap,
                                primal=objective_value, dual=dual_objective,
                                iterations=self.iterations)

    def _ray(self) -> np.ndarray:
        """The column part of the ray along which ``ray_col`` enters,
        recomputed from the basis like x: ``B d_B = -a``, where ``a`` is
        the entering column, ``+e_i`` for the slack of row ``i``."""
        ray = self.ray_col
        if ray < self.n_cols:
            column = self.A0[:, ray]
        else:
            column = np.zeros(self.n_rows)
            column[ray - self.n_cols] = 1.0
        d = self._basis_solve(-column)[0]
        if ray < self.n_cols:
            d[ray] = 1.0
        return d

    def _verify_ray(self, ray: np.ndarray) -> None:
        """Certify unboundedness: along ``ray`` every row and bound holds and
        the objective improves, each beyond roundoff of the terms involved.
        A row's allowance is ``_RAY_TOL * max|ray|`` times its entries on
        the ray's nonzero coordinates: an entry on a zero coordinate adds
        no term, and no roundoff."""
        M = self.M
        viol = self._row_excess(M @ ray)
        size = np.abs(ray).max() * _RAY_TOL
        gain = float(self.objective @ ray) * (1.0 if self.maximize else -1.0)
        if ((viol - size * (np.abs(M) @ (ray != 0.0))).max(initial=0.0) > 0.0
                or (-ray[~self.free]).max(initial=0.0) > size
                or gain <= size * np.abs(self.objective).sum()):
            raise SolverFailure("unbounded ray fails the re-check", iterations=self.iterations)

    def _verify_infeasible(self) -> None:
        """Certify infeasibility by Farkas's lemma.  Phase 1's multipliers
        ``y`` are recomputed from its final basis by one solve of ``B'y =
        c_B``, with ``c`` -1 on the artificials and 0 elsewhere, and mapped
        back through ``sigma``.  On the problem's arrays they must satisfy
        ``row_sign * y >= 0``, ``M'y >= 0`` on the nonnegative variables
        and ``= 0`` on the free ones, and ``b'y < 0``, each beyond
        roundoff as in :meth:`_verify_ray`: ``_RAY_TOL * max|y|`` times
        the column's sum of ``|M|``, or ``sum|b|`` for ``b'y``.  A singular
        basis or a failed check raises :class:`SolverFailure`."""
        basis, m = self.basis, self.n_rows
        structural = basis < self.n_cols
        B = np.zeros((m, m))
        B[:, structural] = self.A0[:, basis[structural]]
        logical = (~structural).nonzero()[0]
        B[basis[logical] - self.n_cols, logical] = 1.0
        try:
            y = np.linalg.solve(B.T, np.where(self.artificial[basis], -1.0, 0.0))
        except np.linalg.LinAlgError:
            raise SolverFailure("infeasible basis is numerically singular",
                                iterations=self.iterations) from None
        if self.sigma is not None:
            y *= self.sigma
        M = self.M
        size = np.abs(y).max() * _RAY_TOL
        reduced = M.T @ y
        if (not (-self.row_sign * y).max() <= size
                or not (np.where(self.free, np.abs(reduced), -reduced)
                        <= size * np.abs(M).sum(axis=0)).all()
                or not self.b @ y < -size * np.abs(self.b).sum()):
            raise SolverFailure("infeasibility certificate fails the re-check",
                                iterations=self.iterations)

    # -- driver -------------------------------------------------------------

    def run(self) -> LpSolution:
        if self.artificial.any():
            self._price_out(np.where(self.artificial, -1.0, 0.0))
            status = self._pivot_loop(phase=1)
            # Infeasible if an artificial is left above TOL_FEAS times its
            # row's scale max(1, |b_i|), the measure _verify applies.
            art = self.artificial[self.basis]
            scale = self.row_scale[self.basis[art] - self.n_cols]
            if (self.T[:-1, -1][art] > TOL_FEAS * scale).any():
                if status != OPTIMAL:  # phase 1 is bounded, so its ray proves nothing
                    raise SolverFailure(
                        f"phase 1 terminated {status}", iterations=self.iterations
                    )
                self._verify_infeasible()
                return LpSolution(INFEASIBLE, None, float("nan"), None, self.iterations)
            self._drive_out_artificials()
            self._price_out(self.phase2_costs)
        status = self._pivot_loop(phase=2)
        if status == UNBOUNDED:
            self._verify_ray(self._recombine(self._ray()))
            value = float("inf") if self.maximize else float("-inf")
            return LpSolution(UNBOUNDED, None, value, None, self.iterations)
        return self._extract()


def solve(model: LpModel | np.ndarray) -> LpSolution:
    """Solve a model, or the packing LP of a positive matrix, with the
    two-phase simplex method on one tableau.

    Any other input is read as a matrix ``P`` of positive finite entries
    (else :class:`InputError`), for ``maximize 1'y`` subject to ``P y <=
    1``, ``y >= 0``: the solution of ``LpModel(MAX, ones(n), P, [LE] *
    m, ones(m))``, bit for bit, with no model built.

    Deterministic: the same input always follows the same pivot path and
    returns the same solution and iteration count.  Raises
    :class:`SolverFailure` when the numbers cannot be trusted (a singular
    final basis, a failed re-check, the iteration limit) instead of
    returning a doubtful status.
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
    flip = model._row_sign == (-1.0 if maximize else 1.0)
    sign = np.where(flip, -1.0, 1.0)
    dual_bounds = tuple(np.where(model._row_sign == 0, FREE, NONNEG).tolist())
    dual_rel = np.where(model._free, EQ, GE if maximize else LE)
    return LpModel(
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
    with ``ok = residual <= tol``.  Raises :class:`InputError` when
    ``sol`` is not optimal or not of the model's shape.
    """
    if sol.status != OPTIMAL:
        raise InputError(f"complementary slackness needs an optimal solution, got {sol.status!r}")
    if (sol.x.size, sol.duals.size) != (model.n_vars, model.n_rows):
        raise InputError(f"solution is {sol.duals.size}x{sol.x.size} (rows x variables), "
                         f"but the model is {model.n_rows}x{model.n_vars}")
    slacks = model.b - model.M @ sol.x
    residual = float(np.abs(sol.duals * slacks).max(initial=0.0))
    reduced = model.objective - model.M.T @ sol.duals
    residual = max(residual, float(np.abs(sol.x * reduced).max()))
    return residual <= tol, residual
