"""Bounded-variable revised simplex, the LP core under the reference solver.

The solver works on the equality form ``A x + s = b`` where one logical
column per row carries the row sense in its bounds. The basis inverse is
held as a sparse LU factorization plus a product-form eta file, refreshed
every ``REFACTOR_INTERVAL`` pivots. The eta file is a dense block of eta
columns with the inverse of its small triangular coupling matrix, so a
solve applies every eta at once with two small matrix products instead of
one Python step per eta. Entering columns are read straight from the CSC
arrays of the standard form.

Dual phase. Whenever the starting basis is dual feasible (no movable
nonbasic column has a dual-infeasible reduced cost), a bounded-variable dual
simplex runs first. That covers the cold logical basis of every model whose
costs are nonnegative at finite lower bounds, as in the sizing MILP, and the
warm basis of an optimal parent solve after only column bounds change (the
rounding dive and the branch-and-bound nodes). Each step leaves on the row
of the largest bound violation (lowest row on ties), forms that row of
``B^-1 N`` from one ``btran`` and one product with the transposed matrix,
and scans only the row's nonzeros. It enters by a Harris ratio test: among
the movable nonbasic columns whose dual ratio lies within the bound relaxed
by ``tol_opt``, the largest pivot magnitude, then the lowest index. No
eligible column on a fresh factorization proves the LP infeasible. Reduced
costs are updated along the row and recomputed at each refactorization.
Once the basic values are feasible the primal loop takes over and normally
confirms optimality without a pivot. The dual phase hands over to the
primal loop early if its objective stalls for ``STALL_LIMIT`` iterations.

Primal loop. Phase 1 minimizes the total bound violation of the basic
variables with a piecewise-linear composite objective, which lets it start
from any basis; it solves the starts that are not dual feasible. Pricing is
Dantzig with a Bland fallback that engages when the objective stalls, so
the method terminates on degenerate models.

Tolerances follow the package contract: primal feasibility and dual
optimality both 1e-7. Determinism: every tie in pricing and in the ratio
tests breaks by a fixed rule (largest magnitude, then lowest index), so
identical inputs give identical bases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .milp_instance import GE, LE, MilpInstance

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

# _ENTER_RATE[status]: change of a column per unit of entering move up and
# down. A column at its lower bound may only rise, one at its upper bound
# only fall, a free one either way; a basic one does not enter.
_ENTER_RATE = np.array([[0.0, 0.0],       # BASIC
                        [1.0, 0.0],       # AT_LOWER
                        [0.0, -1.0],      # AT_UPPER
                        [1.0, -1.0]])     # FREE

# Chosen with the benchmark over 16, 32, 48, 64, 96 and 128 (CHANGES.md).
REFACTOR_INTERVAL = 64
STALL_LIMIT = 300
PIVOT_TOL = 1e-9
TIE_TOL = 1e-9


@dataclass
class LpResult:
    """Outcome of one LP solve on the standardized columns."""

    status: str                      # optimal | infeasible | unbounded | time_limit
    x: np.ndarray | None             # structural plus logical values
    objective: float | None
    basis: np.ndarray | None
    col_status: np.ndarray | None
    iterations: int
    ray: np.ndarray | None = None    # unbounded direction when status is unbounded


@dataclass(frozen=True)
class StandardForm:
    """Equality-form data shared by every solve of the same instance."""

    matrix: sp.csc_matrix            # [A | I], m x (n + m)
    matrix_t: sp.csr_matrix          # transpose, for pricing
    rhs: np.ndarray
    n_struct: int
    logical_lower: np.ndarray
    logical_upper: np.ndarray


def standardize(instance: MilpInstance) -> StandardForm:
    """Append one bounded logical column per row to absorb the row sense."""
    m, n = instance.n_rows, instance.n_cols
    matrix = sp.hstack([instance.matrix.tocsc(),
                        sp.identity(m, format="csc")], format="csc")
    senses = np.array(instance.row_sense)
    lo = np.where(senses == GE, -np.inf, 0.0)
    hi = np.where(senses == LE, np.inf, 0.0)
    return StandardForm(matrix=matrix, matrix_t=matrix.T.tocsr(),
                        rhs=instance.rhs.astype(float), n_struct=n,
                        logical_lower=lo, logical_upper=hi)


class _Factor:
    """Basis inverse as sparse LU plus a product-form eta file.

    The eta file is applied in one batch. Row k of ``etas`` holds
    ``w_k - e_{r_k}`` for the pivot of ``w_k = B_k^-1 a_in`` on row ``r_k``,
    so ``B^-1 = (I - W L^-1 R^T) LU^-1`` with ``W`` = ``etas.T``, ``R`` the
    pivot rows as unit columns and ``L`` lower triangular:
    ``L[k, k] = w_k[r_k]`` and ``L[k, i] = etas[i, r_k]`` for ``i < k``.
    ``L^-1`` is kept explicitly and grows by one row per update; its upper
    triangle is never written and stays zero.
    """

    def __init__(self, matrix: sp.csc_matrix, basis: np.ndarray):
        self.matrix = matrix
        self.etas = np.empty((REFACTOR_INTERVAL, len(basis)))
        self.rows = np.empty(REFACTOR_INTERVAL, dtype=np.int64)
        self.l_inv = np.zeros((REFACTOR_INTERVAL, REFACTOR_INTERVAL))
        self.refactor(basis)

    def refactor(self, basis: np.ndarray) -> None:
        # Gather the basis columns straight from the CSC arrays in one step.
        indptr = self.matrix.indptr
        starts = indptr[basis]
        counts = indptr[basis + 1] - starts
        ptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(starts - ptr[:-1], counts) + np.arange(ptr[-1])
        b = sp.csc_matrix((self.matrix.data[take], self.matrix.indices[take], ptr),
                          shape=(len(basis), len(basis)))
        try:
            self.lu = splu(b)
        except RuntimeError as exc:
            raise NumericalError(f"singular basis: {exc}") from exc
        self.age = 0

    def update(self, row: int, w: np.ndarray) -> None:
        """Record the pivot of ``w = B^-1 a_in`` on ``row``."""
        k = self.age
        self.l_inv[k, :k] = -(self.etas[:k, row] @ self.l_inv[:k, :k]) / w[row]
        self.l_inv[k, k] = 1.0 / w[row]
        self.etas[k] = w
        self.etas[k, row] -= 1.0
        self.rows[k] = row
        self.age = k + 1

    def ftran(self, v: np.ndarray) -> np.ndarray:
        y = self.lu.solve(v)
        k = self.age
        if k:
            y -= (self.l_inv[:k, :k] @ y[self.rows[:k]]) @ self.etas[:k]
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        k = self.age
        if k:
            s = (self.etas[:k] @ v) @ self.l_inv[:k, :k]
            v = v - np.bincount(self.rows[:k], s, minlength=len(v))
        return self.lu.solve(v, trans="T")


def _cold_start(form: StandardForm, lower: np.ndarray, upper: np.ndarray):
    """Logical basis; structural columns at the finite bound nearest zero."""
    n = form.n_struct
    n_total = n + form.matrix.shape[0]
    status = np.full(n_total, BASIC, dtype=np.int8)
    status[:n] = np.where(np.isfinite(lower[:n]), AT_LOWER,
                          np.where(np.isfinite(upper[:n]), AT_UPPER, FREE))
    return np.arange(n, n_total, dtype=np.int64), status


def _nonbasic_values(status, lower, upper):
    x = np.zeros(len(status))
    at_lo = status == AT_LOWER
    at_up = status == AT_UPPER
    x[at_lo] = lower[at_lo]
    x[at_up] = upper[at_up]
    return x


def simplex_solve(form: StandardForm, objective: np.ndarray,
                  lower: np.ndarray, upper: np.ndarray, *,
                  basis: np.ndarray | None = None,
                  col_status: np.ndarray | None = None,
                  tol_feas: float = 1e-7, tol_opt: float = 1e-7,
                  max_iter: int | None = None,
                  deadline: float | None = None) -> LpResult:
    """Solve min c.x over A x + s = b with column bounds.

    ``objective``, ``lower`` and ``upper`` cover the structural columns;
    logical bounds come from the standard form. Passing the ``basis`` and
    ``col_status`` of a previous result warm-starts the solve. When
    ``time.perf_counter()`` passes ``deadline`` the solve stops with status
    ``time_limit``. An optimal point is returned inside its bounds: basic
    values within ``tol_feas`` outside a bound are clipped onto it.
    """
    m = form.matrix.shape[0]
    n_total = form.n_struct + m
    c_full = np.concatenate([np.asarray(objective, dtype=float), np.zeros(m)])
    l_full = np.concatenate([np.asarray(lower, dtype=float), form.logical_lower])
    u_full = np.concatenate([np.asarray(upper, dtype=float), form.logical_upper])
    if np.any(l_full > u_full):
        return LpResult("infeasible", None, None, None, None, 0)
    if m == 0:
        return _solve_unconstrained(c_full, l_full, u_full)
    if max_iter is None:
        max_iter = 200 * (m + form.n_struct) + 20_000

    warm = basis is not None and col_status is not None
    if not warm:
        basis, status = _cold_start(form, l_full, u_full)
    else:
        basis = np.array(basis, dtype=np.int64)
        status = np.array(col_status, dtype=np.int8)
        status[basis] = BASIC

    x = _nonbasic_values(status, l_full, u_full)
    factor = _Factor(form.matrix, basis)
    indptr, indices, data = form.matrix.indptr, form.matrix.indices, form.matrix.data
    movable = (u_full - l_full) > 0.0
    # (rate_up[j], rate_dn[j]) is _ENTER_RATE[status[j]], or zero for a fixed column.
    rate_up, rate_dn = (_ENTER_RATE[status] * movable[:, None]).T.copy()

    def set_status(j, value):
        status[j] = value
        if movable[j]:
            rate_up[j], rate_dn[j] = _ENTER_RATE[value]

    def recompute_basics():
        x[basis] = 0.0
        resid = form.rhs - form.matrix @ x
        x[basis] = factor.ftran(resid)

    def refactor():
        factor.refactor(basis)
        recompute_basics()

    def entering_column(j):
        """``B^-1 a_j``, with ``a_j`` read straight from the CSC arrays."""
        start, stop = indptr[j], indptr[j + 1]
        col = np.zeros(m)
        col[indices[start:stop]] = data[start:stop]
        return factor.ftran(col)

    def refused(r, j_in, w):
        """True, after a refactor for the caller to retry, when ``|w[r]|`` is
        below ``PIVOT_TOL``; on a fresh factor that raises instead."""
        if abs(w[r]) >= PIVOT_TOL:
            return False
        if factor.age:
            refactor()
            return True
        raise NumericalError(f"pivot {w[r]:.3e} too small on column "
                             f"{j_in}, row {r}")

    def pivot(r, j_in, w, step, leaves_upper):
        """Move ``j_in`` by ``step`` along ``w = B^-1 a_in`` into basis row ``r``;
        the leaving column lands on its upper bound when ``leaves_upper``."""
        j_out = int(basis[r])
        x[basis] -= step * w
        x[j_in] += step
        x[j_out] = u_full[j_out] if leaves_upper else l_full[j_out]
        set_status(j_out, AT_UPPER if leaves_upper else AT_LOWER)
        set_status(j_in, BASIC)
        basis[r] = j_in
        c_b[r], l_b[r], u_b[r] = c_full[j_in], l_full[j_in], u_full[j_in]
        factor.update(r, w)
        if factor.age >= REFACTOR_INTERVAL:
            refactor()

    def reduced_costs():
        return c_full - form.matrix_t @ factor.btran(c_b)

    def time_up():
        return deadline is not None and time.perf_counter() > deadline

    def stopped(kind):
        return LpResult(kind, None, None, basis.copy(), status.copy(), iterations)

    def count_iteration():
        nonlocal iterations
        iterations += 1
        if iterations > max_iter:
            raise NumericalError(f"iteration limit {max_iter} reached "
                                 f"(m={m}, n={form.n_struct})")

    def dual_phase():
        """Dual simplex from any dual feasible start, cold or warm, to primal
        feasibility.

        Returns an ``LpResult`` when the solve ends here (``infeasible`` or
        ``time_limit``), or None to hand the basis to the primal loop: when
        the basic values are feasible, when the starting basis is not dual
        feasible (the primal phase 1 then solves it), or when the dual
        objective stalls for ``STALL_LIMIT`` iterations.
        """
        d = reduced_costs()
        if np.minimum(d * rate_up, d * rate_dn).min() < -tol_opt:
            return None
        unit = np.zeros(m)
        stall, last_merit = 0, -np.inf
        while True:
            if time_up():
                return stopped("time_limit")
            x_b = x[basis]
            violation = np.maximum(l_b - x_b, x_b - u_b)
            r = int(np.argmax(violation))
            if violation[r] <= tol_feas:
                return None
            merit = float(c_full @ x)  # the dual objective: rises or stalls
            if merit > last_merit + 1e-10 * max(1.0, abs(last_merit)):
                stall = 0
            else:
                stall += 1
                if stall > STALL_LIMIT:
                    return None
            last_merit = merit

            # Row r of B^-1 N, signed so that a > 0 on a column that moves
            # the leaving value toward its violated bound by rising.
            above = bool(x_b[r] > u_b[r])
            unit[r] = 1.0
            rho = factor.btran(unit)
            unit[r] = 0.0
            # Only the row's nonzeros (ascending) can enter or move d.
            a = form.matrix_t @ rho
            nz = np.flatnonzero(a)
            a = a[nz] if above else -a[nz]
            gain = np.maximum(a * rate_up[nz], a * rate_dn[nz])
            keep = gain > PIVOT_TOL
            if not keep.any():
                if factor.age:  # declare infeasible only on a fresh factor
                    refactor()
                    d = reduced_costs()
                    continue
                return stopped("infeasible")
            # Harris ratio test: the largest |a| among the columns whose dual
            # ratio lies within the bound relaxed by tol_opt.
            cand, g_cand = nz[keep], gain[keep]
            ratio = d[cand] / a[keep]
            near = np.flatnonzero(ratio <= float((ratio + tol_opt / g_cand).min()))
            k = int(near[np.argmax(g_cand[near])])
            j_in = int(cand[k])
            t = max(float(ratio[k]), 0.0)

            count_iteration()
            w = entering_column(j_in)
            if refused(r, j_in, w):
                d = reduced_costs()
                continue
            target = u_b[r] if above else l_b[r]
            pivot(r, j_in, w, (x_b[r] - target) / w[r], above)
            if factor.age == 0:  # refactored: recompute rather than update
                d = reduced_costs()
            else:
                d[nz] -= t * a
                d[basis] = 0.0

    recompute_basics()

    c_b, l_b, u_b = c_full[basis], l_full[basis], u_full[basis]
    iterations = 0
    ended = dual_phase()
    if ended is not None:
        return ended
    bland = False
    stall = 0
    last_merit = np.inf
    last_phase = None

    while True:
        if time_up():
            return stopped("time_limit")
        x_b = x[basis]
        below = x_b < l_b - tol_feas
        above = x_b > u_b + tol_feas
        phase1 = bool(below.any() or above.any())
        if phase1:
            d = above.astype(float) - below.astype(float)
            pi = factor.btran(d)
            reduced = -(form.matrix_t @ pi)
            merit = float((l_b - x_b)[below].sum() + (x_b - u_b)[above].sum())
        else:
            reduced = reduced_costs()
            merit = float(c_full @ x)

        if phase1 is not last_phase:
            stall, bland, last_merit = 0, False, np.inf
            last_phase = phase1
        if merit < last_merit - 1e-10 * max(1.0, abs(last_merit)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        last_merit = merit

        # Entering column: most attractive reduced cost, or Bland on stall.
        # score is -(improvement rate) of the best move each column may make.
        score = np.minimum(reduced * rate_up, reduced * rate_dn)
        j_in = int(np.argmin(score))
        if score[j_in] >= -tol_opt:
            if phase1:
                return stopped("infeasible")
            scale = max(1.0, float(np.abs(form.rhs).max(initial=0.0)))
            if _max_residual(form, x) > 1e-6 * scale:
                refactor()
                resid = _max_residual(form, x)
                if resid > 1e-6 * scale:
                    raise NumericalError(
                        f"optimal basis fails the row residual check "
                        f"({resid:.3e} on rhs scale {scale:.3e})")
            np.clip(x, l_full, u_full, out=x)
            return LpResult("optimal", x.copy(), float(c_full @ x), basis.copy(),
                            status.copy(), iterations)

        if bland:
            j_in = int(np.argmax(score < -tol_opt))
        move_up = reduced[j_in] < 0.0
        sigma = 1.0 if move_up else -1.0

        w = entering_column(j_in)
        rate = -sigma * w  # change of basic values per unit of entering move

        theta, blockers = _ratio_test(x_b, l_b, u_b, rate, below, above, phase1)
        theta_own = u_full[j_in] - l_full[j_in] if status[j_in] != FREE else np.inf

        if theta is None and not np.isfinite(theta_own):
            if phase1:
                raise NumericalError("phase-1 descent is unbounded; the basis "
                                     "values are numerically inconsistent")
            ray = np.zeros(n_total)
            ray[j_in] = sigma
            ray[basis] = rate
            return LpResult("unbounded", None, None, basis.copy(), status.copy(),
                            iterations, ray=ray)

        count_iteration()

        if theta is None or theta_own < theta - TIE_TOL:
            # Bound flip: the entering column crosses to its other bound.
            x[basis] = x_b + rate * theta_own
            x[j_in] = u_full[j_in] if move_up else l_full[j_in]
            set_status(j_in, AT_UPPER if move_up else AT_LOWER)
            continue

        # Leaving variable: largest pivot magnitude among tied blockers.
        if bland:
            r = int(blockers[np.argmin(basis[blockers])])
        else:
            r = int(blockers[np.argmax(np.abs(w[blockers]))])
        if refused(r, j_in, w):
            continue
        hit_upper = rate[r] > 0 and not (phase1 and below[r])
        if phase1 and above[r]:
            hit_upper = True
        pivot(r, j_in, w, sigma * theta, hit_upper)


def _max_residual(form: StandardForm, x: np.ndarray) -> float:
    return float(np.abs(form.rhs - form.matrix @ x).max(initial=0.0))


def _ratio_test(x_b, l_b, u_b, rate, below, above, phase1):
    """Largest step before a basic variable hits a blocking bound.

    Returns (theta, blocker candidate rows in ascending order) or
    (None, None) when no basic variable blocks. Only rows with
    ``|rate| > PIVOT_TOL`` move. In phase 1, variables beyond a bound
    block when they reach the violated bound (turning feasible); feasible
    ones block at whichever bound they approach, exactly as in phase 2.
    """
    rows = np.flatnonzero(np.abs(rate) > PIVOT_TOL)
    rate = rate[rows]
    lo, hi = l_b[rows], u_b[rows]
    if phase1:
        # A variable below its lower bound blocks there when rising and never
        # when falling; one above its upper bound the other way round.
        b, a = below[rows], above[rows]
        lo, hi = (np.where(b, -np.inf, np.where(a, hi, lo)),
                  np.where(a, np.inf, np.where(b, lo, hi)))
    theta = (np.where(rate > 0.0, hi, lo) - x_b[rows]) / rate
    np.maximum(theta, 0.0, out=theta)
    best = float(theta.min(initial=np.inf))
    if best == np.inf:
        return None, None
    return best, rows[theta <= best + TIE_TOL]


def _solve_unconstrained(c, lower, upper) -> LpResult:
    """Degenerate no-row case: each column sits at its cheapest bound."""
    x = np.zeros(len(c))
    for j, cost in enumerate(c):
        if cost > 0:
            if not np.isfinite(lower[j]):
                ray = np.zeros(len(c))
                ray[j] = -1.0
                return LpResult("unbounded", None, None, None, None, 0, ray=ray)
            x[j] = lower[j]
        elif cost < 0:
            if not np.isfinite(upper[j]):
                ray = np.zeros(len(c))
                ray[j] = 1.0
                return LpResult("unbounded", None, None, None, None, 0, ray=ray)
            x[j] = upper[j]
        else:
            x[j] = lower[j] if np.isfinite(lower[j]) else \
                (upper[j] if np.isfinite(upper[j]) else 0.0)
    return LpResult("optimal", x, float(c @ x), None, None, 0)
