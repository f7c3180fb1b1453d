"""Bounded-variable revised simplex, the LP core under the reference solver.

The solver works on the equality form ``A x + s = b`` where one logical
column per row carries the row sense in its bounds. The basis inverse is
held as a factored basis plus a product-form eta file, refreshed every
``REFACTOR_INTERVAL`` pivots. A refactor eliminates the basic logical
columns and factors only the kernel of the basic structural columns by
sparse LU (see ``_Factor``). The eta file is a dense block of eta columns
with the inverse of its small triangular coupling matrix, so a solve
applies every eta at once with two small matrix products instead of one
Python step per eta. Entering columns are read straight from the CSC
arrays of the standard form.

Dual phase. Every solve, cold or warm, starts with a bounded-variable dual
simplex. A movable nonbasic column whose reduced cost is dual infeasible
first gets a cost shift of ``-d_j``, which makes its reduced cost zero, so
any start is dual feasible ("cost modification", Koberstein, *The dual
simplex method*, PhD thesis, Paderborn 2005, ch. 4). On its first entry of
a solve, the dual phase then perturbs every movable nonbasic cost by
``eps_j = COST_PERTURBATION (1 + |c_j|) (1 + frac(GOLDEN j))``, added at a
lower bound and subtracted at an upper one, so every reduced cost lies at
least ``eps_j`` inside dual feasibility (Koberstein ch. 6; HiGHS does the
same by default). The sizing MILP gates zero-cost flows with big-M
binaries, so without it most dual ratio tests tie at zero and most pivots
are degenerate (five in six on the case-3 root LP at k=2). The amount is
fixed by the column index, so no random generator is involved and runs stay
deterministic. Each step leaves on the row of the largest bound violation
(lowest row on ties), forms that row of ``B^-1 N`` from one ``btran`` of a
unit vector, which reads one column of the eta block, and one product with
the transposed matrix, and scans only the row's nonzeros. It enters by a
Harris ratio test: among the movable nonbasic columns whose dual ratio lies
within the bound relaxed by ``TOL_OPT``, the largest pivot magnitude, then
the lowest index. No eligible column on a fresh factorization proves the LP
infeasible. Reduced costs are updated along the row and recomputed at each
refactorization. After ``STALL_LIMIT`` iterations in which the dual
objective does not rise, Bland's rule takes over: the violated row whose
basic column has the lowest index leaves, and the lowest index among the
exact ratio ties enters.

Primal loop. Once the basic values are feasible, the primal simplex takes
the shifts and the perturbation off, restoring the true costs, and pivots
to optimality or to an unbounded ray; this is the clean-up, and on the
sizing model it rarely takes a pivot. Pricing is Dantzig with a Bland
fallback that engages when the objective stalls, so the method terminates
on degenerate models. If a basic value drifts past a bound by more than
``TOL_FEAS``, the basis goes back to the dual phase, which shifts costs
again where it needs to but does not perturb them again.

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
from .milp_instance import MilpInstance

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

# _ENTER_RATE[status]: change of a column per unit of entering move up and
# down. A column at its lower bound may only rise, one at its upper bound
# only fall, a free one either way; a basic one does not enter.
_ENTER_RATE = np.array([[0.0, 0.0],       # BASIC
                        [1.0, 0.0],       # AT_LOWER
                        [0.0, -1.0],      # AT_UPPER
                        [1.0, -1.0]])     # FREE

# Chosen with the benchmark over 16, 32, 48, 64, 96 and 128, and checked
# again over 32-96 once refactors factored only the kernel (CHANGES.md).
REFACTOR_INTERVAL = 64
STALL_LIMIT = 300
PIVOT_TOL = 1e-9
TIE_TOL = 1e-9
TOL_FEAS = 1e-7   # primal feasibility
TOL_OPT = 1e-7    # dual optimality
# Relative size of the one-time cost perturbation before the dual phase;
# chosen over 1e-7, 1e-6 and 1e-5 by traced root iterations (CHANGES.md).
COST_PERTURBATION = 1e-5
GOLDEN = 0.6180339887   # spreads the perturbation over column indices


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
    rhs = instance.rhs.astype(float)
    row_lower, row_upper = instance.row_bounds()
    return StandardForm(matrix=matrix, matrix_t=matrix.T.tocsr(), rhs=rhs,
                        n_struct=n, logical_lower=rhs - row_upper,
                        logical_upper=rhs - row_lower)


class _Factor:
    """Basis inverse as a factored structural kernel plus a product-form eta file.

    The basis ``B0`` of the last refactor is split by the kind of its basic
    columns. A basic logical (a unit column) covers its row; ``rows_s`` are
    the rows left uncovered and ``pos_s`` the positions of the basic
    structurals ``S``, as many of each in a nonsingular basis. Only the
    kernel ``K = A[rows_s, S]`` is factored by sparse LU. The border ``C``,
    the entries of ``S`` on covered rows, is kept as triplets: row
    ``c_row``, the position ``c_pos`` of that row's logical, kernel column
    ``c_col`` and value ``c_val``. Then ``B0 w = v`` is
    ``w_S = K^-1 v[rows_s]`` and ``w_L = v_L - C w_S``, and ``B0^T y = v``
    is ``y_L = v_L`` and ``y[rows_s] = K^-T (v_S - C^T v_L)``, with ``_L``
    the covered rows and their logicals' positions (Suhl and Suhl, ORSA J.
    Computing 2(4), 1990). An all-logical basis, the cold start, factors
    nothing.

    The eta file is applied in one batch. Row k of ``etas`` holds
    ``w_k - e_{r_k}`` for the pivot of ``w_k = B_k^-1 a_in`` on row ``r_k``,
    so ``B^-1 = (I - W L^-1 R^T) B0^-1`` with ``W`` = ``etas.T``, ``R`` the
    pivot rows as unit columns and ``L`` lower triangular:
    ``L[k, k] = w_k[r_k]`` and ``L[k, i] = etas[i, r_k]`` for ``i < k``.
    ``L^-1`` is kept explicitly and grows by one row per update; its upper
    triangle is never written and stays zero.
    """

    def __init__(self, matrix: sp.csc_matrix, basis: np.ndarray, n_struct: int):
        self.matrix = matrix
        self.n_struct = n_struct
        self.etas = np.empty((REFACTOR_INTERVAL, len(basis)))
        self.rows = np.empty(REFACTOR_INTERVAL, dtype=np.int64)
        self.l_inv = np.zeros((REFACTOR_INTERVAL, REFACTOR_INTERVAL))
        self.refactor(basis)

    def refactor(self, basis: np.ndarray) -> None:
        m, n = len(basis), self.n_struct
        logical = basis >= n
        self.pos_s = np.flatnonzero(~logical)
        n_s = len(self.pos_s)
        # lpos[i]: the basis position of row i's logical, or -1 for a kernel
        # row; src[p]: the row a logical at position p covers, or -1. Either
        # -1 gathers a junk entry that the kernel solve then overwrites.
        self.lpos = np.full(m, -1)
        self.lpos[basis[logical] - n] = np.flatnonzero(logical)
        self.src = np.where(logical, basis - n, -1)
        self.rows_s = np.flatnonzero(self.lpos < 0)
        if len(self.rows_s) != n_s:
            raise NumericalError(f"singular basis: {n_s} structural columns "
                                 f"against {len(self.rows_s)} uncovered rows")
        # Gather the structural columns straight from the CSC arrays in one
        # step, then split their entries into kernel and border by row.
        indptr, structurals = self.matrix.indptr, basis[self.pos_s]
        starts = indptr[structurals]
        counts = indptr[structurals + 1] - starts
        ptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(starts - ptr[:-1], counts) + np.arange(ptr[-1])
        rows, values = self.matrix.indices[take], self.matrix.data[take]
        owner = self.lpos[rows]
        in_kernel = owner < 0
        border = ~in_kernel
        self.c_pos, self.c_row, self.c_val = owner[border], rows[border], values[border]
        self.c_col = np.repeat(np.arange(n_s), counts)[border]
        self.lu = None
        if n_s:
            rank = np.empty(m, dtype=np.int64)
            rank[self.rows_s] = np.arange(n_s)
            kernel = sp.csc_matrix(
                (values[in_kernel], rank[rows[in_kernel]],
                 np.concatenate(([0], np.cumsum(in_kernel)))[ptr]), shape=(n_s, n_s))
            try:
                self.lu = splu(kernel)
            except RuntimeError as exc:
                raise NumericalError(f"singular basis: {exc}") from exc
        self.age = 0

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """``B0^-1 v``: logicals take their row's entry, less the border
        times the kernel's solution."""
        y = v[self.src]
        if self.lu is not None:
            w_s = self.lu.solve(v[self.rows_s])
            y[self.pos_s] = w_s
            y -= np.bincount(self.c_pos, self.c_val * w_s[self.c_col], minlength=len(y))
        return y

    def _solve_t(self, v: np.ndarray) -> np.ndarray:
        """``B0^-T v``: covered rows take their logical's entry, and the
        kernel rows solve against the rest less the border's share."""
        y = v[self.lpos]
        if self.lu is not None:
            y[self.rows_s] = self.lu.solve(
                v[self.pos_s] - np.bincount(self.c_col, self.c_val * y[self.c_row],
                                            minlength=len(self.pos_s)), trans="T")
        return y

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
        y = self._solve(v)
        k = self.age
        if k:
            y -= (self.l_inv[:k, :k] @ y[self.rows[:k]]) @ self.etas[:k]
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        k = self.age
        if k:
            s = (self.etas[:k] @ v) @ self.l_inv[:k, :k]
            v = v - np.bincount(self.rows[:k], s, minlength=len(v))
        return self._solve_t(v)

    def btran_unit(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1``: ``btran(e_r)``, with the eta block's product
        with ``e_r`` read as its column ``r``."""
        v = np.zeros(self.etas.shape[1])
        v[r] = 1.0
        k = self.age
        if k:
            v -= np.bincount(self.rows[:k], self.etas[:k, r] @ self.l_inv[:k, :k],
                             minlength=len(v))
        return self._solve_t(v)


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
                  deadline: float | None = None) -> LpResult:
    """Solve min c.x over A x + s = b with column bounds.

    ``objective``, ``lower`` and ``upper`` cover the structural columns;
    logical bounds come from the standard form. Passing the ``basis`` and
    ``col_status`` of a previous result warm-starts the solve. When
    ``time.perf_counter()`` passes ``deadline`` the solve stops with status
    ``time_limit``. An optimal point is returned inside its bounds: basic
    values within ``TOL_FEAS`` outside a bound are clipped onto it.
    """
    m = form.matrix.shape[0]
    n_total = form.n_struct + m
    c_full = np.concatenate([np.asarray(objective, dtype=float), np.zeros(m)])
    l_full = np.concatenate([np.asarray(lower, dtype=float), form.logical_lower])
    u_full = np.concatenate([np.asarray(upper, dtype=float), form.logical_upper])
    if np.any(l_full > u_full):
        return LpResult("infeasible", None, None, None, None, 0)
    max_iter = 200 * n_total + 20_000

    if basis is None or col_status is None:
        basis, status = _cold_start(form, l_full, u_full)
    else:
        basis = np.array(basis, dtype=np.int64)
        status = np.array(col_status, dtype=np.int8)
        status[basis] = BASIC

    x = _nonbasic_values(status, l_full, u_full)
    factor = _Factor(form.matrix, basis, form.n_struct)
    indptr, indices, data = form.matrix.indptr, form.matrix.indices, form.matrix.data
    movable = (u_full - l_full) > 0.0
    # (rate_up[j], rate_dn[j]) is _ENTER_RATE[status[j]], or zero for a fixed column.
    rate_up, rate_dn = (_ENTER_RATE[status] * movable[:, None]).T.copy()
    # The costs the phases price with: the true costs, plus the dual phase's
    # shifts until the primal phase takes them off again.
    cost = c_full.copy()

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
        c_b[r], l_b[r], u_b[r] = cost[j_in], l_full[j_in], u_full[j_in]
        factor.update(r, w)
        if factor.age >= REFACTOR_INTERVAL:
            refactor()

    def reduced_costs():
        return cost - form.matrix_t @ factor.btran(c_b)

    def violations():
        x_b = x[basis]
        return x_b, np.maximum(l_b - x_b, x_b - u_b)

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

    def dual_phase(perturb):
        """Dual simplex from any start, cold or warm, to primal feasibility.

        Every movable nonbasic column whose reduced cost is dual infeasible
        first gets its cost shifted by ``-d_j``, so the start is dual
        feasible. With ``perturb``, every movable nonbasic column's cost then
        moves by ``_perturbation`` away from a zero reduced cost. Returns an
        ``LpResult`` when the solve ends here (``infeasible`` or
        ``time_limit``), or None once the basic values are feasible.
        """
        d = reduced_costs()
        shift = np.flatnonzero(np.minimum(d * rate_up, d * rate_dn) < -TOL_OPT)
        cost[shift] -= d[shift]
        d[shift] = 0.0
        if perturb:
            eps = _perturbation(c_full) * (rate_up + rate_dn)
            cost[:] += eps
            d += eps
        stall, last_merit = 0, -np.inf
        while True:
            if time_up():
                return stopped("time_limit")
            x_b, violation = violations()
            if violation.max(initial=0.0) <= TOL_FEAS:
                return None
            merit = float(cost @ x)  # the dual objective: rises or stalls
            if merit > last_merit + 1e-10 * max(1.0, abs(merit)):
                stall = 0
            else:
                stall += 1
            last_merit = merit
            bland = stall > STALL_LIMIT
            if bland:  # the violated row whose basic column has the lowest index
                rows = np.flatnonzero(violation > TOL_FEAS)
                r = int(rows[np.argmin(basis[rows])])
            else:
                r = int(np.argmax(violation))

            # Row r of B^-1 N, signed so that a > 0 on a column that moves
            # the leaving value toward its violated bound by rising.
            above = bool(x_b[r] > u_b[r])
            rho = factor.btran_unit(r)
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
            cand, g_cand = nz[keep], gain[keep]
            ratio = d[cand] / a[keep]
            if bland:  # the lowest index among the exact ratio ties
                k = int(np.argmax(ratio <= ratio.min() + TIE_TOL))
            else:
                # Harris ratio test: the largest |a| among the columns whose
                # dual ratio lies within the bound relaxed by TOL_OPT.
                near = np.flatnonzero(ratio <= float((ratio + TOL_OPT / g_cand).min()))
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

    def primal_phase():
        """Primal simplex on the true costs from a primal feasible basis.

        Takes off the dual phase's cost shifts and pivots to optimality or
        to an unbounded ray. Pricing is Dantzig with a Bland fallback that
        engages when the objective stalls. Returns an ``LpResult``, or None
        to hand the basis back to the dual phase when a basic value has
        drifted past a bound by more than ``TOL_FEAS``.
        """
        cost[:] = c_full
        c_b[:] = c_full[basis]
        stall, last_merit = 0, np.inf
        while True:
            if time_up():
                return stopped("time_limit")
            x_b, violation = violations()
            if violation.max(initial=0.0) > TOL_FEAS:
                return None
            reduced = reduced_costs()
            merit = float(c_full @ x)
            if merit < last_merit - 1e-10 * max(1.0, abs(merit)):
                stall = 0
            else:
                stall += 1
            last_merit = merit
            bland = stall > STALL_LIMIT

            # Entering column: most attractive reduced cost, or Bland on stall.
            # score is -(improvement rate) of the best move each column may make.
            score = np.minimum(reduced * rate_up, reduced * rate_dn)
            j_in = int(np.argmin(score))
            if score[j_in] >= -TOL_OPT:
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
                j_in = int(np.argmax(score < -TOL_OPT))
            move_up = reduced[j_in] < 0.0
            sigma = 1.0 if move_up else -1.0

            w = entering_column(j_in)
            rate = -sigma * w  # change of basic values per unit of entering move

            theta, blockers = _ratio_test(x_b, l_b, u_b, rate)
            theta_own = u_full[j_in] - l_full[j_in] if status[j_in] != FREE else np.inf

            if theta is None and not np.isfinite(theta_own):
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
            pivot(r, j_in, w, sigma * theta, rate[r] > 0)

    recompute_basics()

    c_b, l_b, u_b = cost[basis], l_full[basis], u_full[basis]
    iterations = 0
    perturb = True  # only on the first entry: a hand-back after drift keeps true costs
    while True:
        ended = dual_phase(perturb)
        perturb = False
        if ended is None:
            ended = primal_phase()  # None: drifted, back to the dual phase
        if ended is not None:
            return ended


def _perturbation(c: np.ndarray) -> np.ndarray:
    """Perturbation sizes ``eps_j``: relative to ``1 + |c_j|``, and spread over
    a factor [1, 2) by the golden-ratio sequence of the column index, so that
    columns of equal cost stop tying without a random generator."""
    spread = 1.0 + np.modf(GOLDEN * np.arange(len(c)))[0]
    return COST_PERTURBATION * (1.0 + np.abs(c)) * spread


def _max_residual(form: StandardForm, x: np.ndarray) -> float:
    return float(np.abs(form.rhs - form.matrix @ x).max(initial=0.0))


def _ratio_test(x_b, l_b, u_b, rate):
    """Largest step before a basic variable hits a blocking bound.

    Returns (theta, blocker candidate rows in ascending order) or
    (None, None) when no basic variable blocks. Only rows with
    ``|rate| > PIVOT_TOL`` move; each blocks at the bound it approaches.
    """
    rows = np.flatnonzero(np.abs(rate) > PIVOT_TOL)
    rate = rate[rows]
    theta = (np.where(rate > 0.0, u_b[rows], l_b[rows]) - x_b[rows]) / rate
    np.maximum(theta, 0.0, out=theta)
    best = float(theta.min(initial=np.inf))
    if best == np.inf:
        return None, None
    return best, rows[theta <= best + TIE_TOL]
