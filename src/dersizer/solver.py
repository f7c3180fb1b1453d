"""MILP solving: reference branch-and-bound, enumeration oracle, external adapter.

Three interchangeable backends sit behind :func:`solve_milp`:

``reference``
    In-repo branch and bound over the in-repo simplex core: one
    best-bound loop whose first node is the root, solved once, with a
    depth-first dive on ties and most-fractional branching. A node is its
    column-bound arrays; a child is its parent's with one binary fixed. A
    fractional root runs a rounding dive before it branches: one LP with
    every binary fixed, each to the value the relaxed flows it gates call
    for (the builder's hints) or else rounded, which usually closes the
    gap at the root. Deterministic.
``external``
    scipy's HiGHS, every run on one model, its dual simplex priced with
    Devex. HiGHS solves the LP relaxation, and the rounding dive runs from
    its point as one LP: only the binaries' bounds change, so HiGHS's dual
    simplex re-solves from the relaxation's basis. A dive point within the
    gap of the relaxation's bound is the answer, with no nodes; otherwise,
    or when the relaxation does not solve, the binaries get back their
    bounds, become integer, and HiGHS's MIP search runs on the same model.
    The model is held through ``scipy.optimize._highspy._core``, the
    private binding behind scipy's (1.15 on) ``milp``, which builds a new
    model per call.
``oracle``
    Brute-force enumeration of every binary assignment (hard-capped at 16
    binaries), each an LP on one HiGHS model of its own that only the
    binaries' bounds change. Exact up to LP tolerance and free of any code
    shared with the other two backends, so each pair can certify each other:
    the oracle fills its model through ``HighsLp`` attributes and the
    external backend from buffers, apart on purpose.

On ``reference`` and ``external``, ``SolveResult.basis`` is the optimal
basis of the relaxation the result's bound comes from. Passed as
``solve_milp(..., warm_start=)``, it starts the relaxation of another
instance of the same shape, as the study does for twin cases (Huangfu and
Hall, Math. Prog. Comp. 10, 2018). A basis of another shape or backend is
not used, and one that HiGHS rejects, or a singular one, gives the cold start.

Each solve is single-threaded and deterministic; distinct instances may
be solved concurrently. The reference backend keeps one ``NodeRecord``
per node below the root (id, depth, bound, incumbent, gap) in
``SolveResult.node_log``.
A ``time_limit`` ends the ``reference`` and ``external`` backends with
status ``time_limit``, keeping any incumbent; the reference backend
checks it in every simplex iteration, and the external backend holds
every HiGHS call to the time that remains.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .data_model import is_real
from .errors import NumericalError, OracleGuardError, SolverError
from .milp_instance import MilpInstance
from .simplex import TOL_FEAS, simplex_solve, standardize

INT_TOL = 1e-6

BACKENDS = ("reference", "external", "oracle")


def _nonnegative(value) -> bool:
    """Whether ``value`` is a finite real number >= 0: not a bool, a string or NaN."""
    return is_real(value) and 0 <= value < np.inf


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls shared by every backend."""

    relative_gap: float = 1e-4
    time_limit: float | None = None
    backend: str = "reference"

    def __post_init__(self):
        if not _nonnegative(self.relative_gap):
            raise SolverError("relative_gap must be finite and >= 0, "
                              f"got {self.relative_gap!r}")
        if self.time_limit is not None and not _nonnegative(self.time_limit):
            raise SolverError("time_limit must be None or finite seconds >= 0, "
                              f"got {self.time_limit!r}")
        if self.backend not in BACKENDS:
            raise SolverError(f"backend must be one of {BACKENDS}")


@dataclass(frozen=True)
class NodeRecord:
    """One branch-and-bound node below the root, recorded after its LP."""

    node: int
    depth: int
    bound: float                      # the parent's LP objective
    incumbent: float | None           # best objective before this node's LP
    gap: float                        # inf without an incumbent


@dataclass
class SolveResult:
    """Outcome of a MILP or LP solve over a MilpInstance."""

    status: str                       # optimal|gap_optimal|infeasible|time_limit|unbounded
    objective: float | None
    x: np.ndarray | None              # structural column values
    achieved_gap: float = 0.0
    nodes: int = 0
    iterations: int = 0
    node_log: list[NodeRecord] = field(default_factory=list)
    ray: np.ndarray | None = None
    # The optimal basis of the relaxation the bound comes from, a warm start
    # for an instance of the same shape: HiGHS's ``HighsBasis`` (external)
    # or the root LP's ``(basis, col_status)`` (reference).
    basis: object = None

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "gap_optimal")


def _gap(incumbent: float, bound: float) -> float:
    return max(0.0, (incumbent - bound) / max(1.0, abs(incumbent)))


def _gap_status(gap: float) -> str:
    """The status of a solve that ends at this gap: ``optimal`` once it is closed."""
    return "optimal" if gap <= 1e-12 else "gap_optimal"


def solve_lp(instance: MilpInstance) -> SolveResult:
    """Solve the LP relaxation (integrality dropped) with the simplex core."""
    res = simplex_solve(standardize(instance), instance.objective,
                        instance.col_lower, instance.col_upper)
    return SolveResult(
        status=res.status,
        objective=res.objective,
        x=None if res.x is None else res.x[:instance.n_cols].copy(),
        iterations=res.iterations,
        ray=None if res.ray is None else res.ray[:instance.n_cols].copy(),
    )


def solve_milp(instance: MilpInstance, options: SolveOptions | None = None,
               warm_start=None) -> SolveResult:
    """Solve the instance with the backend named in the options.

    ``warm_start`` is the ``basis`` of an earlier result on the same
    backend. The relaxation starts from it only when it comes from an
    instance of this one's shape, and cold otherwise, so a study can offer
    each case the last solved case's basis. The oracle ignores it.
    """
    options = options or SolveOptions()
    if options.backend == "external":
        return solve_external(instance, options, warm_start)
    if options.backend == "oracle":
        return oracle_enumerate(instance)
    return solve_reference(instance, options, warm_start)


# ---------------------------------------------------------------------------
# Reference branch and bound


def _fixed(lower, upper, cols, values):
    """Copies of the bounds with columns ``cols`` fixed at ``values``.

    Bounds only tighten, ties keeping the bound as max and min do, so a
    value outside a column's bounds leaves ``lower > upper``: infeasible.
    """
    lower, upper = lower.copy(), upper.copy()
    lower[cols] = np.where(values > lower[cols], values, lower[cols])
    upper[cols] = np.where(values < upper[cols], values, upper[cols])
    return lower, upper


# A gated flow above this carries its binary's value into the dive.
GATE_TOL = TOL_FEAS


def _dive_values(instance: MilpInstance, x: np.ndarray) -> np.ndarray:
    """The binary values, in ``binary_indices`` order, the root dive fixes.

    A binary is 1 where the relaxed point ``x`` sends flow through its on
    columns and 0 where it does through its off columns (the meta hints
    ``binary_on``/``binary_off``, (binary position, column) pairs). With
    neither, a binary marked in ``binary_free`` takes its rounded value and
    the others 0. An instance without the hints rounds every binary.
    """
    values = np.round(x[instance.binary_indices])
    if "binary_on" not in instance.meta:
        return values
    meta, n = instance.meta, len(values)

    def carries(pairs):
        return np.bincount(pairs[0], weights=x[pairs[1]], minlength=n) > GATE_TOL

    idle = np.where(meta["binary_free"], values, 0.0)
    return np.where(carries(meta["binary_on"]), 1.0,
                    np.where(carries(meta["binary_off"]), 0.0, idle))


def _rounding_dive(instance: MilpInstance, x: np.ndarray, lp):
    """The root dive from the relaxed point ``x``: one LP over ``_dive_values``.

    ``lp(lower, upper)`` solves the fixing on the caller's backend and
    returns a result with ``status``, ``objective`` and ``x``. Returns that
    result when it is ``optimal``, and None otherwise.
    """
    res = lp(*_fixed(instance.col_lower, instance.col_upper, instance.binary_indices,
                     _dive_values(instance, x)))
    return res if res.status == "optimal" else None


def solve_reference(instance: MilpInstance, options: SolveOptions,
                    warm_start=None) -> SolveResult:
    """Best-bound branch and bound over the bounded-simplex LP core.

    The root is the first node (the instance's bounds, bound -inf) and is
    solved once, from ``warm_start`` when it is a ``(basis, col_status)``
    pair of this instance's shape and cold otherwise; a fractional root runs
    the rounding dive before it branches.
    """
    deadline = (None if options.time_limit is None
                else time.perf_counter() + options.time_limit)
    form = standardize(instance)
    binaries = instance.binary_indices
    log: list[NodeRecord] = []
    iterations = 0

    def lp(lower, upper, warm=None):
        """An LP over these bounds, from the ``(basis, col_status)`` pair
        ``warm`` when given; a singular warm start is solved again cold."""
        nonlocal iterations
        basis, col_status = warm if warm is not None else (None, None)
        try:
            res = simplex_solve(form, instance.objective, lower, upper,
                                basis=basis, col_status=col_status, deadline=deadline)
        except NumericalError:
            if warm is None:
                raise
            res = simplex_solve(form, instance.objective, lower, upper, deadline=deadline)
        iterations += res.iterations
        return res

    incumbent_obj: float | None = None
    incumbent_x: np.ndarray | None = None

    def try_incumbent(obj, x):
        nonlocal incumbent_obj, incumbent_x
        if incumbent_obj is None or obj < incumbent_obj - 1e-12 * max(1.0, abs(obj)):
            incumbent_obj, incumbent_x = obj, x.copy()

    fits = (isinstance(warm_start, tuple) and len(warm_start) == 2
            and len(warm_start[0]) == instance.n_rows
            and len(warm_start[1]) == instance.n_rows + instance.n_cols)
    root_basis = None
    # (bound, -depth, counter, lower, upper, the parent's (basis, col_status))
    heap: list[tuple] = [(-np.inf, 0, 0, instance.col_lower, instance.col_upper,
                          warm_start if fits else None)]
    counter = 0
    status = "optimal"

    while heap:
        bound, neg_depth, _, lower, upper, warm = heapq.heappop(heap)
        depth = -neg_depth
        best_bound = bound
        if incumbent_obj is not None and _gap(incumbent_obj, bound) <= options.relative_gap:
            break
        if deadline is not None and time.perf_counter() > deadline:
            status = "time_limit"
            break
        res = lp(lower, upper, warm)
        if depth:
            log.append(NodeRecord(len(log) + 1, depth, bound, incumbent_obj,
                                  np.inf if incumbent_obj is None
                                  else _gap(incumbent_obj, bound)))
        if res.status == "infeasible":
            continue
        if res.status == "time_limit":
            status = "time_limit"
            break
        if res.status == "unbounded":
            # Every node's LP restricts the root's, so the root's is unbounded too.
            raise SolverError("LP relaxation is unbounded; the sizing model is "
                              "bounded below by construction, so the instance is "
                              "outside the solver contract")
        warm = (res.basis, res.col_status)
        if not depth:
            root_basis = warm
        if incumbent_obj is not None and res.objective >= incumbent_obj - 1e-12 * max(
                1.0, abs(incumbent_obj)):
            continue
        values = res.x[binaries]
        away = np.abs(values - np.round(values))
        if not (away > INT_TOL).any():
            try_incumbent(res.objective, res.x)
            continue
        if not depth:  # the root dives for an incumbent before it branches
            dive = _rounding_dive(instance, res.x, lambda lower, upper: lp(lower, upper, warm))
            if dive is not None:
                try_incumbent(dive.objective, dive.x)
        pick = int(binaries[np.argmax(away)])  # most fractional, lowest index on ties
        for value in (0.0, 1.0):
            counter += 1
            heapq.heappush(heap, (res.objective, -(depth + 1), counter,
                                  *_fixed(lower, upper, pick, value), warm))
    else:
        if incumbent_obj is not None:
            best_bound = incumbent_obj  # every node processed or pruned: bound closed

    if incumbent_obj is None:
        return SolveResult("time_limit" if status == "time_limit" else "infeasible",
                           None, None, achieved_gap=np.inf, nodes=len(log),
                           iterations=iterations, node_log=log, basis=root_basis)
    achieved = _gap(incumbent_obj, best_bound)
    if status != "time_limit":
        status = _gap_status(achieved)
    incumbent_x = incumbent_x[:instance.n_cols].copy()
    return SolveResult(status, float(incumbent_obj), incumbent_x,
                       achieved_gap=achieved, nodes=len(log),
                       iterations=iterations, node_log=log, basis=root_basis)


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle

ORACLE_MAX_BINARIES = 16


def oracle_enumerate(instance: MilpInstance) -> SolveResult:
    """Certify the optimum by trying every 0/1 assignment of the binaries.

    Each assignment is an LP run on one HiGHS model, presolve off, with the
    binaries fixed by bounds. Of the assignments within 1e-9 relative of the
    best objective, the lowest bit pattern wins and runs once more for its
    point. Only ``kInfeasible`` marks an assignment infeasible; any other
    status but ``kOptimal`` raises ``SolverError``. Refuses over 16 binaries.
    """
    from scipy.optimize._highspy import _core as highs

    binaries = instance.binary_indices
    if len(binaries) > ORACLE_MAX_BINARIES:
        raise OracleGuardError(
            f"oracle guard: {len(binaries)} binary columns exceed the "
            f"hard limit of {ORACLE_MAX_BINARIES}")
    matrix = instance.matrix.tocsc()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = instance.n_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = instance.n_rows
    lp.col_cost_ = instance.objective
    lp.col_lower_, lp.col_upper_ = instance.col_lower, instance.col_upper
    lp.row_lower_, lp.row_upper_ = instance.row_bounds()
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "off")
    model.passModel(lp)

    def objective(values):
        """The LP's objective with the binaries at ``values``; inf if infeasible."""
        model.changeColsBounds(len(binaries), binaries, values, values)
        model.run()
        status = model.getModelStatus()
        if status == highs.HighsModelStatus.kInfeasible:
            return np.inf
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverError(f"oracle LP failed: HiGHS status "
                              f"{model.modelStatusToString(status)!r}")
        return model.getInfo().objective_function_value

    # Row ``bits`` of ``assignments`` gives binary ``pos`` the value of bit ``pos``.
    assignments = ((np.arange(2 ** len(binaries))[:, None] >> np.arange(len(binaries)))
                   & 1).astype(float)
    fits = np.all((assignments >= instance.col_lower[binaries] - 1e-12)
                  & (assignments <= instance.col_upper[binaries] + 1e-12), axis=1)
    tried = assignments[fits]
    objectives = np.array([objective(values) for values in tried])
    if not np.isfinite(objectives).any():
        return SolveResult("infeasible", None, None, achieved_gap=np.inf, nodes=len(tried))
    best = objectives.min()
    pick = np.flatnonzero(objectives <= best + 1e-9 * max(1.0, abs(best)))[0]
    return SolveResult("optimal", objective(tried[pick]),
                       np.array(model.getSolution().col_value), nodes=len(tried))


# ---------------------------------------------------------------------------
# External backend (scipy / HiGHS)


def _highs_model(instance: MilpInstance, highs):
    """A silent HiGHS model of the LP relaxation, presolve on, filled from buffers
    through the positional ``passModel`` overload; ``highs`` is scipy's binding.

    The dual simplex prices with Devex, which on the sizing LPs takes fewer
    iterations than HiGHS's default choice, cold and warm.
    """
    matrix = instance.matrix.tocsc()
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "on")
    model.setOptionValue("simplex_dual_edge_weight_strategy", 1)
    model.passModel(instance.n_cols, instance.n_rows, matrix.nnz,
                    highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
                    instance.objective, instance.col_lower, instance.col_upper,
                    *instance.row_bounds(), matrix.indptr, matrix.indices, matrix.data,
                    np.zeros(instance.n_cols, np.int32))
    return model


def solve_external(instance: MilpInstance, options: SolveOptions,
                   warm_start=None) -> SolveResult:
    """Solve with scipy's HiGHS behind the common result contract.

    The relaxation, the dive LP and, when the dive misses the gap, HiGHS's
    MIP search all run on one HiGHS model, the binaries made integer for
    the search. The relaxation starts from ``warm_start`` when it is a
    ``HighsBasis`` of this instance's shape; HiGHS starts cold when it
    rejects it. ``time_limit`` is one deadline over every run, and
    ``iterations`` counts the simplex iterations of every run.
    """
    from scipy.optimize._highspy import _core as highs

    deadline = (None if options.time_limit is None
                else time.perf_counter() + options.time_limit)
    model = _highs_model(instance, highs)
    if (isinstance(warm_start, highs.HighsBasis)
            and len(warm_start.col_status) == instance.n_cols
            and len(warm_start.row_status) == instance.n_rows):
        model.setBasis(warm_start)
    binaries = instance.binary_indices
    optimal = highs.HighsModelStatus.kOptimal
    limits = (highs.HighsModelStatus.kTimeLimit, highs.HighsModelStatus.kIterationLimit)
    iterations = 0
    basis = None

    def result(status, objective=None, x=None, **fields):
        return SolveResult(status, objective, x, iterations=iterations, basis=basis,
                           **fields)

    def run():
        """The model's next run, held to the time that remains: its status."""
        nonlocal iterations
        if deadline is not None:
            # HiGHS counts time_limit over every run of one model.
            model.setOptionValue("time_limit", model.getRunTime()
                                 + max(0.0, deadline - time.perf_counter()))
        model.run()
        iterations += max(0, model.getInfo().simplex_iteration_count)
        return model.getModelStatus()

    def lp_run(lower, upper):
        """An LP run with these bounds, which differ from the instance's only
        on the binaries: ``optimal`` with its point, or ``failed``."""
        model.changeColsBounds(len(binaries), binaries, lower[binaries], upper[binaries])
        if run() != optimal:
            return SolveResult("failed", None, None)
        return SolveResult("optimal", model.getInfo().objective_function_value,
                           np.array(model.getSolution().col_value))

    relaxation = lp_run(instance.col_lower, instance.col_upper)
    if relaxation.ok:
        basis = model.getBasis()
        dive = _rounding_dive(instance, relaxation.x, lp_run)
        if dive is not None:
            gap = _gap(dive.objective, relaxation.objective)
            if gap <= options.relative_gap:
                return result(_gap_status(gap), dive.objective, dive.x, achieved_gap=gap)

    def has_point(status):
        # At a limit, only a MIP run's finite objective is an incumbent's.
        return status == optimal or (status in limits and len(binaries) > 0 and
                                     model.getInfo().objective_function_value < np.inf)

    model.changeColsBounds(len(binaries), binaries, instance.col_lower[binaries],
                           instance.col_upper[binaries])
    model.changeColsIntegrality(len(binaries), binaries, np.ones(len(binaries), np.uint8))
    model.setOptionValue("mip_rel_gap", options.relative_gap)
    status = run()
    if status == highs.HighsModelStatus.kInfeasible:
        # HiGHS reports some feasible unbounded LPs as infeasible; a run
        # with a zero objective tells the two apart.
        model.changeColsCost(instance.n_cols, np.arange(instance.n_cols),
                             np.zeros(instance.n_cols))
        if not has_point(run()):
            return result("infeasible", achieved_gap=np.inf)
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kUnbounded):
        raise SolverError("external backend reports unbounded; the sizing "
                          "model is bounded below, so the instance violates "
                          "the solver contract")
    if status not in (optimal, *limits):
        raise SolverError("external backend failed: HiGHS status "
                          f"{model.modelStatusToString(status)!r}")
    if not has_point(status):
        return result("time_limit", achieved_gap=np.inf)
    info = model.getInfo()
    # A run with no binaries is an LP's: no MIP gap (inf) and no nodes (-1).
    gap, nodes = (info.mip_gap, info.mip_node_count) if len(binaries) else (0.0, 0)
    outcome = _gap_status(gap) if status == optimal else "time_limit"
    return result(outcome, info.objective_function_value,
                  np.array(model.getSolution().col_value), achieved_gap=gap, nodes=nodes)
