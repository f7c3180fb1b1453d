"""MILP solving: reference branch-and-bound, enumeration oracle, external adapter.

Three interchangeable backends sit behind :func:`solve_milp`:

``reference``
    In-repo branch and bound over the in-repo simplex core: one
    best-bound loop whose first node is the root, solved once, with a
    depth-first dive on ties and most-fractional branching. A node is its
    column-bound arrays; a child is its parent's with one binary fixed. A
    fractional root runs a rounding heuristic before it branches, fixing
    one value array over the binaries per attempt, which usually closes
    the gap on near-integral relaxations. Propagation over the rows checks
    an attempt's bounds first; one it proves infeasible is skipped as if
    its LP had been infeasible. Deterministic.
``external``
    scipy's HiGHS. HiGHS solves the LP relaxation, and the rounding dive
    runs from its point with each surviving fixing a HiGHS LP. When the
    dive's first feasible fixing is within the gap of the relaxation's
    bound, that point is the answer, with no nodes; otherwise, or when the
    relaxation does not solve, HiGHS's ``milp`` searches. Much faster on
    full-size instances; same instance, same contract.
``oracle``
    Brute-force enumeration of every binary assignment (hard-capped at 16
    binaries), each evaluated with an independently implemented LP solver
    (scipy's HiGHS ``milp`` with no integrality). Exact up to LP tolerance
    and deliberately free of any code shared with the reference path, so
    the two can certify each other.

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

from .errors import NumericalError, OracleGuardError, SolverError
from .milp_instance import MilpInstance
from .simplex import simplex_solve, standardize

INT_TOL = 1e-6

BACKENDS = ("reference", "external", "oracle")


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls shared by every backend."""

    relative_gap: float = 1e-4
    time_limit: float | None = None
    backend: str = "reference"

    def __post_init__(self):
        if self.relative_gap < 0:
            raise SolverError("relative_gap must be nonnegative")
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

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "gap_optimal")


def _gap(incumbent: float, bound: float) -> float:
    return max(0.0, (incumbent - bound) / max(1.0, abs(incumbent)))


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


def solve_milp(instance: MilpInstance, options: SolveOptions | None = None) -> SolveResult:
    """Solve the instance with the backend named in the options."""
    options = options or SolveOptions()
    instance.validate()
    if options.backend == "external":
        return solve_external(instance, options)
    if options.backend == "oracle":
        return oracle_enumerate(instance)
    return solve_reference(instance, options)


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


# Ten times the LP core's 1e-7 tolerance: a smaller miss may be round-off
# in a fixing the LP accepts. Rounds are capped; on the packaged year
# every refutation comes in round 3.
PROPAGATION_TOL = 1e-6
PROPAGATION_ROUNDS = 20


def _step(bound):
    return PROPAGATION_TOL * np.maximum(np.abs(bound), 1.0)


class _Propagator:
    """Activity-bound (domain) propagation over the rows of one instance.

    Every row side is held as ``a x <= b``: side ``i`` caps row ``i`` from
    above, side ``m + i`` is row ``i`` negated, and a side the row's sense
    does not have gets ``b = inf``. Each round takes the least activity of
    every side from the column bounds, refutes the bounds if one exceeds
    its ``b``, and otherwise tightens each column by what the rest of its
    side leaves (Achterberg, *Constraint Integer Programming*, 2007).
    Integrality plays no part, so a refutation proves the LP over the given
    bounds infeasible.
    """

    def __init__(self, instance: MilpInstance):
        coo = instance.matrix.tocoo()
        m = instance.n_rows
        row_lower, row_upper = instance.row_bounds()
        rhs = np.concatenate((row_upper, -row_lower))
        self.n_sides = 2 * m
        self.limit = rhs + _step(rhs)
        side = np.concatenate((coo.row, coo.row + m))
        cols = np.concatenate((coo.col, coo.col))
        vals = np.concatenate((coo.data, -coo.data))
        keep = np.isfinite(rhs[side])
        # Entries with a positive coefficient cap their column from above
        # and count at its lower bound; the others the reverse.
        side, cols, vals = side[keep], cols[keep], vals[keep]
        pos, neg = vals > 0.0, vals < 0.0
        self.side = np.concatenate((side[pos], side[neg]))
        self.pos_cols, self.neg_cols = cols[pos], cols[neg]
        self.pos_vals, self.neg_vals = vals[pos], vals[neg]
        self.vals = np.concatenate((self.pos_vals, self.neg_vals))
        self.n_pos = len(self.pos_vals)
        self.side_rhs = rhs[self.side]

    def refutes(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """True when the rows provably admit no point inside the bounds."""
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        p, side, n_sides = self.n_pos, self.side, self.n_sides
        for _ in range(PROPAGATION_ROUNDS):
            if (lower > upper + _step(upper)).any():
                return True
            least = np.concatenate((self.pos_vals * lower[self.pos_cols],
                                    self.neg_vals * upper[self.neg_cols]))
            infinite = np.isinf(least)
            count = np.bincount(side, weights=infinite, minlength=n_sides)
            finite = np.where(infinite, 0.0, least)
            total = np.bincount(side, weights=finite, minlength=n_sides)
            if ((count == 0) & (total > self.limit)).any():
                return True
            # a_j x_j <= b - (least activity of the rest of the side); NaN
            # where the rest has an infinite term, and fmin/fmax skip NaN.
            rest = np.where(count[side] == infinite, total[side] - finite, np.nan)
            bound = (self.side_rhs - rest) / self.vals
            new_upper = np.full_like(upper, np.inf)
            new_lower = np.full_like(lower, -np.inf)
            np.fmin.at(new_upper, self.pos_cols, bound[:p])
            np.fmax.at(new_lower, self.neg_cols, bound[p:])
            # Candidates are finite or keep their infinite start, so no inf - inf.
            tighter_upper = new_upper + _step(new_upper) < upper
            tighter_lower = new_lower - _step(new_lower) > lower
            if not (tighter_upper.any() or tighter_lower.any()):
                return False
            upper = np.where(tighter_upper, new_upper, upper)
            lower = np.where(tighter_lower, new_lower, lower)
        return False


def _dive_attempts(instance: MilpInstance, x: np.ndarray) -> list[np.ndarray]:
    """The distinct binary values, in ``binary_indices`` order, the root dive tries.

    Plain rounding of the root point first, then rounding with ambiguous
    binaries snapped to the safe assignment (the optional meta hint
    ``binary_safe_value``, a value per binary that cannot cut off
    grid-served dispatch), then the safe assignment. The first feasible
    attempt wins.
    """
    values = x[instance.binary_indices]
    rounded = np.round(values)
    attempts = [rounded]
    safe = instance.meta.get("binary_safe_value")
    if safe is not None:
        attempts += [np.where(np.abs(values - rounded) > 0.25, safe, rounded), safe]
    distinct: list[np.ndarray] = []
    for attempt in attempts:
        if not any(np.array_equal(attempt, seen) for seen in distinct):
            distinct.append(attempt)
    return distinct


def _rounding_dive(instance: MilpInstance, x: np.ndarray, lp):
    """The first feasible fixing of the rounding dive from the relaxed point ``x``.

    Tries ``_dive_attempts`` in order. Propagation checks each attempt's
    bounds first, and one it refutes is skipped as if its LP had been
    infeasible. ``lp(lower, upper)`` solves a fixing on the caller's
    backend and returns a result with ``status``, ``objective`` and ``x``.
    Returns the first ``optimal`` result, or None once the attempts run
    out or an LP ends with ``time_limit``.
    """
    propagator = _Propagator(instance)
    for values in _dive_attempts(instance, x):
        fixed = _fixed(instance.col_lower, instance.col_upper,
                       instance.binary_indices, values)
        if propagator.refutes(*fixed):
            continue
        res = lp(*fixed)
        if res.status == "optimal":
            return res
        if res.status == "time_limit":
            return None
    return None


def solve_reference(instance: MilpInstance, options: SolveOptions) -> SolveResult:
    """Best-bound branch and bound over the bounded-simplex LP core.

    The root is the first node (the instance's bounds, a cold start, bound
    -inf) and is solved once; a fractional root runs the rounding dive before
    it branches.
    """
    deadline = (None if options.time_limit is None
                else time.perf_counter() + options.time_limit)
    form = standardize(instance)
    binaries = instance.binary_indices
    log: list[NodeRecord] = []

    def lp(lower, upper, warm=None):
        basis = warm.basis if warm is not None else None
        col_status = warm.col_status if warm is not None else None
        try:
            return simplex_solve(form, instance.objective, lower, upper,
                                 basis=basis, col_status=col_status,
                                 deadline=deadline)
        except NumericalError:
            if warm is None:
                raise
            return simplex_solve(form, instance.objective, lower, upper,
                                 deadline=deadline)

    incumbent_obj: float | None = None
    incumbent_x: np.ndarray | None = None

    def try_incumbent(obj, x):
        nonlocal incumbent_obj, incumbent_x
        if incumbent_obj is None or obj < incumbent_obj - 1e-12 * max(1.0, abs(obj)):
            incumbent_obj, incumbent_x = obj, x.copy()

    # (bound, -depth, counter, lower, upper, parent's LpResult as the warm start)
    heap: list[tuple] = [(-np.inf, 0, 0, instance.col_lower, instance.col_upper, None)]
    counter = 0
    iterations = 0
    nodes = 0
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
        iterations += res.iterations
        if depth:
            nodes += 1
            log.append(NodeRecord(nodes, depth, bound, incumbent_obj,
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
        if incumbent_obj is not None and res.objective >= incumbent_obj - 1e-12 * max(
                1.0, abs(incumbent_obj)):
            continue
        values = res.x[binaries]
        away = np.abs(values - np.round(values))
        if not (away > INT_TOL).any():
            try_incumbent(res.objective, res.x)
            continue
        if not depth:  # the root dives for an incumbent before it branches
            def dive_lp(lower, upper):
                nonlocal iterations
                dive = lp(lower, upper, warm=res)
                iterations += dive.iterations
                return dive

            dive = _rounding_dive(instance, res.x, dive_lp)
            if dive is not None:
                try_incumbent(dive.objective, dive.x)
        pick = int(binaries[np.argmax(away)])  # most fractional, lowest index on ties
        for value in (0.0, 1.0):
            counter += 1
            heapq.heappush(heap, (res.objective, -(depth + 1), counter,
                                  *_fixed(lower, upper, pick, value), res))
    else:
        if incumbent_obj is not None:
            best_bound = incumbent_obj  # every node processed or pruned: bound closed

    if incumbent_obj is None:
        return SolveResult("time_limit" if status == "time_limit" else "infeasible",
                           None, None, achieved_gap=np.inf, nodes=nodes,
                           iterations=iterations, node_log=log)
    achieved = _gap(incumbent_obj, best_bound)
    if status != "time_limit":
        status = "optimal" if achieved <= 1e-12 else "gap_optimal"
    incumbent_x = incumbent_x[:instance.n_cols].copy()
    return SolveResult(status, float(incumbent_obj), incumbent_x,
                       achieved_gap=achieved, nodes=nodes,
                       iterations=iterations, node_log=log)


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle

ORACLE_MAX_BINARIES = 16


def oracle_enumerate(instance: MilpInstance) -> SolveResult:
    """Certify the optimum by trying every 0/1 assignment of the binaries.

    Each assignment fixes the binaries by bounds and solves the remaining
    LP with scipy's HiGHS ``milp`` (no integrality), over one constraint
    object built per instance. The best feasible assignment wins (first one
    found on exact ties, so the result is deterministic). Refuses instances
    with more than 16 binary columns.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    binaries = instance.binary_indices
    if len(binaries) > ORACLE_MAX_BINARIES:
        raise OracleGuardError(
            f"oracle guard: {len(binaries)} binary columns exceed the "
            f"hard limit of {ORACLE_MAX_BINARIES}")
    # CSC, the layout HiGHS takes, so scipy does not convert it on every call.
    constraints = LinearConstraint(instance.matrix.tocsc(), *instance.row_bounds())
    lower, upper = instance.col_lower.copy(), instance.col_upper.copy()
    # Row ``bits`` of ``assignments`` gives binary ``pos`` the value of bit ``pos``.
    assignments = ((np.arange(2 ** len(binaries))[:, None] >> np.arange(len(binaries)))
                   & 1).astype(float)
    fits = np.all((assignments >= instance.col_lower[binaries] - 1e-12)
                  & (assignments <= instance.col_upper[binaries] + 1e-12), axis=1)

    best_obj = None
    best_x = None
    for values in assignments[fits]:
        lower[binaries] = upper[binaries] = values
        res = milp(instance.objective, constraints=constraints,
                   bounds=Bounds(lower, upper))
        if res.status == 0 and (best_obj is None or res.fun < best_obj - 1e-12):
            best_obj = float(res.fun)
            best_x = np.asarray(res.x)
    n_lp = int(np.count_nonzero(fits))
    if best_obj is None:
        return SolveResult("infeasible", None, None, achieved_gap=np.inf, nodes=n_lp)
    return SolveResult("optimal", best_obj, best_x, achieved_gap=0.0, nodes=n_lp)


# ---------------------------------------------------------------------------
# External backend (scipy / HiGHS)

# scipy ``milp`` status codes for the dive LPs; any other code skips the fixing.
_HIGHS_STATUS = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}


def solve_external(instance: MilpInstance, options: SolveOptions) -> SolveResult:
    """Solve with scipy's HiGHS behind the common result contract.

    HiGHS solves the LP relaxation first, and the rounding dive runs from
    its point, each fixing a HiGHS LP. A first feasible fixing within the
    gap of the relaxation's bound is the answer, with no nodes. Otherwise,
    or when the relaxation does not solve, HiGHS's ``milp`` searches.
    ``time_limit`` is one deadline over every HiGHS call.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    deadline = (None if options.time_limit is None
                else time.perf_counter() + options.time_limit)
    # CSC, the layout HiGHS takes, so scipy does not convert it on every call.
    constraints = LinearConstraint(instance.matrix.tocsc(), *instance.row_bounds())

    def run(objective, lower=instance.col_lower, upper=instance.col_upper,
            integrality=None):
        opts = {"presolve": True, "mip_rel_gap": options.relative_gap, "disp": False}
        if deadline is not None:
            opts["time_limit"] = max(0.0, deadline - time.perf_counter())
        return milp(c=objective, constraints=constraints, integrality=integrality,
                    bounds=Bounds(lower, upper), options=opts)

    def dive_lp(lower, upper):
        res = run(instance.objective, lower, upper)
        return SolveResult(_HIGHS_STATUS.get(res.status, "failed"),
                           None if res.fun is None else float(res.fun),
                           None if res.x is None else np.asarray(res.x))

    relaxation = run(instance.objective)
    if relaxation.status == 0:
        dive = _rounding_dive(instance, np.asarray(relaxation.x), dive_lp)
        if dive is not None:
            gap = _gap(dive.objective, float(relaxation.fun))
            if gap <= options.relative_gap:
                return SolveResult("optimal" if gap <= 1e-12 else "gap_optimal",
                                   dive.objective, dive.x, achieved_gap=gap)

    integrality = instance.col_binary.astype(int)
    res = run(instance.objective, integrality=integrality)
    if res.status == 2:
        # HiGHS reports some feasible unbounded LPs as infeasible; a solve
        # with a zero objective tells the two apart.
        probe = run(np.zeros(instance.n_cols), integrality=integrality)
        if probe.status not in (0, 1) or probe.x is None:
            return SolveResult("infeasible", None, None, achieved_gap=np.inf)
    if res.status in (2, 3):
        raise SolverError("external backend reports unbounded; the sizing "
                          "model is bounded below, so the instance violates "
                          "the solver contract")
    # scipy passes on any point HiGHS has, even after a solve error, so only
    # status 0 (solved) and 1 (time or iteration limit) may report one.
    if res.status not in (0, 1):
        raise SolverError(f"external backend failed (status {res.status}): "
                          f"{res.message}")
    if res.x is None:
        if res.status == 1:
            return SolveResult("time_limit", None, None, achieved_gap=np.inf)
        raise SolverError(f"external backend failed: {res.message}")
    gap = float(res.mip_gap) if res.mip_gap is not None else 0.0
    if res.status == 1:
        status = "time_limit"
    else:
        status = "optimal" if gap <= 1e-12 else "gap_optimal"
    return SolveResult(status, float(res.fun), np.asarray(res.x),
                       achieved_gap=gap, nodes=int(res.mip_node_count or 0))
