"""LP core: cross-checked against scipy's independent implementation."""

import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from dersizer import simplex, solve_lp
from dersizer.milp_instance import EQ, GE, LE
from dersizer.simplex import TOL_FEAS, simplex_solve, standardize

from conftest import dense_instance


def test_min_x_at_least_three():
    inst = dense_instance([1.0], [0.0], [np.inf], [[1.0]], [GE], [3.0])
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_max_x_below_five():
    inst = dense_instance([-1.0], [0.0], [np.inf], [[1.0]], [LE], [5.0])
    res = solve_lp(inst)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0, abs=1e-9)


def test_unbounded_gives_certificate_ray():
    inst = dense_instance([-1.0], [0.0], [np.inf], [[1.0]], [GE], [0.0])
    res = solve_lp(inst)
    assert res.status == "unbounded"
    ray = res.ray
    assert ray is not None
    assert float(inst.objective @ ray) < 0          # improving direction
    assert (inst.matrix @ ray >= 0).all()           # keeps the >= row feasible


def test_infeasible_box():
    inst = dense_instance([1.0], [0.0], [np.inf], [[1.0], [1.0]], [LE, GE], [1.0, 2.0])
    assert solve_lp(inst).status == "infeasible"


def test_equality_with_free_variable():
    inst = dense_instance([1.0, 2.0], [-np.inf, 0.0], [np.inf, np.inf],
                          [[1.0, 1.0], [1.0, -1.0]], [EQ, LE], [4.0, 1.0])
    res = solve_lp(inst)
    assert res.status == "optimal"
    # x free: push x up to the x - y <= 1 face, y down; optimum at (2.5, 1.5)
    assert res.objective == pytest.approx(5.5, abs=1e-7)


def _random_lp(seed, nonneg=False):
    """Random bounded LP made feasible by construction around a point.

    With ``nonneg`` the costs are ``|c|``, so the logical basis is dual
    feasible and the dual phase starts without a cost shift; the costs as
    drawn mostly need one.
    """
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 11)
    m = rng.integers(1, 9)
    upper = rng.uniform(1.0, 10.0, n)
    x0 = rng.uniform(0, 1, n) * upper
    matrix = np.where(rng.random((m, n)) < 0.4, 0.0,
                      rng.normal(0.0, 2.0, (m, n)))
    y0 = matrix @ x0
    senses, rhs = [], []
    for i in range(m):
        kind = rng.integers(0, 3)
        if kind == 0:
            senses.append(LE)
            rhs.append(y0[i] + rng.uniform(0, 3))
        elif kind == 1:
            senses.append(GE)
            rhs.append(y0[i] - rng.uniform(0, 3))
        else:
            senses.append(EQ)
            rhs.append(y0[i])
    c = rng.normal(0, 1, n)
    if nonneg:
        c = np.abs(c)
    return dense_instance(c, np.zeros(n), upper, matrix, senses, rhs)


# Seeds 0-24 with the costs as drawn, then again with nonnegative costs.
RANDOM_LPS = ([pytest.param(seed, False, id=str(seed)) for seed in range(25)]
              + [pytest.param(seed, True, id=f"nonneg-{seed}") for seed in range(25)])


@pytest.mark.parametrize("seed, nonneg", RANDOM_LPS)
def test_random_lp_matches_independent_solver(seed, nonneg):
    inst = _random_lp(seed, nonneg)
    mine = solve_lp(inst)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    dense = inst.matrix.toarray()
    for i, sense in enumerate(inst.row_sense):
        if sense == LE:
            a_ub.append(dense[i]); b_ub.append(inst.rhs[i])
        elif sense == GE:
            a_ub.append(-dense[i]); b_ub.append(-inst.rhs[i])
        else:
            a_eq.append(dense[i]); b_eq.append(inst.rhs[i])
    ref = linprog(inst.objective,
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(inst.col_lower, inst.col_upper)),
                  method="highs")
    assert ref.status == 0, "fixture should be feasible by construction"
    assert mine.status == "optimal"
    assert mine.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def test_drifted_basis_goes_back_to_the_dual_phase(monkeypatch):
    # Once per solve the primal ratio test reports no blocker where a basic
    # value blocks before a step of 1. On these fixtures every injection
    # falls on a structural entering column, whose box is at least 1 wide
    # (a logical with an infinite box would read as unbounded instead). It
    # flips across its box and leaves that value past its bound by more
    # than TOL_FEAS, while A x = b still holds. The primal loop must hand
    # the basis back to the dual phase rather than price from it, and
    # reach the uninjected result.
    real = simplex._ratio_test
    pending, injected, priced_past_bounds = False, 0, 0

    def ratio_test(x_b, l_b, u_b, rate):
        nonlocal pending, injected, priced_past_bounds
        priced_past_bounds += bool(np.maximum(l_b - x_b, x_b - u_b).max() > TOL_FEAS)
        theta, blockers = real(x_b, l_b, u_b, rate)
        if pending and theta is not None and \
                (np.abs(rate[blockers]) * (1.0 - theta)).max() > 10 * TOL_FEAS:
            pending = False
            injected += 1
            return None, None
        return theta, blockers

    expected = {}
    for seed, nonneg in [param.values for param in RANDOM_LPS]:
        expected[seed, nonneg] = solve_lp(_random_lp(seed, nonneg))
    monkeypatch.setattr(simplex, "_ratio_test", ratio_test)
    for (seed, nonneg), want in expected.items():
        pending = True
        got = solve_lp(_random_lp(seed, nonneg))
        assert got.status == want.status, (seed, nonneg)
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
    assert injected >= 5          # 10 of the 50 solves
    assert priced_past_bounds == 0


def _general_lp(seed):
    """Random LP over every column kind, for the differential test with HiGHS.

    Columns are boxed, one-sided, free or fixed, with negative, zero and
    positive costs, so many draws are unbounded. Rows hold at a drawn point
    ``x0``. About one draw in ten has no rows; some repeat their first row,
    and some make their first and last rows contradict each other.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = 0 if rng.random() < 0.1 else int(rng.integers(1, 8))
    x0 = rng.normal(0.0, 3.0, n)
    kind = rng.integers(0, 5, n)  # boxed, lower only, upper only, free, fixed
    lower = np.where(np.isin(kind, (0, 1)), x0 - rng.uniform(0.0, 3.0, n), -np.inf)
    upper = np.where(np.isin(kind, (0, 2)), x0 + rng.uniform(0.0, 3.0, n), np.inf)
    lower[kind == 4] = upper[kind == 4] = x0[kind == 4]
    cost = np.where(rng.random(n) < 0.25, 0.0, rng.normal(0.0, 1.0, n))
    matrix = np.where(rng.random((m, n)) < 0.4, 0.0, rng.normal(0.0, 2.0, (m, n)))
    if m >= 2 and rng.random() < 0.3:
        matrix[-1] = matrix[0]
    y0 = matrix @ x0
    senses = [(LE, GE, EQ)[k] for k in rng.integers(0, 3, m)]
    slack = rng.uniform(0.0, 2.0, m)
    rhs = [y0[i] + slack[i] if sense == LE else y0[i] - slack[i] if sense == GE
           else y0[i] for i, sense in enumerate(senses)]
    if m >= 2 and rng.random() < 0.15:  # a x >= y - 0.5 and a x <= y - 1
        matrix[-1] = matrix[0]
        senses[0], rhs[0] = GE, y0[0] - 0.5
        senses[-1], rhs[-1] = LE, y0[0] - 1.0
    return dense_instance(cost, lower, upper, matrix, senses, rhs)


def _highs(inst, objective):
    constraints = LinearConstraint(inst.matrix, *inst.row_bounds()) if inst.n_rows else None
    res = milp(objective, constraints=constraints,
               bounds=Bounds(inst.col_lower, inst.col_upper))
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status], res.fun


@pytest.mark.parametrize("stall_limit", [simplex.STALL_LIMIT, -1], ids=["default", "bland"])
def test_general_lps_match_highs(monkeypatch, stall_limit):
    # With a stall limit of -1 every iteration takes Bland's rule (814 dual
    # and 233 primal Bland iterations over the set).
    monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
    statuses = []
    for seed in range(400):
        inst = _general_lp(seed)
        mine = solve_lp(inst)
        status, fun = _highs(inst, inst.objective)
        statuses.append(mine.status)
        if mine.status == "unbounded" and status == "infeasible":
            # HiGHS misreports some unbounded LPs (1 of these 400 draws);
            # a solve with a zero objective shows they are feasible.
            assert _highs(inst, np.zeros(inst.n_cols))[0] == "optimal", seed
            status = "unbounded"
        assert mine.status == status, seed
        row_lower, row_upper = inst.row_bounds()
        if status == "optimal":
            assert abs(mine.objective - fun) <= 1e-6 * max(1.0, abs(fun)), seed
            activity = inst.matrix @ mine.x
            assert (activity >= row_lower - 1e-6).all() and (activity <= row_upper + 1e-6).all()
        elif status == "unbounded":
            # The ray is a certificate: it lowers the cost and keeps every
            # row and column bound along it.
            ray, tol = mine.ray, 1e-9 * max(1.0, np.abs(mine.ray).max())
            assert inst.objective @ ray < 0.0, seed
            direction = inst.matrix @ ray
            assert (direction[np.isfinite(row_lower)] >= -tol).all(), seed
            assert (direction[np.isfinite(row_upper)] <= tol).all(), seed
            assert (ray[np.isfinite(inst.col_lower)] >= -tol).all(), seed
            assert (ray[np.isfinite(inst.col_upper)] <= tol).all(), seed
    assert Counter(statuses) == {"optimal": 228, "unbounded": 117, "infeasible": 55}


def _row_corner_fixed(inst):
    """Bounds that pin every column of one row at the box corner violating it.

    The fixture's columns all have lower bound 0.
    """
    dense = inst.matrix.toarray()
    top = np.where(dense > 0, dense, 0.0) @ inst.col_upper - inst.rhs
    bottom = inst.rhs - np.where(dense < 0, dense, 0.0) @ inst.col_upper
    senses = np.array(inst.row_sense)
    room = np.where(senses == LE, top, np.where(senses == GE, bottom,
                                                np.maximum(top, bottom)))
    i = int(np.argmax(room))
    assert room[i] > 1.0, "every random LP has a row its box can violate"
    push_up = senses[i] == LE or (senses[i] == EQ and top[i] >= bottom[i])
    to_upper = dense[i] > 0 if push_up else dense[i] < 0
    to_lower = (dense[i] != 0) & ~to_upper
    lower, upper = inst.col_lower.copy(), inst.col_upper.copy()
    lower[to_upper] = upper[to_upper]
    upper[to_lower] = lower[to_lower]
    return lower, upper


@pytest.mark.parametrize("seed, nonneg", RANDOM_LPS)
def test_warm_start_matches_cold_after_bound_change(seed, nonneg):
    inst = _random_lp(seed, nonneg)
    form = standardize(inst)
    first = simplex_solve(form, inst.objective, inst.col_lower, inst.col_upper)
    assert first.status == "optimal"
    n = inst.n_cols
    one = inst.col_upper.copy()
    j = int(np.argmax(first.x[:n]))
    one[j] = 0.5 * first.x[j]
    fixed_lo, fixed_hi = inst.col_lower.copy(), inst.col_upper.copy()
    interior = np.arange(0, n, 2)
    fixed_lo[interior] = fixed_hi[interior] = \
        0.5 * (first.x[interior] + 0.5 * inst.col_upper[interior])
    changes = [(inst.col_lower, one), (fixed_lo, fixed_hi), _row_corner_fixed(inst)]
    for lower, upper in changes:
        warm = simplex_solve(form, inst.objective, lower, upper,
                             basis=first.basis, col_status=first.col_status)
        cold = simplex_solve(form, inst.objective, lower, upper)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
    assert cold.status == "infeasible"  # the row corner, solved last
    late = simplex_solve(form, inst.objective, inst.col_lower, one,
                         basis=first.basis, col_status=first.col_status,
                         deadline=time.perf_counter() - 1.0)
    assert late.status == "time_limit"


def test_degenerate_duplicate_rows_terminate():
    # The same face x + y >= 4 six times over.
    res = solve_lp(dense_instance([1.0, 1.0], [0.0, 0.0], [10.0, 10.0],
                                  [[1.0, 1.0]] * 6, [GE] * 6, [4.0] * 6))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-9)


def _dual_degenerate_lp(seed, cost):
    """Rows that hold at a drawn point, one of them fixing ``sum(x)``, with
    every cost ``cost``: each feasible point is optimal, and at zero cost
    so is every basis.

    Columns are boxed, lower-bounded, upper-bounded or free, so the cold
    start puts some at each bound.
    """
    rng = np.random.default_rng(seed)
    n, m = 12, 6
    x0 = rng.normal(0.0, 3.0, n)
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    lower = np.where(np.isin(kind, (0, 1)), x0 - rng.uniform(0.0, 3.0, n), -np.inf)
    upper = np.where(np.isin(kind, (0, 2)), x0 + rng.uniform(0.0, 3.0, n), np.inf)
    matrix = np.vstack([np.ones(n), np.where(rng.random((m, n)) < 0.4, 0.0,
                                             rng.normal(0.0, 2.0, (m, n)))])
    y0 = matrix @ x0
    senses = [EQ] + [(LE, GE)[k] for k in rng.integers(0, 2, m)]
    slack = rng.uniform(0.0, 2.0, m + 1)
    rhs = [y0[0]] + [y0[i] + slack[i] if senses[i] == LE else y0[i] - slack[i]
                     for i in range(1, m + 1)]
    return dense_instance(np.full(n, cost), lower, upper, matrix, senses, rhs)


@pytest.mark.parametrize("cost", [0.0, 1.0], ids=["zero", "equal"])
def test_fully_dual_degenerate_lps_match_highs(cost):
    # Every reduced cost is zero, or equal across the sum row, so the dual
    # phase runs on the perturbed costs alone and the primal phase cleans up.
    for seed in range(20):
        inst = _dual_degenerate_lp(seed, cost)
        mine = solve_lp(inst)
        status, fun = _highs(inst, inst.objective)
        assert mine.status == status == "optimal", seed
        assert abs(mine.objective - fun) <= 1e-9 * max(1.0, abs(fun)), seed
        row_lower, row_upper = inst.row_bounds()
        activity = inst.matrix @ mine.x
        assert (activity >= row_lower - TOL_FEAS).all(), seed
        assert (activity <= row_upper + TOL_FEAS).all(), seed
        assert (inst.col_lower <= mine.x).all() and (mine.x <= inst.col_upper).all(), seed


def test_bland_rule_waits_for_a_stall(monkeypatch):
    # The first iteration of a phase is no stall, so even a stall limit of
    # 0 leaves it to the largest violation: x0 + x1 >= 5 leaves, and one
    # pivot solves the LP. Bland's rule would take row 0 first.
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    res = solve_lp(dense_instance([1.0, 1.0], [0.0, 0.0], [np.inf, np.inf],
                                  [[1.0, 1.0], [1.0, 1.0]], [GE, GE], [1.0, 5.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(5.0, abs=1e-9)
    assert res.iterations == 1


def test_fixed_columns_are_respected():
    res = solve_lp(dense_instance([1.0, 1.0], [2.0, 0.0], [2.0, 10.0],
                                  [[1.0, 1.0]], [GE], [5.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)
    assert res.x[1] == pytest.approx(3.0, abs=1e-9)


def _factor_matrix(m=30, n=60, seed=7):
    """``[A | I]`` whose leading m x m block of A has a full diagonal, so any
    principal part of it gives a usable structural basis."""
    rng = np.random.default_rng(seed)
    a = sp.random(m, n, density=0.15, random_state=rng, format="lil",
                  data_rvs=lambda k: rng.uniform(1.0, 2.0, k) * rng.choice([-1.0, 1.0], k))
    a[np.arange(m), np.arange(m)] = 3.0
    return sp.hstack([a.tocsc(), sp.identity(m, format="csc")], format="csc"), rng


def test_factor_solves_match_dense_across_refactors():
    from dersizer.simplex import REFACTOR_INTERVAL, _Factor

    m, n = 30, 60
    for start in ("logical", "structural", "mixed"):
        matrix, rng = _factor_matrix(m, n)
        # The start basis, in shuffled positions: all logicals, the
        # structural block's columns, or half of each on complementary rows.
        basis = {"logical": np.arange(n, n + m),
                 "structural": np.arange(m),
                 "mixed": np.r_[np.arange(m // 2), n + np.arange(m // 2, m)]}[start]
        basis = rng.permutation(basis)
        factor = _Factor(matrix, basis, n)
        assert (factor.lu is None) == (start == "logical")

        def check():
            dense = matrix[:, basis].toarray()
            v = rng.normal(size=m)
            tol = {"rtol": 1e-9, "atol": 1e-9 * np.abs(v).max()}
            np.testing.assert_allclose(factor.ftran(v), np.linalg.solve(dense, v), **tol)
            np.testing.assert_allclose(factor.btran(v), np.linalg.solve(dense.T, v), **tol)
            inverse = np.linalg.inv(dense)
            for r in rng.choice(m, 5, replace=False):
                np.testing.assert_allclose(factor.btran_unit(int(r)), inverse[r],
                                           rtol=1e-9, atol=1e-9)

        check()
        refactors = 0
        for _ in range(3 * REFACTOR_INTERVAL + 3):
            if factor.age >= REFACTOR_INTERVAL:
                factor.refactor(basis)
                refactors += 1
                check()
            # A nonbasic column enters on the row of its largest pivot, which
            # keeps the basis well conditioned after every update.
            w = np.zeros(m)
            while np.abs(w).max() < 0.5:
                j = int(rng.choice(np.setdiff1d(np.arange(n + m), basis)))
                w = factor.ftran(matrix[:, j].toarray().ravel())
            r = int(np.argmax(np.abs(w)))
            basis[r] = j
            factor.update(r, w)
            check()
        assert refactors == 3


@pytest.mark.parametrize("twice", ["logical", "structural"])
def test_a_basis_with_a_column_twice_is_singular(twice):
    from dersizer.errors import NumericalError
    from dersizer.simplex import _Factor

    m, n = 30, 60
    matrix, _ = _factor_matrix(m, n)
    basis = np.r_[np.arange(m // 2), n + np.arange(m // 2, m)]
    if twice == "logical":
        basis[-1] = basis[-2]     # one row left uncovered: the kernel is not square
    else:
        basis[1] = basis[0]       # square, with two equal kernel columns
    with pytest.raises(NumericalError, match="singular basis"):
        _Factor(matrix, basis, n)
