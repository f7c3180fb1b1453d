"""MILP solving: reference branch-and-bound, oracle and external backends."""

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dersizer.simplex as simplex
import dersizer.solver as solver
from dersizer import (CaseSpec, LoadSplitSpec, ReductionConfig, SolveOptions,
                      build_model, check_solution, extract_solution,
                      oracle_enumerate, reduce_scenarios, solve_lp, solve_milp)
from dersizer.errors import NumericalError, OracleGuardError, SolverError
from dersizer.milp_instance import GE, LE

from conftest import dense_instance, tiny_sizing_inputs


def _tiny_instance(seed, case=3):
    scen, catalog, tariff = tiny_sizing_inputs(seed)
    return build_model(scen, catalog, tariff, CaseSpec.from_number(case)), \
        (scen, catalog, tariff)


def test_solve_options_validation():
    with pytest.raises(SolverError):
        SolveOptions(relative_gap=-1.0)
    with pytest.raises(SolverError):
        SolveOptions(backend="cplex")
    for value in (np.inf, -np.inf):
        with pytest.raises(SolverError, match="relative_gap must be finite"):
            SolveOptions(relative_gap=value)
        with pytest.raises(SolverError, match="time_limit must be None or finite"):
            SolveOptions(time_limit=value)


def test_binaries_fixed_by_bounds_reduce_to_lp():
    inst = dense_instance([1.0, 5.0], [0.0, 1.0], [10.0, 1.0], [[1.0, 4.0]],
                          [GE], [6.0], binary=[False, True])
    lp = solve_lp(inst)
    milp = solve_milp(inst, SolveOptions(relative_gap=1e-9, backend="reference"))
    assert milp.status == "optimal"
    assert milp.objective == pytest.approx(lp.objective, rel=1e-9)
    assert milp.nodes == 0


def test_oracle_zero_binaries_equals_lp():
    inst = dense_instance([1.0], [0.0], [10.0], [[1.0]], [GE], [3.0])
    assert oracle_enumerate(inst).objective == pytest.approx(
        solve_lp(inst).objective, abs=1e-9)


def test_oracle_one_binary_is_min_of_two_lps():
    # One big-M row: x >= 5 available only when z = 1, at a fixed cost of 3.
    inst = dense_instance([1.0, 3.0], [0.0, 0.0], [10.0, 1.0], [[1.0, 5.0]],
                          [GE], [5.0], binary=[False, True])
    res = oracle_enumerate(inst)
    # z=0 branch costs 5 (x=5); z=1 branch costs 3 (x=0): oracle takes 3.
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.nodes == 2


@pytest.mark.parametrize("cost, excess", [(1.0, 0.0), (1000.0, 1e-7)])
def test_oracle_breaks_a_tie_by_the_lowest_bit_pattern(cost, excess):
    # min (c + e) z1 + c z2 with z1 + z2 >= 1: (1, 0) and (0, 1) tie. The
    # excess e = 1e-7 on 1000 is 1e-10 relative: a tie, though above 1e-12.
    first = cost + excess
    inst = dense_instance([first, cost], [0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]],
                          [GE], [1.0], binary=[True, True])
    res = oracle_enumerate(inst)
    assert res.objective == first and res.x.tolist() == [1.0, 0.0]
    assert res.nodes == 4


def test_oracle_raises_on_a_status_that_is_neither_optimal_nor_infeasible():
    # x0 is free to grow at a negative cost, so every run ends kUnbounded:
    # an LP without an optimum, not an infeasible assignment. The other two
    # backends raise on the unbounded relaxation as well.
    inst = dense_instance([-1.0, 1.0], [0.0, 0.0], [np.inf, 1.0], [[0.0, 1.0]],
                          [GE], [0.0], binary=[False, True])
    for backend, message in [("oracle", "HiGHS status 'Unbounded'"),
                             ("reference", "LP relaxation is unbounded"),
                             ("external", "HiGHS status 'Primal infeasible or unbounded'")]:
        with pytest.raises(SolverError, match=message):
            solve_milp(inst, SolveOptions(backend=backend))


def test_oracle_guard_refuses_17_binaries():
    inst = dense_instance(np.ones(17), np.zeros(17), np.ones(17),
                          [np.eye(17)[0]], [GE], [0.0], binary=[True] * 17)
    with pytest.raises(OracleGuardError, match="17"):
        oracle_enumerate(inst)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matches_oracle_on_tiny_sizing(seed):
    inst, _ = _tiny_instance(seed)
    ref = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
    orc = oracle_enumerate(inst)
    assert ref.ok and orc.status == "optimal"
    assert abs(ref.objective - orc.objective) <= 1e-6 * max(1.0, abs(orc.objective))


def test_external_matches_oracle_on_tiny_sizing():
    inst, _ = _tiny_instance(1)
    ext = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="external"))
    orc = oracle_enumerate(inst)
    assert ext.ok
    assert abs(ext.objective - orc.objective) <= 1e-6 * max(1.0, abs(orc.objective))


def test_node_log_bounds_monotone():
    inst, _ = _tiny_instance(22)  # known to branch at gap 0
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="reference"))
    assert res.nodes > 0 and res.node_log
    bounds = [record.bound for record in res.node_log]
    assert all(b2 >= b1 - 1e-9 * max(1, abs(b1))
               for b1, b2 in zip(bounds, bounds[1:]))
    values = [record.incumbent for record in res.node_log
              if record.incumbent is not None]
    assert all(v2 <= v1 + 1e-9 * max(1, abs(v1))
               for v1, v2 in zip(values, values[1:]))


def test_root_lp_is_solved_once(monkeypatch):
    # The root is the tree's first node: one cold LP with no fixings, then
    # the rounding dive's one LP, which fixes every binary, then one LP per
    # node below the root.
    inst, _ = _tiny_instance(22)  # known to branch at gap 0
    real = solver.simplex_solve
    calls = []

    def simplex_solve(form, objective, lower, upper, **kwargs):
        calls.append((lower.copy(), upper.copy()))
        return real(form, objective, lower, upper, **kwargs)

    monkeypatch.setattr(solver, "simplex_solve", simplex_solve)
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="reference"))
    assert res.ok and res.nodes > 0
    binaries = inst.binary_indices
    fixes_all = [bool(np.all(lower[binaries] == upper[binaries]))
                 for lower, upper in calls[1:]]
    assert fixes_all[:2] == [True, False]
    assert len(calls) == 2 + res.nodes
    assert len(res.node_log) == res.nodes
    unfixed = [np.array_equal(lower, inst.col_lower) and np.array_equal(upper, inst.col_upper)
               for lower, upper in calls]
    assert unfixed == [True] + [False] * (len(calls) - 1)


def test_objective_scaling_property():
    from dataclasses import replace
    inst, _ = _tiny_instance(0)
    base = solve_milp(inst, SolveOptions(relative_gap=1e-9, backend="reference"))
    scaled_inst = replace(inst, objective=7.0 * inst.objective)
    scaled = solve_milp(scaled_inst, SolveOptions(relative_gap=1e-9,
                                                  backend="reference"))
    assert scaled.objective == pytest.approx(7.0 * base.objective, rel=1e-9)
    # The sizing optimum is unique in the capacity block for this fixture.
    for name in ("x_pv", "x_es", "x_ic", "x_inv", "x_con"):
        j = inst.col(name)
        assert scaled.x[j] == pytest.approx(base.x[j], abs=1e-5)


def test_reference_is_deterministic():
    inst, _ = _tiny_instance(22)  # known to branch at gap 0
    first = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="reference"))
    second = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="reference"))
    assert first.objective == second.objective
    assert first.nodes == second.nodes > 0
    np.testing.assert_array_equal(first.x, second.x)
    assert first.node_log == second.node_log


def test_time_limit_returns_incumbent_status():
    inst, _ = _tiny_instance(2)
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, time_limit=0.0,
                                        backend="reference"))
    assert res.status == "time_limit"


def test_infeasible_instance_reported():
    inst = dense_instance([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]],
                          [GE], [3.0], binary=[False, True])
    for backend in ("reference", "external", "oracle"):
        res = solve_milp(inst, SolveOptions(backend=backend))
        assert res.status == "infeasible", backend
        assert not res.ok


@pytest.mark.parametrize("seed", [32, 2070])
def test_external_raises_on_unbounded_lps_highs_calls_infeasible(seed):
    # HiGHS gives status 2 (infeasible) for these feasible unbounded draws.
    from test_simplex import _general_lp

    inst = _general_lp(seed)
    assert solve_lp(inst).status == "unbounded"
    with pytest.raises(SolverError, match="unbounded"):
        solve_milp(inst, SolveOptions(backend="external"))


def test_extracted_solution_satisfies_audit():
    inst, (scen, catalog, tariff) = _tiny_instance(0)
    res = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
    solution = extract_solution(inst, res)
    report = check_solution(solution, scen, catalog, tariff)
    assert report.ok, report.to_text()


@pytest.mark.parametrize("seed", [41, 214, 279, 393])
def test_reference_extraction_survives_roundoff_below_bounds(seed):
    # These instances once returned capacities like -8.6e-48 from the simplex.
    inst, (scen, catalog, tariff) = _tiny_instance(seed)
    res = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
    assert res.ok
    check_solution(extract_solution(inst, res), scen, catalog, tariff)


def test_reference_points_lie_inside_column_bounds():
    for case in range(4):
        for seed in range(20):
            inst, _ = _tiny_instance(seed, case)
            res = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
            assert res.ok, (case, seed)
            assert np.all(inst.col_lower <= res.x), (case, seed)
            assert np.all(res.x <= inst.col_upper), (case, seed)


def test_reference_time_limit_stops_inside_the_root_lp(reduced_set, table_catalog,
                                                       default_tariff):
    inst = build_model(reduced_set, table_catalog, default_tariff, CaseSpec.from_number(3))
    started = time.perf_counter()
    res = solve_milp(inst, SolveOptions(relative_gap=1e-3, time_limit=0.5,
                                        backend="reference"))
    assert time.perf_counter() - started < 1.5
    assert res.status == "time_limit"


@pytest.fixture(scope="module")
def days_k2(packaged_profile):
    return reduce_scenarios(packaged_profile, ReductionConfig(k=2), LoadSplitSpec())


@pytest.fixture(scope="module")
def case3_k2(days_k2, table_catalog, default_tariff):
    return build_model(days_k2, table_catalog, default_tariff, CaseSpec.from_number(3))


@pytest.fixture(scope="module")
def case2_k3(packaged_profile, table_catalog, default_tariff):
    # Its dive ends 2.9e-8 above the relaxation, so at gap 0 the MIP search runs.
    days = reduce_scenarios(packaged_profile, ReductionConfig(k=3), LoadSplitSpec())
    return build_model(days, table_catalog, default_tariff, CaseSpec.from_number(2))


def test_reference_cold_root_takes_the_dual_phase(case3_k2):
    # Every cost is nonnegative at a finite lower bound, so the logical
    # basis is dual feasible. With the costs perturbed once, the dual phase
    # solves the root in 864 iterations; unperturbed it took 1,234, and the
    # primal phase 1 the LP core once had took 1,475.
    res = solve_lp(case3_k2)
    assert res.status == "optimal"
    assert res.iterations < 1000


def test_reference_lp_is_identical_across_processes(case3_k2):
    # Ties break by fixed rules and the cost perturbation draws no random
    # numbers, so fresh interpreters give this process's bytes.
    code = ("import hashlib, sys, dersizer as d\n"
            "days = d.reduce_scenarios(d.parse_profile_csv(d.packaged_profile_path()),\n"
            "                          d.ReductionConfig(k=2), d.LoadSplitSpec())\n"
            "inst = d.build_model(days, d.DeviceCatalog(), d.TariffPlan.default_tou(24),\n"
            "                     d.CaseSpec.from_number(3))\n"
            "print(hashlib.sha256(d.solve_lp(inst).x.tobytes()).hexdigest())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    digests = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip() for _ in range(2)]
    assert digests == [hashlib.sha256(solve_lp(case3_k2).x.tobytes()).hexdigest()] * 2


@pytest.mark.parametrize("factor", ["updated", "fresh"])
def test_reference_dual_phase_refuses_a_tiny_pivot(case3_k2, monkeypatch, factor):
    # Once per solve, right after a row's btran_unit on an updated (or a
    # fresh) factor, the entering column comes back scaled by 1e-12, so its
    # pivot |w[r]| falls below PIVOT_TOL. An updated factor must refactor
    # and price again, reach the untouched objective and never pivot on
    # such a w; on a fresh factor the pivot is an error.
    want = solve_lp(case3_k2)
    pivots = []

    class Factor(simplex._Factor):
        armed, scale_next = True, False

        def btran_unit(self, r):
            if Factor.armed and (self.age > 0) == (factor == "updated"):
                Factor.armed, self.scale_next = False, True
            return super().btran_unit(r)

        def ftran(self, v):
            y = super().ftran(v)
            if self.scale_next:
                self.scale_next = False
                y *= 1e-12
            return y

        def update(self, row, w):
            pivots.append(abs(w[row]))
            super().update(row, w)

    monkeypatch.setattr(simplex, "_Factor", Factor)
    if factor == "fresh":
        with pytest.raises(NumericalError, match="too small"):
            solve_lp(case3_k2)
        return
    got = solve_lp(case3_k2)
    assert not Factor.armed
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert min(pivots) >= simplex.PIVOT_TOL


def test_reference_warm_starts_take_the_dual_phase(case3_k2):
    # The rounding dive re-solves from the root's optimal basis. The dual
    # phase does it in 935 iterations for the whole solve; rebuilding
    # feasibility with the primal phase 1 the LP core once had took 3,615.
    res = solve_milp(case3_k2, SolveOptions(relative_gap=1e-3, backend="reference"))
    assert res.ok
    assert res.iterations < 2500


def test_reference_dive_is_one_lp(case3_k2, monkeypatch):
    # The root LP, then one dive LP with every binary set from the flows it
    # gates. That point closes the gap, so nothing branches. The two take
    # 864 and 71 iterations; without the cost perturbation, 1,234 and 94.
    real = solver.simplex_solve
    calls = []

    def simplex_solve(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solver, "simplex_solve", simplex_solve)
    res = solve_milp(case3_k2, SolveOptions(relative_gap=1e-3, backend="reference"))
    assert res.ok and res.nodes == 0
    assert [call.status for call in calls] == ["optimal", "optimal"]
    assert res.iterations < 1100


def test_dive_values_are_lp_feasible_on_tiny_sizing():
    # The fixing the dive takes from the relaxed point leaves a feasible LP.
    from scipy.optimize import Bounds, LinearConstraint, milp
    for case in range(4):
        for seed in range(40):
            inst, _ = _tiny_instance(seed, case)
            values = solver._dive_values(inst, solve_lp(inst).x)
            lower, upper = solver._fixed(inst.col_lower, inst.col_upper,
                                         inst.binary_indices, values)
            lp = milp(inst.objective,
                      constraints=LinearConstraint(inst.matrix, *inst.row_bounds()),
                      bounds=Bounds(lower, upper))
            assert lp.status == 0, (case, seed, values)


def test_dive_values_follow_the_gated_flows():
    # A hand-built instance has no hints and rounds; a sizing model sets each
    # binary from its flows, and y_dch is 0 without discharge.
    inst = dense_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]],
                          [GE], [0.0], binary=[True, True])
    assert solver._dive_values(inst, np.array([0.4, 0.6])).tolist() == [0.0, 1.0]
    sized, _ = _tiny_instance(0)
    blocks = sized.meta["blocks"]
    x = np.zeros(sized.n_cols)
    x[blocks["z_flow"]] = x[blocks["y_dch"]] = 0.9
    x[blocks["i_z_flow"]] = 0.1
    x[blocks["f_dc_out"][0, 0]] = x[blocks["i_f_dc_in"][0, 1]] = 1.0
    x[blocks["dch_dc"][0, 2]] = 1.0
    values = dict(zip(sized.binary_indices.tolist(), solver._dive_values(sized, x)))
    assert [values[j] for j in blocks["z_flow"][0]] == [0.0, 1.0, 1.0]
    assert [values[j] for j in blocks["i_z_flow"][0]] == [0.0, 1.0, 0.0]
    assert [values[j] for j in blocks["y_dch"][0]] == [0.0, 0.0, 1.0]


def test_external_time_limit_without_incumbent_is_a_status(reduced_set, table_catalog,
                                                           default_tariff):
    inst = build_model(reduced_set, table_catalog, default_tariff, CaseSpec.from_number(3))
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, time_limit=0.01,
                                        backend="external"))
    assert res.status == "time_limit"


def _fail_warm_starts(monkeypatch, error):
    real = solver.simplex_solve

    def simplex_solve(*args, basis=None, **kwargs):
        if basis is not None:
            raise error
        return real(*args, basis=basis, **kwargs)

    monkeypatch.setattr(solver, "simplex_solve", simplex_solve)


def test_warm_start_numerical_error_retries_cold(monkeypatch):
    inst, _ = _tiny_instance(2)  # fractional at the root, so the dive warm-starts
    expected = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
    _fail_warm_starts(monkeypatch, NumericalError("injected"))
    res = solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))
    assert res.ok
    assert res.objective == pytest.approx(expected.objective, rel=1e-6)


def test_warm_start_other_errors_propagate(monkeypatch):
    inst, _ = _tiny_instance(2)
    _fail_warm_starts(monkeypatch, ValueError("injected"))
    with pytest.raises(ValueError, match="injected"):
        solve_milp(inst, SolveOptions(relative_gap=1e-6, backend="reference"))


def _record_highs_runs(monkeypatch, after_run=None):
    """Keep the column bounds and integrality of every run of the external
    backend's HiGHS model.

    ``after_run(model)`` is called after each run; setting ``model.status``
    there makes the model report that status instead of its own, for that
    run only.
    """
    real = solver._highs_model
    runs = []

    class Recording:
        status = None

        def __init__(self, model):
            self.model = model

        def __getattr__(self, name):
            return getattr(self.model, name)

        def run(self):
            lp = self.model.getLp()
            runs.append((np.array(lp.col_lower_), np.array(lp.col_upper_),
                         np.array([int(kind) for kind in lp.integrality_])))
            self.status = None
            outcome = self.model.run()
            if after_run is not None:
                after_run(self)
            return outcome

        def getModelStatus(self):
            return self.model.getModelStatus() if self.status is None else self.status

    monkeypatch.setattr(solver, "_highs_model", lambda *args: Recording(real(*args)))
    return runs


def _assert_is_the_mip_run(inst, run):
    """The run is HiGHS's MIP search: the instance's bounds, binaries integer."""
    lower, upper, integrality = run
    np.testing.assert_array_equal(lower, inst.col_lower)
    np.testing.assert_array_equal(upper, inst.col_upper)
    np.testing.assert_array_equal(integrality, inst.col_binary.astype(int))


def _direct_milp(inst, gap):
    from scipy.optimize import Bounds, LinearConstraint, milp
    return milp(c=inst.objective,
                constraints=LinearConstraint(inst.matrix, *inst.row_bounds()),
                integrality=inst.col_binary.astype(int),
                bounds=Bounds(inst.col_lower, inst.col_upper),
                options={"presolve": True, "mip_rel_gap": gap, "disp": False})


def _assert_is_the_direct_milp(res, direct):
    assert res.objective == direct.fun
    np.testing.assert_array_equal(res.x, direct.x)
    assert res.nodes == direct.mip_node_count
    assert res.achieved_gap == direct.mip_gap


def _rounding_misses():
    """A hand-built instance whose rounded relaxation is feasible but 9.2 too dear.

    min -5a - 4b + 10s with 6a + 4b - s <= 9: the relaxation takes b = 1 and
    a = 5/6, the dive rounds a up and pays s = 1, and a = 1, b = 0 gives -5.
    """
    return dense_instance([-5.0, -4.0, 10.0], [0.0, 0.0, 0.0], [1.0, 1.0, 10.0],
                          [[6.0, 4.0, -1.0]], [LE], [9.0], binary=[True, True, False])


def test_external_status_with_a_point_is_not_optimal(monkeypatch):
    from scipy.optimize._highspy import _core as highs
    inst = _rounding_misses()         # its dive misses gap 0, so the MIP search runs

    def after_run(model):
        if len(runs) == 3:            # the search finds its point, then reports an error
            model.status = highs.HighsModelStatus.kSolveError

    runs = _record_highs_runs(monkeypatch, after_run)
    with pytest.raises(SolverError, match="Solve error"):
        solve_milp(inst, SolveOptions(relative_gap=0.0, backend="external"))
    assert len(runs) == 3             # the relaxation and the dive ran first
    _assert_is_the_mip_run(inst, runs[2])


def test_external_returns_the_dive_point_when_it_closes_the_gap(case3_k2, table_catalog,
                                                                default_tariff, days_k2):
    ext = solve_milp(case3_k2, SolveOptions(relative_gap=0.0, backend="external"))
    assert ext.status == "optimal" and ext.nodes == 0
    assert ext.achieved_gap == 0.0
    ref = solve_milp(case3_k2, SolveOptions(relative_gap=1e-3, backend="reference"))
    # Both backends take the same dive fixing: 357,183,320.482.
    assert ext.objective == pytest.approx(ref.objective, rel=1e-9)
    report = check_solution(extract_solution(case3_k2, ext), days_k2, table_catalog,
                            default_tariff)
    assert report.ok, report.to_text()


def test_external_dive_that_closes_makes_two_highs_calls(case3_k2, monkeypatch):
    runs = _record_highs_runs(monkeypatch)
    res = solve_milp(case3_k2, SolveOptions(relative_gap=0.0, backend="external"))
    assert res.status == "optimal"
    # The relaxation, then one dive run on the same model with every binary
    # fixed and every other bound as the instance has it; the MIP search
    # never runs.
    assert len(runs) == 2
    (lower, upper, _), (fixed_lower, fixed_upper, _) = runs
    np.testing.assert_array_equal(lower, case3_k2.col_lower)
    np.testing.assert_array_equal(upper, case3_k2.col_upper)
    binaries = case3_k2.binary_indices
    assert np.array_equal(fixed_lower[binaries], fixed_upper[binaries])
    others = ~case3_k2.col_binary
    np.testing.assert_array_equal(fixed_lower[others], case3_k2.col_lower[others])
    np.testing.assert_array_equal(fixed_upper[others], case3_k2.col_upper[others])


def test_external_falls_back_to_milp_when_the_dive_misses_the_gap(case2_k3, monkeypatch):
    runs = _record_highs_runs(monkeypatch)
    for inst in (_rounding_misses(), case2_k3):   # dives that miss gap 0
        direct = _direct_milp(inst, 0.0)
        runs.clear()
        res = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="external"))
        # The relaxation, the dive LP and the MIP search, all on one model.
        assert len(runs) == 3
        _assert_is_the_mip_run(inst, runs[2])
        _assert_is_the_direct_milp(res, direct)


def test_external_dive_gets_the_time_left_not_a_fresh_limit(case3_k2, monkeypatch):
    # HiGHS counts time_limit over every run of one model. Once the
    # relaxation has run, leave 0.8 of its run time: several times what the
    # dive needs, but less than the clock HiGHS has already counted.
    clock = [0.0]
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def after_run(model):
        if clock[0] == 0.0:
            clock[0] = 60.0 - 0.8 * model.getRunTime()

    runs = _record_highs_runs(monkeypatch, after_run)
    res = solve_milp(case3_k2, SolveOptions(relative_gap=0.0, time_limit=60.0,
                                            backend="external"))
    assert res.status == "optimal" and res.nodes == 0
    assert len(runs) == 2


@pytest.mark.parametrize("limited_runs, status, point", [(1, "optimal", True),
                                                         (2, "time_limit", False)])
def test_external_search_without_binaries_is_an_lp_run(monkeypatch, limited_runs,
                                                       status, point):
    # With no binaries the relaxation stands for the search too. When it stops
    # at a limit, the search runs the same LP again. That LP run has no MIP
    # gap or nodes, and at a limit its finite objective is not an incumbent's.
    from scipy.optimize._highspy import _core as highs
    inst = dense_instance([1.0], [0.0], [10.0], [[1.0]], [GE], [3.0])

    def after_run(model):
        if len(runs) <= limited_runs:
            model.status = highs.HighsModelStatus.kTimeLimit

    runs = _record_highs_runs(monkeypatch, after_run)
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="external"))
    assert len(runs) == 2
    assert res.status == status and (res.x is not None) == point
    if point:
        assert res.objective == 3.0 and res.achieved_gap == 0.0 and res.nodes == 0


@pytest.mark.parametrize("status", ["kTimeLimit", "kIterationLimit", "kInfeasible",
                                    "kSolveError"])
def test_external_dive_that_is_not_optimal_falls_back_to_milp(monkeypatch, status):
    from scipy.optimize._highspy import _core as highs
    inst, _ = _tiny_instance(0)       # its dive closes gap 0

    def after_run(model):
        if len(runs) == 2:
            model.status = getattr(highs.HighsModelStatus, status)

    runs = _record_highs_runs(monkeypatch, after_run)
    res = solve_milp(inst, SolveOptions(relative_gap=0.0, backend="external"))
    assert len(runs) == 3
    _assert_is_the_mip_run(inst, runs[2])
    _assert_is_the_direct_milp(res, _direct_milp(inst, 0.0))


def test_external_iterations_count_every_highs_run(case3_k2, monkeypatch):
    counts = []
    runs = _record_highs_runs(
        monkeypatch, lambda model: counts.append(model.getInfo().simplex_iteration_count))
    res = solve_milp(case3_k2, SolveOptions(relative_gap=0.0, backend="external"))
    assert res.status == "optimal" and len(runs) == 2     # the relaxation and the dive
    assert res.iterations > 0
    assert res.iterations == counts[0] + counts[1]


def test_external_model_prices_the_dual_simplex_with_devex(case3_k2):
    # setOptionValue reports an unknown option by status, not by raising, so
    # read the value back: on every supported scipy the option must exist.
    from scipy.optimize._highspy import _core as highs
    model = solver._highs_model(case3_k2, highs)
    status, value = model.getOptionValue("simplex_dual_edge_weight_strategy")
    assert status == highs.HighsStatus.kOk and value == 1


@pytest.fixture(scope="module")
def cases_k2(days_k2, table_catalog, default_tariff):
    return [build_model(days_k2, table_catalog, default_tariff, CaseSpec.from_number(c))
            for c in range(4)]


# At k=2, case 1's HiGHS relaxation takes 19 iterations cold and 35 from
# case 0's basis; every other twin start takes fewer (case 3: 819 -> 84 on
# external, 864 -> 134 on reference).
@pytest.mark.parametrize("backend, twin, case, fewer", [
    ("reference", 0, 1, True), ("reference", 2, 3, True),
    ("external", 0, 1, False), ("external", 2, 3, True)])
def test_a_case_started_from_its_twin_basis_reaches_the_cold_answer(
        cases_k2, days_k2, table_catalog, default_tariff, backend, twin, case, fewer):
    options = SolveOptions(relative_gap=1e-4, backend=backend)
    basis = solve_milp(cases_k2[twin], options).basis
    assert basis is not None
    cold = solve_milp(cases_k2[case], options)
    warm = solve_milp(cases_k2[case], options, warm_start=basis)
    assert warm.ok and warm.nodes == 0
    assert abs(warm.objective - cold.objective) <= 1e-4 * abs(cold.objective)
    report = check_solution(extract_solution(cases_k2[case], warm), days_k2,
                            table_catalog, default_tariff)
    assert report.ok, report.to_text()
    if fewer:
        assert warm.iterations < cold.iterations


def _unusable_basis(cases_k2, backend, fault):
    """A basis that case 3 of ``cases_k2`` cannot start from on ``backend``."""
    options = SolveOptions(relative_gap=1e-4, backend=backend)
    if fault == "shape":
        return solve_milp(cases_k2[0], options).basis
    if fault == "backend":
        other = "external" if backend == "reference" else "reference"
        return solve_milp(cases_k2[2], replace(options, backend=other)).basis
    basis = solve_milp(cases_k2[2], options).basis
    if fault in ("singular", "logical-twice", "structural-twice"):
        columns, col_status = basis
        columns = columns.copy()
        if fault == "singular":
            columns[1] = columns[0]           # one column twice
        else:                                 # one logical, or one structural, twice
            kind = columns >= cases_k2[2].n_cols
            first, second = np.flatnonzero(kind if fault == "logical-twice" else ~kind)[:2]
            columns[second] = columns[first]
        return columns, col_status
    from scipy.optimize._highspy import _core as highs
    basis.row_status = [highs.HighsBasisStatus.kLower] * cases_k2[2].n_rows  # no basics
    return basis


@pytest.mark.parametrize("backend, fault", [
    ("reference", "shape"), ("reference", "backend"), ("reference", "singular"),
    ("reference", "logical-twice"), ("reference", "structural-twice"),
    ("external", "shape"), ("external", "backend"), ("external", "rejected")])
def test_an_unusable_basis_gives_the_cold_start(cases_k2, backend, fault):
    options = SolveOptions(relative_gap=1e-4, backend=backend)
    cold = solve_milp(cases_k2[3], options)
    res = solve_milp(cases_k2[3], options,
                     warm_start=_unusable_basis(cases_k2, backend, fault))
    assert res.objective == cold.objective and res.iterations == cold.iterations
    np.testing.assert_array_equal(res.x, cold.x)


def test_oracle_ignores_a_warm_start():
    inst, _ = _tiny_instance(0)
    basis = solve_milp(inst, SolveOptions(backend="reference")).basis
    assert solve_milp(inst, SolveOptions(backend="oracle"), warm_start=basis).basis is None
