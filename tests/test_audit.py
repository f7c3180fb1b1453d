"""Audit: independent re-evaluation of constraints and costs, plus fault injection."""

from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from dersizer import (CaseSpec, DeviceCatalog, ScenarioSet, SolveOptions,
                      TariffPlan, build_model, check_solution, extract_solution,
                      oracle_enumerate, recompute_cost_breakdown, solve_milp)
from dersizer.data_model import DayScenario

from conftest import tiny_sizing_inputs
from scalar_audit import scalar_audit


def _solved(seed=0, case=3, backend="reference", soc_boundary="cyclic"):
    scen, catalog, tariff = tiny_sizing_inputs(seed)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(case),
                           soc_boundary=soc_boundary)
    raw = solve_milp(instance, SolveOptions(relative_gap=1e-6, backend=backend))
    return extract_solution(instance, raw), scen, catalog, tariff, instance, raw


def test_clean_solution_has_zero_violations():
    solution, scen, catalog, tariff, _, _ = _solved()
    report = check_solution(solution, scen, catalog, tariff)
    assert report.ok
    assert report.max_residual <= 1e-6
    assert report.objective_delta <= 1e-6 * max(1.0, solution.objective)


def test_corrupted_soc_flags_exactly_the_transition_rows():
    solution, scen, catalog, tariff, _, _ = _solved(seed=1)
    soc = solution.grid.soc.copy()
    rho_cap = catalog.rho_ep * solution.capacities["es"]
    # Nudge one interior state by 1 kWh in a direction that keeps every
    # other family slack, so exactly the two adjacent transitions trip.
    idch = solution.islanded.i_dch_ac + solution.islanded.i_dch_dc
    bump = None
    for t in range(1, soc.shape[1] - 1):
        if soc[0, t] + 2.0 < catalog.alpha_max * rho_cap:
            bump = (t, +1.0)
            break
        down_ok = (soc[0, t] - 2.0 > catalog.alpha_min * rho_cap
                   and idch[0, t] <= soc[0, t] - 2.0)
        if down_ok:
            bump = (t, -1.0)
            break
    assert bump is not None, "fixture should leave SoC room somewhere"
    t, delta = bump
    soc[0, t] += delta
    corrupted = replace(solution, grid=replace(solution.grid, soc=soc))
    report = check_solution(corrupted, scen, catalog, tariff)
    assert not report.ok
    families = {v.family for v in report.violations}
    assert families == {"soc_step"}
    intervals = sorted(v.interval for v in report.violations)
    assert intervals == [t - 1, t]  # audit intervals are 0-based


def test_corrupted_builder_row_trips_audit():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    # Simulate a builder regression: the AC balance built against a load 5 kW
    # off from the scenario data. Any solution of the tampered model must
    # violate the true balance by exactly that 5 kW.
    row = instance.row_names.index("bal_ac_s0_t1")
    rhs = instance.rhs.copy()
    rhs[row] += 5.0
    tampered = replace(instance, rhs=rhs)
    raw = solve_milp(tampered, SolveOptions(relative_gap=1e-6, backend="external"))
    solution = extract_solution(tampered, raw)
    report = check_solution(solution, scen, catalog, tariff)
    assert not report.ok
    assert any(v.family == "ac_balance" and v.interval == 0
               for v in report.violations)


def test_zero_load_zero_breakdown():
    quarter = [0.0, 0.0]
    day = DayScenario(id="d0", probability=1.0, cl_ac=quarter, cl_dc=quarter,
                      nl_ac=quarter, nl_dc=quarter, pv_availability=[0.5, 0.5])
    scen = ScenarioSet(days=(day,))
    tariff = TariffPlan(energy_price=[0.1, 0.1], demand_price=18.0, peak_cap=1000.0)
    catalog = DeviceCatalog()
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    raw = solve_milp(instance, SolveOptions(relative_gap=1e-9, backend="reference"))
    solution = extract_solution(instance, raw)
    report = check_solution(solution, scen, catalog, tariff)
    assert report.ok
    breakdown = recompute_cost_breakdown(solution, scen, catalog, tariff)
    assert breakdown.total == pytest.approx(0.0, abs=1e-9)


def test_breakdown_matches_oracle_term_assembly():
    solution, scen, catalog, tariff, instance, raw = _solved(seed=2,
                                                             backend="reference")
    orc = oracle_enumerate(instance)
    assert abs(raw.objective - orc.objective) <= 1e-6 * max(1, abs(orc.objective))
    breakdown = recompute_cost_breakdown(solution, scen, catalog, tariff)
    day, prob = scen.days[0], 1.0
    # Hand assembly of each term from the extracted dispatch series.
    energy = 365 * prob * float(tariff.energy_price @ solution.grid.p_grid[0])
    demand = 12 * prob * tariff.demand_price * float(solution.grid.p_peak[0])
    wear = 365 * prob * catalog.c_deg * float(
        solution.grid.dch_ac[0].sum() + solution.grid.dch_dc[0].sum()
        + solution.grid.ch_ac[0].sum() + solution.grid.ch_dc[0].sum())
    shed_cl = 365 * prob * catalog.voll_cl * float(
        solution.islanded.shed_cl_ac[0].sum() + solution.islanded.shed_cl_dc[0].sum())
    shed_nl = 365 * prob * catalog.voll_nl * float(
        solution.islanded.shed_nl_ac[0].sum() + solution.islanded.shed_nl_dc[0].sum())
    invest = (catalog.c_pv * solution.capacities["pv"]
              + catalog.c_es * solution.capacities["es"]
              + catalog.c_ic * solution.capacities["ic"]
              + catalog.c_inv * solution.capacities["inv"]
              + catalog.c_con * solution.capacities["con"])
    assert breakdown.energy_charges == pytest.approx(energy, rel=1e-12)
    assert breakdown.demand_charges == pytest.approx(demand, rel=1e-12)
    assert breakdown.degradation == pytest.approx(wear, rel=1e-12)
    assert breakdown.shed_critical == pytest.approx(shed_cl, rel=1e-12)
    assert breakdown.shed_noncritical == pytest.approx(shed_nl, rel=1e-12)
    assert breakdown.investment == pytest.approx(invest, rel=1e-12)
    assert breakdown.total == pytest.approx(raw.objective,
                                            rel=1e-6, abs=1e-6)


def test_negative_capacity_is_a_sizing_violation():
    solution, scen, catalog, tariff, _, _ = _solved()
    negative = replace(solution, capacities={**solution.capacities, "ic": -1e-3})
    report = check_solution(negative, scen, catalog, tariff)
    assert not report.ok
    assert any(v.family == "capacity_nonneg" and v.scenario == "sizing"
               and v.interval is None for v in report.violations)


def test_peak_below_grid_draw_is_a_peak_link_violation():
    solution, scen, catalog, tariff, _, _ = _solved()
    lowered = replace(solution, grid=replace(solution.grid,
                                             p_peak=solution.grid.p_peak - 1000.0))
    report = check_solution(lowered, scen, catalog, tariff)
    assert not report.ok
    links = [(v.scenario, v.interval) for v in report.violations
             if v.family == "peak_link"]
    assert links == [("day000", t) for t in range(scen.intervals)]


@pytest.mark.parametrize("name, index, located", [
    ("p_grid", (0, 1), {("day000", 1)}),
    ("z_flow", (0, 2), {("day000", 2)}),
    ("pv", None, {("sizing", None)} | {("day000", t) for t in range(3)}),
])
def test_nan_in_a_solution_is_a_violation_at_its_location(name, index, located):
    """A NaN residual compares below every tolerance, so it counts as infinite."""
    solution, scen, catalog, tariff, _, _ = _solved()
    if index is None:
        bad = replace(solution, capacities={**solution.capacities, name: np.nan})
    else:
        block = getattr(solution.grid, name).copy()
        block[index] = np.nan
        bad = replace(solution, grid=replace(solution.grid, **{name: block}))
    report = check_solution(bad, scen, catalog, tariff)
    assert not report.ok
    assert report.max_residual == np.inf
    assert {(v.scenario, v.interval) for v in report.violations} == located
    assert all(v.residual == np.inf for v in report.violations)
    _assert_matches_scalar_audit(bad, scen, catalog, tariff)


def test_soc_telescoping_identity():
    """Summed transitions: net stored change equals charge minus discharge
    throughput over the day; zero under the cyclic boundary."""
    solution, scen, catalog, tariff, _, _ = _solved(seed=0)
    grid = solution.grid
    for s in range(len(scen.days)):
        charge = float(grid.ch_ac[s].sum() + grid.ch_dc[s].sum())
        discharge = float(grid.dch_ac[s].sum() + grid.dch_dc[s].sum())
        net = grid.soc[s, -1] - grid.soc[s, 0]
        assert net == pytest.approx(
            charge * catalog.eta_ch - discharge / catalog.eta_dch, abs=1e-6)
        assert net == pytest.approx(0.0, abs=1e-6)  # cyclic boundary


def test_audit_report_text_serialization():
    solution, scen, catalog, tariff, _, _ = _solved()
    report = check_solution(solution, scen, catalog, tariff)
    text = report.to_text()
    assert "violations: 0" in text
    assert "monthly billing convention" in text


@pytest.mark.parametrize("part, fault, family, interval", [
    ("grid", "p_grid", "ac_balance", 17),
    ("islanded", "shed_cl_ac", "isl_ac_balance", 17),
    ("grid", "p_peak", "peak_cap", None),
])
def test_violation_is_located_at_its_scenario_and_interval(
        solved_cases, reduced_set, table_catalog, default_tariff, part, fault, family,
        interval):
    """A fault in scenario 3 of six is reported at that day, and a
    per-scenario check reports no interval."""
    solution = solved_cases[3]["solution"]
    s = 3
    dispatch = getattr(solution, part)
    block = getattr(dispatch, fault).copy()
    if interval is None:
        block[s] = default_tariff.peak_cap + 500.0
    else:
        block[s, interval] += 5.0
    corrupted = replace(solution, **{part: replace(dispatch, **{fault: block})})
    report = check_solution(corrupted, reduced_set, table_catalog, default_tariff)
    assert family in {v.family for v in report.violations}
    assert {(v.scenario, v.interval) for v in report.violations} == {
        (reduced_set.days[s].id, interval)}


def test_violations_are_ordered_by_check_then_scenario_then_interval(
        solved_cases, reduced_set, table_catalog, default_tariff):
    solution = solved_cases[3]["solution"]
    grid = solution.grid
    p_peak, p_grid = grid.p_peak.copy(), grid.p_grid.copy()
    p_peak[[4, 1]] -= 1000.0
    p_grid[4, 17] += 5.0
    corrupted = replace(solution, grid=replace(grid, p_peak=p_peak, p_grid=p_grid))
    report = check_solution(corrupted, reduced_set, table_catalog, default_tariff)
    days = reduced_set.days
    # ac_balance is checked before peak_link, so its later day comes first.
    intervals = range(reduced_set.intervals)
    assert [(v.family, v.scenario, v.interval) for v in report.violations] == [
        ("ac_balance", days[4].id, 17)] + [
        ("peak_link", days[s].id, t) for s in (1, 4) for t in intervals]


def _faulted(solution, rng):
    """``solution`` with one to four random capacities or block entries moved."""
    caps = dict(solution.capacities)
    parts = {"grid": solution.grid, "islanded": solution.islanded}
    blocks = {part: {f.name: getattr(dispatch, f.name).copy() for f in fields(dispatch)}
              for part, dispatch in parts.items()}
    for _ in range(rng.integers(1, 5)):
        step = 10.0 ** rng.uniform(-7, 3) * rng.choice([-1.0, 1.0])
        part = rng.choice(["capacities", "grid", "islanded"])
        if part == "capacities":
            caps[rng.choice(sorted(caps))] += step
        else:
            block = blocks[part][rng.choice(sorted(blocks[part]))]
            block[tuple(rng.integers(0, n) for n in block.shape)] += step
    return replace(solution, capacities=caps,
                   **{part: replace(parts[part], **blocks[part]) for part in parts})


def _assert_matches_scalar_audit(solution, scen, catalog, tariff):
    report = check_solution(solution, scen, catalog, tariff)
    largest, violations = scalar_audit(solution, scen, catalog, tariff)
    assert report.max_residual == largest
    assert Counter(astuple(v) for v in report.violations) == Counter(violations)


@pytest.mark.parametrize("seed", range(10))
def test_block_audit_matches_scalar_reference_on_tiny_cases(seed):
    rng = np.random.default_rng(seed)
    for case, soc_boundary in ((0, "cyclic"), (1, "cyclic"), (2, "cyclic"),
                               (3, "cyclic"), (3, 0.5)):
        solution, scen, catalog, tariff, _, _ = _solved(seed=seed, case=case,
                                                        soc_boundary=soc_boundary)
        _assert_matches_scalar_audit(solution, scen, catalog, tariff)
        for _ in range(3):
            _assert_matches_scalar_audit(_faulted(solution, rng), scen, catalog, tariff)


def test_block_audit_matches_scalar_reference_on_fixture(
        solved_cases, reduced_set, table_catalog, default_tariff):
    rng = np.random.default_rng(6)
    for bundle in solved_cases.values():
        solution = bundle["solution"]
        _assert_matches_scalar_audit(solution, reduced_set, table_catalog, default_tariff)
        for _ in range(8):
            _assert_matches_scalar_audit(_faulted(solution, rng), reduced_set,
                                         table_catalog, default_tariff)
