"""Audit: independent re-evaluation of constraints and costs, plus fault injection."""

from dataclasses import replace

import pytest

from dersizer import (CaseSpec, DeviceCatalog, ScenarioSet, SolveOptions,
                      TariffPlan, build_model, check_solution, extract_solution,
                      oracle_enumerate, recompute_cost_breakdown, solve_milp)
from dersizer.data_model import DayScenario
from dersizer.errors import AuditError

from conftest import tiny_sizing_inputs


def _solved(seed=0, case=3, backend="reference"):
    scen, catalog, tariff = tiny_sizing_inputs(seed)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(case))
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


def test_missing_dispatch_raises():
    solution, scen, catalog, tariff, _, _ = _solved()
    broken = replace(solution, grid=None)
    with pytest.raises(AuditError):
        check_solution(broken, scen, catalog, tariff)
    with pytest.raises(AuditError):
        recompute_cost_breakdown(broken, scen, catalog, tariff)


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
