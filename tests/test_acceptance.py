"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 1-3 exercise the reference solver and the enumeration oracle on
tiny randomized instances; 4-6 run the packaged synthetic fixture with
the published parameter table; 7 pins the tariff arithmetic; 8 times the
full-size instance on both backends; 9 checks byte-level determinism of
the study runner.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dersizer import (CaseSpec, DeviceCatalog, SolveOptions, build_model,
                      capital_recovery_factor, check_solution, demand_charge,
                      degradation_cost, energy_charge, extract_solution,
                      oracle_enumerate, run_study, shedding_cost, solve_milp)
from dersizer.data_model import TariffPlan
from dersizer.study import StudyConfig

from conftest import tiny_sizing_inputs

GAP_EXTERNAL = 1e-6  # gap used for the solved_cases session fixture


def _ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_oracle_equivalence():
    """>=20 random tiny instances: reference == oracle, audits clean, <=60 s."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        scen, catalog, tariff = tiny_sizing_inputs(seed)
        instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
        assert len(instance.binary_indices) == 9
        reference = solve_milp(instance, SolveOptions(relative_gap=1e-6,
                                                      backend="reference"))
        oracle = oracle_enumerate(instance)
        assert reference.ok and oracle.status == "optimal", seed
        rel = abs(reference.objective - oracle.objective) \
            / max(1.0, abs(oracle.objective))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"seed {seed}: relative difference {rel:.3e}"
        solution = extract_solution(instance, reference)
        report = check_solution(solution, scen, catalog, tariff)
        assert report.ok, f"seed {seed}:\n{report.to_text()}"
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"oracle-equivalence suite took {elapsed:.1f} s"
    _ok(1, f"20 instances, worst relative diff {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_feasibility_audit(solved_cases, table_catalog,
                                       default_tariff, reduced_set):
    """Every fixture solve audits clean; a corrupted SoC is detected."""
    for number, bundle in solved_cases.items():
        assert bundle["audit"].ok, f"case {number}:\n{bundle['audit'].to_text()}"
        assert bundle["audit"].max_residual <= 1e-6
    solution = solved_cases[3]["solution"]
    soc = solution.grid.soc.copy()
    rho_cap = table_catalog.rho_ep * solution.capacities["es"]
    bumpable = [(s, t) for s in range(soc.shape[0])
                for t in range(1, soc.shape[1] - 1)
                if soc[s, t] + 2.0 < table_catalog.alpha_max * rho_cap]
    assert bumpable, "fixture leaves no SoC headroom to corrupt"
    s, t = bumpable[0]
    soc[s, t] += 1.0
    corrupted = replace(solution, grid=replace(solution.grid, soc=soc))
    report = check_solution(corrupted, reduced_set, table_catalog, default_tariff)
    assert not report.ok
    assert {v.family for v in report.violations} == {"soc_step"}
    _ok(2, "all solves audit clean at 1e-6; SoC corruption detected")


def test_criterion_3_linearization_exactness(solved_cases, table_catalog):
    """u equals x_es*y exactly and charge/discharge never overlap."""
    tol = 1e-6 * max(1.0, table_catalog.es_max)
    for number in (2, 3):
        solution = solved_cases[number]["solution"]
        x_es = solution.capacities["es"]
        grid = solution.grid
        product_error = np.abs(grid.u_dch - x_es * grid.y_dch).max()
        assert product_error <= tol, f"case {number}: {product_error:.3e}"
        overlap = np.minimum(grid.dch_ac + grid.dch_dc,
                             grid.ch_ac + grid.ch_dc).max()
        assert overlap <= tol, f"case {number}: overlap {overlap:.3e}"
    _ok(3, "u = x_es*y within 1e-6*ES_cap and charge/discharge complementary")


def test_criterion_4_case_nesting(solved_cases):
    """obj(3) <= obj(1) <= obj(0) and obj(3) <= obj(2) <= obj(0)."""
    objective = {n: solved_cases[n]["solution"].objective for n in range(4)}
    scale = max(max(abs(v) for v in objective.values()), 1.0)
    slack = 2.0 * GAP_EXTERNAL * scale
    for small, large in ((3, 1), (1, 0), (3, 2), (2, 0)):
        assert objective[small] <= objective[large] + slack, \
            f"obj({small})={objective[small]:.1f} > obj({large})={objective[large]:.1f}"
    _ok(4, "objective ordering 3 <= {1,2} <= 0 holds within 2x solver gap")


def test_criterion_5_voll_monotonicity(solved_cases, reduced_set, default_tariff,
                                       table_catalog):
    """Doubling the critical VOLL never lowers the optimal objective."""
    pricier = replace(table_catalog, voll_cl=6000.0)
    for number in (0, 3):
        base = solved_cases[number]["solution"].objective
        instance = build_model(reduced_set, pricier, default_tariff,
                               CaseSpec.from_number(number))
        raw = solve_milp(instance, SolveOptions(relative_gap=GAP_EXTERNAL,
                                                backend="external"))
        assert raw.ok
        slack = 2.0 * GAP_EXTERNAL * max(1.0, abs(raw.objective))
        assert raw.objective >= base - slack, \
            f"case {number}: {raw.objective:.1f} < {base:.1f}"
    _ok(5, "objective non-decreasing when VOLL_CL rises 3000 -> 6000 $/kWh")


def test_criterion_6_fixture_regression(solved_cases):
    """Caps bind in the DER case; critical load rides through islanding with
    storage; grid peak stays below the tariff cap everywhere."""
    capacities = solved_cases[3]["solution"].capacities
    assert capacities["pv"] == pytest.approx(400.0, abs=1e-5)
    assert capacities["es"] == pytest.approx(350.0, abs=1e-5)
    for number in (2, 3):
        isl = solved_cases[number]["solution"].islanded
        critical_shed = float(isl.shed_cl_ac.sum() + isl.shed_cl_dc.sum())
        assert critical_shed <= 1e-6, f"case {number}: shed {critical_shed:.3e}"
    for number in range(4):
        peak = float(solved_cases[number]["solution"].grid.p_peak.max())
        assert peak <= 1000.0 + 1e-6, f"case {number}: peak {peak:.2f}"
    _ok(6, "PV=400, ES=350 exactly; zero critical shed in cases 2-3; "
           "peaks under 1000 kW")


def test_criterion_7_tariff_arithmetic():
    """Hand-computed cost examples to 1e-9; CRF to 1e-6."""
    catalog = DeviceCatalog()
    flat = TariffPlan(energy_price=[0.1, 0.1], demand_price=18.0, peak_cap=1000.0)
    two_step = TariffPlan(energy_price=[0.1, 0.2], demand_price=18.0,
                          peak_cap=1000.0)
    assert abs(energy_charge([100.0, 200.0], flat) - 30.0) <= 1e-9
    assert abs(energy_charge([10.0, 10.0], two_step) - 3.0) <= 1e-9
    assert abs(demand_charge(454.0, flat) - 8172.0) <= 1e-9
    assert abs(demand_charge(846.0, flat) - 15228.0) <= 1e-9
    zero = np.zeros(2)
    assert abs(degradation_cost(zero, zero, [100.0, 0.0], zero, catalog)
               - 0.5) <= 1e-9
    critical, noncritical = shedding_cost([1.0, 0.0], zero, zero, zero, catalog)
    assert abs(critical - 3000.0) <= 1e-9 and noncritical == 0.0
    critical, noncritical = shedding_cost(zero, zero, [2.0, 0.0], zero, catalog)
    assert critical == 0.0 and abs(noncritical - 1000.0) <= 1e-9
    assert abs(capital_recovery_factor(0.10, 10) - 0.162745) <= 1e-6
    _ok(7, "all tariff arithmetic examples reproduce to stated tolerances")


def test_criterion_8_scale_runtime(reduced_set, table_catalog, default_tariff):
    """Full 6x24 DER instance: reference within 600 s at gap 1e-3, external
    within 5 s."""
    instance = build_model(reduced_set, table_catalog, default_tariff,
                           CaseSpec.from_number(3))
    started = time.perf_counter()
    reference = solve_milp(instance, SolveOptions(relative_gap=1e-3,
                                                  backend="reference"))
    reference_time = time.perf_counter() - started
    assert reference.ok, reference.status
    assert reference.achieved_gap <= 1e-3
    assert reference_time <= 600.0, f"reference took {reference_time:.0f} s"
    started = time.perf_counter()
    external = solve_milp(instance, SolveOptions(relative_gap=1e-3,
                                                 backend="external"))
    external_time = time.perf_counter() - started
    assert external.ok
    assert external_time <= 5.0, f"external took {external_time:.1f} s"
    rel = abs(reference.objective - external.objective) \
        / max(1.0, abs(external.objective))
    assert rel <= 2e-3
    _ok(8, f"reference {reference_time:.0f} s (gap {reference.achieved_gap:.1e}), "
           f"external {external_time:.1f} s")


def test_criterion_9_run_study_determinism(tmp_path):
    """Identical inputs give byte-identical study outputs."""
    outputs = []
    for label in ("first", "second"):
        config = StudyConfig.from_dict({
            "output_dir": str(tmp_path / label),
            "cases": [0, 1, 2, 3],
            "reduction": {"k": 6},
            "solve": {"backend": "external", "relative_gap": 1e-4},
        })
        outcome = run_study(config)
        assert outcome.exit_code == 0
        outputs.append(outcome.output_dir)
    first, second = outputs
    names_first = sorted(p.name for p in first.iterdir())
    names_second = sorted(p.name for p in second.iterdir())
    assert names_first == names_second
    for name in names_first:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # The study's summary row reports the cap-binding DER case directly.
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in (first / "results.csv").read_text().splitlines()[1:]}
    assert rows["pv_kw"][3] == "400.000000"
    assert rows["es_kw"][3] == "350.000000"
    _ok(9, f"{len(names_first)} output files byte-identical across runs")
