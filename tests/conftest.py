"""Shared fixtures: the packaged profile, reduced scenario sets and solved cases.

Full-size case solves are expensive, so they are session-scoped and shared
between the study tests and the acceptance suite.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
import scipy.sparse as sp

from dersizer import (CaseSpec, DeviceCatalog, LoadSplitSpec, ReductionConfig,
                      ScenarioSet, SolveOptions, TariffPlan, build_model,
                      check_solution, extract_solution, packaged_profile_path,
                      parse_profile_csv, reduce_scenarios, solve_milp)
from dersizer.data_model import AnnualProfile, DayScenario
from dersizer.milp_instance import MilpInstance


def dense_instance(cost, lower, upper, matrix, senses, rhs, binary=None) -> MilpInstance:
    """An instance from dense arrays, columns ``x0…`` and rows ``r0…``."""
    n, m = len(cost), len(rhs)
    return MilpInstance(
        col_names=tuple(f"x{j}" for j in range(n)),
        col_lower=np.array(lower, dtype=float),
        col_upper=np.array(upper, dtype=float),
        col_binary=np.zeros(n, dtype=bool) if binary is None
        else np.array(binary, dtype=bool),
        objective=np.array(cost, dtype=float),
        row_names=tuple(f"r{i}" for i in range(m)),
        row_sense=tuple(senses),
        rhs=np.array(rhs, dtype=float),
        matrix=sp.csr_matrix(np.array(matrix, dtype=float).reshape(m, n)))


def make_profile(load: np.ndarray, pv: np.ndarray) -> AnnualProfile:
    start = datetime(2019, 1, 1)
    stamps = tuple((start + timedelta(hours=h)).isoformat() for h in range(len(load)))
    return AnnualProfile(timestamps=stamps, load_kw=load, pv_pu=pv)


def tiny_sizing_inputs(seed: int):
    """Randomized S=1, T=3 inputs within the catalog's cost/size regime."""
    rng = np.random.default_rng(seed)
    total = rng.uniform(50, 600, 3)
    critical = rng.uniform(0.15, 0.45)
    dc_c, dc_n = rng.uniform(0.3, 0.7, 2)
    cl = total * critical
    nl = total - cl
    day = DayScenario(id="day000", probability=1.0,
                      cl_ac=cl * (1 - dc_c), cl_dc=cl * dc_c,
                      nl_ac=nl * (1 - dc_n), nl_dc=nl * dc_n,
                      pv_availability=rng.uniform(0, 1, 3))
    scenario_set = ScenarioSet(days=(day,))
    tariff = TariffPlan(energy_price=rng.uniform(0.05, 0.25, 3),
                        demand_price=rng.uniform(5, 25), peak_cap=1000.0)
    return scenario_set, DeviceCatalog(), tariff


@pytest.fixture(scope="session")
def packaged_profile():
    return parse_profile_csv(packaged_profile_path())


@pytest.fixture(scope="session")
def reduced_set(packaged_profile):
    return reduce_scenarios(packaged_profile, ReductionConfig(k=6), LoadSplitSpec())


@pytest.fixture(scope="session")
def table_catalog():
    return DeviceCatalog()


@pytest.fixture(scope="session")
def default_tariff():
    return TariffPlan.default_tou(24)


@pytest.fixture(scope="session")
def solved_cases(reduced_set, table_catalog, default_tariff):
    """All four cases of the packaged fixture, solved externally and audited."""
    out = {}
    for number in (0, 1, 2, 3):
        case = CaseSpec.from_number(number)
        instance = build_model(reduced_set, table_catalog, default_tariff, case)
        raw = solve_milp(instance, SolveOptions(relative_gap=1e-6, backend="external"))
        assert raw.ok, f"case {number} failed: {raw.status}"
        solution = extract_solution(instance, raw)
        audit = check_solution(solution, reduced_set, table_catalog, default_tariff)
        out[number] = {"instance": instance, "raw": raw, "solution": solution,
                       "audit": audit}
    return out


@pytest.fixture(scope="session")
def hand_case0():
    """The two-interval base-case whose objective is computed by hand."""
    day = DayScenario(id="day000", probability=1.0,
                      cl_ac=[10.0, 20.0], cl_dc=[5.0, 5.0],
                      nl_ac=[50.0, 30.0], nl_dc=[15.0, 25.0],
                      pv_availability=[0.0, 0.5])
    scenario_set = ScenarioSet(days=(day,))
    tariff = TariffPlan(energy_price=[0.09, 0.16], demand_price=18.0,
                        peak_cap=1000.0)
    eta_ic = 0.96
    f_in = np.array([20.0, 30.0])
    purchase = np.array([60.0, 50.0]) + f_in / eta_ic
    expected = (8.1 * (f_in / eta_ic).max()
                + 365 * float(np.array([0.09, 0.16]) @ purchase)
                + 12 * 18.0 * purchase.max()
                + 365 * (3000.0 * (15 + 25) + 500.0 * (65 + 55)))
    return {"set": scenario_set, "catalog": DeviceCatalog(), "tariff": tariff,
            "expected": expected}
