"""Cost arithmetic: annualization, bills, degradation, penalties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dersizer import (CostBreakdown, DeviceCatalog, ScenarioSet, TariffPlan,
                      annualize_expected, capital_recovery_factor,
                      catalog_from_capital_costs, degradation_cost, demand_charge,
                      energy_charge, investment_cost, shedding_cost)
from dersizer.data_model import DayScenario
from dersizer.errors import ValidationError

CATALOG = DeviceCatalog()

# Independently evaluated: 0.1 * 1.1**10 / (1.1**10 - 1)
CRF_10PCT_10YR = 0.16274539488251161


def test_crf_zero_rate_limit():
    assert capital_recovery_factor(0.0, 10) == pytest.approx(0.1, abs=1e-15)


def test_crf_ten_percent_ten_years():
    assert capital_recovery_factor(0.10, 10) == pytest.approx(CRF_10PCT_10YR,
                                                              abs=1e-12)


def test_crf_single_year():
    assert capital_recovery_factor(0.10, 1) == pytest.approx(1.1, abs=1e-12)


def test_crf_rejects_bad_args():
    with pytest.raises(ValidationError):
        capital_recovery_factor(0.1, 0)
    with pytest.raises(ValidationError):
        capital_recovery_factor(-0.1, 5)


def test_catalog_from_capital_costs_applies_crf():
    catalog = catalog_from_capital_costs({"pv": 1000.0}, rate=0.10, years=10)
    assert catalog.c_pv == pytest.approx(1000.0 * CRF_10PCT_10YR)
    assert catalog.c_es == DeviceCatalog().c_es  # untouched default
    with pytest.raises(ValidationError):
        catalog_from_capital_costs({"pvv": 1.0}, rate=0.1, years=10)


def test_investment_zero_capacities():
    assert investment_cost({k: 0.0 for k in ("pv", "es", "ic", "inv", "con")},
                           CATALOG) == 0.0


def test_investment_table_prices_case3_capacities():
    # 108*400 + 424*350 + 8.1*199 + 6.5*350 + 4.3*624, evaluated by hand.
    value = investment_cost({"pv": 400, "es": 350, "ic": 199, "inv": 350,
                             "con": 624}, CATALOG)
    assert value == pytest.approx(198170.10, abs=1e-9)


def test_investment_is_linear_in_capacities():
    caps = {"pv": 10.0, "es": 20.0, "ic": 5.0, "inv": 4.0, "con": 3.0}
    doubled = {k: 2 * v for k, v in caps.items()}
    assert investment_cost(doubled, CATALOG) == pytest.approx(
        2 * investment_cost(caps, CATALOG), rel=1e-12)


def _tariff(prices, demand=18.0):
    return TariffPlan(energy_price=prices, demand_price=demand, peak_cap=1000.0)


def test_energy_charge_examples():
    assert energy_charge([100.0, 200.0], _tariff([0.1, 0.1])) == pytest.approx(30.0)
    assert energy_charge([0.0, 0.0], _tariff([0.1, 0.1])) == 0.0
    assert energy_charge([10.0, 10.0], _tariff([0.1, 0.2])) == pytest.approx(3.0,
                                                                             abs=1e-12)


def test_energy_charge_length_mismatch():
    with pytest.raises(ValidationError):
        energy_charge([1.0], _tariff([0.1, 0.1]))


def test_demand_charge_examples():
    assert demand_charge(454.0, _tariff([0.1])) == pytest.approx(8172.0, abs=1e-9)
    assert demand_charge(0.0, _tariff([0.1])) == 0.0
    assert demand_charge(846.0, _tariff([0.1])) == pytest.approx(15228.0, abs=1e-9)


def test_degradation_examples():
    zero = np.zeros(3)
    assert degradation_cost(zero, zero, zero, zero, CATALOG) == 0.0
    one_charge = degradation_cost(zero, zero, [100.0, 0, 0], zero, CATALOG)
    assert one_charge == pytest.approx(0.5, abs=1e-12)
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    swapped = degradation_cost(b, a, a, b, CATALOG)
    assert degradation_cost(a, b, b, a, CATALOG) == pytest.approx(swapped)


def test_shedding_examples():
    zero = np.zeros(2)
    assert shedding_cost(zero, zero, zero, zero, CATALOG) == (0.0, 0.0)
    critical, noncritical = shedding_cost([1.0, 0.0], zero, zero, zero, CATALOG)
    assert (critical, noncritical) == (pytest.approx(3000.0), 0.0)
    critical, noncritical = shedding_cost(zero, zero, [2.0, 0.0], zero, CATALOG)
    assert (critical, noncritical) == (0.0, pytest.approx(1000.0))


def _scenario_set(probabilities):
    days = tuple(DayScenario(id=f"d{i}", probability=p, cl_ac=[1.0], cl_dc=[0.0],
                             nl_ac=[0.0], nl_dc=[0.0], pv_availability=[0.0])
                 for i, p in enumerate(probabilities))
    return ScenarioSet(days=days)


def test_annualize_examples():
    single = _scenario_set([1.0])
    assert annualize_expected(single, [100.0], "energy") == pytest.approx(36500.0)
    halves = _scenario_set([0.5, 0.5])
    assert annualize_expected(halves, [0.0, 200.0], "energy") == pytest.approx(36500.0)
    assert annualize_expected(single, [8172.0], "demand") == pytest.approx(98064.0)
    with pytest.raises(ValidationError):
        annualize_expected(single, [1.0], "investment")
    with pytest.raises(ValidationError):
        annualize_expected(halves, [1.0], "energy")


def test_breakdown_total_is_component_sum():
    breakdown = CostBreakdown(investment=1.0, energy_charges=2.0, demand_charges=3.0,
                              degradation=4.0, shed_critical=5.0, shed_noncritical=6.0)
    assert breakdown.total == pytest.approx(21.0)
    assert breakdown.total_payment == pytest.approx(5.0)


@given(scale=st.floats(0.0, 1e3),
       purchases=st.lists(st.floats(0, 1e4), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_energy_charge_positively_homogeneous(scale, purchases):
    tariff = _tariff([0.11, 0.23])
    base = energy_charge(purchases, tariff)
    scaled = energy_charge([scale * p for p in purchases], tariff)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


@given(price=st.floats(0, 10), purchases=st.lists(st.floats(0, 1e4), min_size=1,
                                                  max_size=24))
@settings(max_examples=100, deadline=None)
def test_constant_price_equals_price_times_energy(price, purchases):
    tariff = _tariff([price] * len(purchases))
    assert energy_charge(purchases, tariff) == pytest.approx(
        price * float(np.sum(purchases)), rel=1e-9, abs=1e-9)
