"""Scalar cost arithmetic: annualization, bills, degradation and penalties.

Every function here is pure and positively homogeneous of degree one in
its series argument. The audit prices every solution through these
functions (``audit.recompute_cost_breakdown``); the MILP builder writes its
objective coefficients itself, so the two stay independent and the audit
checks the builder. Per-day operating costs are
scaled to $/yr by the scenario-set weights: 365 for energy-like costs and
12 for the demand charge (a monthly billing convention; the source tariff
does not state the day-to-year conversion, so both weights stay
configurable on :class:`~dersizer.data_model.ScenarioSet`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DeviceCatalog, ScenarioSet, TariffPlan
from .errors import ValidationError

ANNUALIZE_KINDS = ("energy", "degradation", "shedding", "demand")


@dataclass(frozen=True)
class CostBreakdown:
    """Annualized cost components whose sum is the optimization objective."""

    investment: float = 0.0
    energy_charges: float = 0.0
    demand_charges: float = 0.0
    degradation: float = 0.0
    shed_critical: float = 0.0
    shed_noncritical: float = 0.0

    @property
    def total(self) -> float:
        return (self.investment + self.energy_charges + self.demand_charges
                + self.degradation + self.shed_critical + self.shed_noncritical)

    @property
    def total_payment(self) -> float:
        """Utility bill alone (energy plus demand charges)."""
        return self.energy_charges + self.demand_charges


def capital_recovery_factor(rate: float, years: int) -> float:
    """Annual payment per unit of capital at the given discount rate.

    The zero-rate limit is 1/years.
    """
    if years < 1:
        raise ValidationError("years must be at least 1")
    if rate < 0:
        raise ValidationError("rate must be nonnegative")
    if rate == 0.0:
        return 1.0 / years
    growth = (1.0 + rate) ** years
    return rate * growth / (growth - 1.0)


def catalog_from_capital_costs(capital: dict[str, float], rate: float, years: int,
                               **overrides) -> DeviceCatalog:
    """Build a catalog from raw capital costs ($/kW) via the CRF.

    ``capital`` maps any of pv/es/ic/inv/con to a $/kW capital cost; the
    remaining catalog fields come from ``overrides`` or the defaults.
    Catalogs built directly from already-annualized prices skip this.
    """
    crf = capital_recovery_factor(rate, years)
    known = {"pv", "es", "ic", "inv", "con"}
    unknown = set(capital) - known
    if unknown:
        raise ValidationError(f"unknown capital cost keys: {sorted(unknown)}")
    annualized = {f"c_{key}": value * crf for key, value in capital.items()}
    return DeviceCatalog(**{**annualized, **overrides})


def investment_cost(capacities: dict[str, float], catalog: DeviceCatalog) -> float:
    """Annualized purchase cost of the five installed capacities.

    ``capacities`` maps pv/es/ic/inv/con to installed kW.
    """
    prices = {"pv": catalog.c_pv, "es": catalog.c_es, "ic": catalog.c_ic,
              "inv": catalog.c_inv, "con": catalog.c_con}
    unknown = set(capacities) - set(prices)
    if unknown:
        raise ValidationError(f"unknown capacities: {sorted(unknown)}")
    total = 0.0
    for key, kw in capacities.items():
        total += prices[key] * kw
    return total


def energy_charge(grid_purchases, tariff: TariffPlan) -> float:
    """One representative day's energy charge: sum of price times purchase."""
    purchases = np.asarray(grid_purchases, dtype=float)
    if purchases.shape != tariff.energy_price.shape:
        raise ValidationError(
            f"purchases length {purchases.shape} does not match tariff "
            f"{tariff.energy_price.shape}")
    return float(tariff.energy_price @ purchases)


def demand_charge(peak_kw: float, tariff: TariffPlan) -> float:
    """One representative day's demand charge on the peak grid draw."""
    return tariff.demand_price * peak_kw


def degradation_cost(dch_ac, dch_dc, ch_ac, ch_dc, catalog: DeviceCatalog) -> float:
    """Battery wear cost for one day: throughput price on all four flows.

    Charging throughput is priced the same as discharging, matching the
    source cost model even though charging wear is unconventional.
    """
    throughput = (np.asarray(dch_ac, dtype=float).sum()
                  + np.asarray(dch_dc, dtype=float).sum()
                  + np.asarray(ch_ac, dtype=float).sum()
                  + np.asarray(ch_dc, dtype=float).sum())
    return catalog.c_deg * float(throughput)


def shedding_cost(lcl_ac, lcl_dc, lnl_ac, lnl_dc,
                  catalog: DeviceCatalog) -> tuple[float, float]:
    """Islanded-mode lost-load penalties for one day, (critical, non-critical)."""
    critical = np.asarray(lcl_ac, dtype=float).sum() + np.asarray(lcl_dc, dtype=float).sum()
    noncritical = np.asarray(lnl_ac, dtype=float).sum() + np.asarray(lnl_dc, dtype=float).sum()
    return catalog.voll_cl * float(critical), catalog.voll_nl * float(noncritical)


def annualize_expected(scenario_set: ScenarioSet, per_day_costs, kind: str) -> float:
    """Scale probability-weighted per-day costs to $/yr.

    Energy, degradation and shedding costs recur daily
    (``annual_day_weight`` times per year); the demand charge recurs per
    billing period (``annual_demand_weight`` times per year).
    """
    if kind not in ANNUALIZE_KINDS:
        raise ValidationError(f"kind must be one of {ANNUALIZE_KINDS}, got {kind!r}")
    costs = np.asarray(per_day_costs, dtype=float)
    if costs.shape != (len(scenario_set.days),):
        raise ValidationError(f"expected one cost per scenario "
                              f"({len(scenario_set.days)}), got shape {costs.shape}")
    expected = float(scenario_set.probabilities @ costs)
    weight = (scenario_set.annual_demand_weight if kind == "demand"
              else scenario_set.annual_day_weight)
    return weight * expected
