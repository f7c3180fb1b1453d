"""Trust-nothing verification of sizing solutions.

Every operating constraint and cost term is re-evaluated directly from
the extracted dispatch blocks. Each check is one numpy statement over its
variable family's whole block: (S, T) per scenario interval, (S, T+1) for
the state of charge, (S,) per scenario and a scalar for the sizing
decision. Nothing here touches the MILP builder's matrix or row
generation, so a bug shared with the matrix path cannot certify itself;
the big-M values are recomputed from their documented formulas locally.

Residuals are normalized by max(1, |rhs|) element by element, which puts
kW-scale and $-scale rows on the same footing. The tolerance,
``AUDIT_TOL`` (1e-6), is deliberately looser than the LP core's 1e-7 so
correct solutions never false-positive; a residual that is not a number
counts as infinite. Violations are listed in check order, then by
scenario, then by interval; a block's shape gives its location
(``"sizing"``, a day id, or a day id and an interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DAY_SERIES, DEVICES, DeviceCatalog, ScenarioSet, TariffPlan
from .finance import (CostBreakdown, annualize_expected, degradation_cost,
                      demand_charge, energy_charge, investment_cost, shedding_cost)
from .solution import SizingSolution

AUDIT_TOL = 1e-6


@dataclass(frozen=True)
class AuditViolation:
    family: str
    scenario: str
    interval: int | None
    residual: float

    def __str__(self) -> str:
        where = self.scenario if self.interval is None \
            else f"{self.scenario}, t={self.interval}"
        return f"{self.family} [{where}]: residual {self.residual:.3e}"


@dataclass(frozen=True)
class AuditReport:
    violations: tuple[AuditViolation, ...]
    max_residual: float
    breakdown: CostBreakdown
    objective_delta: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            "solution audit",
            "demand charges use a monthly billing convention "
            "(per-day charge scaled by the annual demand weight)",
            f"tolerance: {AUDIT_TOL:g}",
            f"max normalized residual: {self.max_residual:.3e}",
            f"objective recomputed: {self.breakdown.total:.6f}",
            f"objective delta vs solver: {self.objective_delta:.6e}",
            f"violations: {len(self.violations)}",
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines) + "\n"


class _Collector:
    """Each check's normalized residual block, in check order."""

    def __init__(self):
        self.checks: list[tuple[str, np.ndarray]] = []

    def equal(self, family, lhs, rhs):
        self.checks.append((family, np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))

    def at_most(self, family, lhs, rhs):
        self.checks.append((family, np.maximum(0.0, lhs - rhs)
                            / np.maximum(1.0, np.abs(rhs))))

    def finish(self, day_ids) -> tuple[float, list[AuditViolation]]:
        """The largest residual, and the violations if it exceeds ``AUDIT_TOL``."""
        every = np.concatenate([np.ravel(r) for _, r in self.checks])
        # max propagates NaN, which counts as infinite; max(0.0, ...) turns
        # -0.0 into 0.0.
        largest = float(np.max(every, initial=0.0))
        largest = np.inf if np.isnan(largest) else max(0.0, largest)
        found = []
        if largest > AUDIT_TOL:
            for family, residual in self.checks:
                residual = np.where(np.isnan(residual), np.inf, residual)
                for idx in np.argwhere(residual > AUDIT_TOL):
                    found.append(AuditViolation(
                        family, day_ids[idx[0]] if len(idx) else "sizing",
                        int(idx[1]) if len(idx) > 1 else None,
                        float(residual[tuple(idx)])))
        return largest, found


def recompute_cost_breakdown(solution: SizingSolution, scenario_set: ScenarioSet,
                             catalog: DeviceCatalog,
                             tariff: TariffPlan) -> CostBreakdown:
    """Rebuild every cost term of a solution from its dispatch series."""
    grid, isl = solution.grid, solution.islanded
    n_s = len(scenario_set.days)
    energy = [energy_charge(grid.p_grid[s], tariff) for s in range(n_s)]
    demand = [demand_charge(float(grid.p_peak[s]), tariff) for s in range(n_s)]
    wear = [degradation_cost(grid.dch_ac[s], grid.dch_dc[s], grid.ch_ac[s],
                             grid.ch_dc[s], catalog) for s in range(n_s)]
    shed = [shedding_cost(isl.shed_cl_ac[s], isl.shed_cl_dc[s],
                          isl.shed_nl_ac[s], isl.shed_nl_dc[s], catalog)
            for s in range(n_s)]
    return CostBreakdown(
        investment=investment_cost(solution.capacities, catalog),
        energy_charges=annualize_expected(scenario_set, energy, "energy"),
        demand_charges=annualize_expected(scenario_set, demand, "demand"),
        degradation=annualize_expected(scenario_set, wear, "degradation"),
        shed_critical=annualize_expected(scenario_set, [c for c, _ in shed],
                                         "shedding"),
        shed_noncritical=annualize_expected(scenario_set, [n for _, n in shed],
                                            "shedding"),
    )


def check_solution(solution: SizingSolution, scenario_set: ScenarioSet,
                   catalog: DeviceCatalog, tariff: TariffPlan) -> AuditReport:
    """Re-evaluate every model constraint at the solution point.

    Returns a report with one entry per violated constraint instance
    (family, scenario, interval, normalized residual) plus the recomputed
    cost breakdown and its total's delta against the solver's objective.
    """
    grid, isl = solution.grid, solution.islanded
    caps = solution.capacities
    x_pv, x_es = caps["pv"], caps["es"]
    x_ic, x_inv, x_con = caps["ic"], caps["inv"], caps["con"]
    days = scenario_set.days
    cl_ac, cl_dc, nl_ac, nl_dc, avail = (np.array([getattr(day, name) for day in days])
                                         for name in DAY_SERIES)

    # Big-M values recomputed here from their documented formulas.
    max_load = max(float(day.total_load().max()) for day in days)
    m_flow = max_load + catalog.pv_max * catalog.eta_con \
        + catalog.es_max * catalog.eta_dch
    if m_flow <= 0:
        m_flow = 1.0
    m_es = catalog.es_max

    c = _Collector()
    rho = catalog.rho_ep

    c.at_most("pv_cap", x_pv, catalog.pv_max if solution.case.allow_pv else 0.0)
    c.at_most("es_cap", x_es, catalog.es_max if solution.case.allow_es else 0.0)
    for name in DEVICES:
        c.at_most("capacity_nonneg", -caps[name], 0.0)

    c.at_most("peak_cap", grid.p_peak, tariff.peak_cap)
    if isinstance(solution.soc_boundary, str):
        c.equal("soc_boundary", grid.soc[:, 0], grid.soc[:, -1])
    else:
        c.equal("soc_boundary", grid.soc[:, 0],
                float(solution.soc_boundary) * rho * x_es)
    c.at_most("soc_bounds", catalog.alpha_min * rho * x_es, grid.soc)
    c.at_most("soc_bounds", grid.soc, catalog.alpha_max * rho * x_es)

    p_grid, v = grid.p_grid, grid.v_pv
    dch_ac, dch_dc, ch_ac, ch_dc = grid.dch_ac, grid.dch_dc, grid.ch_ac, grid.ch_dc
    f_ac, f_in, f_out = grid.f_ac, grid.f_dc_in, grid.f_dc_out
    z, y, u, k = grid.z_flow, grid.y_dch, grid.u_dch, grid.k_dch
    soc_prev, soc_now = grid.soc[:, :-1], grid.soc[:, 1:]

    for name, value in (("grid_nonneg", p_grid), ("pv_nonneg", v),
                        ("battery_nonneg", dch_ac), ("battery_nonneg", dch_dc),
                        ("battery_nonneg", ch_ac), ("battery_nonneg", ch_dc),
                        ("flow_nonneg", f_in), ("flow_nonneg", f_out),
                        ("aux_nonneg", u), ("aux_nonneg", k)):
        c.at_most(name, -value, 0.0)

    c.equal("ac_balance", dch_ac * catalog.eta_inv - ch_ac / catalog.eta_inv + p_grid,
            f_ac + cl_ac + nl_ac)
    c.equal("dc_balance", (dch_dc + v) * catalog.eta_con - ch_dc / catalog.eta_con,
            f_out - f_in + cl_dc + nl_dc)
    c.equal("ic_link", f_ac, f_in / catalog.eta_ic - f_out * catalog.eta_ic)
    c.at_most("flow_in_cap", f_in, m_flow * z)
    c.at_most("flow_out_cap", f_out, m_flow * (1.0 - z))
    c.equal("soc_step", soc_now,
            soc_prev + (ch_ac + ch_dc) * catalog.eta_ch
            - (dch_ac + dch_dc) / catalog.eta_dch)
    c.at_most("pv_limit", v, avail * x_pv)
    c.at_most("peak_link", p_grid, grid.p_peak[:, None])

    c.equal("product_split", u, x_es - k)
    c.at_most("product_on", u, m_es * y)
    c.at_most("product_off", k, m_es * (1.0 - y))
    c.at_most("dch_cap", dch_ac + dch_dc, u)
    c.at_most("ch_cap", ch_ac + ch_dc, x_es - u)
    c.equal("product_exact", u, x_es * y)
    for name, value in (("flow_dir_binary", z), ("dch_state_binary", y)):
        c.at_most(name, np.abs(value - np.round(value)), 0.0)
    c.at_most("charge_complementarity", np.minimum(dch_ac + dch_dc, ch_ac + ch_dc), 0.0)
    c.at_most("flow_complementarity", np.minimum(f_in, f_out), 0.0)

    c.at_most("inv_sizing", dch_ac + ch_ac / catalog.eta_inv, x_inv)
    c.at_most("con_sizing", x_pv + dch_dc + ch_dc / catalog.eta_con, x_con)
    c.at_most("ic_sizing", f_in / catalog.eta_ic, x_ic)
    c.at_most("ic_sizing", f_out, x_ic)

    # Islanded one-interval contingency fed by soc carried into t.
    iv, idch_ac, idch_dc = isl.i_v_pv, isl.i_dch_ac, isl.i_dch_dc
    if_ac, if_in, if_out = isl.i_f_ac, isl.i_f_dc_in, isl.i_f_dc_out
    zi = isl.i_z_flow
    lcl_ac, lcl_dc = isl.shed_cl_ac, isl.shed_cl_dc
    lnl_ac, lnl_dc = isl.shed_nl_ac, isl.shed_nl_dc

    for name, value in (("isl_pv_nonneg", iv), ("isl_battery_nonneg", idch_ac),
                        ("isl_battery_nonneg", idch_dc),
                        ("isl_flow_nonneg", if_in), ("isl_flow_nonneg", if_out)):
        c.at_most(name, -value, 0.0)
    for name, shed_value, limit in (
            ("shed_cl_bounds", lcl_ac, cl_ac), ("shed_cl_bounds", lcl_dc, cl_dc),
            ("shed_nl_bounds", lnl_ac, nl_ac), ("shed_nl_bounds", lnl_dc, nl_dc)):
        c.at_most(name, -shed_value, 0.0)
        c.at_most(name, shed_value, limit)

    c.equal("isl_ac_balance", idch_ac * catalog.eta_inv,
            if_ac + cl_ac - lcl_ac + nl_ac - lnl_ac)
    c.equal("isl_dc_balance", (idch_dc + iv) * catalog.eta_con,
            if_out - if_in + cl_dc - lcl_dc + nl_dc - lnl_dc)
    c.equal("isl_ic_link", if_ac, if_in / catalog.eta_ic - if_out * catalog.eta_ic)
    c.at_most("isl_flow_in_cap", if_in, m_flow * zi)
    c.at_most("isl_flow_out_cap", if_out, m_flow * (1.0 - zi))
    c.at_most("isl_pv_limit", iv, avail * x_pv)
    c.at_most("isl_dch_power", idch_ac + idch_dc, x_es)
    c.at_most("isl_dch_energy", idch_ac + idch_dc, soc_prev)
    c.at_most("isl_flow_dir_binary", np.abs(zi - np.round(zi)), 0.0)
    c.at_most("isl_flow_complementarity", np.minimum(if_in, if_out), 0.0)

    c.at_most("inv_sizing_isl", idch_ac, x_inv)
    c.at_most("con_sizing_isl", x_pv + idch_dc, x_con)
    c.at_most("ic_sizing_isl", if_in / catalog.eta_ic, x_ic)
    c.at_most("ic_sizing_isl", if_out, x_ic)

    max_residual, violations = c.finish([day.id for day in days])
    breakdown = recompute_cost_breakdown(solution, scenario_set, catalog, tariff)
    return AuditReport(violations=tuple(violations),
                       max_residual=max_residual,
                       breakdown=breakdown,
                       objective_delta=float(abs(breakdown.total - solution.objective)))
