"""The audit's constraint checks written one scalar at a time, as a reference.

``scalar_audit`` evaluates every residual of ``dersizer.audit.check_solution``
with plain Python arithmetic in a loop over scenarios and intervals. The
block audit must give the same largest residual and the same violations,
bit for bit, because each residual is the same IEEE expression. NaN
propagates through every residual as it does in numpy, and in both audits
a residual that is not a number counts as infinite.
"""

import math

from dersizer.audit import AUDIT_TOL


class _Collector:
    def __init__(self):
        self.max_residual = 0.0
        self.violations = []

    def equal(self, family, scenario, interval, lhs, rhs):
        measure = abs(lhs - rhs) / max(1.0, abs(rhs))
        self._record(family, scenario, interval, measure)

    def at_most(self, family, scenario, interval, lhs, rhs):
        excess = lhs - rhs
        measure = (0.0 if excess <= 0.0 else excess) / max(1.0, abs(rhs))
        self._record(family, scenario, interval, measure)

    def _record(self, family, scenario, interval, measure):
        if math.isnan(measure):
            measure = math.inf
        self.max_residual = max(self.max_residual, measure)
        if measure > AUDIT_TOL:
            self.violations.append((family, scenario, interval, float(measure)))


def _off_integer(value):
    """|value - round(value)|; NaN where round() takes no value, as in numpy."""
    return abs(value - round(value)) if math.isfinite(value) else math.nan


def _min(a, b):
    """min(a, b), NaN if either is NaN, as in numpy."""
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def scalar_audit(solution, scenario_set, catalog, tariff):
    """(largest normalized residual, [(family, scenario, interval, residual)])."""
    grid, isl = solution.grid, solution.islanded
    caps = solution.capacities
    x_pv, x_es = caps["pv"], caps["es"]
    x_ic, x_inv, x_con = caps["ic"], caps["inv"], caps["con"]

    # Big-M values recomputed here from their documented formulas.
    max_load = max(float(day.total_load().max()) for day in scenario_set.days)
    m_flow = max_load + catalog.pv_max * catalog.eta_con \
        + catalog.es_max * catalog.eta_dch
    if m_flow <= 0:
        m_flow = 1.0
    m_es = catalog.es_max

    c = _Collector()
    rho = catalog.rho_ep

    c.at_most("pv_cap", "sizing", None, x_pv,
              catalog.pv_max if solution.case.allow_pv else 0.0)
    c.at_most("es_cap", "sizing", None, x_es,
              catalog.es_max if solution.case.allow_es else 0.0)
    for name in ("pv", "es", "ic", "inv", "con"):
        c.at_most("capacity_nonneg", "sizing", None, -caps[name], 0.0)

    for s, day in enumerate(scenario_set.days):
        sid = day.id
        t_count = day.intervals
        c.at_most("peak_cap", sid, None, float(grid.p_peak[s]), tariff.peak_cap)

        if isinstance(solution.soc_boundary, str):
            c.equal("soc_boundary", sid, None, grid.soc[s, 0], grid.soc[s, t_count])
        else:
            c.equal("soc_boundary", sid, None, grid.soc[s, 0],
                    float(solution.soc_boundary) * rho * x_es)
        for t in range(t_count + 1):
            c.at_most("soc_bounds", sid, t, catalog.alpha_min * rho * x_es,
                      grid.soc[s, t])
            c.at_most("soc_bounds", sid, t, grid.soc[s, t],
                      catalog.alpha_max * rho * x_es)

        for t in range(t_count):
            cl_ac, cl_dc = day.cl_ac[t], day.cl_dc[t]
            nl_ac, nl_dc = day.nl_ac[t], day.nl_dc[t]
            avail = day.pv_availability[t]
            p_grid = grid.p_grid[s, t]
            v = grid.v_pv[s, t]
            dch_ac, dch_dc = grid.dch_ac[s, t], grid.dch_dc[s, t]
            ch_ac, ch_dc = grid.ch_ac[s, t], grid.ch_dc[s, t]
            f_ac, f_in, f_out = grid.f_ac[s, t], grid.f_dc_in[s, t], grid.f_dc_out[s, t]
            z, y = grid.z_flow[s, t], grid.y_dch[s, t]
            u, k = grid.u_dch[s, t], grid.k_dch[s, t]
            soc_prev, soc_now = grid.soc[s, t], grid.soc[s, t + 1]

            for name, value in (("grid_nonneg", p_grid), ("pv_nonneg", v),
                                ("battery_nonneg", dch_ac), ("battery_nonneg", dch_dc),
                                ("battery_nonneg", ch_ac), ("battery_nonneg", ch_dc),
                                ("flow_nonneg", f_in), ("flow_nonneg", f_out),
                                ("aux_nonneg", u), ("aux_nonneg", k)):
                c.at_most(name, sid, t, -value, 0.0)

            c.equal("ac_balance", sid, t,
                    dch_ac * catalog.eta_inv - ch_ac / catalog.eta_inv + p_grid,
                    f_ac + cl_ac + nl_ac)
            c.equal("dc_balance", sid, t,
                    (dch_dc + v) * catalog.eta_con - ch_dc / catalog.eta_con,
                    f_out - f_in + cl_dc + nl_dc)
            c.equal("ic_link", sid, t, f_ac,
                    f_in / catalog.eta_ic - f_out * catalog.eta_ic)
            c.at_most("flow_in_cap", sid, t, f_in, m_flow * z)
            c.at_most("flow_out_cap", sid, t, f_out, m_flow * (1.0 - z))
            c.equal("soc_step", sid, t, soc_now,
                    soc_prev + (ch_ac + ch_dc) * catalog.eta_ch
                    - (dch_ac + dch_dc) / catalog.eta_dch)
            c.at_most("pv_limit", sid, t, v, avail * x_pv)
            c.at_most("peak_link", sid, t, p_grid, float(grid.p_peak[s]))

            c.equal("product_split", sid, t, u, x_es - k)
            c.at_most("product_on", sid, t, u, m_es * y)
            c.at_most("product_off", sid, t, k, m_es * (1.0 - y))
            c.at_most("dch_cap", sid, t, dch_ac + dch_dc, u)
            c.at_most("ch_cap", sid, t, ch_ac + ch_dc, x_es - u)
            c.equal("product_exact", sid, t, u, x_es * y)
            for name, value in (("flow_dir_binary", z), ("dch_state_binary", y)):
                c.at_most(name, sid, t, _off_integer(value), 0.0)
            c.at_most("charge_complementarity", sid, t,
                      _min(dch_ac + dch_dc, ch_ac + ch_dc), 0.0)
            c.at_most("flow_complementarity", sid, t, _min(f_in, f_out), 0.0)

            c.at_most("inv_sizing", sid, t, dch_ac + ch_ac / catalog.eta_inv, x_inv)
            c.at_most("con_sizing", sid, t,
                      x_pv + dch_dc + ch_dc / catalog.eta_con, x_con)
            c.at_most("ic_sizing", sid, t, f_in / catalog.eta_ic, x_ic)
            c.at_most("ic_sizing", sid, t, f_out, x_ic)

            # Islanded one-interval contingency fed by soc carried into t.
            iv = isl.i_v_pv[s, t]
            idch_ac, idch_dc = isl.i_dch_ac[s, t], isl.i_dch_dc[s, t]
            if_ac, if_in, if_out = isl.i_f_ac[s, t], isl.i_f_dc_in[s, t], \
                isl.i_f_dc_out[s, t]
            zi = isl.i_z_flow[s, t]
            lcl_ac, lcl_dc = isl.shed_cl_ac[s, t], isl.shed_cl_dc[s, t]
            lnl_ac, lnl_dc = isl.shed_nl_ac[s, t], isl.shed_nl_dc[s, t]

            for name, value in (("isl_pv_nonneg", iv), ("isl_battery_nonneg", idch_ac),
                                ("isl_battery_nonneg", idch_dc),
                                ("isl_flow_nonneg", if_in), ("isl_flow_nonneg", if_out)):
                c.at_most(name, sid, t, -value, 0.0)
            for name, shed_value, limit in (
                    ("shed_cl_bounds", lcl_ac, cl_ac), ("shed_cl_bounds", lcl_dc, cl_dc),
                    ("shed_nl_bounds", lnl_ac, nl_ac), ("shed_nl_bounds", lnl_dc, nl_dc)):
                c.at_most(name, sid, t, -shed_value, 0.0)
                c.at_most(name, sid, t, shed_value, limit)

            c.equal("isl_ac_balance", sid, t, idch_ac * catalog.eta_inv,
                    if_ac + cl_ac - lcl_ac + nl_ac - lnl_ac)
            c.equal("isl_dc_balance", sid, t, (idch_dc + iv) * catalog.eta_con,
                    if_out - if_in + cl_dc - lcl_dc + nl_dc - lnl_dc)
            c.equal("isl_ic_link", sid, t, if_ac,
                    if_in / catalog.eta_ic - if_out * catalog.eta_ic)
            c.at_most("isl_flow_in_cap", sid, t, if_in, m_flow * zi)
            c.at_most("isl_flow_out_cap", sid, t, if_out, m_flow * (1.0 - zi))
            c.at_most("isl_pv_limit", sid, t, iv, avail * x_pv)
            c.at_most("isl_dch_power", sid, t, idch_ac + idch_dc, x_es)
            c.at_most("isl_dch_energy", sid, t, idch_ac + idch_dc, soc_prev)
            c.at_most("isl_flow_dir_binary", sid, t, _off_integer(zi), 0.0)
            c.at_most("isl_flow_complementarity", sid, t, _min(if_in, if_out), 0.0)

            c.at_most("inv_sizing_isl", sid, t, idch_ac, x_inv)
            c.at_most("con_sizing_isl", sid, t, x_pv + idch_dc, x_con)
            c.at_most("ic_sizing_isl", sid, t, if_in / catalog.eta_ic, x_ic)
            c.at_most("ic_sizing_isl", sid, t, if_out, x_ic)

    return float(c.max_residual), c.violations
