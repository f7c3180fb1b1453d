"""Translate scenarios, device economics and a tariff into the sizing MILP.

The model couples three blocks through the five sizing variables:

* grid-connected dispatch per scenario interval: bus balances on the AC
  and DC side, bidirectional interfacing-converter flow with a binary
  direction indicator, battery charge/discharge with a binary discharge
  state made linear through an exact auxiliary-variable reformulation,
  state-of-charge dynamics, the PV availability cap and the billed peak;
* a one-interval islanded contingency at every scenario interval, fed by
  the stored energy carried into that interval, where load may be shed at
  the two lost-load prices (the contingency is reserve accounting and
  does not perturb the grid-connected trajectory);
* converter sizing envelopes that force each converter rating above every
  flow it ever carries in either mode.

Day-scale operating costs enter the objective pre-scaled to $/yr using
the scenario-set weights, so the solver objective is directly the
annualized total cost.

The islanded DC-bus balance mirrors the grid-connected one with shedding
terms; state-of-charge defaults to a cyclic day boundary with the
boundary column free inside the usable band (a fixed starting fraction is
available instead).

``build_model`` is a pure function and instances are immutable once
built, so models for different cases may be built and solved
concurrently.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import numpy as np

from .audit import recompute_cost_breakdown
from .data_model import DeviceCatalog, ScenarioSet, TariffPlan, validate_scenario_set
from .errors import BuildError, SolverError
from .milp_instance import EQ, LE, GE, MilpInstance, ModelBuilder
from .solution import CaseSpec, GridDispatch, IslandedDispatch, SizingSolution


def expected_dimensions(n_scenarios: int, intervals: int, case: CaseSpec) -> dict:
    """Documented column/row/binary counts as a function of (S, T, case)."""
    s, t = n_scenarios, intervals
    if case.allow_es:
        return {"n_cols": 5 + s * (t + 2) + 24 * s * t,
                "n_rows": 29 * s * t + s * (2 * t + 3),
                "n_binary": 3 * s * t}
    return {"n_cols": 5 + s + 15 * s * t,
            "n_rows": 19 * s * t,
            "n_binary": 2 * s * t}


def compute_big_m(scenario_set: ScenarioSet, catalog: DeviceCatalog,
                  tariff: TariffPlan) -> dict[str, float]:
    """Smallest documented valid big-M pair for the flow and battery rows.

    ``m_es`` is exact: the battery auxiliary never exceeds the battery
    rating cap. ``m_flow`` bounds any physically realizable bus exchange
    by the worst-case total load plus the delivered caps of both DER. A
    zero result means the model is degenerate (no load, no devices); the
    builder substitutes 1.0 there to keep rows well posed.
    """
    max_load = max(float(day.total_load().max()) for day in scenario_set.days)
    m_flow = max_load + catalog.pv_max * catalog.eta_con + catalog.es_max * catalog.eta_dch
    return {"m_flow": m_flow, "m_es": catalog.es_max}


def linearize_product(builder: ModelBuilder, x_col: int, y_col: int, m: float,
                      tag: str) -> tuple[int, int, tuple[int, ...]]:
    """Add columns and rows making ``u = x * y`` exact for binary ``y``.

    Emits ``u = x - k``, ``u <= m*y`` and ``k <= m*(1-y)`` with both
    auxiliaries bounded in [0, m]; at any feasible point with integral
    ``y`` this forces ``u`` to the product exactly. ``m`` must dominate
    the upper bound of ``x`` or feasible points would be cut off.
    """
    x_upper = builder.upper(x_col)
    if np.isfinite(x_upper) and m < x_upper - 1e-12:
        raise BuildError(f"{tag}: big-M {m} is below the upper bound {x_upper} of x")
    u = builder.add_col(f"u_{tag}", 0.0, m)
    k = builder.add_col(f"k_{tag}", 0.0, m)
    r1 = builder.add_row(f"udef_{tag}", [(u, 1.0), (x_col, -1.0), (k, 1.0)], EQ, 0.0)
    r2 = builder.add_row(f"uon_{tag}", [(u, 1.0), (y_col, -m)], LE, 0.0)
    r3 = builder.add_row(f"koff_{tag}", [(k, 1.0), (y_col, m)], LE, m)
    return u, k, (r1, r2, r3)


def build_model(scenario_set: ScenarioSet, catalog: DeviceCatalog,
                tariff: TariffPlan, case: CaseSpec, *,
                soc_boundary: str | float = "cyclic") -> MilpInstance:
    """Build the sizing MILP for one study case.

    ``soc_boundary`` is ``"cyclic"`` (start equals end of day, both free
    within the usable band) or a fraction of the battery's energy capacity
    fixing the start-of-day state.

    ``meta["families"]`` names the variable families in build order, each
    by its column-name prefix, and ``meta["col_family"]`` gives every
    column's position in that tuple as one int8 code per column;
    :func:`variable_blocks` turns them into index arrays.
    """
    report = validate_scenario_set(scenario_set)
    if not report.ok:
        raise BuildError(f"scenario set invalid: {report}")
    t_count = scenario_set.intervals
    if tariff.intervals != t_count:
        raise BuildError(f"tariff has {tariff.intervals} prices for {t_count} intervals")
    for eta in (catalog.eta_ic, catalog.eta_inv, catalog.eta_con,
                catalog.eta_ch, catalog.eta_dch):
        if eta <= 0:
            raise BuildError("efficiencies must be positive")
    if isinstance(soc_boundary, str):
        if soc_boundary != "cyclic":
            raise BuildError(f"unknown soc boundary {soc_boundary!r}")
    elif not 0.0 <= float(soc_boundary) <= 1.0:
        raise BuildError("fixed soc boundary must be a fraction in [0, 1]")

    big_m = compute_big_m(scenario_set, catalog, tariff)
    m_flow = big_m["m_flow"] if big_m["m_flow"] > 0 else 1.0
    m_es = big_m["m_es"]
    es_on, pv_on = case.allow_es, case.allow_pv

    b = ModelBuilder()
    x_pv = b.add_col("x_pv", 0.0, catalog.pv_max if pv_on else 0.0, catalog.c_pv)
    x_es = b.add_col("x_es", 0.0, catalog.es_max if es_on else 0.0, catalog.c_es)
    x_ic = b.add_col("x_ic", 0.0, np.inf, catalog.c_ic)
    x_inv = b.add_col("x_inv", 0.0, np.inf if es_on else 0.0, catalog.c_inv)
    x_con = b.add_col("x_con", 0.0, np.inf, catalog.c_con)

    # Column indices of every variable family, in (scenario, interval) order.
    families: dict[str, list[int]] = defaultdict(list)
    families["x"] = [x_pv, x_es, x_ic, x_inv, x_con]

    def add(family: str, st: str, lower: float = 0.0, upper: float = np.inf,
            objective: float = 0.0, binary: bool = False) -> int:
        index = b.add_col(f"{family}_{st}", lower, upper, objective, binary)
        families[family].append(index)
        return index

    rho_cap = catalog.rho_ep  # kWh of energy capacity per kW of rating

    for s, day in enumerate(scenario_set.days):
        w_day = day.probability * scenario_set.annual_day_weight
        w_dem = day.probability * scenario_set.annual_demand_weight
        p_peak = add("p_peak", f"s{s}", 0.0, tariff.peak_cap,
                     w_dem * tariff.demand_price)

        soc = {}
        if es_on:
            for t in range(t_count + 1):
                soc[t] = add("soc", f"s{s}_t{t}")
                b.add_row(f"soc_lo_s{s}_t{t}",
                          [(soc[t], 1.0), (x_es, -catalog.alpha_min * rho_cap)], GE, 0.0)
                b.add_row(f"soc_hi_s{s}_t{t}",
                          [(soc[t], 1.0), (x_es, -catalog.alpha_max * rho_cap)], LE, 0.0)
            if soc_boundary == "cyclic":
                b.add_row(f"soc_cycle_s{s}",
                          [(soc[0], 1.0), (soc[t_count], -1.0)], EQ, 0.0)
            else:
                frac = float(soc_boundary)
                b.add_row(f"soc_start_s{s}",
                          [(soc[0], 1.0), (x_es, -frac * rho_cap)], EQ, 0.0)

        for t in range(1, t_count + 1):
            ti = t - 1  # 0-based index into the day series
            st = f"s{s}_t{t}"
            cl_ac, cl_dc = day.cl_ac[ti], day.cl_dc[ti]
            nl_ac, nl_dc = day.nl_ac[ti], day.nl_dc[ti]
            avail = day.pv_availability[ti]

            p_grid = add("p_grid", st, 0.0, np.inf, w_day * tariff.energy_price[ti])
            v_pv = add("v_pv", st, 0.0, np.inf)
            f_ac = add("f_ac", st, -np.inf, np.inf)
            f_in = add("f_dc_in", st, 0.0, np.inf)
            f_out = add("f_dc_out", st, 0.0, np.inf)
            z = add("z_flow", st, 0.0, 1.0, binary=True)

            if es_on:
                deg = w_day * catalog.c_deg
                dch_ac = add("dch_ac", st, 0.0, np.inf, deg)
                dch_dc = add("dch_dc", st, 0.0, np.inf, deg)
                ch_ac = add("ch_ac", st, 0.0, np.inf, deg)
                ch_dc = add("ch_dc", st, 0.0, np.inf, deg)
                y = add("y_dch", st, 0.0, 1.0, binary=True)
                u, k, _rows = linearize_product(b, x_es, y, m_es, f"dch_{st}")
                families["u_dch"].append(u)
                families["k_dch"].append(k)

            # AC and DC bus balances; no shedding while grid-connected.
            ac_terms = [(p_grid, 1.0), (f_ac, -1.0)]
            if es_on:
                ac_terms += [(dch_ac, catalog.eta_inv), (ch_ac, -1.0 / catalog.eta_inv)]
            b.add_row(f"bal_ac_{st}", ac_terms, EQ, cl_ac + nl_ac)

            dc_terms = [(v_pv, catalog.eta_con), (f_out, -1.0), (f_in, 1.0)]
            if es_on:
                dc_terms += [(dch_dc, catalog.eta_con), (ch_dc, -1.0 / catalog.eta_con)]
            b.add_row(f"bal_dc_{st}", dc_terms, EQ, cl_dc + nl_dc)

            b.add_row(f"ic_link_{st}",
                      [(f_ac, 1.0), (f_in, -1.0 / catalog.eta_ic),
                       (f_out, catalog.eta_ic)], EQ, 0.0)
            b.add_row(f"flow_in_cap_{st}", [(f_in, 1.0), (z, -m_flow)], LE, 0.0)
            b.add_row(f"flow_out_cap_{st}", [(f_out, 1.0), (z, m_flow)], LE, m_flow)

            if es_on:
                b.add_row(f"soc_step_{st}",
                          [(soc[t], 1.0), (soc[t - 1], -1.0),
                           (ch_ac, -catalog.eta_ch), (ch_dc, -catalog.eta_ch),
                           (dch_ac, 1.0 / catalog.eta_dch),
                           (dch_dc, 1.0 / catalog.eta_dch)], EQ, 0.0)
                b.add_row(f"dch_cap_{st}",
                          [(dch_ac, 1.0), (dch_dc, 1.0), (u, -1.0)], LE, 0.0)
                b.add_row(f"ch_cap_{st}",
                          [(ch_ac, 1.0), (ch_dc, 1.0), (x_es, -1.0), (u, 1.0)],
                          LE, 0.0)

            b.add_row(f"pv_avail_{st}", [(v_pv, 1.0), (x_pv, -avail)], LE, 0.0)
            b.add_row(f"peak_link_{st}", [(p_grid, 1.0), (p_peak, -1.0)], LE, 0.0)

            # Islanded one-interval contingency at this interval.
            i_v = add("i_v_pv", st, 0.0, np.inf)
            i_f_ac = add("i_f_ac", st, -np.inf, np.inf)
            i_f_in = add("i_f_dc_in", st, 0.0, np.inf)
            i_f_out = add("i_f_dc_out", st, 0.0, np.inf)
            zi = add("i_z_flow", st, 0.0, 1.0, binary=True)
            lcl_ac_c = add("shed_cl_ac", st, 0.0, cl_ac, w_day * catalog.voll_cl)
            lcl_dc_c = add("shed_cl_dc", st, 0.0, cl_dc, w_day * catalog.voll_cl)
            lnl_ac_c = add("shed_nl_ac", st, 0.0, nl_ac, w_day * catalog.voll_nl)
            lnl_dc_c = add("shed_nl_dc", st, 0.0, nl_dc, w_day * catalog.voll_nl)
            if es_on:
                i_dch_ac = add("i_dch_ac", st, 0.0, np.inf)
                i_dch_dc = add("i_dch_dc", st, 0.0, np.inf)

            iac_terms = [(i_f_ac, -1.0), (lcl_ac_c, 1.0), (lnl_ac_c, 1.0)]
            if es_on:
                iac_terms.append((i_dch_ac, catalog.eta_inv))
            b.add_row(f"i_bal_ac_{st}", iac_terms, EQ, cl_ac + nl_ac)

            idc_terms = [(i_v, catalog.eta_con), (i_f_out, -1.0), (i_f_in, 1.0),
                         (lcl_dc_c, 1.0), (lnl_dc_c, 1.0)]
            if es_on:
                idc_terms.append((i_dch_dc, catalog.eta_con))
            b.add_row(f"i_bal_dc_{st}", idc_terms, EQ, cl_dc + nl_dc)

            b.add_row(f"i_ic_link_{st}",
                      [(i_f_ac, 1.0), (i_f_in, -1.0 / catalog.eta_ic),
                       (i_f_out, catalog.eta_ic)], EQ, 0.0)
            b.add_row(f"i_flow_in_cap_{st}", [(i_f_in, 1.0), (zi, -m_flow)], LE, 0.0)
            b.add_row(f"i_flow_out_cap_{st}", [(i_f_out, 1.0), (zi, m_flow)],
                      LE, m_flow)
            b.add_row(f"i_pv_avail_{st}", [(i_v, 1.0), (x_pv, -avail)], LE, 0.0)
            if es_on:
                b.add_row(f"i_dch_power_{st}",
                          [(i_dch_ac, 1.0), (i_dch_dc, 1.0), (x_es, -1.0)], LE, 0.0)
                b.add_row(f"i_dch_energy_{st}",
                          [(i_dch_ac, 1.0), (i_dch_dc, 1.0), (soc[t - 1], -1.0)],
                          LE, 0.0)

            # Converter ratings envelope every flow they carry in either mode.
            if es_on:
                b.add_row(f"size_inv_{st}",
                          [(dch_ac, 1.0), (ch_ac, 1.0 / catalog.eta_inv),
                           (x_inv, -1.0)], LE, 0.0)
                b.add_row(f"size_inv_i_{st}", [(i_dch_ac, 1.0), (x_inv, -1.0)], LE, 0.0)
            con_terms = [(x_pv, 1.0), (x_con, -1.0)]
            if es_on:
                con_terms += [(dch_dc, 1.0), (ch_dc, 1.0 / catalog.eta_con)]
            b.add_row(f"size_con_{st}", con_terms, LE, 0.0)
            con_i_terms = [(x_pv, 1.0), (x_con, -1.0)]
            if es_on:
                con_i_terms.append((i_dch_dc, 1.0))
            b.add_row(f"size_con_i_{st}", con_i_terms, LE, 0.0)
            b.add_row(f"size_ic_in_{st}",
                      [(f_in, 1.0 / catalog.eta_ic), (x_ic, -1.0)], LE, 0.0)
            b.add_row(f"size_ic_out_{st}", [(f_out, 1.0), (x_ic, -1.0)], LE, 0.0)
            b.add_row(f"size_ic_i_in_{st}",
                      [(i_f_in, 1.0 / catalog.eta_ic), (x_ic, -1.0)], LE, 0.0)
            b.add_row(f"size_ic_i_out_{st}", [(i_f_out, 1.0), (x_ic, -1.0)], LE, 0.0)

    n_s = len(scenario_set.days)
    expected = expected_dimensions(n_s, t_count, case)
    if (b.n_cols, b.n_rows) != (expected["n_cols"], expected["n_rows"]):
        raise BuildError(f"built ({b.n_cols}, {b.n_rows}) columns/rows, expected "
                         f"({expected['n_cols']}, {expected['n_rows']})")
    col_family = np.empty(b.n_cols, dtype=np.int8)
    for code, cols in enumerate(families.values()):
        col_family[cols] = code
    instance = b.build(meta={
        "families": tuple(families),
        "col_family": col_family,
        "scenarios": n_s,
        "intervals": t_count,
        "case": case,
        "m_flow": m_flow,
        "m_es": m_es,
        "soc_boundary": soc_boundary,
        "expected_dimensions": expected,
        "scenario_set": scenario_set,
        "catalog": catalog,
        "tariff": tariff,
    })
    # Heuristic hint for the reference solver: a binary assignment that stays
    # feasible whenever grid supply alone can carry the load (import direction
    # open on both buses, battery held in the charging state). Used only to
    # seed an incumbent; optimality proofs never rely on it.
    blocks = variable_blocks(instance)
    safe = dict.fromkeys(blocks["z_flow"].ravel().tolist(), 1.0)
    safe.update(dict.fromkeys(blocks["i_z_flow"].ravel().tolist(), 1.0))
    if es_on:
        safe.update(dict.fromkeys(blocks["y_dch"].ravel().tolist(), 0.0))
    instance.meta["binary_safe_value"] = safe
    instance.validate()
    return instance


def variable_blocks(instance: MilpInstance) -> dict[str, np.ndarray]:
    """Column indices of each variable family of a sizing model.

    ``x`` is (5,) in pv, es, ic, inv, con order, ``p_peak`` is (S,), ``soc``
    is (S, T+1) and every other family is (S, T), all in (scenario,
    interval) order. Families the case does not build are absent.
    """
    codes = instance.meta["col_family"]
    n_s = instance.meta["scenarios"]
    blocks = {}
    for code, family in enumerate(instance.meta["families"]):
        cols = np.flatnonzero(codes == code)
        blocks[family] = cols if family in ("x", "p_peak") else cols.reshape(n_s, -1)
    return blocks


def extract_solution(instance: MilpInstance, raw) -> SizingSolution:
    """Map a raw solver result back to named capacities and dispatch blocks.

    The solution's cost breakdown comes from the audit's
    ``recompute_cost_breakdown``, the one place that prices a solution.
    Infeasible results come back as an explicit infeasible solution, never
    a partial one. Unknown or unbounded statuses violate the solver
    contract for this model (it is bounded below by construction).
    """
    case: CaseSpec = instance.meta["case"]
    if raw.status == "infeasible":
        return SizingSolution(case=case, status="infeasible", objective=None,
                              gap=np.inf, capacities={}, grid=None, islanded=None,
                              breakdown=None)
    if raw.status not in ("optimal", "gap_optimal", "time_limit") or raw.x is None:
        raise SolverError(f"cannot extract from solver status {raw.status!r}")

    x = np.asarray(raw.x, dtype=float)
    n_s = instance.meta["scenarios"]
    t_count = instance.meta["intervals"]
    blocks = variable_blocks(instance)
    scenario_set: ScenarioSet = instance.meta["scenario_set"]

    def block(family: str, shape=(n_s, t_count)) -> np.ndarray:
        return x[blocks[family]] if family in blocks else np.zeros(shape)

    grid = GridDispatch(
        p_grid=block("p_grid"),
        pv_output=block("v_pv"),
        dch_ac=block("dch_ac"),
        dch_dc=block("dch_dc"),
        ch_ac=block("ch_ac"),
        ch_dc=block("ch_dc"),
        soc=block("soc", (n_s, t_count + 1)),
        flow_ac=block("f_ac"),
        flow_dc_in=block("f_dc_in"),
        flow_dc_out=block("f_dc_out"),
        z_flow=block("z_flow"),
        y_dch=block("y_dch"),
        u_dch=block("u_dch"),
        k_dch=block("k_dch"),
        p_peak=block("p_peak"),
    )
    islanded = IslandedDispatch(
        pv_output=block("i_v_pv"),
        dch_ac=block("i_dch_ac"),
        dch_dc=block("i_dch_dc"),
        flow_ac=block("i_f_ac"),
        flow_dc_in=block("i_f_dc_in"),
        flow_dc_out=block("i_f_dc_out"),
        z_flow=block("i_z_flow"),
        shed_cl_ac=block("shed_cl_ac"),
        shed_cl_dc=block("shed_cl_dc"),
        shed_nl_ac=block("shed_nl_ac"),
        shed_nl_dc=block("shed_nl_dc"),
    )
    solution = SizingSolution(
        case=case, status=raw.status, objective=float(raw.objective),
        gap=float(getattr(raw, "achieved_gap", 0.0) or 0.0),
        capacities=dict(zip(("pv", "es", "ic", "inv", "con"),
                            x[blocks["x"]].tolist())),
        grid=grid, islanded=islanded, breakdown=None,
        scenario_ids=tuple(day.id for day in scenario_set.days),
        soc_boundary=instance.meta["soc_boundary"],
    )
    breakdown = recompute_cost_breakdown(solution, scenario_set,
                                         instance.meta["catalog"], instance.meta["tariff"])
    return replace(solution, breakdown=breakdown)
