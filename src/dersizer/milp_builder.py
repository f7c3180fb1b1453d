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

Layout. The builder declares each column family and each row family once,
as a block over (scenario, interval), and fills its bounds, costs,
right-hand sides and coefficients with one numpy operation per family or
term. ``_layout`` fixes the order: the five sizing columns come first, then
scenario by scenario its billed peak, its T+1 states of charge and, for
each interval in turn, one column of every dispatch family. Rows follow
the same scheme: per scenario the SoC band per state, the day boundary,
then per interval one row of every family. Names are
``{family}_s{s}_t{t}`` (``{family}_s{s}`` for one-per-scenario families).
The layout depends only on the model's shape (scenarios, intervals, case
and boundary rule), so it is made once per shape and models of one shape
share its index arrays, names and senses. Exact-zero coefficients are
dropped, so a night interval's PV cap has no ``x_pv`` entry.

``build_model`` is a pure function and instances are immutable once
built, so models for different cases may be built and solved
concurrently.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from numbers import Real
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from .data_model import DAY_SERIES, DEVICES, DeviceCatalog, ScenarioSet, TariffPlan
from .errors import BuildError, SolverError
from .milp_instance import EQ, GE, LE, MilpInstance
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


def compute_big_m(scenario_set: ScenarioSet, catalog: DeviceCatalog) -> dict[str, float]:
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


_X_NAMES = tuple(f"x_{device}" for device in DEVICES)


@lru_cache(maxsize=64)
def _layout(head: tuple[str, ...], n_s: int, sections: tuple) -> tuple:
    """Index arrays, names and senses of one side of a model, made once per shape.

    The items named ``head`` come first, as family ``x``. Then scenario by
    scenario come the sections ``(families, first, count)``, each a tuple of
    ``(family, sense)`` pairs (sense None for columns) repeated ``count``
    steps: one item per family in turn. Step ``i`` is interval ``first +
    i``, named ``{family}_s{s}_t{first + i}``, or the scenario itself
    (``{family}_s{s}``) when ``first`` is None.

    Returns a read-only mapping from family to read-only index array, in
    layout order: ``x`` is (len(head),), a ``first=None`` family (S,) and
    any other (S, count). Then the names in index order, and the senses of
    the items after the head. The result is cached, so builds of one shape
    share every object in it.
    """
    width = sum(len(families) * count for families, _, count in sections)
    index = {"x": np.arange(len(head))} if head else {}
    offset = len(head)
    for families, first, count in sections:
        steps = width * np.arange(n_s)[:, None] + len(families) * np.arange(count) + offset
        for pos, (family, _) in enumerate(families):
            index[family] = steps[:, 0] + pos if first is None else steps + pos
        offset += len(families) * count
    for block in index.values():
        block.setflags(write=False)
    items = [(family + tag, sense) for s in range(n_s) for families, first, count in sections
             for tag in ([f"_s{s}"] if first is None else
                         [f"_s{s}_t{t}" for t in range(first, first + count)])
             for family, sense in families]
    names, senses = zip(*items)
    return MappingProxyType(index), head + names, senses


def build_model(scenario_set: ScenarioSet, catalog: DeviceCatalog,
                tariff: TariffPlan, case: CaseSpec, *,
                soc_boundary: str | float = "cyclic") -> MilpInstance:
    """Build the sizing MILP for one study case.

    ``soc_boundary`` is ``"cyclic"`` (start equals end of day, both free
    within the usable band) or a fraction of the battery's energy capacity
    fixing the start-of-day state.

    ``meta["blocks"]`` maps each variable family, in build order and by
    its column-name prefix, to its column indices in (scenario, interval)
    order: ``x`` is (5,) in ``DEVICES`` order, ``p_peak`` is (S,), ``soc``
    is (S, T+1) and every other family is (S, T). Families the case does
    not build are absent. The mapping and its arrays are read-only and
    shared by every model of the same shape.
    ``meta["binary_on"]`` and ``meta["binary_off"]`` state which flows
    each binary gates, as (2, n) arrays of (position in ``binary_indices``,
    column) pairs: a binary must be 1 where its on columns carry flow and 0
    where its off columns do. ``meta["binary_free"]`` marks the binaries
    either value serves when neither carries flow; the others are 0 then.
    """
    t_count = scenario_set.intervals
    if tariff.intervals != t_count:
        raise BuildError(f"tariff has {tariff.intervals} prices for {t_count} intervals")
    cyclic = isinstance(soc_boundary, str)
    if cyclic:
        if soc_boundary != "cyclic":
            raise BuildError(f"unknown soc boundary {soc_boundary!r}")
    elif (isinstance(soc_boundary, bool) or not isinstance(soc_boundary, Real)
          or not 0.0 <= soc_boundary <= 1.0):
        raise BuildError("fixed soc boundary must be a fraction in [0, 1], "
                         f"got {soc_boundary!r}")

    big_m = compute_big_m(scenario_set, catalog)
    m_flow = big_m["m_flow"] if big_m["m_flow"] > 0 else 1.0
    m_es = big_m["m_es"]
    es_on, pv_on = case.allow_es, case.allow_pv
    days = scenario_set.days
    n_s = len(days)

    # Columns: the five sizing variables, then per scenario its billed peak,
    # its T+1 states of charge and, per interval, the dispatch families.
    dispatch = ("p_grid", "v_pv", "f_ac", "f_dc_in", "f_dc_out", "z_flow",
                *(("dch_ac", "dch_dc", "ch_ac", "ch_dc", "y_dch", "u_dch", "k_dch")
                  if es_on else ()),
                "i_v_pv", "i_f_ac", "i_f_dc_in", "i_f_dc_out", "i_z_flow",
                "shed_cl_ac", "shed_cl_dc", "shed_nl_ac", "shed_nl_dc",
                *(("i_dch_ac", "i_dch_dc") if es_on else ()))
    col_sections = [(("p_peak",), None, 1),
                    *([(("soc",), 0, t_count + 1)] if es_on else []),
                    (dispatch, 1, t_count)]
    c, col_names, _ = _layout(_X_NAMES, n_s, tuple(  # c[family]: column indices
        (tuple((family, None) for family in families), first, count)
        for families, first, count in col_sections))
    n_cols = len(col_names)
    x_pv, x_es, x_ic, x_inv, x_con = range(len(_X_NAMES))

    series = {attr: np.array([getattr(day, attr) for day in days]) for attr in DAY_SERIES}
    probability = scenario_set.probabilities
    w_day = probability[:, None] * scenario_set.annual_day_weight
    w_dem = probability * scenario_set.annual_demand_weight

    lower = np.zeros(n_cols)
    upper = np.full(n_cols, np.inf)
    objective = np.zeros(n_cols)
    col_binary = np.zeros(n_cols, dtype=bool)
    sizing = slice(len(_X_NAMES))
    upper[sizing] = (catalog.pv_max if pv_on else 0.0, catalog.es_max if es_on else 0.0,
                     np.inf, np.inf if es_on else 0.0, np.inf)
    objective[sizing] = [getattr(catalog, f"c_{device}") for device in DEVICES]
    upper[c["p_peak"]] = tariff.peak_cap
    objective[c["p_peak"]] = w_dem * tariff.demand_price
    objective[c["p_grid"]] = w_day * tariff.energy_price
    lower[c["f_ac"]] = lower[c["i_f_ac"]] = -np.inf
    for family in ("z_flow", "i_z_flow", "y_dch"):
        if family in c:
            upper[c[family]] = 1.0
            col_binary[c[family]] = True
    for load, voll in (("cl_ac", catalog.voll_cl), ("cl_dc", catalog.voll_cl),
                       ("nl_ac", catalog.voll_nl), ("nl_dc", catalog.voll_nl)):
        upper[c[f"shed_{load}"]] = series[load]
        objective[c[f"shed_{load}"]] = w_day * voll
    if es_on:
        # The product rows below are exact only while M covers x_es.
        if m_es < upper[x_es] - 1e-12:
            raise BuildError(f"big-M {m_es} is below the upper bound {upper[x_es]} of x_es")
        upper[c["u_dch"]] = upper[c["k_dch"]] = m_es
        for family in ("dch_ac", "dch_dc", "ch_ac", "ch_dc"):
            objective[c[family]] = w_day * catalog.c_deg

    # Rows: (family, sense, rhs, terms), each term (columns, coefficient),
    # broadcast over the family's (S, count) rows.
    ac_load = series["cl_ac"] + series["nl_ac"]
    dc_load = series["cl_dc"] + series["nl_dc"]
    avail = series["pv_availability"]
    eta_ic, eta_inv, eta_con = catalog.eta_ic, catalog.eta_inv, catalog.eta_con
    rho_cap = catalog.rho_ep  # kWh of energy capacity per kW of rating
    if es_on:
        soc, u, k, y = c["soc"], c["u_dch"], c["k_dch"], c["y_dch"]
        dch_ac, dch_dc, ch_ac, ch_dc = c["dch_ac"], c["dch_dc"], c["ch_ac"], c["ch_dc"]
        i_dch_ac, i_dch_dc = c["i_dch_ac"], c["i_dch_dc"]
        band = [("soc_lo", GE, 0.0, [(soc, 1.0), (x_es, -catalog.alpha_min * rho_cap)]),
                ("soc_hi", LE, 0.0, [(soc, 1.0), (x_es, -catalog.alpha_max * rho_cap)])]
        if cyclic:
            boundary = [("soc_cycle", EQ, 0.0, [(soc[:, 0], 1.0), (soc[:, -1], -1.0)])]
        else:
            boundary = [("soc_start", EQ, 0.0, [(soc[:, 0], 1.0),
                                                (x_es, -float(soc_boundary) * rho_cap)])]
        # Exact product u = x_es * y: u = x_es - k, u <= M y, k <= M (1 - y).
        product = [("udef_dch", EQ, 0.0, [(u, 1.0), (x_es, -1.0), (k, 1.0)]),
                   ("uon_dch", LE, 0.0, [(u, 1.0), (y, -m_es)]),
                   ("koff_dch", LE, m_es, [(k, 1.0), (y, m_es)])]
        battery_rows = [
            ("soc_step", EQ, 0.0, [(soc[:, 1:], 1.0), (soc[:, :-1], -1.0),
                                   (ch_ac, -catalog.eta_ch), (ch_dc, -catalog.eta_ch),
                                   (dch_ac, 1.0 / catalog.eta_dch),
                                   (dch_dc, 1.0 / catalog.eta_dch)]),
            ("dch_cap", LE, 0.0, [(dch_ac, 1.0), (dch_dc, 1.0), (u, -1.0)]),
            ("ch_cap", LE, 0.0, [(ch_ac, 1.0), (ch_dc, 1.0), (x_es, -1.0), (u, 1.0)])]
        islanded_battery = [
            ("i_dch_power", LE, 0.0, [(i_dch_ac, 1.0), (i_dch_dc, 1.0), (x_es, -1.0)]),
            ("i_dch_energy", LE, 0.0, [(i_dch_ac, 1.0), (i_dch_dc, 1.0),
                                       (soc[:, :-1], -1.0)]),
            ("size_inv", LE, 0.0, [(dch_ac, 1.0), (ch_ac, 1.0 / eta_inv), (x_inv, -1.0)]),
            ("size_inv_i", LE, 0.0, [(i_dch_ac, 1.0), (x_inv, -1.0)])]
        ac_storage = [(dch_ac, eta_inv), (ch_ac, -1.0 / eta_inv)]
        dc_storage = [(dch_dc, eta_con), (ch_dc, -1.0 / eta_con)]
        i_ac_storage, i_dc_storage = [(i_dch_ac, eta_inv)], [(i_dch_dc, eta_con)]
        con_storage = [(dch_dc, 1.0), (ch_dc, 1.0 / eta_con)]
        i_con_storage = [(i_dch_dc, 1.0)]
    else:
        band = boundary = product = battery_rows = islanded_battery = []
        ac_storage = dc_storage = i_ac_storage = i_dc_storage = []
        con_storage = i_con_storage = []
    f_in, f_out, i_f_in, i_f_out = c["f_dc_in"], c["f_dc_out"], c["i_f_dc_in"], c["i_f_dc_out"]
    per_interval = [
        *product,
        # AC and DC bus balances; no shedding while grid-connected.
        ("bal_ac", EQ, ac_load, [(c["p_grid"], 1.0), (c["f_ac"], -1.0), *ac_storage]),
        ("bal_dc", EQ, dc_load, [(c["v_pv"], eta_con), (f_out, -1.0), (f_in, 1.0),
                                 *dc_storage]),
        ("ic_link", EQ, 0.0, [(c["f_ac"], 1.0), (f_in, -1.0 / eta_ic), (f_out, eta_ic)]),
        ("flow_in_cap", LE, 0.0, [(f_in, 1.0), (c["z_flow"], -m_flow)]),
        ("flow_out_cap", LE, m_flow, [(f_out, 1.0), (c["z_flow"], m_flow)]),
        *battery_rows,
        ("pv_avail", LE, 0.0, [(c["v_pv"], 1.0), (x_pv, -avail)]),
        ("peak_link", LE, 0.0, [(c["p_grid"], 1.0), (c["p_peak"][:, None], -1.0)]),
        # Islanded one-interval contingency at this interval.
        ("i_bal_ac", EQ, ac_load, [(c["i_f_ac"], -1.0), (c["shed_cl_ac"], 1.0),
                                   (c["shed_nl_ac"], 1.0), *i_ac_storage]),
        ("i_bal_dc", EQ, dc_load, [(c["i_v_pv"], eta_con), (i_f_out, -1.0), (i_f_in, 1.0),
                                   (c["shed_cl_dc"], 1.0), (c["shed_nl_dc"], 1.0),
                                   *i_dc_storage]),
        ("i_ic_link", EQ, 0.0, [(c["i_f_ac"], 1.0), (i_f_in, -1.0 / eta_ic),
                                (i_f_out, eta_ic)]),
        ("i_flow_in_cap", LE, 0.0, [(i_f_in, 1.0), (c["i_z_flow"], -m_flow)]),
        ("i_flow_out_cap", LE, m_flow, [(i_f_out, 1.0), (c["i_z_flow"], m_flow)]),
        ("i_pv_avail", LE, 0.0, [(c["i_v_pv"], 1.0), (x_pv, -avail)]),
        *islanded_battery,
        # Converter ratings envelope every flow they carry in either mode.
        ("size_con", LE, 0.0, [(x_pv, 1.0), (x_con, -1.0), *con_storage]),
        ("size_con_i", LE, 0.0, [(x_pv, 1.0), (x_con, -1.0), *i_con_storage]),
        ("size_ic_in", LE, 0.0, [(f_in, 1.0 / eta_ic), (x_ic, -1.0)]),
        ("size_ic_out", LE, 0.0, [(f_out, 1.0), (x_ic, -1.0)]),
        ("size_ic_i_in", LE, 0.0, [(i_f_in, 1.0 / eta_ic), (x_ic, -1.0)]),
        ("size_ic_i_out", LE, 0.0, [(i_f_out, 1.0), (x_ic, -1.0)]),
    ]
    row_groups = [(band, 0, t_count + 1), (boundary, None, 1), (per_interval, 1, t_count)]
    r, row_names, row_sense = _layout((), n_s, tuple(  # r[family]: row indices
        (tuple((family, sense) for family, sense, _, _ in specs), first, count)
        for specs, first, count in row_groups))
    n_rows = len(row_names)

    expected = expected_dimensions(n_s, t_count, case)
    if (n_cols, n_rows) != (expected["n_cols"], expected["n_rows"]):
        raise BuildError(f"built ({n_cols}, {n_rows}) columns/rows, expected "
                         f"({expected['n_cols']}, {expected['n_rows']})")
    rhs = np.full(n_rows, np.nan)  # rows left unset fail validation
    blocks = []  # per family: (row, column, value) of every term, term by term
    for specs, _, _ in row_groups:
        for family, _, value, terms in specs:
            index = r[family]
            rhs[index] = value
            block = np.empty((3, len(terms)) + index.shape)
            block[0] = index
            for i, (columns, coef) in enumerate(terms):
                block[1, i], block[2, i] = columns, coef
            blocks.append(block.reshape(3, -1))
    rows, cols, values = np.concatenate(blocks, axis=1)
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)  # exact in float64
    kept = values != 0.0
    matrix = sp.coo_matrix((values[kept], (rows[kept], cols[kept])),
                           shape=(n_rows, n_cols)).tocsr()

    # The flows each binary gates, from the rows above: f_dc_in needs
    # z_flow = 1 and f_dc_out needs z_flow = 0 (likewise i_z_flow), and
    # discharge needs y_dch = 1 through u_dch. A y_dch of 1 also stops
    # charging, so y_dch is 0 without discharge. The solver's rounding dive
    # reads these; optimality proofs never rely on them.
    position = np.cumsum(col_binary) - 1    # a binary column's place in binary_indices
    on = [(c["z_flow"], f_in), (c["i_z_flow"], i_f_in)]
    off = [(c["z_flow"], f_out), (c["i_z_flow"], i_f_out)]
    free = col_binary.copy()
    if es_on:
        on += [(y, dch_ac), (y, dch_dc)]
        free[y] = False

    def gates(pairs):
        return np.array([np.concatenate([position[b].ravel() for b, _ in pairs]),
                         np.concatenate([f.ravel() for _, f in pairs])])

    instance = MilpInstance(
        col_names=col_names, col_lower=lower, col_upper=upper, col_binary=col_binary,
        objective=objective, row_names=row_names, row_sense=row_sense, rhs=rhs,
        matrix=matrix, meta={
            "blocks": c,
            "scenarios": n_s,
            "intervals": t_count,
            "case": case,
            "soc_boundary": soc_boundary,
            "binary_on": gates(on),
            "binary_off": gates(off),
            "binary_free": free[col_binary],
        })
    return instance


def extract_solution(instance: MilpInstance, raw) -> SizingSolution:
    """Map a raw solver result to capacities and dispatch blocks.

    Every dispatch field is named after a variable family and reads the
    solution at that family's columns (``meta["blocks"]``); a family
    the case does not build reads as zeros. Extraction does not price the
    point, the audit does. A result without a point (infeasible, or a time
    limit with no incumbent) has no solution, and an unbounded or unknown
    status violates the solver contract for this model (it is bounded
    below by construction): both raise :class:`SolverError`.
    """
    if raw.status not in ("optimal", "gap_optimal", "time_limit") or raw.x is None:
        raise SolverError(f"cannot extract from solver status {raw.status!r}")
    x = np.asarray(raw.x, dtype=float)
    n_s, t_count = instance.meta["scenarios"], instance.meta["intervals"]
    blocks = instance.meta["blocks"]

    def fill(dispatch):
        return dispatch(**{
            f.name: x[blocks[f.name]] if f.name in blocks
            else np.zeros((n_s, t_count + 1 if f.name == "soc" else t_count))
            for f in fields(dispatch)})

    return SizingSolution(
        case=instance.meta["case"], status=raw.status, objective=float(raw.objective),
        gap=float(raw.achieved_gap),
        capacities=dict(zip(DEVICES, x[blocks["x"]].tolist())),
        grid=fill(GridDispatch), islanded=fill(IslandedDispatch),
        soc_boundary=instance.meta["soc_boundary"],
    )
