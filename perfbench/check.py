"""Output checks made apart from the program.

Nothing here imports ``dersizer.audit`` or ``dersizer.milp_builder``: the
checks read the instance arrays, the scenario data and the solver results
as plain numbers and recompute what they must be. Every function returns
a list of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-6        # rows, bounds and integrality of a returned x
OBJ_TOL = 1e-9         # c.x against the reported objective, relative


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Instance-level checks (reference workloads)


def row_bounds(instance):
    """Row activity limits ``lo <= A x <= hi`` from senses and right-hand sides."""
    sense = np.asarray(instance.row_sense)
    rhs = np.asarray(instance.rhs, dtype=float)
    lo = np.where(sense == "<=", -np.inf, rhs)
    hi = np.where(sense == ">=", np.inf, rhs)
    return lo, hi


def independent_optimum(instance, gap: float) -> float:
    """Optimal objective of the instance from a scipy ``milp`` solve of its arrays."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lo, hi = row_bounds(instance)
    res = milp(c=np.asarray(instance.objective, dtype=float),
               constraints=LinearConstraint(instance.matrix, lo, hi),
               integrality=np.asarray(instance.col_binary, dtype=int),
               bounds=Bounds(instance.col_lower, instance.col_upper),
               options={"mip_rel_gap": gap, "presolve": True, "disp": False})
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"independent milp solve failed: {res.message}")
    return float(res.fun)


def check_point(instance, x, objective) -> list[str]:
    """Rows, bounds and integrality of ``x`` within 1e-6; ``c.x`` equal to ``objective``."""
    problems = []
    if x is None or objective is None:
        return ["solver returned no point"]
    x = np.asarray(x, dtype=float)
    if x.shape != (len(instance.objective),):
        return [f"x has shape {x.shape}, expected ({len(instance.objective)},)"]
    activity = instance.matrix @ x
    lo, hi = row_bounds(instance)
    worst_row = float(np.max(np.maximum(lo - activity, activity - hi), initial=0.0))
    if worst_row > FEAS_TOL:
        problems.append(f"row violated by {worst_row:.3e}")
    worst_bound = float(np.max(np.maximum(instance.col_lower - x, x - instance.col_upper),
                               initial=0.0))
    if worst_bound > FEAS_TOL:
        problems.append(f"bound violated by {worst_bound:.3e}")
    binary = x[np.asarray(instance.col_binary, dtype=bool)]
    worst_int = float(np.max(np.abs(binary - np.round(binary)), initial=0.0))
    if worst_int > FEAS_TOL:
        problems.append(f"binary off integral by {worst_int:.3e}")
    cx = float(np.dot(instance.objective, x))
    if _rel(float(objective), cx) > OBJ_TOL:
        problems.append(f"reported objective {objective!r} but c.x = {cx!r}")
    return problems


def check_against_optimum(objective, optimum: float, gap: float,
                          check_gap: float) -> list[str]:
    """The reported objective matches the independent optimum within both gaps."""
    if objective is None:
        return ["no objective"]
    if _rel(float(objective), optimum) > gap + check_gap:
        return [f"objective {objective!r} differs from the independent optimum "
                f"{optimum!r} by {_rel(float(objective), optimum):.3e} relative"]
    return []


# ---------------------------------------------------------------------------
# Study checks (study-k6)


def base_case_objective(days, catalog, tariff, day_weight: float,
                        demand_weight: float) -> float:
    """Closed-form optimum of case 0 (nothing installed).

    The grid serves all load, DC load crosses the interfacing converter,
    islanded intervals shed everything, and the interfacing converter is
    rated for the largest DC draw divided by its efficiency.
    """
    price = np.asarray(tariff.energy_price, dtype=float)
    x_ic = 0.0
    energy = demand = shed = 0.0
    for day in days:
        ac = np.asarray(day.cl_ac) + np.asarray(day.nl_ac)
        dc_draw = (np.asarray(day.cl_dc) + np.asarray(day.nl_dc)) / catalog.eta_ic
        purchase = ac + dc_draw
        x_ic = max(x_ic, float(dc_draw.max()))
        energy += day.probability * float(price @ purchase)
        demand += day.probability * tariff.demand_price * float(purchase.max())
        shed += day.probability * (
            catalog.voll_cl * float(np.sum(day.cl_ac) + np.sum(day.cl_dc))
            + catalog.voll_nl * float(np.sum(day.nl_ac) + np.sum(day.nl_dc)))
    return catalog.c_ic * x_ic + day_weight * (energy + shed) + demand_weight * demand


def check_study(objectives: dict[int, float], base_closed_form: float,
                gap: float) -> list[str]:
    """Case 0 against its closed form and the nesting of the four cases."""
    problems = []
    if _rel(objectives[0], base_closed_form) > gap:
        problems.append(f"case 0 objective {objectives[0]!r} differs from the closed "
                        f"form {base_closed_form!r}")
    for smaller, larger in ((3, 1), (3, 2), (1, 0), (2, 0)):
        slack = 2 * gap * max(1.0, abs(objectives[larger]))
        if objectives[smaller] > objectives[larger] + slack:
            problems.append(f"case {smaller} costs {objectives[smaller]!r}, more than "
                            f"case {larger} at {objectives[larger]!r}")
    return problems
