"""Self-test of check.py: the checks accept a right answer and reject wrong ones.

One two-interval base-case day with DC load in both intervals is solved
with the reference backend. Its DC load can only come through the
interfacing converter's import direction, so flipping that direction's
binary must break a row; raising the objective by 0.1% must break both
the ``c.x`` check and the match to the independent optimum. The study
checks must reject a case-0 objective 0.1% off its closed form and a
case 3 that costs more than case 1.

Run alone with ``python3 perfbench/selftest.py``; the benchmark also runs
it at the end of every run and reports ``correct: false`` if it fails.
"""

from __future__ import annotations

import sys

import locate

locate.use_source_tree()

import dersizer.study as study  # noqa: E402
from dersizer import (CaseSpec, DeviceCatalog, ScenarioSet, SolveOptions,  # noqa: E402
                      TariffPlan)
from dersizer.data_model import DayScenario  # noqa: E402

import check  # noqa: E402

GAP = 1e-6


def run() -> list[str]:
    """Names of the self-test expectations that did not hold."""
    failures = []
    day = DayScenario(id="day000", probability=1.0,
                      cl_ac=[10.0, 20.0], cl_dc=[5.0, 5.0],
                      nl_ac=[50.0, 30.0], nl_dc=[15.0, 25.0],
                      pv_availability=[0.0, 0.5])
    days = ScenarioSet(days=(day,))
    catalog = DeviceCatalog()
    tariff = TariffPlan(energy_price=[0.09, 0.16], demand_price=18.0, peak_cap=1000.0)
    instance = study.build_model(days, catalog, tariff, CaseSpec.from_number(0))
    raw = study.solve_milp(instance, SolveOptions(relative_gap=GAP, backend="reference"))
    optimum = check.independent_optimum(instance, 1e-9)

    def rejected(x, objective) -> bool:
        return bool(check.check_point(instance, x, objective)
                    or check.check_against_optimum(objective, optimum, GAP, 1e-9))

    if rejected(raw.x, raw.objective):
        failures.append("the reference solution of the self-test day is rejected")
    flipped = raw.x.copy()
    z = instance.col("z_flow", 0, 1)
    flipped[z] = 1.0 - flipped[z]
    if not rejected(flipped, raw.objective):
        failures.append("a flipped binary is accepted")
    if not check.check_point(instance, raw.x, raw.objective * 1.001):
        failures.append("an objective raised by 0.1% passes the c.x check")
    if not check.check_against_optimum(raw.objective * 1.001, optimum, GAP, 1e-9):
        failures.append("an objective raised by 0.1% matches the independent optimum")

    closed = check.base_case_objective(days.days, catalog, tariff,
                                       days.annual_day_weight, days.annual_demand_weight)
    nested = {0: raw.objective, 1: 0.9 * raw.objective, 2: 0.8 * raw.objective,
              3: 0.7 * raw.objective}
    if check.check_study(nested, closed, GAP):
        failures.append("the solved base case does not match its closed form")
    if not check.check_study({**nested, 0: raw.objective * 1.001}, closed, GAP):
        failures.append("a case-0 objective raised by 0.1% matches the closed form")
    if not check.check_study({**nested, 3: nested[1] * 1.001}, closed, GAP):
        failures.append("case 3 costing more than case 1 passes the nesting check")
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test failed" if problems else "self-test passed")
    sys.exit(1 if problems else 0)
