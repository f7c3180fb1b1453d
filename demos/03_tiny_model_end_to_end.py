"""Build a desk-sized sizing model and certify it three ways.

A one-day, three-interval model is small enough to enumerate: the
reference branch-and-bound, the external HiGHS backend and the brute-force
oracle must all land on the same optimum, and the audit re-checks every
constraint from the extracted dispatch. Also dumps the instance as an LP
file for inspection with any external solver.
"""

from dersizer import (CaseSpec, DeviceCatalog, ScenarioSet, SolveOptions,
                      TariffPlan, build_model, check_solution, extract_solution,
                      solve_milp, write_lp)
from dersizer.data_model import DayScenario

day = DayScenario(id="day000", probability=1.0,
                  cl_ac=[60.0, 80.0, 70.0], cl_dc=[50.0, 60.0, 55.0],
                  nl_ac=[150.0, 210.0, 170.0], nl_dc=[120.0, 160.0, 140.0],
                  pv_availability=[0.0, 0.9, 0.3])
scenario_set = ScenarioSet(days=(day,))
catalog = DeviceCatalog()
tariff = TariffPlan(energy_price=[0.09, 0.16, 0.12], demand_price=18.0,
                    peak_cap=1000.0)

instance = build_model(scenario_set, catalog, tariff, CaseSpec.from_number(3))
print(f"instance: {instance.n_rows} rows x {instance.n_cols} cols, "
      f"{len(instance.binary_indices)} binaries")
write_lp(instance, "tiny_model.lp")
print("wrote tiny_model.lp")

results = {}
for backend in ("reference", "external", "oracle"):
    result = solve_milp(instance, SolveOptions(relative_gap=1e-6, backend=backend))
    results[backend] = result
    print(f"{backend:>9}: {result.status}, objective {result.objective:,.2f}")
spread = max(r.objective for r in results.values()) \
    - min(r.objective for r in results.values())
print(f"objective spread across backends: {spread:.2e}")

solution = extract_solution(instance, results["reference"])
print(f"capacities: { {k: round(v, 1) for k, v in solution.capacities.items()} }")
report = check_solution(solution, scenario_set, catalog, tariff)
print(f"audit: {'clean' if report.ok else 'VIOLATIONS'} "
      f"(max residual {report.max_residual:.2e}, "
      f"objective delta {report.objective_delta:.2e})")

print("node log (reference branch and bound):")
for r in results["reference"].node_log[:5]:
    incumbent = "none" if r.incumbent is None else f"{r.incumbent:.8g}"
    print(f"  node={r.node} depth={r.depth} bound={r.bound:.8g} "
          f"incumbent={incumbent} gap={r.gap:.3e}")
if not results["reference"].node_log:
    print("    (solved at the root)")
