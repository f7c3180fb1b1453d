"""Run the full four-case sizing study on the packaged year.

Reproduces the experimental protocol end to end: reduce the year to six
weighted days, size each deployment case, audit every solution and print
the investment-results table plus the savings of each case against the
no-DER base. Outputs land in ./study_out as CSV and audit transcripts.
"""

from dersizer import compare_cases, run_study
from dersizer.study import StudyConfig

config = StudyConfig.from_dict({
    "output_dir": "study_out",          # packaged profile used by default
    "cases": [0, 1, 2, 3],
    "reduction": {"k": 6},
    "solve": {"backend": "external", "relative_gap": 1e-6},
})
outcome = run_study(config)
print(f"study finished with exit code {outcome.exit_code}; "
      f"outputs in {outcome.output_dir}/")

print(f"{'':>22}" + "".join(f"case {n:>2}   " for n in sorted(outcome.cases)))
rows = [("PV (kW)", lambda c: c.solution.capacities["pv"]),
        ("ES (kW)", lambda c: c.solution.capacities["es"]),
        ("inverter (kW)", lambda c: c.solution.capacities["inv"]),
        ("DC/DC converter (kW)", lambda c: c.solution.capacities["con"]),
        ("interfacing (kW)", lambda c: c.solution.capacities["ic"]),
        ("energy charges ($)", lambda c: c.audit.breakdown.energy_charges),
        ("demand charges ($)", lambda c: c.audit.breakdown.demand_charges),
        ("total payment ($)", lambda c: c.audit.breakdown.total_payment)]
for label, getter in rows:
    values = [f"{getter(outcome.cases[n]):>9,.0f}" for n in sorted(outcome.cases)]
    print(f"{label:>22}" + "".join(values))

breakdowns = {n: c.audit.breakdown for n, c in outcome.cases.items() if c.solved}
savings = compare_cases(breakdowns)
print("\nsavings vs the no-DER base:")
for case in sorted(savings):
    row = savings[case]
    print(f"  case {case}: energy {row['energy_charges']:.1%}, "
          f"demand {row['demand_charges']:.1%}, "
          f"bill {row['total_payment']:.1%}, "
          f"total cost {row['total']:.1%}")
