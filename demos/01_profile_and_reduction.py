"""Ingest the packaged annual profile and compress it to representative days.

Walks the first stage of a sizing study: parse and sanity-check the hourly
profile, split the metered total into the four load classes, reduce the
year to six weighted medoid days and look at how reduction quality moves
with K.
"""

import numpy as np

from dersizer import (LoadSplitSpec, ReductionConfig, packaged_profile_path,
                      parse_profile_csv, reconstruction_error, reduce_scenarios,
                      split_loads)

profile = parse_profile_csv(packaged_profile_path())
print(f"profile: {profile.hours} hours, peak {profile.load_kw.max():.0f} kW, "
      f"mean {profile.load_kw.mean():.0f} kW")

split = LoadSplitSpec()  # 30% critical, half of each class on the DC bus
cl_ac, cl_dc, nl_ac, nl_dc = split_loads(profile.load_kw, split)
print(f"critical peak {np.max(cl_ac + cl_dc):.0f} kW, "
      f"non-critical peak {np.max(nl_ac + nl_dc):.0f} kW")

# A ScenarioSet checks itself when built, so a returned set is a valid one.
scenario_set = reduce_scenarios(profile, ReductionConfig(k=6), split)
print(f"reduced to {len(scenario_set.days)} days, "
      f"probabilities sum to {scenario_set.probabilities.sum():.6f}")
for day in scenario_set.days:
    load = day.total_load()
    print(f"  {day.id}: weight {day.probability:.3f}, "
          f"peak {load.max():.0f} kW, pv max {day.pv_availability.max():.2f}")

print("reduction error by K:")
for k in (1, 2, 4, 6, 8):
    err = reconstruction_error(
        profile, reduce_scenarios(profile, ReductionConfig(k=k), split))
    print(f"  K={k}: {err:.3f}")
