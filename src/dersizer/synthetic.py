"""Deterministic synthetic annual profile that ships with the package.

Real commercial-building telemetry is proprietary, so the repo carries a
synthetic stand-in engineered to the regime the sizing model targets:
an 846 kW peak on a summer weekday afternoon, a high
data-center-style night floor that exceeds what a cap-sized battery can
carry through an islanded hour, and mild shoulder-season days whose
daytime load a cap-sized PV array can fully cover.

The packaged CSV was generated once with the default seed; regenerate it
with ``python -m dersizer.synthetic <path>`` if the recipe changes.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .data_model import AnnualProfile, write_profile_csv

HOURS = 8760
PEAK_KW = 846.0


def build_synthetic_year(seed: int = 20190101) -> AnnualProfile:
    """Build one deterministic 8760-hour load and PV availability year."""
    rng = np.random.default_rng(seed)
    hour = np.arange(HOURS)
    day = hour // 24
    hh = hour % 24
    dow = day % 7  # day 0 is a Tuesday (2019-01-01); 4 and 5 are the weekend

    # Data-center base load: near-constant with a gentle summer maximum.
    base = 400.0 + 35.0 * np.sin(2.0 * np.pi * (day - 110.0) / 365.0)

    # Occupancy and cooling load during working hours, strongest midsummer.
    season = 0.5 + 0.5 * np.cos(2.0 * np.pi * (day - 200.0) / 365.0)
    workday_amp = 240.0 + 170.0 * season
    weekend_amp = 55.0 + 45.0 * season
    amp = np.where((dow == 4) | (dow == 5), weekend_amp, workday_amp)
    shape = np.exp(-0.5 * ((hh - 14.7) / 3.4) ** 2)
    shape[hh < 6] = 0.0
    load = base + amp * shape

    noise = rng.normal(0.0, 6.0, HOURS)
    load = np.maximum(load + noise, 0.85 * base)
    load *= PEAK_KW / load.max()

    # PV availability: seasonal daylight window and a daily clearness draw.
    half_width = 5.75 + 1.25 * np.cos(2.0 * np.pi * (day - 172.0) / 365.0)
    offset = np.abs(hh + 0.5 - 12.5)
    elevation = np.where(offset < half_width,
                         np.cos(0.5 * np.pi * offset / half_width), 0.0)
    clearness_by_day = np.clip(
        0.66 + 0.18 * (0.5 + 0.5 * np.cos(2.0 * np.pi * (np.arange(365) - 190.0) / 365.0))
        + rng.uniform(-0.30, 0.12, 365),
        0.15, 0.97)
    pv = clearness_by_day[day] * elevation ** 1.3
    pv = np.clip(pv, 0.0, 1.0)

    start = datetime(2019, 1, 1)
    stamps = tuple((start + timedelta(hours=int(h))).isoformat() for h in range(HOURS))
    return AnnualProfile(timestamps=stamps, load_kw=load, pv_pu=pv)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="destination CSV path")
    parser.add_argument("--seed", type=int, default=20190101)
    args = parser.parse_args(argv)
    write_profile_csv(build_synthetic_year(seed=args.seed), args.path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
