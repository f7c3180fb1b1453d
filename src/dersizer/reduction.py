"""Representative-day selection: compress a year into K weighted days.

The selector is a greedy, nested k-medoids forward search on z-scored
daily feature vectors. It stands in for the submodular reduction the
source study cites, which is out of scope here; the sizing model only
needs a weighted scenario set, and the algorithm is swappable behind
:func:`reduce_scenarios`.

Determinism contract: identical input and config give identical output.
Greedy ties break toward the earliest calendar day, and assignment ties
break toward the earlier-selected representative, except that a day that
is itself a representative always counts toward its own cluster (this
keeps every probability at or above 1/n_days even when duplicate shapes
force duplicate medoids).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .data_model import AnnualProfile, DayScenario, LoadSplitSpec, ScenarioSet, split_loads
from .errors import ConfigError, ValidationError

REDUCTION_FEATURES = ("load", "load+pv")


@dataclass(frozen=True)
class ReductionConfig:
    """Settings for the representative-day selection."""

    k: int = 6
    feature: str = "load"

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, Integral):
            raise ConfigError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.feature not in REDUCTION_FEATURES:
            raise ConfigError(f"feature must be one of {REDUCTION_FEATURES}")


def _zscore(values: np.ndarray) -> np.ndarray:
    std = float(values.std())
    if std < 1e-12:
        return np.zeros_like(values)
    return (values - float(values.mean())) / std


def _feature_matrix(profile: AnnualProfile, feature: str) -> np.ndarray:
    """Days-by-features matrix; whole days only, z-scored per series."""
    n_days = profile.whole_days
    if n_days < 1:
        raise ConfigError("profile does not cover a whole day")
    load = _zscore(profile.load_kw[:n_days * 24]).reshape(n_days, 24)
    if feature == "load":
        return load
    pv = _zscore(profile.pv_pu[:n_days * 24]).reshape(n_days, 24)
    return np.hstack([load, pv])


def _select_medoids(dist: np.ndarray, k: int) -> list[int]:
    """Greedy nested forward selection minimizing summed assignment distance."""
    n_days = dist.shape[0]
    chosen: list[int] = []
    best = np.full(n_days, np.inf)
    for _ in range(k):
        # Total assignment cost if each candidate joined the medoid set.
        totals = np.minimum(best[:, None], dist).sum(axis=0)
        totals[chosen] = np.inf
        pick = int(np.argmin(totals))  # argmin takes the earliest day on ties
        chosen.append(pick)
        best = np.minimum(best, dist[:, pick])
    return chosen


def _assign(dist: np.ndarray, chosen: list[int]) -> np.ndarray:
    """Representative position of each day, from days x representatives distances."""
    assignment = np.argmin(dist, axis=1)
    for position, day_index in enumerate(chosen):
        assignment[day_index] = position
    return assignment


def reduce_scenarios(profile: AnnualProfile, cfg: ReductionConfig,
                     split: LoadSplitSpec) -> ScenarioSet:
    """Pick ``cfg.k`` medoid days and weight them by cluster size.

    Each representative is an actual calendar day of the input, its PV
    series is that same day's PV series, and its probability is the share
    of days assigned to it.
    """
    from scipy.spatial.distance import cdist  # scipy.spatial loads only when reducing

    n_days = profile.whole_days
    if cfg.k > n_days:
        raise ConfigError(f"k={cfg.k} exceeds the {n_days} whole days available")
    features = _feature_matrix(profile, cfg.feature)
    dist = cdist(features, features)
    chosen = _select_medoids(dist, cfg.k)
    assignment = _assign(dist[:, chosen], chosen)
    counts = np.bincount(assignment, minlength=len(chosen))

    days = []
    for position, day_index in enumerate(chosen):
        sl = slice(day_index * 24, (day_index + 1) * 24)
        cl_ac, cl_dc, nl_ac, nl_dc = split_loads(profile.load_kw[sl], split)
        days.append(DayScenario(
            id=f"day{day_index:03d}",
            probability=counts[position] / n_days,
            cl_ac=cl_ac, cl_dc=cl_dc, nl_ac=nl_ac, nl_dc=nl_dc,
            pv_availability=profile.pv_pu[sl],
        ))
    return ScenarioSet(days=tuple(days))


def _source_day(day: DayScenario) -> int:
    if not day.id.startswith("day"):
        raise ValidationError(f"scenario id {day.id!r} does not name a source day")
    try:
        return int(day.id[3:])
    except ValueError as exc:
        raise ValidationError(f"scenario id {day.id!r} does not name a source day") from exc


def reconstruction_error(profile: AnnualProfile, scenario_set: ScenarioSet,
                         feature: str = "load") -> float:
    """Mean feature-space distance from each day to its representative.

    Zero exactly when every day of the profile matches its assigned
    medoid; nonnegative always. The set must have been produced from the
    same profile (ids name source days).
    """
    from scipy.spatial.distance import cdist

    features = _feature_matrix(profile, feature)
    chosen = [_source_day(day) for day in scenario_set.days]
    for day_index in chosen:
        if not 0 <= day_index < features.shape[0]:
            raise ValidationError(f"representative day {day_index} outside profile")
    dist = cdist(features, features[chosen])
    assignment = _assign(dist, chosen)
    per_day = dist[np.arange(dist.shape[0]), assignment]
    return float(per_day.mean())


def write_reduction_csv(scenario_set: ScenarioSet, path) -> None:
    """Dump the chosen days and their weights as ``day_index,probability``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day_index", "probability"])
        for day in scenario_set.days:
            writer.writerow([_source_day(day), format(day.probability, ".12g")])
