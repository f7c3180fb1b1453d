"""Domain types, profile ingestion and validation for the DER sizing optimizer.

Conventions used everywhere downstream:

* power is kW, energy is kWh, and intervals are one hour long, so a kW
  reading over one interval is numerically the same as its kWh energy;
* equipment costs are annualized $/kW-yr, operating prices are $/kWh
  (energy, degradation, lost load) or $/kW (demand charge);
* PV availability is a per-unit series in [0, 1] against installed kW.

Types are frozen dataclasses and safe to share between threads. Each
checks its values when constructed and raises ``ValidationError`` on the
first fault, so a built object is valid: a ``DayScenario`` has equal-length
finite series, nonnegative loads, PV in [0, 1] and a probability in
(0, 1]; a ``ScenarioSet`` has days of one length whose probabilities sum
to 1 and finite positive annual weights. Their arrays are read-only
copies, so nothing can invalidate an object after its checks.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from importlib import resources
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import IngestionError, ValidationError

PROFILE_COLUMNS = ("timestamp", "load_kw", "pv_pu")

PACKAGED_PROFILE = "synthetic_year.csv"


def is_real(value) -> bool:
    """Whether ``value`` is a real number: not a bool, a string or NaN."""
    return isinstance(value, Real) and not isinstance(value, bool) and not math.isnan(value)


def check_reals(kind: str, values: dict) -> None:
    """Raise ``ValidationError`` naming the first of ``values`` not a finite real number."""
    for name, value in values.items():
        if not (is_real(value) and math.isfinite(value)):
            raise ValidationError(f"{kind} {name} must be a finite real number, got {value!r}")


def _as_series(values, name: str) -> np.ndarray:
    """A read-only float copy of a 1-D series of finite values."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D series, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


# A day's series, one value per interval: four load classes and PV availability.
DAY_SERIES = ("cl_ac", "cl_dc", "nl_ac", "nl_dc", "pv_availability")


@dataclass(frozen=True)
class DayScenario:
    """One weighted representative day of microgrid operation.

    Loads are split into four classes by bus (AC/DC) and criticality
    (critical/non-critical). ``pv_availability`` is the per-unit PV
    resource of the same calendar day the loads came from.
    """

    id: str
    probability: float
    cl_ac: np.ndarray
    cl_dc: np.ndarray
    nl_ac: np.ndarray
    nl_dc: np.ndarray
    pv_availability: np.ndarray

    def __post_init__(self):
        for name in DAY_SERIES:
            object.__setattr__(self, name, _as_series(getattr(self, name), name))
        lengths = {len(getattr(self, n)) for n in DAY_SERIES}
        if len(lengths) != 1:
            raise ValidationError(f"day {self.id}: series lengths differ: {sorted(lengths)}")
        if not 0.0 < self.probability <= 1.0:
            raise ValidationError(f"day {self.id}: probability {self.probability:.10g} "
                                  "outside (0, 1]")
        for name in DAY_SERIES:
            series, pv = getattr(self, name), name == "pv_availability"
            bad = np.flatnonzero((series < 0) | (pv & (series > 1)))
            if bad.size:
                t = int(bad[0])
                fault = "outside [0, 1]" if pv else "is negative"
                raise ValidationError(f"day {self.id}: {name}[{t}]={series[t]:.10g} {fault}")

    @property
    def intervals(self) -> int:
        return len(self.cl_ac)

    def total_load(self) -> np.ndarray:
        return self.cl_ac + self.cl_dc + self.nl_ac + self.nl_dc


@dataclass(frozen=True)
class ScenarioSet:
    """Weighted representative days plus the day-to-year scaling weights.

    ``annual_day_weight`` converts an expected per-day operating cost into
    a $/yr figure (365 by default). ``annual_demand_weight`` does the same
    for the per-day demand charge under a monthly billing convention (12).
    """

    days: tuple[DayScenario, ...]
    annual_day_weight: float = 365.0
    annual_demand_weight: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "days", tuple(self.days))
        if not self.days:
            raise ValidationError("scenario set has no days")
        expected_t = self.days[0].intervals
        for day in self.days:
            if day.intervals != expected_t:
                raise ValidationError(f"day {day.id}: {day.intervals} intervals, "
                                      f"expected {expected_t}")
        prob_sum = float(sum(d.probability for d in self.days))
        if abs(prob_sum - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {prob_sum:.10g}")
        check_reals("scenario set", {"annual_day_weight": self.annual_day_weight,
                                     "annual_demand_weight": self.annual_demand_weight})
        if self.annual_day_weight <= 0 or self.annual_demand_weight <= 0:
            raise ValidationError("annual weights must be positive")

    @property
    def intervals(self) -> int:
        return self.days[0].intervals

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([d.probability for d in self.days], dtype=float)


# The sizable devices in sizing-column order; device d's price is DeviceCatalog.c_{d}.
DEVICES = ("pv", "es", "ic", "inv", "con")


@dataclass(frozen=True)
class DeviceCatalog:
    """Unit economics and technical limits of every sizable device.

    Defaults are the reference commercial-building setup: investment
    costs already annualized, a two-hour battery with a 10..90% usable
    band, and lost load priced at $3000/kWh critical and $500/kWh
    non-critical. Use
    :func:`dersizer.finance.catalog_from_capital_costs` when starting
    from raw capital costs instead.
    """

    c_pv: float = 108.0       # $/kW-yr
    c_es: float = 424.0       # $/kW-yr
    c_ic: float = 8.1         # $/kW-yr
    c_inv: float = 6.5        # $/kW-yr
    c_con: float = 4.3        # $/kW-yr
    c_deg: float = 0.005      # $/kWh of battery throughput
    voll_cl: float = 3000.0   # $/kWh critical load shed
    voll_nl: float = 500.0    # $/kWh non-critical load shed
    eta_ic: float = 0.96
    eta_inv: float = 0.96
    eta_con: float = 0.98
    eta_ch: float = 0.93
    eta_dch: float = 0.93
    pv_max: float = 400.0     # kW
    es_max: float = 350.0     # kW
    rho_ep: float = 2.0       # h, battery energy/power ratio
    alpha_min: float = 0.1
    alpha_max: float = 0.9

    def __post_init__(self):
        check_reals("catalog", vars(self))
        for name in ("c_pv", "c_es", "c_ic", "c_inv", "c_con", "c_deg",
                     "voll_cl", "voll_nl", "pv_max", "es_max"):
            if getattr(self, name) < 0:
                raise ValidationError(f"catalog {name} must be nonnegative")
        for name in ("eta_ic", "eta_inv", "eta_con", "eta_ch", "eta_dch"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ValidationError(f"catalog {name}={eta} outside (0, 1]")
        if not 0.0 <= self.alpha_min < self.alpha_max <= 1.0:
            raise ValidationError(
                f"SoC band [{self.alpha_min}, {self.alpha_max}] must satisfy "
                "0 <= alpha_min < alpha_max <= 1")
        if self.rho_ep <= 0:
            raise ValidationError("rho_ep must be positive")


@dataclass(frozen=True)
class TariffPlan:
    """Two-part utility tariff: hourly energy prices plus a demand charge.

    ``peak_cap`` is the interconnection limit on the billed peak, not a
    price: grid draw above it is infeasible rather than expensive.
    """

    energy_price: np.ndarray       # $/kWh, one entry per interval
    demand_price: float = 18.0     # $/kW on the daily peak draw
    peak_cap: float = 1000.0       # kW

    def __post_init__(self):
        prices = np.ravel(np.array(self.energy_price, dtype=object))
        if not all(map(is_real, prices)):
            raise ValidationError("tariff energy_price must hold real numbers")
        object.__setattr__(self, "energy_price", _as_series(self.energy_price, "energy_price"))
        check_reals("tariff", {"demand_price": self.demand_price})
        if np.any(self.energy_price < 0) or self.demand_price < 0:
            raise ValidationError("tariff prices must be nonnegative")
        if not (is_real(self.peak_cap) and self.peak_cap > 0):  # inf: no cap
            raise ValidationError(f"tariff peak_cap must be positive, got {self.peak_cap!r}")

    @property
    def intervals(self) -> int:
        return len(self.energy_price)

    @classmethod
    def default_tou(cls, intervals: int = 24) -> "TariffPlan":
        """Three-period TOU placeholder for a large commercial account.

        Peak $0.16 for 12:00-18:00, part-peak $0.12 for 08:00-12:00 and
        18:00-21:00, off-peak $0.09 otherwise. Real studies should supply
        their own plan; this is only a plausible default shape.
        """
        if intervals != 24:
            raise ValidationError("default TOU plan is defined on 24 hourly intervals")
        price = np.full(24, 0.09)
        price[8:12] = 0.12
        price[18:21] = 0.12
        price[12:18] = 0.16
        return cls(energy_price=price)


@dataclass(frozen=True)
class LoadSplitSpec:
    """How a metered total load divides into the four modeled classes.

    The source data publishes totals only, so the split is a modeling
    choice. Defaults keep critical load low enough that a cap-sized
    battery can carry it through an islanded hour.
    """

    critical_fraction: float = 0.3
    dc_fraction_of_critical: float = 0.5
    dc_fraction_of_noncritical: float = 0.5

    def __post_init__(self):
        check_reals("split", vars(self))
        for name in ("critical_fraction", "dc_fraction_of_critical",
                     "dc_fraction_of_noncritical"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"split {name}={value} outside [0, 1]")


@dataclass(frozen=True)
class AnnualProfile:
    """Dense hourly record of building load and PV availability."""

    timestamps: tuple[str, ...]
    load_kw: np.ndarray
    pv_pu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "load_kw", _as_series(self.load_kw, "load_kw"))
        object.__setattr__(self, "pv_pu", _as_series(self.pv_pu, "pv_pu"))
        if not len(self.timestamps) == len(self.load_kw) == len(self.pv_pu):
            raise ValidationError("profile columns have different lengths")

    @property
    def hours(self) -> int:
        return len(self.load_kw)

    @property
    def whole_days(self) -> int:
        return self.hours // 24


HOUR = timedelta(hours=1)


def _step_fault(row: int, previous: datetime, stamp: datetime, step) -> IngestionError:
    """The error of a row whose ``step`` from ``previous`` is not one hour.

    ``step`` is None when only one of the two timestamps has a UTC offset.
    """
    text = stamp.isoformat()
    if step is None:
        return IngestionError(f"row {row}: timestamp {text} and the one before it "
                              "must both have a UTC offset or neither")
    if not step:
        return IngestionError(f"row {row}: duplicate timestamp {text}")
    if step < timedelta(0):
        return IngestionError(f"row {row}: timestamp {text} goes backwards")
    return IngestionError(f"row {row}: missing hour {(previous + HOUR).isoformat()} "
                          f"before {text}")


def parse_profile_csv(path) -> AnnualProfile:
    """Read an hourly ``timestamp,load_kw,pv_pu`` CSV into an AnnualProfile.

    The file is read as UTF-8, skipping a leading byte-order mark, and
    decoded whole before any row is judged: bytes that are not UTF-8 are an
    ingestion error. The header must match ``PROFILE_COLUMNS`` and
    timestamps must be strictly increasing with exactly one hour between
    rows. Gaps and duplicates are ingestion errors naming the offending
    timestamp; negative loads or PV availability outside [0, 1] are
    validation errors naming the row. Each row is checked as it is read, so
    the first faulty row in file order is reported; its step from the row
    before is checked before its values. Every message begins with the path.
    """
    path = Path(path)
    try:
        return _read_profile(path)
    except (IngestionError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read_profile(path: Path) -> AnnualProfile:
    if not path.exists():
        raise IngestionError("profile file not found")
    try:
        content = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"not UTF-8 text ({exc.reason})") from None
    stamps: list[datetime] = []
    load: list[float] = []
    pv: list[float] = []
    reader = csv.reader(io.StringIO(content, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError("empty file") from None
    if tuple(h.strip() for h in header) != PROFILE_COLUMNS:
        raise IngestionError(f"header {header!r} does not match {list(PROFILE_COLUMNS)!r}")
    for row_number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(PROFILE_COLUMNS):
            raise IngestionError(f"row {row_number}: expected "
                                 f"{len(PROFILE_COLUMNS)} fields, got {len(row)}")
        text = row[0].strip()
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError as exc:
            raise IngestionError(f"row {row_number}: bad timestamp {text!r}") from exc
        if stamps:
            try:
                step = stamp - stamps[-1]
            except TypeError:  # only one of the two has a UTC offset
                step = None
            if step != HOUR:
                raise _step_fault(row_number, stamps[-1], stamp, step)
        try:
            load_kw, pv_pu = float(row[1]), float(row[2])
        except ValueError as exc:
            raise IngestionError(f"row {row_number}: non-numeric value") from exc
        if not (math.isfinite(load_kw) and math.isfinite(pv_pu)):
            raise ValidationError(f"row {row_number}: non-finite value")
        if load_kw < 0:
            raise ValidationError(f"row {row_number}: load_kw={load_kw} is negative")
        if not 0.0 <= pv_pu <= 1.0:
            raise ValidationError(f"row {row_number}: pv_pu={pv_pu} outside [0, 1]")
        stamps.append(stamp)
        load.append(load_kw)
        pv.append(pv_pu)
    if not stamps:
        raise IngestionError("no data rows")
    return AnnualProfile(timestamps=tuple(stamp.isoformat() for stamp in stamps),
                         load_kw=np.array(load), pv_pu=np.array(pv))


def write_profile_csv(profile: AnnualProfile, path) -> None:
    """Serialize a profile back to CSV, preserving numeric content."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for stamp, load, pv in zip(profile.timestamps, profile.load_kw, profile.pv_pu):
            writer.writerow([stamp, format(load, ".12g"), format(pv, ".12g")])


def packaged_profile_path() -> Path:
    """Path of the synthetic annual profile that ships with the package."""
    return Path(resources.files("dersizer").joinpath("data", PACKAGED_PROFILE))


def split_loads(total_load, spec: LoadSplitSpec):
    """Split a total load series into (cl_ac, cl_dc, nl_ac, nl_dc).

    The four classes partition the input: at every interval they are
    nonnegative and sum back to the total.
    """
    total = _as_series(total_load, "total_load")
    critical = total * spec.critical_fraction
    cl_dc = critical * spec.dc_fraction_of_critical
    cl_ac = critical - cl_dc
    noncritical = total - critical
    nl_dc = noncritical * spec.dc_fraction_of_noncritical
    nl_ac = noncritical - nl_dc
    return cl_ac, cl_dc, nl_ac, nl_dc

