"""Solution containers shared by the builder, the audit and the reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .finance import CostBreakdown


@dataclass(frozen=True)
class CaseSpec:
    """Which devices a study case may install.

    Case 0 is the do-nothing base, 1 is PV only, 2 is storage only and 3
    allows both. Converters are always sizable: even the base case routes
    DC load through the interfacing converter.
    """

    allow_pv: bool
    allow_es: bool

    @classmethod
    def from_number(cls, number: int) -> "CaseSpec":
        table = {0: (False, False), 1: (True, False),
                 2: (False, True), 3: (True, True)}
        if number not in table:
            raise ConfigError(f"case must be one of {sorted(table)}, got {number}")
        return cls(*table[number])

    @property
    def number(self) -> int:
        return int(self.allow_pv) + 2 * int(self.allow_es)

    def __str__(self) -> str:
        return f"case{self.number}"


@dataclass(frozen=True)
class GridDispatch:
    """Grid-connected operating blocks, all shaped (scenarios, intervals).

    ``soc`` has one extra leading column for the start-of-day state, so
    ``soc[:, t]`` is the state after interval t with t counted from 1.
    """

    p_grid: np.ndarray
    pv_output: np.ndarray
    dch_ac: np.ndarray
    dch_dc: np.ndarray
    ch_ac: np.ndarray
    ch_dc: np.ndarray
    soc: np.ndarray          # (S, T+1)
    flow_ac: np.ndarray
    flow_dc_in: np.ndarray
    flow_dc_out: np.ndarray
    z_flow: np.ndarray
    y_dch: np.ndarray
    u_dch: np.ndarray
    k_dch: np.ndarray
    p_peak: np.ndarray       # (S,)


@dataclass(frozen=True)
class IslandedDispatch:
    """One-interval islanded contingency blocks, shaped (scenarios, intervals)."""

    pv_output: np.ndarray
    dch_ac: np.ndarray
    dch_dc: np.ndarray
    flow_ac: np.ndarray
    flow_dc_in: np.ndarray
    flow_dc_out: np.ndarray
    z_flow: np.ndarray
    shed_cl_ac: np.ndarray
    shed_cl_dc: np.ndarray
    shed_nl_ac: np.ndarray
    shed_nl_dc: np.ndarray


@dataclass(frozen=True)
class SizingSolution:
    """Installed capacities, dispatch schedules and the audited cost split."""

    case: CaseSpec
    status: str
    objective: float | None
    gap: float
    capacities: dict[str, float]
    grid: GridDispatch | None
    islanded: IslandedDispatch | None
    breakdown: CostBreakdown | None
    soc_boundary: str | float = "cyclic"

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "gap_optimal", "time_limit") \
            and self.objective is not None
