"""Solution containers shared by the builder, the audit and the reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


@dataclass(frozen=True)
class GridDispatch:
    """Grid-connected operating blocks, all shaped (scenarios, intervals).

    Each field is named after the builder's variable family it holds.
    ``soc`` has one extra leading column for the start-of-day state, so
    ``soc[:, t]`` is the state after interval t with t counted from 1.
    """

    p_grid: np.ndarray
    v_pv: np.ndarray
    dch_ac: np.ndarray
    dch_dc: np.ndarray
    ch_ac: np.ndarray
    ch_dc: np.ndarray
    soc: np.ndarray          # (S, T+1)
    f_ac: np.ndarray
    f_dc_in: np.ndarray
    f_dc_out: np.ndarray
    z_flow: np.ndarray
    y_dch: np.ndarray
    u_dch: np.ndarray
    k_dch: np.ndarray
    p_peak: np.ndarray       # (S,)


@dataclass(frozen=True)
class IslandedDispatch:
    """One-interval islanded contingency blocks, shaped (scenarios, intervals).

    Each field is named after the builder's variable family it holds.
    """

    i_v_pv: np.ndarray
    i_dch_ac: np.ndarray
    i_dch_dc: np.ndarray
    i_f_ac: np.ndarray
    i_f_dc_in: np.ndarray
    i_f_dc_out: np.ndarray
    i_z_flow: np.ndarray
    shed_cl_ac: np.ndarray
    shed_cl_dc: np.ndarray
    shed_nl_ac: np.ndarray
    shed_nl_dc: np.ndarray


@dataclass(frozen=True)
class SizingSolution:
    """Installed capacities and dispatch schedules of one solved case.

    Only a solve that returned a point has one; the audit prices it.
    """

    case: CaseSpec
    status: str
    objective: float
    gap: float
    capacities: dict[str, float]
    grid: GridDispatch
    islanded: IslandedDispatch
    soc_boundary: str | float = "cyclic"
