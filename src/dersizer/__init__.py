"""DER sizing for commercial-building hybrid AC/DC microgrids.

The package builds a scenario-based mixed-integer linear program that
jointly sizes PV, battery storage and the three power-electronics
converters of a hybrid AC/DC microgrid, trading grid-connected utility
bills against islanded-mode reliability, then solves, audits and reports
it.
"""

from .data_model import (
    AnnualProfile,
    DayScenario,
    DeviceCatalog,
    LoadSplitSpec,
    ScenarioSet,
    TariffPlan,
    packaged_profile_path,
    parse_profile_csv,
    split_loads,
    write_profile_csv,
)
from .finance import (
    CostBreakdown,
    annualize_expected,
    capital_recovery_factor,
    catalog_from_capital_costs,
    degradation_cost,
    demand_charge,
    energy_charge,
    investment_cost,
    shedding_cost,
)
from .reduction import ReductionConfig, reconstruction_error, reduce_scenarios
from .milp_instance import MilpInstance, write_lp
from .milp_builder import CaseSpec, build_model, compute_big_m, extract_solution
from .solution import SizingSolution
from .solver import SolveOptions, SolveResult, oracle_enumerate, solve_lp, solve_milp
from .audit import AuditReport, check_solution, recompute_cost_breakdown
from .study import StudyConfig, compare_cases, run_study

__version__ = "0.1.0"

__all__ = [
    "AnnualProfile", "DayScenario", "DeviceCatalog", "LoadSplitSpec",
    "ScenarioSet", "TariffPlan", "packaged_profile_path", "parse_profile_csv",
    "split_loads", "write_profile_csv",
    "CostBreakdown", "annualize_expected", "capital_recovery_factor",
    "catalog_from_capital_costs", "degradation_cost", "demand_charge",
    "energy_charge", "investment_cost", "shedding_cost",
    "ReductionConfig", "reconstruction_error", "reduce_scenarios",
    "MilpInstance", "write_lp",
    "CaseSpec", "build_model", "compute_big_m", "extract_solution",
    "SizingSolution",
    "SolveOptions", "SolveResult", "oracle_enumerate", "solve_lp", "solve_milp",
    "AuditReport", "check_solution", "recompute_cost_breakdown",
    "StudyConfig", "compare_cases", "run_study",
    "__version__",
]
