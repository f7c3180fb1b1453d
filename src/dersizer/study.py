"""End-to-end study runner: ingest, reduce, build, solve, audit, report.

A study reproduces the four-case experimental protocol (base, PV only,
storage only, full DER) on one annual profile and writes, per case, the
sizing/cost summary row, hourly dispatch and curtailment series and an
audit transcript. Outputs are plain CSV/text with fixed float formatting
and no timestamps, so identical inputs give byte-identical files. Cases
run one at a time in ascending order, and each is offered the optimal
basis of the last solved case. A backend uses it only for an instance of
the same shape, so case 1 starts from case 0's and case 3 from case 2's:
each is its twin's instance but for the PV size bound. A case run without
its twin (``--cases 3`` alone) starts cold and may end at another optimal
dispatch, within the gap.

Demand-charge convention: per-day charges scale by the annual demand
weight (monthly billing by default); every audit header repeats this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from numbers import Real
from pathlib import Path

from .audit import AuditReport, check_solution
from .data_model import (AnnualProfile, DeviceCatalog, LoadSplitSpec, ScenarioSet,
                         TariffPlan, check_reals, packaged_profile_path,
                         parse_profile_csv)
from .errors import (ConfigError, DersizerError, IngestionError, SolverError,
                     ValidationError)
from .finance import CostBreakdown, annualize_expected
from .milp_builder import build_model, extract_solution
from .milp_instance import MilpInstance
from .reduction import ReductionConfig, reduce_scenarios
from .solution import CaseSpec, SizingSolution
from .solver import SolveOptions, solve_milp

RESULT_METRICS = ("pv_kw", "es_kw", "inverter_kw", "converter_kw", "ic_kw",
                  "energy_charges_usd", "demand_charges_usd",
                  "total_payment_usd", "shed_energy_kwh")

SAVINGS_COMPONENTS = ("energy_charges", "demand_charges", "total_payment", "total")

DISPATCH_HEADER = ["interval", "p_grid_kw", "pv_kw", "ch_ac_kw", "ch_dc_kw",
                   "dch_ac_kw", "dch_dc_kw", "ic_flow_ac_kw", "soc_kwh"]

EXIT_OK, EXIT_SOLVE, EXIT_AUDIT, EXIT_CONFIG = 0, 1, 2, 3


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"           # + 0.0 writes a -0.0 from a solver as 0.000000


# What a config file gets for a solve key or a tariff block it leaves out;
# keys left out of a tariff block default to the TariffPlan fields and the
# weights to the StudyConfig fields.
DEFAULT_SOLVE = SolveOptions(backend="external")
DEFAULT_TARIFF = TariffPlan.default_tou()
WEIGHT_KEYS = ("annual_day_weight", "annual_demand_weight")


def _config_block(raw: dict, name: str, keys) -> dict:
    """The JSON object ``raw[name]``, empty when absent.

    ``keys`` is the tuple of keys it may hold, or a dataclass whose fields
    they are. A block that is not an object, or has any other key, is a
    ``ConfigError`` naming it.
    """
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be a JSON object, "
                          f"got {type(block).__name__}")
    if is_dataclass(keys):
        keys = [f.name for f in fields(keys)]
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return block


@dataclass(frozen=True)
class StudyConfig:
    """Everything one study run needs, resolvable from a JSON file."""

    profile: Path
    output_dir: Path = Path("study_out")
    cases: tuple[int, ...] = (0, 1, 2, 3)
    split: LoadSplitSpec = field(default_factory=LoadSplitSpec)
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    catalog: DeviceCatalog = field(default_factory=DeviceCatalog)
    tariff: TariffPlan = DEFAULT_TARIFF
    annual_day_weight: float = 365.0
    annual_demand_weight: float = 12.0
    solve: SolveOptions = DEFAULT_SOLVE
    soc_boundary: str | float = "cyclic"

    def __post_init__(self):
        object.__setattr__(self, "profile", Path(self.profile))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if any(isinstance(c, bool) or not isinstance(c, Real) or c % 1 for c in self.cases):
            raise ConfigError(f"cases must be whole numbers, got {list(self.cases)}")
        cases = tuple(sorted(set(int(c) for c in self.cases)))
        if not cases:
            raise ConfigError("no cases requested")
        for case in cases:              # CaseSpec's table names the valid cases
            CaseSpec.from_number(case)
        object.__setattr__(self, "cases", cases)
        if not self.profile.exists():
            raise ConfigError(f"profile file not found: {self.profile}")

    def build_case(self, scenario_set: ScenarioSet, case: int) -> MilpInstance:
        """The sizing MILP of study case ``case`` over ``scenario_set``."""
        return build_model(scenario_set, self.catalog, self.tariff,
                           CaseSpec.from_number(case), soc_boundary=self.soc_boundary)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "StudyConfig":
        base = Path(base_dir) if base_dir is not None else Path(".")
        known = {"profile", "output_dir", "cases", "split", "reduction", "catalog",
                 "tariff", "weights", "solve", "soc_boundary"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            profile = raw.get("profile")
            profile_path = packaged_profile_path() if profile is None \
                else (base / profile if not Path(profile).is_absolute() else Path(profile))
            out_raw = raw.get("output_dir", cls.output_dir)
            output_dir = base / out_raw if not Path(out_raw).is_absolute() \
                else Path(out_raw)
            weights = _config_block(raw, "weights", WEIGHT_KEYS)
            check_reals("weights", weights)
            return cls(
                profile=profile_path,
                output_dir=output_dir,
                cases=tuple(raw.get("cases", cls.cases)),
                split=LoadSplitSpec(**_config_block(raw, "split", LoadSplitSpec)),
                reduction=ReductionConfig(**_config_block(raw, "reduction",
                                                          ReductionConfig)),
                catalog=DeviceCatalog(**_config_block(raw, "catalog", DeviceCatalog)),
                tariff=TariffPlan(**_config_block(raw, "tariff", TariffPlan))
                if "tariff" in raw else DEFAULT_TARIFF,
                solve=replace(DEFAULT_SOLVE, **_config_block(raw, "solve", SolveOptions)),
                soc_boundary=raw.get("soc_boundary", cls.soc_boundary),
                **{key: float(value) for key, value in weights.items()},
            )
        except (KeyError, TypeError, ValueError, SolverError) as exc:
            raise ConfigError(f"bad study config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "StudyConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw, base_dir=path.parent)


@dataclass
class CaseOutcome:
    """One case's solution and audit, held in ``StudyOutcome.cases`` under
    the case number; both are None when its build or solve failed."""

    solution: SizingSolution | None = None
    audit: AuditReport | None = None
    error: str | None = None

    @property
    def solved(self) -> bool:
        return self.solution is not None


@dataclass
class StudyOutcome:
    exit_code: int
    scenario_set: ScenarioSet
    cases: dict[int, CaseOutcome]
    output_dir: Path


def compare_cases(breakdowns: dict[int, CostBreakdown]) -> dict[int, dict[str, float | None]]:
    """Per-component fractional savings of each case against case 0.

    ``None`` marks components whose base-case cost is zero (reported as
    n/a downstream).
    """
    if 0 not in breakdowns:
        raise ConfigError("savings need case 0 as the base")
    base = breakdowns[0]
    table: dict[int, dict[str, float | None]] = {}
    for case, current in breakdowns.items():
        if case == 0:
            continue
        row: dict[str, float | None] = {}
        for component in SAVINGS_COMPONENTS:
            base_value = getattr(base, component)
            if base_value == 0:
                row[component] = None
            else:
                row[component] = (base_value - getattr(current, component)) / base_value
        table[case] = row
    return table


def _annual_shed_kwh(solution: SizingSolution, scenario_set: ScenarioSet) -> float:
    isl = solution.islanded
    per_day = (isl.shed_cl_ac.sum(axis=1) + isl.shed_cl_dc.sum(axis=1)
               + isl.shed_nl_ac.sum(axis=1) + isl.shed_nl_dc.sum(axis=1))
    return annualize_expected(scenario_set, per_day, "shedding")


def _results_column(outcome: CaseOutcome, scenario_set: ScenarioSet) -> list:
    """One case's value of every metric, in ``RESULT_METRICS`` order; None if unsolved."""
    if not outcome.solved:
        return [None] * len(RESULT_METRICS)
    caps, bd = outcome.solution.capacities, outcome.audit.breakdown
    values = {
        "pv_kw": caps["pv"],
        "es_kw": caps["es"],
        "inverter_kw": caps["inv"],
        "converter_kw": caps["con"],
        "ic_kw": caps["ic"],
        "energy_charges_usd": bd.energy_charges,
        "demand_charges_usd": bd.demand_charges,
        "total_payment_usd": bd.total_payment,
        "shed_energy_kwh": _annual_shed_kwh(outcome.solution, scenario_set),
    }
    return [values[metric] for metric in RESULT_METRICS]


def _write_table(path: Path, header: list[str], columns) -> None:
    """Write a CSV table given column by column.

    Strings are written as given, ``None`` as ``n/a`` and numbers with ``_fmt``.
    """
    def cell(value) -> str:
        if isinstance(value, str):
            return value
        return "n/a" if value is None else _fmt(value)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def prepare_study(config: StudyConfig) -> tuple[AnnualProfile, ScenarioSet]:
    """Ingest, reduce and weight the days.

    A bad weight or reduced set raises ``ValidationError`` from ``ScenarioSet``.

    This is all that ``run_study`` and ``dersizer validate`` do before any case.
    """
    try:
        profile = parse_profile_csv(config.profile)
    except (IngestionError, ValidationError, OSError) as exc:
        raise ConfigError(f"cannot ingest {config.profile}: {exc}") from exc
    reduced = reduce_scenarios(profile, config.reduction, config.split)
    scenario_set = ScenarioSet(days=reduced.days,
                               annual_day_weight=config.annual_day_weight,
                               annual_demand_weight=config.annual_demand_weight)
    return profile, scenario_set


def run_study(config: StudyConfig) -> StudyOutcome:
    """Run every requested case and write the study outputs.

    The exit code is ``EXIT_OK`` when every case solved and audited clean,
    ``EXIT_SOLVE`` when any case failed to build or solve or came back
    infeasible, and ``EXIT_AUDIT`` when every solve succeeded but an audit
    flagged violations.
    """
    _, scenario_set = prepare_study(config)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    outcomes: dict[int, CaseOutcome] = {}
    basis = None                      # the relaxation basis of the last case that solved
    for case_number in config.cases:
        try:
            instance = config.build_case(scenario_set, case_number)
            raw = solve_milp(instance, config.solve, warm_start=basis)
        except DersizerError as exc:
            outcomes[case_number] = CaseOutcome(error=str(exc))
            continue
        if not raw.ok:
            outcomes[case_number] = CaseOutcome(error=f"solve status {raw.status}")
            continue
        basis = raw.basis
        solution = extract_solution(instance, raw)
        audit = check_solution(solution, scenario_set, config.catalog, config.tariff)
        outcomes[case_number] = CaseOutcome(solution, audit)

        audit_path = out / f"audit_case{case_number}.txt"
        header = (f"case {case_number} status={solution.status} "
                  f"objective={_fmt(solution.objective)} gap={solution.gap:.3e}\n")
        audit_path.write_text(header + audit.to_text())
        grid, isl = solution.grid, solution.islanded
        days = scenario_set.days
        intervals = [str(t + 1) for t in range(scenario_set.intervals)]
        _write_table(out / f"curtailment_case{case_number}.csv",
                     ["day", "interval", "shed_critical_kw", "shed_noncritical_kw"],
                     [[day.id for day in days for _ in intervals], intervals * len(days),
                      (isl.shed_cl_ac + isl.shed_cl_dc).ravel(),
                      (isl.shed_nl_ac + isl.shed_nl_dc).ravel()])
        for s, day in enumerate(days):
            _write_table(out / f"dispatch_case{case_number}_{day.id}.csv",
                         DISPATCH_HEADER,
                         [intervals, grid.p_grid[s], grid.v_pv[s], grid.ch_ac[s],
                          grid.ch_dc[s], grid.dch_ac[s], grid.dch_dc[s], grid.f_ac[s],
                          grid.soc[s, 1:]])

    ordered = sorted(outcomes)
    _write_table(out / "results.csv", ["metric"] + [f"case_{c}" for c in ordered],
                 [RESULT_METRICS] + [_results_column(outcomes[c], scenario_set)
                                     for c in ordered])
    solved_breakdowns = {c: o.audit.breakdown for c, o in outcomes.items() if o.solved}
    if 0 in solved_breakdowns and len(solved_breakdowns) > 1:
        savings = compare_cases(solved_breakdowns)
        compared = sorted(savings)
        _write_table(out / "savings.csv", ["component"] + [f"case_{c}" for c in compared],
                     [SAVINGS_COMPONENTS] + [[savings[c][k] for k in SAVINGS_COMPONENTS]
                                             for c in compared])

    results = outcomes.values()
    exit_code = (EXIT_SOLVE if not all(o.solved for o in results)
                 else EXIT_AUDIT if not all(o.audit.ok for o in results) else EXIT_OK)
    return StudyOutcome(exit_code=exit_code, scenario_set=scenario_set,
                        cases=outcomes, output_dir=out)
