"""The three workloads: their inputs, one pass each, and the checks of a pass.

A workload has three parts. ``setup`` prepares the inputs (this is what
``setup_s`` times, together with the interpreter and ``import dersizer``).
``run_pass`` is one timed pass; it calls the program's layers through the
names ``dersizer.study`` holds, so the traced run sees every call.
``check`` judges every stored pass with ``check.py`` and returns
``(attempted, failed)``.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import dersizer
import dersizer.study as study
from dersizer import (CaseSpec, DeviceCatalog, LoadSplitSpec, ReductionConfig,
                      ScenarioSet, SolveOptions, TariffPlan)
from dersizer.data_model import DayScenario

import check

STUDY_GAP = 1e-4
ROOT_GAP = 1e-3
SWEEP_GAP = 1e-6
CHECK_GAP = 1e-7          # gap of the independent scipy solve

ROOT_K = 2                # representative days of the reference-root instance
ROOT_CASE = 3

SWEEP_PER_CASE = 17       # lattice points per case, a prime
LATTICE_GENERATOR = 3     # a primitive root of 17: all 13 coordinates differ
SWEEP_INTERVALS = 3
SWEEP_CASES = (0, 1, 2)   # case 3 is left out, see the README


def _report(label: str) -> None:
    print(f"[perfbench] operation failed: {label}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _digest(instance) -> str:
    """Content hash of an instance's arrays, to reuse one independent solve."""
    h = hashlib.sha256()
    for arr in (instance.objective, instance.col_lower, instance.col_upper,
                instance.col_binary, instance.rhs, instance.matrix.indptr,
                instance.matrix.indices, instance.matrix.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update("".join(instance.row_sense).encode())
    return h.hexdigest()


class _Optima:
    """Independent optimum per distinct instance, solved once per run."""

    def __init__(self):
        self._cache: dict[str, float] = {}

    def get(self, instance) -> float:
        key = _digest(instance)
        if key not in self._cache:
            self._cache[key] = check.independent_optimum(instance, CHECK_GAP)
        return self._cache[key]


def _solve_one(scenario_set, catalog, tariff, case_number, gap):
    """Build, solve with the reference backend, extract and audit one instance."""
    instance = study.build_model(scenario_set, catalog, tariff,
                                 CaseSpec.from_number(case_number))
    raw = study.solve_milp(instance, SolveOptions(relative_gap=gap, backend="reference"))
    solution = study.extract_solution(instance, raw)
    audit = study.check_solution(solution, scenario_set, catalog, tariff)
    return {"instance": instance, "status": raw.status, "objective": raw.objective,
            "x": raw.x, "audit_ok": audit.ok}


def _instance_problems(result, optima: _Optima, gap: float) -> list[str]:
    if result is None:
        return ["raised"]
    problems = []
    if result["status"] not in ("optimal", "gap_optimal"):
        problems.append(f"status {result['status']}")
    if not result["audit_ok"]:
        problems.append("program audit flagged the solution")
    instance = result["instance"]
    problems += check.check_point(instance, result["x"], result["objective"])
    problems += check.check_against_optimum(result["objective"], optima.get(instance),
                                            gap, CHECK_GAP)
    return problems


# ---------------------------------------------------------------------------


class StudyK6:
    """``run_study`` on the packaged year: cases 0-3, k=6, external backend."""

    name = "study-k6"
    layers = ("run_study", "parse_profile_csv", "reduce_scenarios", "build_model",
              "solve_milp", "extract_solution", "check_solution")

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir / "study-k6"

    def setup(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.config = study.StudyConfig(
            profile=dersizer.packaged_profile_path(), output_dir=self.out_dir,
            cases=(0, 1, 2, 3), reduction=ReductionConfig(k=6),
            solve=SolveOptions(relative_gap=STUDY_GAP, backend="external"))

    def run_pass(self):
        try:
            return study.run_study(self.config)
        except Exception:
            _report("run_study")
            return None

    def after_pass(self, outcome) -> dict:
        """Summarize a pass outside the timed region; keeps no large objects."""
        files = sorted(p for p in self.out_dir.iterdir() if p.is_file())
        record = {
            "hashes": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            "bytes_written": sum(p.stat().st_size for p in files),
        }
        if outcome is not None:
            record.update(
                exit_code=outcome.exit_code,
                days=outcome.scenario_set.days,
                day_weight=outcome.scenario_set.annual_day_weight,
                demand_weight=outcome.scenario_set.annual_demand_weight,
                objectives={c: o.solution.objective if o.solved else None
                            for c, o in outcome.cases.items()},
                audits_ok={c: o.audit is not None and o.audit.ok
                           for c, o in outcome.cases.items()})
        return record

    @staticmethod
    def bytes_written(record: dict) -> int:
        return record["bytes_written"]

    def problems(self, record: dict, first: dict) -> list[str]:
        if "exit_code" not in record:
            return ["run_study raised"]
        problems = []
        if record["exit_code"] != 0:
            problems.append(f"exit code {record['exit_code']}")
        if not all(record["audits_ok"].values()):
            problems.append(f"audits not clean: {record['audits_ok']}")
        objectives = record["objectives"]
        if sorted(objectives) != [0, 1, 2, 3] or None in objectives.values():
            return problems + [f"cases missing: {objectives}"]
        closed = check.base_case_objective(record["days"], self.config.catalog,
                                           TariffPlan.default_tou(24),
                                           record["day_weight"], record["demand_weight"])
        problems += check.check_study(objectives, closed, STUDY_GAP)
        if record["hashes"] != first["hashes"]:
            problems.append("output files differ from the first pass")
        return problems

    def check(self, records: list[dict]) -> tuple[int, int]:
        failed = 0
        for i, record in enumerate(records):
            problems = self.problems(record, records[0])
            if problems:
                failed += 1
                print(f"[perfbench] study pass {i}: {problems}", file=sys.stderr)
        return len(records), failed


# lower and upper limits of the sweep's instance parameters
_SWEEP_BOX = {
    "total_kw": (50.0, 600.0),       # building load, per interval
    "critical": (0.15, 0.45),        # critical share of the load
    "dc_critical": (0.3, 0.7),       # DC share of the critical load
    "dc_noncritical": (0.3, 0.7),    # DC share of the non-critical load
    "pv_pu": (0.0, 1.0),             # PV availability, per interval
    "price": (0.05, 0.25),           # energy price $/kWh, per interval
    "demand_price": (5.0, 25.0),     # $/kW
}
_PER_INTERVAL = ("total_kw", "pv_pu", "price")


def _lattice(rng, n: int, dims: int) -> np.ndarray:
    """``n`` points of a randomly shifted rank-1 (Korobov) lattice in [0, 1)^dims."""
    z = np.array([pow(LATTICE_GENERATOR, j, n) for j in range(dims)])
    return np.mod(np.arange(n)[:, None] * z / n + rng.uniform(0.0, 1.0, dims), 1.0)


def sweep_instances(seed: int, per_case: int = SWEEP_PER_CASE,
                    t: int = SWEEP_INTERVALS):
    """Seeded one-day instances in the catalog's cost and size regime.

    For each case in ``SWEEP_CASES``, ``per_case`` parameter points come
    from a lattice rule over ``_SWEEP_BOX`` (the regime of the tests'
    ``tiny_sizing_inputs``), shifted by a random vector drawn from
    ``seed``. The lattice covers the box evenly for every shift, so the
    batch's total work varies little from seed to seed (simplex iterations
    by about 3% between quartiles, against 8% for independent draws).
    Cases alternate in the batch.
    """
    rng = np.random.default_rng(seed)
    widths = [t if name in _PER_INTERVAL else 1 for name in _SWEEP_BOX]
    lo = np.repeat([b[0] for b in _SWEEP_BOX.values()], widths)
    hi = np.repeat([b[1] for b in _SWEEP_BOX.values()], widths)
    points = {case: lo + (hi - lo) * _lattice(rng, per_case, len(lo))
              for case in SWEEP_CASES}
    batch = []
    for i in range(per_case * len(SWEEP_CASES)):
        case = SWEEP_CASES[i % len(SWEEP_CASES)]
        values = np.split(points[case][i // len(SWEEP_CASES)], np.cumsum(widths)[:-1])
        p = dict(zip(_SWEEP_BOX, values))
        cl = p["total_kw"] * p["critical"][0]
        nl = p["total_kw"] - cl
        dc_c, dc_n = p["dc_critical"][0], p["dc_noncritical"][0]
        day = DayScenario(id="day000", probability=1.0,
                          cl_ac=cl * (1 - dc_c), cl_dc=cl * dc_c,
                          nl_ac=nl * (1 - dc_n), nl_dc=nl * dc_n,
                          pv_availability=p["pv_pu"])
        tariff = TariffPlan(energy_price=p["price"],
                            demand_price=float(p["demand_price"][0]), peak_cap=1000.0)
        batch.append((ScenarioSet(days=(day,)), DeviceCatalog(), tariff, case))
    return batch


class _ReferenceBatch:
    """One pass builds, solves (reference backend), extracts and audits a batch.

    Each instance of the batch is one operation, checked against an
    independent solve of its arrays.
    """

    layers = ("build_model", "solve_milp", "extract_solution", "check_solution",
              "standardize", "simplex_solve")
    gap: float

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.optima = _Optima()
        self.batch: list = []     # (scenario set, catalog, tariff, case number)

    def run_pass(self):
        results = []
        for i, (scenario_set, catalog, tariff, case_number) in enumerate(self.batch):
            try:
                results.append(_solve_one(scenario_set, catalog, tariff, case_number,
                                          self.gap))
            except Exception:
                _report(f"{self.name} instance {i} (seed {self.seed}, case {case_number})")
                results.append(None)
        return results

    def after_pass(self, results):
        return results

    @staticmethod
    def bytes_written(record) -> int:
        return 0

    def check(self, records: list) -> tuple[int, int]:
        attempted = failed = 0
        for p, results in enumerate(records):
            for i, result in enumerate(results):
                attempted += 1
                problems = _instance_problems(result, self.optima, self.gap)
                if problems:
                    failed += 1
                    print(f"[perfbench] {self.name} pass {p} instance {i}: {problems}",
                          file=sys.stderr)
        return attempted, failed


class ReferenceRoot(_ReferenceBatch):
    """Case 3 on the packaged year reduced to ``ROOT_K`` days."""

    name = "reference-root"
    layers = ("parse_profile_csv", "reduce_scenarios") + _ReferenceBatch.layers
    gap = ROOT_GAP

    def setup(self) -> None:
        profile = study.parse_profile_csv(dersizer.packaged_profile_path())
        days = study.reduce_scenarios(profile, ReductionConfig(k=ROOT_K), LoadSplitSpec())
        self.batch = [(days, DeviceCatalog(), TariffPlan.default_tou(24), ROOT_CASE)]


class ReferenceSweep(_ReferenceBatch):
    """A seeded batch of small one-day instances."""

    name = "reference-sweep"
    gap = SWEEP_GAP

    def setup(self) -> None:
        self.batch = sweep_instances(self.seed)


WORKLOADS = {w.name: w for w in (StudyK6, ReferenceRoot, ReferenceSweep)}
