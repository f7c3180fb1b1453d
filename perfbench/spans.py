"""Spans around the program's public layer functions, for the traced run.

``Tracer.install`` replaces each name in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent) and a few counts read from the
arguments and results. It raises, naming the function, when a name it
wraps no longer exists, and ``Tracer.require`` raises when a layer a
workload must reach recorded no call, so a refactor cannot make a layer
read as zero. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

# module -> public names the program calls through; span name of each
TARGETS = {
    "dersizer.study": {
        "parse_profile_csv": "data_model.parse",
        "reduce_scenarios": "reduction.reduce",
        "build_model": "milp_builder.build",
        "solve_milp": "solver.solve",
        "extract_solution": "milp_builder.extract",
        "check_solution": "audit.check",
        "run_study": "study.run_study",
    },
    "dersizer.solver": {
        "standardize": "simplex.standardize",
        "simplex_solve": "simplex.solve",
    },
}
SPAN_OF = {fn: span for names in TARGETS.values() for fn, span in names.items()}
# spans tagged with the case of the latest build_model call
PER_CASE = ("build_model", "solve_milp", "extract_solution", "check_solution")
CASES = (0, 1, 2, 3)
SETUP_PASS = -1

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "data_model.parse_s": "s",
    "reduction.reduce_s": "s",
    **{f"milp_builder.build_s.case{c}": "s" for c in CASES},
    "milp_builder.build_s": "s",
    **{f"solver.solve_s.case{c}": "s" for c in CASES},
    **{f"solver.nodes.case{c}": "count" for c in CASES},
    **{f"milp_builder.extract_s.case{c}": "s" for c in CASES},
    **{f"audit.check_s.case{c}": "s" for c in CASES},
    "study.self_s": "s",
    "study.bytes_written": "bytes",
    "simplex.standardize_s": "s",
    "simplex.root_s": "s",
    "simplex.root_iterations": "count",
    "simplex.us_per_iteration": "us",
    "simplex.dive_s": "s",
    "simplex.dive_iterations": "count",
    "simplex.calls": "count",
    "simplex.iterations": "count",
    "simplex.us_per_call": "us",
    "solver.nodes": "count",
    "solver.solve_s": "s",
    "simplex.warm_fallbacks": "count",
}


class TraceTargetMissing(RuntimeError):
    """A function the traced run wraps is gone or is no longer called."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self.pass_index = SETUP_PASS
        self._case = None           # case of the latest build_model call
        self._binaries = None       # binary columns of the instance being solved
        self._lp_phase = "root"     # root -> dive -> node within one solve_milp

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "pass": self.pass_index, **attrs}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- wrapping ---------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for fn_name in names:
                if not hasattr(module, fn_name):
                    raise TraceTargetMissing(
                        f"{module_name}.{fn_name} no longer exists; the traced run "
                        "cannot measure its layer")
            for fn_name in names:
                original = getattr(module, fn_name)
                self._restore.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(fn_name, original))
        return self

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()

    def _wrap(self, fn_name, fn):
        signature = inspect.signature(fn)
        before = getattr(self, f"_before_{fn_name}", None)
        after = getattr(self, f"_after_{fn_name}", None)
        span_name = SPAN_OF[fn_name]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            attrs = before(bound) if before else {}
            if fn_name in PER_CASE:
                attrs["case"] = self._case
            with self.span(span_name, **attrs) as record:
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    record["raised"] = True
                    raise
                if after:
                    record.update(after(result))
                return result
        return wrapper

    def _before_build_model(self, bound):
        self._case = bound["case"].number
        return {}

    def _before_solve_milp(self, bound):
        self._binaries = np.asarray(bound["instance"].binary_indices)
        self._lp_phase = "root"
        return {}

    def _after_solve_milp(self, result):
        return {"nodes": int(result.nodes)}

    def _before_simplex_solve(self, bound):
        # The first LP of a solve is the root; LPs that fix every binary
        # before the first node LP are the rounding dive.
        if self._lp_phase == "root":
            kind, self._lp_phase = "root", "dive"
        else:
            fixed = self._binaries is not None and bool(np.all(
                bound["lower"][self._binaries] == bound["upper"][self._binaries]))
            if not (self._lp_phase == "dive" and fixed):
                self._lp_phase = "node"
            kind = self._lp_phase
        return {"kind": kind, "warm": bound.get("basis") is not None}

    def _after_simplex_solve(self, result):
        return {"iterations": int(result.iterations)}

    # -- checks and metrics ---------------------------------------------

    def require(self, workload: str, fn_names, cases=None) -> None:
        """Raise unless every named layer recorded a call (per case, if given)."""
        for fn_name in fn_names:
            seen = [s for s in self.spans if s["name"] == SPAN_OF[fn_name]]
            if not seen:
                raise TraceTargetMissing(
                    f"{fn_name} recorded no call on workload {workload}; the "
                    "program no longer calls it through the wrapped name")
            if cases is not None and fn_name in PER_CASE:
                missing = set(cases) - {s["case"] for s in seen}
                if missing:
                    raise TraceTargetMissing(
                        f"{fn_name} recorded no call for cases {sorted(missing)} "
                        f"on workload {workload}")

    def pass_metrics(self, index: int, bytes_written: int) -> dict:
        """Every per-layer metric for one pass, from its spans."""
        spans = [s for s in self.spans if s["pass"] == index]

        def dur(s):
            return s["end"] - s["start"]

        def total(name, **match):
            return sum(dur(s) for s in spans if s["name"] == name
                       and all(s.get(k) == v for k, v in match.items()))

        def count(name, key, **match):
            return sum(s.get(key, 0) for s in spans if s["name"] == name
                       and all(s.get(k) == v for k, v in match.items()))

        lp = [s for s in spans if s["name"] == "simplex.solve"]
        root_s = total("simplex.solve", kind="root")
        root_it = count("simplex.solve", "iterations", kind="root")
        lp_s = total("simplex.solve")
        study_self = sum(
            dur(s) - sum(dur(c) for c in spans if c["parent"] == s["id"])
            for s in spans if s["name"] == "study.run_study")
        m = {
            "data_model.parse_s": total("data_model.parse"),
            "reduction.reduce_s": total("reduction.reduce"),
            "milp_builder.build_s": total("milp_builder.build"),
            "study.self_s": study_self,
            "study.bytes_written": bytes_written,
            "simplex.standardize_s": total("simplex.standardize"),
            "simplex.root_s": root_s,
            "simplex.root_iterations": root_it,
            "simplex.us_per_iteration": 1e6 * root_s / root_it if root_it else 0.0,
            "simplex.dive_s": total("simplex.solve", kind="dive"),
            "simplex.dive_iterations": count("simplex.solve", "iterations", kind="dive"),
            "simplex.calls": len(lp),
            "simplex.iterations": count("simplex.solve", "iterations"),
            "simplex.us_per_call": 1e6 * lp_s / len(lp) if lp else 0.0,
            "solver.nodes": count("solver.solve", "nodes"),
            "solver.solve_s": total("solver.solve"),
            "simplex.warm_fallbacks": sum(1 for s in lp if s["warm"] and s.get("raised")),
        }
        for c in CASES:
            m[f"milp_builder.build_s.case{c}"] = total("milp_builder.build", case=c)
            m[f"solver.solve_s.case{c}"] = total("solver.solve", case=c)
            m[f"solver.nodes.case{c}"] = count("solver.solve", "nodes", case=c)
            m[f"milp_builder.extract_s.case{c}"] = total("milp_builder.extract", case=c)
            m[f"audit.check_s.case{c}"] = total("audit.check", case=c)
        return m


def summarize(per_pass: list[dict], setup: dict) -> tuple[dict, list[str]]:
    """Median of each time over the passes; counts must repeat exactly.

    Layers a workload runs only in set-up (parse and reduce on
    reference-root) report their set-up time. Returns the metrics and the
    names of counts that differed between passes.
    """
    out, unsteady = {}, []
    for name, unit in METRICS.items():
        values = [p[name] for p in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                unsteady.append(name)
            value = values[0]
        else:
            value = float(statistics.median(values))
            if value == 0 and name in setup:
                value = setup[name]
        out[name] = {"value": value, "unit": unit}
    return out, unsteady
