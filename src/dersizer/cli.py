"""Command line entry points: run a study, reduce a profile, validate a config.

Exit codes (``study.EXIT_*``): 0 ok, 1 build or solve failure, 2 audit
violation, 3 config, argument or I/O error. ``validate`` builds every case
without solving and exits with the code ``run`` reaches before its first
solve.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data_model import LoadSplitSpec, parse_profile_csv
from .errors import (ConfigError, DersizerError, IngestionError, SolverError,
                     ValidationError)
from .reduction import (REDUCTION_FEATURES, ReductionConfig, reduce_scenarios,
                        write_reduction_csv)
from .solver import BACKENDS
from .study import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVE, StudyConfig, prepare_study,
                    run_study)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with ``EXIT_CONFIG``, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dersizer",
        description="Size PV, storage and converters for a hybrid AC/DC "
                    "microgrid by solving the scenario-based sizing MILP.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the four-case sizing study")
    run.add_argument("--config", required=True, help="JSON study config")
    run.add_argument("--cases", help="comma-separated case numbers, e.g. 0,3")
    run.add_argument("--gap", type=float, help="relative MIP gap override")
    run.add_argument("--backend", help=f"solver backend override: {', '.join(BACKENDS)}")
    run.add_argument("--audit", action="store_true",
                     help="print each case's audit transcript to stdout")
    run.add_argument("--out", help="output directory override")

    reduce_p = sub.add_parser("reduce", help="pick representative days from a profile")
    reduce_p.add_argument("--profile", required=True, help="hourly profile CSV")
    reduce_p.add_argument("--k", type=int, default=6, help="number of days")
    reduce_p.add_argument("--feature", choices=REDUCTION_FEATURES, default="load")
    reduce_p.add_argument("--out", help="write day_index,probability CSV here")

    validate = sub.add_parser("validate", help="check a study config end to end")
    validate.add_argument("--config", required=True, help="JSON study config")
    return parser


def _cmd_run(args) -> int:
    config = StudyConfig.from_file(args.config)
    if args.cases is not None:
        try:
            cases = tuple(int(c) for c in args.cases.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --cases value {args.cases!r}") from exc
        config = replace(config, cases=cases)
    solve = config.solve
    try:
        if args.gap is not None:
            solve = replace(solve, relative_gap=args.gap)
        if args.backend is not None:
            solve = replace(solve, backend=args.backend)
    except SolverError as exc:
        raise ConfigError(f"bad solve override: {exc}") from exc
    config = replace(config, solve=solve)
    if args.out:
        config = replace(config, output_dir=Path(args.out))

    print("dersizer study (demand charges on a monthly billing convention)")
    outcome = run_study(config)
    for case in sorted(outcome.cases):
        result = outcome.cases[case]
        if not result.solved:
            print(f"case {case}: FAILED ({result.error})")
            continue
        sol = result.solution
        print(f"case {case}: {sol.status} objective={sol.objective:.2f} "
              f"pv={sol.capacities['pv']:.1f} es={sol.capacities['es']:.1f} "
              f"audit={'ok' if result.audit.ok else 'VIOLATIONS'}")
        if args.audit:
            print(result.audit.to_text())
    print(f"outputs in {outcome.output_dir}")
    return outcome.exit_code


def _cmd_reduce(args) -> int:
    profile = parse_profile_csv(args.profile)
    cfg = ReductionConfig(k=args.k, feature=args.feature)
    scenario_set = reduce_scenarios(profile, cfg, LoadSplitSpec())
    for day in scenario_set.days:
        print(f"{day.id}: probability {day.probability:.6f}")
    if args.out:
        write_reduction_csv(scenario_set, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = StudyConfig.from_file(args.config)
    profile, scenario_set = prepare_study(config)
    exit_code = EXIT_OK
    for case in config.cases:
        try:
            config.build_case(scenario_set, case)
        except DersizerError as exc:
            print(f"case {case}: FAILED ({exc})")
            exit_code = EXIT_SOLVE
    if exit_code == EXIT_OK:
        print(f"config ok: {profile.whole_days} days, k={config.reduction.k}, "
              f"cases {list(config.cases)}")
    return exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "reduce": _cmd_reduce, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, IngestionError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DersizerError as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    raise SystemExit(main())
