"""Study runner, report files, savings table and the CLI surface."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dersizer.solver as solver
from dersizer import (CaseSpec, CostBreakdown, build_model, compare_cases, run_study,
                      solve_milp, study, write_profile_csv)
from dersizer.cli import main as cli_main
from dersizer.errors import ConfigError, NumericalError
from dersizer.study import StudyConfig

from conftest import make_profile


def _config_file(tmp_path, profile_path, **overrides) -> Path:
    raw = {
        "profile": str(profile_path),
        "output_dir": str(tmp_path / "out"),
        "cases": [0, 3],
        "reduction": {"k": 2},
        "solve": {"backend": "external", "relative_gap": 1e-4},
    }
    raw.update(overrides)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def small_profile_path(tmp_path_factory):
    """Two-week synthetic profile, small enough for quick studies."""
    rng = np.random.default_rng(11)
    hours = 14 * 24
    hh = np.arange(hours) % 24
    load = 300.0 + 150.0 * np.exp(-0.5 * ((hh - 14) / 3.0) ** 2) \
        + rng.uniform(0, 10, hours)
    pv = np.clip(np.sin((hh - 6) / 12 * np.pi), 0, 1) * 0.8
    path = tmp_path_factory.mktemp("profiles") / "two_weeks.csv"
    write_profile_csv(make_profile(load, pv), path)
    return path


def test_config_parsing_and_validation(tmp_path, small_profile_path, capsys):
    path = _config_file(tmp_path, small_profile_path)
    config = StudyConfig.from_file(path)
    assert config.cases == (0, 3)
    assert config.reduction.k == 2
    assert config.solve.backend == "external"
    with pytest.raises(ConfigError):
        StudyConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        StudyConfig.from_file(bad)
    for cases in ([7], [2.7], [True]):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"profile": str(small_profile_path), "cases": cases})
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({"profile": str(small_profile_path),
                               "unknown_key": 1})
    for text, message in (("[]", "config must be a JSON object"),
                          ('{"cases": []}', "no cases requested")):
        bad.write_text(text)
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(bad)]) == 3
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("block, named", [
    ({"weights": {"annual_day_weigth": 300}}, "annual_day_weigth"),
    ({"tariff": {}}, "energy_price"),
    ({"split": {"critical_fractoin": 0.3}}, "critical_fractoin"),
    ({"solve": {"gap": 1e-3}}, "gap"),
])
def test_bad_config_block_is_a_config_error_naming_the_key(small_profile_path,
                                                           block, named):
    with pytest.raises(ConfigError, match=named):
        StudyConfig.from_dict({"profile": str(small_profile_path), **block})


@pytest.mark.parametrize("block", ["split", "reduction", "catalog", "tariff",
                                   "weights", "solve"])
def test_config_block_that_is_not_an_object_is_a_config_error(small_profile_path,
                                                              block):
    for value in ([], [["energy_price", [0.1] * 24]], 1.0):
        with pytest.raises(ConfigError, match=f"config block '{block}' must be a JSON"):
            StudyConfig.from_dict({"profile": str(small_profile_path), block: value})


def test_run_study_outputs_and_audited_totals(tmp_path, small_profile_path):
    config = StudyConfig.from_file(_config_file(tmp_path, small_profile_path))
    outcome = run_study(config)
    assert outcome.exit_code == 0
    out = outcome.output_dir
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "metric,case_0,case_3"
    metrics = {line.split(",")[0]: line.split(",")[1:] for line in results[1:]}
    assert set(metrics) == {"pv_kw", "es_kw", "inverter_kw", "converter_kw",
                            "ic_kw", "energy_charges_usd", "demand_charges_usd",
                            "total_payment_usd", "shed_energy_kwh"}
    # Reported totals equal the audited recomputed breakdowns.
    for column, case in ((0, 0), (1, 3)):
        breakdown = outcome.cases[case].audit.breakdown
        assert float(metrics["energy_charges_usd"][column]) == pytest.approx(
            breakdown.energy_charges, abs=5e-6)
        assert float(metrics["total_payment_usd"][column]) == pytest.approx(
            breakdown.total_payment, abs=5e-6)
    for case, day_count in ((0, 2), (3, 2)):
        assert (out / f"audit_case{case}.txt").exists()
        assert (out / f"curtailment_case{case}.csv").exists()
        dispatch = sorted(out.glob(f"dispatch_case{case}_*.csv"))
        assert len(dispatch) == day_count
        header = dispatch[0].read_text().splitlines()[0]
        assert header == ("interval,p_grid_kw,pv_kw,ch_ac_kw,ch_dc_kw,"
                          "dch_ac_kw,dch_dc_kw,ic_flow_ac_kw,soc_kwh")
    savings = (out / "savings.csv").read_text().splitlines()
    assert savings[0] == "component,case_3"
    audit_text = (out / "audit_case0.txt").read_text()
    assert "monthly billing convention" in audit_text


def test_zero_load_profile_all_zero_rows(tmp_path):
    hours = 4 * 24
    profile = make_profile(np.zeros(hours),
                           np.tile(np.clip(np.sin(np.linspace(0, np.pi, 24)),
                                           0, 1), 4))
    profile_path = tmp_path / "zero.csv"
    write_profile_csv(profile, profile_path)
    config = StudyConfig.from_dict({
        "profile": str(profile_path),
        "output_dir": str(tmp_path / "out"),
        "cases": [0, 1, 2, 3],
        "reduction": {"k": 2},
        "solve": {"backend": "external"},
    })
    outcome = run_study(config)
    assert outcome.exit_code == 0
    lines = (outcome.output_dir / "results.csv").read_text().splitlines()
    for line in lines[1:]:
        metric, *values = line.split(",")
        for value in values:
            assert float(value) == pytest.approx(0.0, abs=1e-6), (metric, value)


def test_study_outputs_are_deterministic(tmp_path, small_profile_path):
    config_a = StudyConfig.from_dict({
        "profile": str(small_profile_path), "output_dir": str(tmp_path / "a"),
        "cases": [0, 3], "reduction": {"k": 2},
        "solve": {"backend": "external", "relative_gap": 1e-4}})
    config_b = StudyConfig.from_dict({
        "profile": str(small_profile_path), "output_dir": str(tmp_path / "b"),
        "cases": [3, 0],  # order must not matter
        "reduction": {"k": 2},
        "solve": {"backend": "external", "relative_gap": 1e-4}})
    out_a = run_study(config_a).output_dir
    out_b = run_study(config_b).output_dir
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_infeasible_case_reports_and_continues(tmp_path, small_profile_path):
    config = StudyConfig.from_dict({
        "profile": str(small_profile_path), "output_dir": str(tmp_path / "out"),
        "cases": [0, 3], "reduction": {"k": 2},
        "tariff": {"energy_price": [0.1] * 24, "demand_price": 18.0,
                   "peak_cap": 1.0},  # nothing fits under a 1 kW interconnect
        "solve": {"backend": "external"}})
    outcome = run_study(config)
    assert outcome.exit_code == 1
    assert not outcome.cases[0].solved
    results = (outcome.output_dir / "results.csv").read_text()
    assert "n/a" in results


def test_compare_cases_math():
    base = CostBreakdown(energy_charges=74.59, demand_charges=12.70)
    der = CostBreakdown(energy_charges=53.34, demand_charges=8.22)
    table = compare_cases({0: base, 3: der})
    # Reference savings pattern: 28.5% energy, 35.3% demand, 29.5% total bill.
    assert table[3]["energy_charges"] == pytest.approx(0.2849, abs=5e-4)
    assert table[3]["demand_charges"] == pytest.approx(0.3528, abs=5e-4)
    assert table[3]["total_payment"] == pytest.approx(0.2947, abs=5e-4)
    pv_only = CostBreakdown(energy_charges=54.34, demand_charges=10.55)
    table = compare_cases({0: base, 1: pv_only})
    assert table[1]["energy_charges"] == pytest.approx(0.2715, abs=5e-4)
    same = compare_cases({0: base, 2: base})
    assert same[2]["energy_charges"] == pytest.approx(0.0, abs=1e-12)
    zero_base = compare_cases({0: CostBreakdown(), 3: der})
    assert zero_base[3]["energy_charges"] is None
    with pytest.raises(ConfigError):
        compare_cases({1: der})


def test_savings_nesting_on_fixture(solved_cases, reduced_set, table_catalog,
                                    default_tariff):
    """Full-DER savings dominate each single-device deployment's savings."""
    from dersizer import recompute_cost_breakdown
    breakdowns = {n: recompute_cost_breakdown(b["solution"], reduced_set,
                                              table_catalog, default_tariff)
                  for n, b in solved_cases.items()}
    table = compare_cases(breakdowns)
    slack = 2e-6
    for component in ("total_payment", "total"):
        der = table[3][component]
        assert der >= table[1][component] - slack
        assert der >= table[2][component] - slack


def test_cli_run_reduce_validate(tmp_path, small_profile_path, capsys):
    config_path = _config_file(tmp_path, small_profile_path)
    assert cli_main(["validate", "--config", str(config_path)]) == 0
    out = tmp_path / "cli_out"
    assert cli_main(["run", "--config", str(config_path), "--cases", "0",
                     "--gap", "1e-4", "--audit", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "case 0" in captured and "monthly billing convention" in captured
    assert (out / "results.csv").exists() and not (tmp_path / "out").exists()
    # --audit prints the transcript that audit_case0.txt holds under its header.
    assert (out / "audit_case0.txt").read_text().split("\n", 1)[1] in captured
    assert cli_main(["run", "--config", str(config_path), "--cases", "0,x"]) == 3
    assert "bad --cases value '0,x'" in capsys.readouterr().err
    assert cli_main(["run", "--config", str(config_path), "--cases", ""]) == 3
    assert "bad --cases value ''" in capsys.readouterr().err
    days_csv = tmp_path / "days.csv"
    assert cli_main(["reduce", "--profile", str(small_profile_path), "--k", "2",
                     "--out", str(days_csv)]) == 0
    assert days_csv.read_text().splitlines()[0] == "day_index,probability"
    assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 3
    assert cli_main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


def test_cli_malformed_profile_is_a_config_error(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    profile.write_text("time,load,pv\n2019-01-01T00:00:00,100,0.1\n")
    config_path = _config_file(tmp_path, profile, cases=[0])
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(config_path)]) == 3
        assert f"cannot ingest {profile}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_reports_a_cold_numerical_error_as_a_failed_case(
        tmp_path, small_profile_path, monkeypatch, capsys):
    """A cold LP that fails numerically is not retried: the case fails, exit 1."""
    def simplex_solve(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(solver, "simplex_solve", simplex_solve)
    config_path = _config_file(tmp_path, small_profile_path, cases=[0],
                               solve={"backend": "reference"})
    config = StudyConfig.from_file(config_path)
    _, scenario_set = study.prepare_study(config)
    instance = build_model(scenario_set, config.catalog, config.tariff, CaseSpec.from_number(0))
    with pytest.raises(NumericalError, match="injected"):
        solve_milp(instance, config.solve)
    assert cli_main(["run", "--config", str(config_path)]) == 1
    assert "case 0: FAILED (injected)" in capsys.readouterr().out


def test_cli_propagates_solve_failure(tmp_path, small_profile_path):
    config_path = _config_file(
        tmp_path, small_profile_path,
        tariff={"energy_price": [0.1] * 24, "demand_price": 18.0, "peak_cap": 1.0})
    assert cli_main(["run", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("overrides, code", [
    ({}, 0),
    ({"weights": {"annual_day_weight": -1}}, 3),
    ({"tariff": {"energy_price": [0.1] * 12}}, 1),
    ({"soc_boundary": "monday"}, 1),
    ({"soc_boundary": 1.5}, 1),
    ({"solve": {"backend": "highs"}}, 3),
    ({"solve": {"relative_gap": -1}}, 3),
    ({"soc_boundary": None}, 1),
    ({"soc_boundary": [0.5]}, 1),
    ({"soc_boundary": True}, 1),
    ({"reduction": {"k": 2.5}}, 3),
    ({"solve": {"time_limit": "10"}}, 3),
    ({"solve": {"time_limit": -1}}, 3),
    ({"solve": {"relative_gap": float("nan")}}, 3),
    ({"catalog": {"eta_ic": True}}, 3),
    ({"catalog": {"c_pv": float("nan")}}, 3),
    ({"tariff": {"energy_price": [0.1] * 24, "demand_price": float("nan")}}, 3),
    ({"tariff": {"energy_price": [0.1] * 23 + [True]}}, 3),
    ({"split": {"critical_fraction": True}}, 3),
    ({"weights": {"annual_demand_weight": "12"}}, 3),
    ({"weights": {"annual_day_weight": float("nan")}}, 3),
    ({"catalog": {"c_pv": float("inf")}}, 3),
    ({"weights": {"annual_day_weight": float("inf")}}, 3),
    ({"tariff": {"energy_price": [0.1] * 24, "peak_cap": float("inf")}}, 0),
    ({"catalog": {"c_pv": 1e21}}, 1),
    ({"tariff": {"energy_price": [0.1] * 24, "peak_cap": 1e21}}, 1),
    ({"solve": {"relative_gap": float("inf")}}, 3),
    ({"solve": {"time_limit": float("inf")}}, 3),
])
def test_cli_validate_exits_as_run_does(tmp_path, small_profile_path, overrides, code):
    config_path = _config_file(tmp_path, small_profile_path, cases=[0], **overrides)
    assert cli_main(["validate", "--config", str(config_path)]) == code
    assert not (tmp_path / "out").exists()
    assert cli_main(["run", "--config", str(config_path)]) == code
    if code == 3:
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [["--gap", "-1"], ["--backend", "highs"],
                                      ["--gap", "inf"], ["--backend", ""]])
def test_cli_bad_solve_override_is_a_config_error(tmp_path, small_profile_path,
                                                  override, capsys):
    config_path = _config_file(tmp_path, small_profile_path, cases=[0])
    assert cli_main(["run", "--config", str(config_path), *override]) == 3
    assert "bad solve override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run", "--config", "study.json", "--gap", "abc"],
                                  ["run"], []])
def test_cli_argument_errors_are_config_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_cli_run_reports_a_negative_capacity_as_an_audit_failure(
        tmp_path, small_profile_path, monkeypatch):
    """A solution the audit rejects still gets its files and exits 2."""
    real_extract = study.extract_solution

    def negative_ic(instance, raw):
        solution = real_extract(instance, raw)
        return replace(solution, capacities={**solution.capacities, "ic": -1e-3})

    monkeypatch.setattr(study, "extract_solution", negative_ic)
    config_path = _config_file(tmp_path, small_profile_path, cases=[0])
    assert cli_main(["run", "--config", str(config_path)]) == 2
    out = tmp_path / "out"
    assert (out / "results.csv").exists()
    assert "capacity_nonneg [sizing]" in (out / "audit_case0.txt").read_text()


@pytest.mark.parametrize("backend", ["reference", "external"])
def test_run_study_starts_each_case_from_its_twin_basis(tmp_path, small_profile_path,
                                                        monkeypatch, backend):
    # Each case is handed the last solved case's basis. Case 1 has case 0's
    # shape and case 3 has case 2's; case 2, handed case 1's basis of
    # another shape, must solve exactly as it does cold.
    real = study.solve_milp
    calls = []

    def solve_milp(instance, options, warm_start=None):
        calls.append((instance, warm_start, real(instance, options, warm_start=warm_start)))
        return calls[-1][2]

    monkeypatch.setattr(study, "solve_milp", solve_milp)
    config = StudyConfig.from_file(_config_file(
        tmp_path, small_profile_path, cases=[0, 1, 2, 3],
        solve={"backend": backend, "relative_gap": 1e-4}))
    assert run_study(config).exit_code == 0
    (_, start0, case0), (_, start1, case1), (instance2, start2, case2), (_, start3, _) = calls
    assert start0 is None
    assert start1 is case0.basis is not None
    assert start2 is case1.basis is not None
    assert start3 is case2.basis is not None
    cold = real(instance2, config.solve)
    assert float(case2.objective).hex() == float(cold.objective).hex()
    assert case2.iterations == cold.iterations
    np.testing.assert_array_equal(case2.x, cold.x)
