"""Model construction: big-M values, dimensions, the product reformulation,
case handling and solution extraction."""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

from dersizer import (CaseSpec, DeviceCatalog, ScenarioSet, SolveOptions,
                      TariffPlan, build_model, check_solution, compute_big_m,
                      extract_solution, solve_lp, solve_milp, write_lp)
from dersizer import milp_builder
from dersizer.data_model import DayScenario
from dersizer.errors import BuildError, SolverError, ValidationError
from dersizer.milp_builder import expected_dimensions, variable_blocks
from dersizer.milp_instance import GE, LE
from dersizer.solution import GridDispatch, IslandedDispatch
from dersizer.solver import SolveResult

from conftest import dense_instance, tiny_sizing_inputs


def _flat_day(load=10.0, pv=0.5, t=2, probability=1.0, id="d0"):
    quarter = [load / 4.0] * t
    return DayScenario(id=id, probability=probability, cl_ac=quarter,
                       cl_dc=quarter, nl_ac=quarter, nl_dc=quarter,
                       pv_availability=[pv] * t)


def _tariff(t):
    return TariffPlan(energy_price=[0.1] * t, demand_price=18.0, peak_cap=1000.0)


def _coef(instance, row, col, s=0, t=1):
    """The matrix entry of family ``col``'s column in family ``row``'s row at (s, t)."""
    return instance.matrix[instance.row_names.index(f"{row}_s{s}_t{t}"),
                           instance.col(col, s, t)]


def test_big_m_es_is_battery_cap():
    scen = ScenarioSet(days=(_flat_day(),))
    assert compute_big_m(scen, DeviceCatalog())["m_es"] == 350.0


def test_big_m_degenerate_zero_then_builder_substitutes_one():
    scen = ScenarioSet(days=(_flat_day(load=0.0),))
    catalog = DeviceCatalog(pv_max=0.0, es_max=0.0)
    values = compute_big_m(scen, catalog)
    assert values["m_flow"] == 0.0
    instance = build_model(scen, catalog, _tariff(2), CaseSpec.from_number(3))
    assert _coef(instance, "flow_in_cap", "z_flow") == -1.0
    assert instance.rhs[instance.row_names.index("flow_out_cap_s0_t1")] == 1.0


def test_big_m_flow_formula_on_fixture_scale():
    day = _flat_day(load=846.0)
    scen = ScenarioSet(days=(day,))
    values = compute_big_m(scen, DeviceCatalog())
    assert values["m_flow"] == pytest.approx(846 + 400 * 0.98 + 350 * 0.93,
                                             abs=1e-12)
    assert values["m_flow"] == pytest.approx(1563.5, abs=1e-12)


@pytest.mark.parametrize("case_number,s,t", [(0, 1, 2), (1, 1, 3), (2, 2, 4),
                                             (3, 1, 3), (3, 1, 24), (3, 6, 24)])
def test_dimensions_match_documented_formula(case_number, s, t):
    case = CaseSpec.from_number(case_number)
    days = tuple(_flat_day(t=t, probability=1.0 / s, id=f"d{i}") for i in range(s))
    scen = ScenarioSet(days=days)
    instance = build_model(scen, DeviceCatalog(), _tariff(t), case)
    expected = expected_dimensions(s, t, case)
    assert instance.n_cols == expected["n_cols"]
    assert instance.n_rows == expected["n_rows"]
    assert len(instance.binary_indices) == expected["n_binary"]


def test_tiny_case3_has_nine_binaries():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    assert len(instance.binary_indices) == 9
    assert instance.n_cols == 82 and instance.n_rows == 96


def test_symbol_map_unique_per_index():
    scen, catalog, tariff = tiny_sizing_inputs(1)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    names = instance.col_names
    assert len(set(names)) == len(names)
    for base in ("p_grid", "v_pv", "dch_ac", "ch_dc", "soc", "f_dc_in", "z_flow",
                 "y_dch", "u_dch", "k_dch", "i_v_pv", "i_dch_ac", "shed_cl_ac",
                 "shed_nl_dc", "i_z_flow"):
        for t in range(1, 4):
            assert sum(1 for n in names if n == f"{base}_s0_t{t}") == 1, base
    assert instance.col("x_pv") == 0
    assert instance.col_names[instance.col("p_grid", 0, 1)] == "p_grid_s0_t1"


@pytest.mark.parametrize("soc_boundary", ["cyclic", 0.5])
@pytest.mark.parametrize("case_number", [0, 1, 2, 3])
def test_index_blocks_match_column_names(case_number, soc_boundary):
    days = tuple(_flat_day(load=10.0 * (i + 1), t=3, probability=0.5, id=f"d{i}")
                 for i in range(2))
    case = CaseSpec.from_number(case_number)
    instance = build_model(ScenarioSet(days=days), DeviceCatalog(), _tariff(3), case,
                           soc_boundary=soc_boundary)
    blocks, names = variable_blocks(instance), instance.col_names
    every = np.concatenate([index.ravel() for index in blocks.values()])
    assert np.array_equal(np.sort(every), np.arange(instance.n_cols))
    assert [names[j] for j in blocks["x"]] == ["x_pv", "x_es", "x_ic", "x_inv", "x_con"]
    assert [names[j] for j in blocks["p_peak"]] == ["p_peak_s0", "p_peak_s1"]
    assert ("soc" in blocks) == ("y_dch" in blocks) == case.allow_es
    for family, index in blocks.items():
        if family in ("x", "p_peak"):
            continue
        first = 0 if family == "soc" else 1
        assert index.shape == (2, 3 + 1 - first), family
        for (s, t), j in np.ndenumerate(index):
            assert names[j] == f"{family}_s{s}_t{t + first}"
    binaries = instance.binary_indices
    assert instance.meta["binary_free"].tolist() == [
        not names[j].startswith("y_dch_") for j in binaries]
    for hint, gated in (
            ("binary_on", {"z_flow": ["f_dc_in"], "i_z_flow": ["i_f_dc_in"],
                           "y_dch": ["dch_ac", "dch_dc"]}),
            ("binary_off", {"z_flow": ["f_dc_out"], "i_z_flow": ["i_f_dc_out"]})):
        expected = sorted((f"{family}_s{s}_t{t}", f"{flow}_s{s}_t{t}")
                          for family, flows in gated.items() if family in blocks
                          for flow in flows for s in range(2) for t in range(1, 4))
        pairs = sorted((names[binaries[b]], names[j]) for b, j in instance.meta[hint].T)
        assert pairs == expected, hint


def test_models_of_one_shape_share_names_and_senses():
    first = build_model(*tiny_sizing_inputs(0), CaseSpec.from_number(3))
    second = build_model(*tiny_sizing_inputs(1), CaseSpec.from_number(3))
    for shared in ("col_names", "row_names", "row_sense"):
        assert getattr(first, shared) is getattr(second, shared), shared
    assert first.meta["families"] is second.meta["families"]


def test_case_flags_pin_capacity_bounds():
    scen = ScenarioSet(days=(_flat_day(),))
    catalog, tariff = DeviceCatalog(), _tariff(2)
    base = build_model(scen, catalog, tariff, CaseSpec.from_number(0))
    assert base.col_upper[base.col("x_pv")] == 0.0
    assert base.col_upper[base.col("x_es")] == 0.0
    assert base.col_upper[base.col("x_inv")] == 0.0
    assert "y_dch_s0_t1" not in base.col_names
    pv_only = build_model(scen, catalog, tariff, CaseSpec.from_number(1))
    assert pv_only.col_upper[pv_only.col("x_pv")] == 400.0
    assert pv_only.col_upper[pv_only.col("x_es")] == 0.0
    full = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    assert full.col_upper[full.col("x_es")] == 350.0
    assert np.isinf(full.col_upper[full.col("x_inv")])


def test_case_spec_numbers():
    assert CaseSpec.from_number(0) == CaseSpec(False, False)
    assert CaseSpec.from_number(1) == CaseSpec(True, False)
    assert CaseSpec.from_number(2) == CaseSpec(False, True)
    assert CaseSpec.from_number(3) == CaseSpec(True, True)
    assert CaseSpec.from_number(3).number == 3
    from dersizer.errors import ConfigError
    with pytest.raises(ConfigError):
        CaseSpec.from_number(4)


def test_build_rejects_tariff_length_mismatch():
    scen = ScenarioSet(days=(_flat_day(t=3),))
    with pytest.raises(BuildError, match="tariff"):
        build_model(scen, DeviceCatalog(), _tariff(2), CaseSpec.from_number(0))


def test_build_rejects_invalid_scenarios():
    with pytest.raises(ValidationError, match="probabilities sum"):
        ScenarioSet(days=(_flat_day(probability=0.4),))


def test_build_rejects_bad_soc_boundary():
    scen = ScenarioSet(days=(_flat_day(),))
    with pytest.raises(BuildError, match="boundary"):
        build_model(scen, DeviceCatalog(), _tariff(2), CaseSpec.from_number(3),
                    soc_boundary="monday")


@pytest.mark.parametrize("x_value,y_value,expected_u",
                         [(350.0, 1.0, 350.0), (350.0, 0.0, 0.0),
                          (123.4, 1.0, 123.4), (123.4, 0.0, 0.0)])
def test_product_reformulation_forces_u(x_value, y_value, expected_u):
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    blocks = variable_blocks(instance)
    x_es, y = blocks["x"][1], blocks["y_dch"][0, 0]
    u, k = blocks["u_dch"][0, 0], blocks["k_dch"][0, 0]
    lower, upper = instance.col_lower.copy(), instance.col_upper.copy()
    lower[x_es] = upper[x_es] = x_value
    lower[y] = upper[y] = y_value
    for sense in (1.0, -1.0):  # minimizing and maximizing u give the same value
        objective = np.zeros(instance.n_cols)
        objective[u] = sense
        res = solve_lp(replace(instance, objective=objective, col_lower=lower,
                               col_upper=upper))
        assert res.status == "optimal"
        assert res.x[u] == pytest.approx(expected_u, abs=1e-7)
        assert res.x[k] == pytest.approx(x_value - expected_u, abs=1e-7)


def test_product_reformulation_rejects_small_m(monkeypatch):
    def halved(*args):
        values = compute_big_m(*args)
        return {**values, "m_es": 0.5 * values["m_es"]}

    monkeypatch.setattr(milp_builder, "compute_big_m", halved)
    scen, catalog, tariff = tiny_sizing_inputs(0)
    with pytest.raises(BuildError, match="big-M"):
        build_model(scen, catalog, tariff, CaseSpec.from_number(3))


def _builder_digest(instance) -> str:
    """Hash of every array, sense, name, family code and binary gate hint."""
    h = hashlib.sha256()
    for arr in (instance.objective, instance.col_lower, instance.col_upper,
                instance.col_binary, instance.rhs, instance.matrix.indptr,
                instance.matrix.indices, instance.matrix.data,
                instance.meta["col_family"]):
        h.update(np.ascontiguousarray(arr).tobytes() + b"|")
    for text in (instance.row_sense, instance.col_names, instance.row_names,
                 instance.meta["families"]):
        h.update("\n".join(text).encode() + b"|")
    for hint in ("binary_on", "binary_off", "binary_free"):
        h.update(repr(instance.meta[hint].tolist()).encode() + b"|")
    return h.hexdigest()[:16]


# Digests of the builder's output for _pinned_inputs(), one per (case, boundary).
# Apart from the binary gate hints, they hash what the earlier row-at-a-time
# builder produced. Without a battery (cases 0 and 1) the SoC boundary builds
# nothing.
PINNED_DIGESTS = {
    (0, "cyclic"): "34d1a89d1a400f7f", (0, 0.5): "34d1a89d1a400f7f",
    (1, "cyclic"): "5142724af2c0e84b", (1, 0.5): "5142724af2c0e84b",
    (2, "cyclic"): "6493f170fc6edbe6", (2, 0.5): "dccfa417c808b8f5",
    (3, "cyclic"): "fa5c282a60d1c609", (3, 0.5): "c641b3603d7a03d3",
}


def _pinned_inputs():
    day0 = DayScenario(id="d0", probability=0.75, cl_ac=[12.0, 30.5, 7.25],
                       cl_dc=[4.0, 9.5, 2.0], nl_ac=[40.0, 61.0, 22.5],
                       nl_dc=[15.0, 18.25, 6.0], pv_availability=[0.0, 0.62, 0.35])
    day1 = DayScenario(id="d1", probability=0.25, cl_ac=[20.0, 14.5, 9.0],
                       cl_dc=[6.5, 3.0, 8.0], nl_ac=[55.0, 33.0, 47.5],
                       nl_dc=[11.0, 26.0, 13.5], pv_availability=[0.0, 0.9, 0.1])
    tariff = TariffPlan(energy_price=[0.08, 0.21, 0.13], demand_price=16.5,
                        peak_cap=1000.0)
    return ScenarioSet(days=(day0, day1)), DeviceCatalog(), tariff


@pytest.mark.parametrize("soc_boundary", ["cyclic", 0.5])
@pytest.mark.parametrize("case_number", [0, 1, 2, 3])
def test_builder_output_is_pinned(case_number, soc_boundary):
    scen, catalog, tariff = _pinned_inputs()
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(case_number),
                           soc_boundary=soc_boundary)
    assert _builder_digest(instance) == PINNED_DIGESTS[case_number, soc_boundary]


def test_hand_computed_case0_objective(hand_case0):
    instance = build_model(hand_case0["set"], hand_case0["catalog"],
                           hand_case0["tariff"], CaseSpec.from_number(0))
    result = solve_milp(instance, SolveOptions(relative_gap=1e-9,
                                               backend="reference"))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(hand_case0["expected"], rel=1e-9)
    solution = extract_solution(instance, result)
    assert solution.capacities["ic"] == pytest.approx(31.25, abs=1e-7)
    report = check_solution(solution, hand_case0["set"], hand_case0["catalog"],
                            hand_case0["tariff"])
    assert report.breakdown.total == pytest.approx(hand_case0["expected"], rel=1e-9)


@pytest.mark.parametrize("case_number", [0, 3])
def test_zero_load_gives_zero_objective(case_number):
    scen = ScenarioSet(days=(_flat_day(load=0.0),))
    instance = build_model(scen, DeviceCatalog(), _tariff(2),
                           CaseSpec.from_number(case_number))
    result = solve_milp(instance, SolveOptions(relative_gap=1e-9,
                                               backend="reference"))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    solution = extract_solution(instance, result)
    assert all(v == pytest.approx(0.0, abs=1e-9)
               for v in solution.capacities.values())


def test_optimum_is_insensitive_to_doubled_big_m(monkeypatch):
    options = SolveOptions(relative_gap=1e-9, backend="reference")
    cases = [(seed, number) for seed in range(4) for number in range(4)]
    baseline = {}
    for seed, number in cases:
        scen, catalog, tariff = tiny_sizing_inputs(seed)
        instance = build_model(scen, catalog, tariff, CaseSpec.from_number(number))
        baseline[seed, number] = (instance, solve_milp(instance, options))

    def doubled(*args):
        return {key: 2.0 * value for key, value in compute_big_m(*args).items()}

    monkeypatch.setattr(milp_builder, "compute_big_m", doubled)
    for seed, number in cases:
        scen, catalog, tariff = tiny_sizing_inputs(seed)
        instance = build_model(scen, catalog, tariff, CaseSpec.from_number(number))
        base, expected = baseline[seed, number]
        for row, col in (("flow_in_cap", "z_flow"), ("uon_dch", "y_dch")):
            if f"{col}_s0_t1" in base.col_names:
                assert _coef(instance, row, col) == 2.0 * _coef(base, row, col)
        result = solve_milp(instance, options)
        assert result.status == expected.status, (seed, number)
        assert result.objective == pytest.approx(expected.objective, rel=1e-9), \
            (seed, number)


def test_extract_infeasible_is_explicit():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    raw = SolveResult(status="infeasible", objective=None, x=None)
    with pytest.raises(SolverError, match="infeasible"):
        extract_solution(instance, raw)


def test_extract_rejects_unbounded_status():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    raw = SolveResult(status="unbounded", objective=None, x=None)
    with pytest.raises(SolverError):
        extract_solution(instance, raw)


@pytest.mark.parametrize("case_number", [0, 1, 2, 3])
def test_dispatch_fields_are_the_model_families(case_number):
    scen, catalog, tariff = tiny_sizing_inputs(0)
    families = variable_blocks(build_model(scen, catalog, tariff, CaseSpec.from_number(3)))
    grid_names = [f.name for f in fields(GridDispatch)]
    islanded_names = [f.name for f in fields(IslandedDispatch)]
    assert sorted(grid_names + islanded_names) == sorted(set(families) - {"x"})

    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(case_number))
    blocks = variable_blocks(instance)
    x = np.arange(1.0, instance.n_cols + 1.0)  # column j reads j + 1
    solution = extract_solution(instance, SolveResult(status="optimal", objective=0.0, x=x))
    assert list(solution.capacities.values()) == [1.0, 2.0, 3.0, 4.0, 5.0]
    n_s, t_count = len(scen.days), scen.intervals
    for dispatch, names in ((solution.grid, grid_names),
                            (solution.islanded, islanded_names)):
        for name in names:
            value = getattr(dispatch, name)
            if name in blocks:
                assert np.array_equal(value, blocks[name] + 1.0), name
            else:
                shape = (n_s, t_count + 1) if name == "soc" else (n_s, t_count)
                assert value.shape == shape and not value.any(), name


def test_fixed_soc_boundary_round_trips():
    scen, catalog, tariff = tiny_sizing_inputs(2)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3),
                           soc_boundary=0.5)
    result = solve_milp(instance, SolveOptions(relative_gap=1e-6,
                                               backend="external"))
    solution = extract_solution(instance, result)
    assert solution.grid.soc[0, 0] == pytest.approx(
        0.5 * catalog.rho_ep * solution.capacities["es"], abs=1e-5)


def test_lp_writer_round_trippable_text(tmp_path):
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    path = tmp_path / "model.lp"
    write_lp(instance, path)
    text = path.read_text()
    for marker in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert marker in text
    assert "x_pv" in text and "z_flow_s0_t1" in text
    assert text.count("\n obj") <= 1


def test_lp_writer_zero_objective_and_one_sided_bounds(tmp_path):
    instance = dense_instance([0.0, 0.0, 0.0], [2.0, -np.inf, 0.0], [2.0, 5.0, np.inf],
                              [[1.0, 1.0, 1.0]], [GE], [0.0])
    path = tmp_path / "model.lp"
    write_lp(instance, path)
    lines = path.read_text().splitlines()
    assert lines[lines.index(" obj:") + 1] == "   + 0 x0"
    bounds = lines[lines.index("Bounds") + 1:lines.index("End")]
    assert bounds == [" x0 = 2", " -inf <= x1 <= 5", " x2 >= 0"]


def test_col_of_an_unknown_name_is_a_key_error():
    instance = dense_instance([1.0], [0.0], [1.0], [[1.0]], [LE], [1.0])
    assert instance.col("x0") == 0
    with pytest.raises(KeyError, match="no column named x_pv_s0_t1"):
        instance.col("x_pv", 0, 1)


def test_instance_validation_catches_corruption():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    with pytest.raises(BuildError):
        replace(instance, col_lower=instance.col_lower + 1e9)


def test_instance_arrays_are_read_only_copies():
    scen, catalog, tariff = tiny_sizing_inputs(0)
    instance = build_model(scen, catalog, tariff, CaseSpec.from_number(3))
    for array in (instance.objective, instance.matrix.data, instance.matrix.indices,
                  instance.matrix.indptr, instance.col_upper):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1e30
    objective = instance.objective.copy()
    built = replace(instance, objective=objective)
    objective[0] = np.nan
    assert built.objective[0] == instance.objective[0]


@pytest.mark.parametrize("fault, message", [
    ({"col_lower": np.array([0.0])}, "column array lengths disagree"),
    ({"rhs": np.array([1.0, 1.0])}, "row array lengths disagree"),
    ({"matrix": sp.csr_matrix([[1.0, 1.0, 1.0]])},
     r"matrix shape \(1, 3\) does not match \(1, 2\)"),
    ({"col_names": ("x0", "x0")}, "duplicate column"),
    ({"col_upper": np.array([1.0, 2.0])}, "binary column"),
    ({"row_sense": ("<",)}, "bad row sense '<'"),
    ({"rhs": np.array([np.nan])}, "non-finite rhs"),
    ({"objective": np.array([np.inf, 0.0])}, "non-finite objective"),
    ({"matrix": sp.csr_matrix([[np.inf, 1.0]])}, "non-finite constraint coefficient"),
    ({"objective": np.array([1e21, 1.0])},
     r"objective coefficient 1e\+21 of x0 is at or above HiGHS's infinite cost"),
    ({"col_upper": np.array([1e21, 1.0])},
     r"upper bound 1e\+21 of x0 is at or above HiGHS's infinite bound 1e\+20"),
    ({"col_lower": np.array([-1e20, 0.0])},
     r"lower bound -1e\+20 of x0 is at or above HiGHS's infinite bound"),
    ({"rhs": np.array([1e20])}, r"rhs 1e\+20 of r0 is at or above HiGHS's infinite bound"),
    ({"matrix": sp.csr_matrix([[1e16, 1.0]])},
     r"coefficient 1e\+16 of x0 in row r0 is at or above HiGHS's large matrix value "
     r"1e\+15"),
], ids=["column-lengths", "row-lengths", "matrix-shape", "duplicate-name",
        "binary-above-1", "bad-sense", "nan-rhs", "inf-objective", "inf-coefficient",
        "cost-at-highs-infinity", "bound-at-highs-infinity",
        "lower-bound-at-highs-infinity", "rhs-at-highs-infinity",
        "coefficient-at-highs-large-value"])
def test_instance_validation_names_the_fault(fault, message):
    instance = dense_instance([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [[1.0, 1.0]],
                              [LE], [1.0], binary=[False, True])
    with pytest.raises(BuildError, match=message):
        replace(instance, **fault)
