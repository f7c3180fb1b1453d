"""Representative-day selection and its quality metric."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dersizer
from dersizer import LoadSplitSpec, ReductionConfig, reconstruction_error, reduce_scenarios
from dersizer.data_model import DayScenario, ScenarioSet
from dersizer.errors import ConfigError, ValidationError
from dersizer.reduction import write_reduction_csv
from dersizer.study import StudyConfig

from conftest import make_profile

SPLIT = LoadSplitSpec()


def _identical_year(days=365):
    shape = 100.0 + 50.0 * np.sin(np.linspace(0, 2 * np.pi, 24))
    load = np.tile(np.abs(shape), days)
    pv = np.tile(np.clip(np.sin(np.linspace(0, np.pi, 24)), 0, 1), days)
    return make_profile(load, pv)


def _two_shape_year():
    shape_a = np.full(24, 100.0)
    shape_b = np.concatenate([np.full(12, 50.0), np.full(12, 300.0)])
    load = np.concatenate([shape_a if d % 2 == 0 else shape_b for d in range(365)])
    pv = np.tile(np.clip(np.sin(np.linspace(0, np.pi, 24)), 0, 1), 365)
    return make_profile(load, pv)


def test_identical_days_single_medoid():
    profile = _identical_year()
    scen = reduce_scenarios(profile, ReductionConfig(k=1), SPLIT)
    assert len(scen.days) == 1
    day = scen.days[0]
    assert day.probability == 1.0
    np.testing.assert_allclose(day.total_load(), profile.load_kw[:24])
    assert reconstruction_error(profile, scen) == 0.0


def test_two_shapes_split_by_parity():
    profile = _two_shape_year()
    scen = reduce_scenarios(profile, ReductionConfig(k=2), SPLIT)
    assert [d.id for d in scen.days] == ["day000", "day001"]
    probs = sorted(d.probability for d in scen.days)
    assert probs == [pytest.approx(182 / 365), pytest.approx(183 / 365)]
    assert reconstruction_error(profile, scen) == 0.0
    scen1 = reduce_scenarios(profile, ReductionConfig(k=1), SPLIT)
    assert reconstruction_error(profile, scen1) > 0.0


def test_probabilities_sum_to_one_with_floor(packaged_profile):
    scen = reduce_scenarios(packaged_profile, ReductionConfig(k=6), SPLIT)
    probs = [d.probability for d in scen.days]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert min(probs) >= 1 / packaged_profile.whole_days


def test_error_nonincreasing_in_k(packaged_profile):
    errors = [reconstruction_error(
        packaged_profile,
        reduce_scenarios(packaged_profile, ReductionConfig(k=k), SPLIT))
        for k in range(1, 9)]
    assert all(e >= 0 for e in errors)
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + 1e-12


def test_medoids_are_actual_days_with_matched_pv(packaged_profile):
    scen = reduce_scenarios(packaged_profile, ReductionConfig(k=4), SPLIT)
    for day in scen.days:
        index = int(day.id[3:])
        sl = slice(index * 24, (index + 1) * 24)
        np.testing.assert_allclose(day.total_load(), packaged_profile.load_kw[sl],
                                   atol=1e-9)
        np.testing.assert_array_equal(day.pv_availability,
                                      packaged_profile.pv_pu[sl])


def test_selection_is_deterministic(packaged_profile):
    a = reduce_scenarios(packaged_profile, ReductionConfig(k=5), SPLIT)
    b = reduce_scenarios(packaged_profile, ReductionConfig(k=5), SPLIT)
    assert [d.id for d in a.days] == [d.id for d in b.days]
    assert [d.probability for d in a.days] == [d.probability for d in b.days]


def test_duplicate_shapes_keep_probability_floor():
    profile = _identical_year(days=10)
    scen = reduce_scenarios(profile, ReductionConfig(k=3), SPLIT)
    assert sum(d.probability for d in scen.days) == pytest.approx(1.0)
    assert min(d.probability for d in scen.days) >= 1 / 10


def test_k_too_large_is_config_error():
    profile = _identical_year(days=4)
    with pytest.raises(ConfigError, match="k=9"):
        reduce_scenarios(profile, ReductionConfig(k=9), SPLIT)


def test_load_plus_pv_feature(packaged_profile):
    scen = reduce_scenarios(packaged_profile, ReductionConfig(k=3, feature="load+pv"),
                            SPLIT)
    assert len(scen.days) == 3
    assert sum(d.probability for d in scen.days) == pytest.approx(1.0)


def test_reduction_csv_dump(tmp_path, packaged_profile):
    scen = reduce_scenarios(packaged_profile, ReductionConfig(k=3), SPLIT)
    path = tmp_path / "days.csv"
    write_reduction_csv(scen, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "day_index,probability"
    assert len(lines) == 4


def _one_day_set(day_id):
    quarter = [1.0] * 24
    return ScenarioSet(days=(DayScenario(id=day_id, probability=1.0, cl_ac=quarter,
                                         cl_dc=quarter, nl_ac=quarter, nl_dc=quarter,
                                         pv_availability=[0.5] * 24),))


@pytest.mark.parametrize("day_id", ["jan001", "dayX"])
def test_reduction_csv_rejects_an_id_that_names_no_source_day(tmp_path, day_id):
    with pytest.raises(ValidationError, match=f"scenario id '{day_id}' does not name"):
        write_reduction_csv(_one_day_set(day_id), tmp_path / "days.csv")


def test_reconstruction_error_rejects_a_day_outside_the_profile(packaged_profile):
    with pytest.raises(ValidationError, match="representative day 999 outside profile"):
        reconstruction_error(packaged_profile, _one_day_set("day999"))


def test_reconstruction_error_needs_a_whole_day():
    profile = make_profile(np.full(23, 100.0), np.zeros(23))
    with pytest.raises(ConfigError, match="profile does not cover a whole day"):
        reconstruction_error(profile, _one_day_set("day000"))


def test_bad_config_values():
    with pytest.raises(ConfigError):
        ReductionConfig(k=0)
    with pytest.raises(ConfigError):
        ReductionConfig(feature="weather")
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({"reduction": {"method": "greedy-kmedoids"}})


def test_import_leaves_scipy_spatial_unloaded():
    # Only a reduction needs cdist, and only a solve needs scipy.optimize
    # (HiGHS and its binding), so importing the package pays for neither.
    env = {**os.environ, "PYTHONPATH": str(Path(dersizer.__file__).parents[1])}
    code = ("import sys, dersizer\n"
            "print([name in sys.modules for name in ('scipy.spatial', 'scipy.optimize')])")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.strip()
    assert loaded == "[False, False]"
