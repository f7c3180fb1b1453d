"""Domain types, profile ingestion and the load split."""

import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dersizer import (DeviceCatalog, LoadSplitSpec, ScenarioSet, TariffPlan,
                      packaged_profile_path, parse_profile_csv, split_loads,
                      write_profile_csv)
from dersizer.data_model import AnnualProfile, DayScenario
from dersizer.errors import IngestionError, ValidationError
from dersizer.synthetic import build_synthetic_year


def _write(tmp_path, rows, header="timestamp,load_kw,pv_pu"):
    path = tmp_path / "profile.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_parse_well_formed_passthrough(tmp_path):
    rows = [f"2019-01-01T0{h}:00:00,{100 + h},0.{h}" for h in range(5)]
    profile = parse_profile_csv(_write(tmp_path, rows))
    assert profile.hours == 5
    assert profile.load_kw.tolist() == [100, 101, 102, 103, 104]


def test_parse_missing_hour_names_gap(tmp_path):
    rows = ["2019-01-01T00:00:00,100,0.0",
            "2019-01-01T02:00:00,100,0.0"]
    with pytest.raises(IngestionError, match="2019-01-01T01:00:00"):
        parse_profile_csv(_write(tmp_path, rows))


def test_parse_duplicate_timestamp(tmp_path):
    rows = ["2019-01-01T00:00:00,100,0.0",
            "2019-01-01T00:00:00,100,0.0"]
    with pytest.raises(IngestionError, match="duplicate"):
        parse_profile_csv(_write(tmp_path, rows))


def test_parse_backwards_timestamp(tmp_path):
    rows = ["2019-01-01T01:00:00,100,0.0",
            "2019-01-01T00:00:00,100,0.0"]
    with pytest.raises(IngestionError, match="backwards"):
        parse_profile_csv(_write(tmp_path, rows))


@pytest.mark.parametrize("first, second, message", [
    ("2019-03-10T01:00:00-05:00", "2019-03-10T03:00:00-04:00", None),
    ("2019-11-03T01:00:00-04:00", "2019-11-03T01:00:00-05:00", None),
    ("2019-11-03T01:00:00-05:00", "2019-11-03T02:00:00-04:00",
     "row 3: duplicate timestamp 2019-11-03T02:00:00-04:00"),
])
def test_parse_steps_between_utc_offsets_in_utc(tmp_path, first, second, message):
    path = _write(tmp_path, [f"{first},100,0.0", f"{second},100,0.0"])
    if message is not None:
        with pytest.raises(IngestionError, match=message):
            parse_profile_csv(path)
    else:
        assert parse_profile_csv(path).timestamps == (first, second)


def test_parse_header_mismatch(tmp_path):
    path = _write(tmp_path, ["2019-01-01T00:00:00,1,0"], header="time,load,pv")
    with pytest.raises(IngestionError, match="header"):
        parse_profile_csv(path)


@pytest.mark.parametrize("text, message", [("", "empty file"),
                                           ("timestamp,load_kw,pv_pu\n", "no data rows")])
def test_parse_a_file_without_data_rows(tmp_path, text, message):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    with pytest.raises(IngestionError, match=message):
        parse_profile_csv(path)


def test_parse_a_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="profile file not found"):
        parse_profile_csv(tmp_path / "missing.csv")


def test_profile_columns_of_different_lengths():
    with pytest.raises(ValidationError, match="profile columns have different lengths"):
        AnnualProfile(timestamps=("2019-01-01T00:00:00",), load_kw=[1.0, 2.0],
                      pv_pu=[0.0, 0.0])


def test_parse_negative_load_is_validation_error(tmp_path):
    rows = ["2019-01-01T00:00:00,-5,0.0"]
    with pytest.raises(ValidationError, match="row 2.*-5"):
        parse_profile_csv(_write(tmp_path, rows))


def test_parse_pv_out_of_range(tmp_path):
    rows = ["2019-01-01T00:00:00,5,1.2"]
    with pytest.raises(ValidationError, match="pv_pu"):
        parse_profile_csv(_write(tmp_path, rows))


@pytest.mark.parametrize("faults, error, message", [
    # (row index, field, text) in file order; each file's first fault wins.
    ([(3, 1, "-5"), (5, 2, "1.2"), (6, 0, "2019-01-01T09:00:00")],
     ValidationError, "row 5: load_kw=-5.0 is negative"),
    ([(2, 2, "1.2"), (3, 1, "-5")], ValidationError, r"row 4: pv_pu=1\.2 outside"),
    ([(4, 0, "2019-01-01T03:00:00"), (4, 1, "nan"), (6, 1, "abc")],
     IngestionError, "row 6: duplicate timestamp 2019-01-01T03:00:00"),
    ([(3, 1, "inf"), (3, 0, "2019-01-01T05:00:00"), (5, 0, "bad")],
     IngestionError, "row 5: missing hour 2019-01-01T03:00:00 before"),
    ([(2, 1, "inf"), (3, 0, "2019-01-01T01:00:00")],
     ValidationError, "row 4: non-finite value"),
    ([(3, 1, "abc"), (5, 1, "-1")], IngestionError, "row 5: non-numeric value"),
    ([(4, 2, "-0.5"), (2, 0, "bad")], IngestionError, "row 4: bad timestamp 'bad'"),
    ([(1, 0, "2019-01-01T01:00:00+00:00"), (4, 1, "-1")],
     IngestionError, "row 3: timestamp .* UTC offset or neither"),
])
def test_parse_reports_the_earliest_faulty_row(tmp_path, faults, error, message):
    rows = [[f"2019-01-01T0{h}:00:00", "100", "0.5"] for h in range(8)]
    for index, field, text in faults:
        rows[index][field] = text
    with pytest.raises(error, match=message):
        parse_profile_csv(_write(tmp_path, [",".join(row) for row in rows]))


def _loop_parse(rows):
    """The per-row checks the parser once made, row by row, as the reference."""
    previous = None
    parsed = []
    for row_number, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise IngestionError(f"row {row_number}: expected 3 fields, got {len(row)}")
        try:
            stamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise IngestionError(f"row {row_number}: bad timestamp {row[0].strip()!r}")
        if previous is not None:
            delta = stamp - previous
            if delta == timedelta(0):
                raise IngestionError(f"row {row_number}: duplicate timestamp "
                                     f"{stamp.isoformat()}")
            if delta < timedelta(0):
                raise IngestionError(f"row {row_number}: timestamp {stamp.isoformat()} "
                                     "goes backwards")
            if delta != timedelta(hours=1):
                missing = previous + timedelta(hours=1)
                raise IngestionError(f"row {row_number}: missing hour "
                                     f"{missing.isoformat()} before {stamp.isoformat()}")
        previous = stamp
        try:
            load, pv = float(row[1]), float(row[2])
        except ValueError:
            raise IngestionError(f"row {row_number}: non-numeric value")
        if not np.isfinite(load) or not np.isfinite(pv):
            raise ValidationError(f"row {row_number}: non-finite value")
        if load < 0:
            raise ValidationError(f"row {row_number}: load_kw={load} is negative")
        if not 0.0 <= pv <= 1.0:
            raise ValidationError(f"row {row_number}: pv_pu={pv} outside [0, 1]")
        parsed.append((stamp.isoformat(), load, pv))
    return parsed


def _faulty_rows(rng):
    start = datetime(2019, 3, 10)
    rows = [[(start + timedelta(hours=h)).isoformat(), f"{rng.uniform(0, 500):.3f}",
             f"{rng.uniform(0, 1):.3f}"] for h in range(rng.randint(1, 30))]
    edits = {
        "duplicate": lambda r, prev: r.__setitem__(0, prev[0]),
        "backwards": lambda r, prev: r.__setitem__(0, (datetime.fromisoformat(prev[0])
                                                       - timedelta(hours=2)).isoformat()),
        "gap": lambda r, prev: r.__setitem__(0, (datetime.fromisoformat(r[0])
                                                 + timedelta(minutes=rng.choice([1, 90])))
                                             .isoformat()),
        "non-numeric": lambda r, prev: r.__setitem__(rng.choice([1, 2]), "abc"),
        "fields": lambda r, prev: r.append("x"),
        "timestamp": lambda r, prev: r.__setitem__(0, "2019-13-01"),
        "non-finite": lambda r, prev: r.__setitem__(rng.choice([1, 2]),
                                                    rng.choice(["nan", "inf", "-inf"])),
        "negative": lambda r, prev: r.__setitem__(1, rng.choice(["-5.5", "-0.0"])),
        "pv": lambda r, prev: r.__setitem__(2, rng.choice(["1.2", "-0.1"])),
        "blank": lambda r, prev: r.clear(),
    }
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(1, len(rows)) if len(rows) > 1 else 0
        if len(rows[i]) != 3 or len(rows[i - 1]) != 3:
            continue
        if any(r[0] == "2019-13-01" for r in (rows[i], rows[i - 1])):
            continue
        edits[rng.choice(sorted(edits))](rows[i], rows[i - 1])
    return rows


def test_parse_matches_the_row_by_row_reference(tmp_path):
    rng = random.Random(7)
    outcomes = set()
    for _ in range(300):
        rows = _faulty_rows(rng)
        path = _write(tmp_path, [",".join(row) for row in rows])
        try:
            expected = _loop_parse(rows)
        except (IngestionError, ValidationError) as exc:
            with pytest.raises(type(exc)) as raised:
                parse_profile_csv(path)
            assert str(raised.value) == str(exc)
            outcomes.add(str(exc).split(": ")[1].split(" ")[0].split("=")[0])
            continue
        if not expected:
            continue
        profile = parse_profile_csv(path)
        assert list(zip(profile.timestamps, profile.load_kw.tolist(),
                        profile.pv_pu.tolist())) == expected
    assert len(outcomes) == 9               # each of the nine messages came first


def test_packaged_fixture_peak_is_846(packaged_profile):
    assert packaged_profile.hours == 8760
    assert packaged_profile.load_kw.max() == 846.0
    assert packaged_profile.pv_pu.min() >= 0.0
    assert packaged_profile.pv_pu.max() <= 1.0


def test_roundtrip_preserves_numeric_content(tmp_path, packaged_profile):
    out = tmp_path / "copy.csv"
    write_profile_csv(packaged_profile, out)
    again = parse_profile_csv(out)
    np.testing.assert_allclose(again.load_kw, packaged_profile.load_kw, rtol=1e-9)
    np.testing.assert_allclose(again.pv_pu, packaged_profile.pv_pu, rtol=1e-9, atol=1e-12)
    assert again.timestamps == packaged_profile.timestamps


def test_split_boundary_fraction_zero():
    cl_ac, cl_dc, nl_ac, nl_dc = split_loads([100.0], LoadSplitSpec(
        critical_fraction=0.0, dc_fraction_of_critical=0.5,
        dc_fraction_of_noncritical=0.5))
    assert cl_ac[0] == 0.0 and cl_dc[0] == 0.0
    assert nl_ac[0] + nl_dc[0] == 100.0


def test_split_even_quarters():
    parts = split_loads([100.0], LoadSplitSpec(0.5, 0.5, 0.5))
    assert [p[0] for p in parts] == [25.0, 25.0, 25.0, 25.0]


def test_split_zero_total():
    parts = split_loads([0.0, 0.0], LoadSplitSpec(0.3, 0.5, 0.5))
    for series in parts:
        assert series.tolist() == [0.0, 0.0]


@given(total=st.lists(st.floats(0, 1e4), min_size=1, max_size=48),
       fractions=st.tuples(*[st.floats(0, 1) for _ in range(3)]))
@settings(max_examples=200, deadline=None)
def test_split_is_conservative_and_nonnegative(total, fractions):
    # Exact float conservation is unattainable for arbitrary fractions;
    # 1e-9 absolute is far below any solver tolerance downstream.
    spec = LoadSplitSpec(*fractions)
    parts = split_loads(total, spec)
    stacked = np.vstack(parts)
    assert (stacked >= 0).all()
    np.testing.assert_allclose(stacked.sum(axis=0), np.asarray(total),
                               rtol=0, atol=1e-9)


def _day(**overrides):
    base = dict(id="d0", probability=1.0, cl_ac=[1.0], cl_dc=[1.0],
                nl_ac=[1.0], nl_dc=[1.0], pv_availability=[0.5])
    base.update(overrides)
    return DayScenario(**base)


def test_validate_passes_even_split():
    scen = ScenarioSet(days=(_day(id="a", probability=0.5),
                             _day(id="b", probability=0.5)))
    np.testing.assert_array_equal(scen.probabilities, [0.5, 0.5])


def test_scenario_set_needs_a_day():
    with pytest.raises(ValidationError, match="scenario set has no days"):
        ScenarioSet(days=())


def test_validate_reports_probability_sum():
    with pytest.raises(ValidationError, match="probabilities sum to 1.1"):
        ScenarioSet(days=(_day(id="a", probability=0.5), _day(id="b", probability=0.6)))


def test_validate_names_day_and_interval_for_bad_pv():
    with pytest.raises(ValidationError, match=r"d3: pv_availability\[0\]=1.2 outside"):
        _day(id="d3", pv_availability=[1.2])


def test_validate_reports_negative_load_and_length_mismatch():
    # One fault per construction: each raises on its own.
    with pytest.raises(ValidationError, match=r"day a: nl_ac\[0\]=-2 is negative"):
        _day(id="a", probability=0.5, nl_ac=[-2.0])
    longer = _day(id="b", probability=0.5, cl_ac=[1.0, 1.0], cl_dc=[0.0, 0.0],
                  nl_ac=[0.0, 0.0], nl_dc=[0.0, 0.0], pv_availability=[0.5, 0.5])
    with pytest.raises(ValidationError, match="day b: 2 intervals, expected 1"):
        ScenarioSet(days=(_day(id="a", probability=0.5), longer))


@pytest.mark.parametrize("probability", [float("nan"), 0.0, 1.5])
def test_day_scenario_rejects_a_probability_outside_0_1(probability):
    with pytest.raises(ValidationError, match=r"day d0: probability .* outside \(0, 1\]"):
        _day(probability=probability)


@pytest.mark.parametrize("weight, message", [(float("nan"), "must be a finite real number"),
                                             (float("inf"), "must be a finite real number"),
                                             (0.0, "annual weights must be positive")])
def test_scenario_set_rejects_a_bad_annual_weight(weight, message):
    for name in ("annual_day_weight", "annual_demand_weight"):
        with pytest.raises(ValidationError, match=message):
            ScenarioSet(days=(_day(),), **{name: weight})


def test_built_arrays_are_read_only():
    day = _day()
    with pytest.raises(ValueError, match="read-only"):
        day.nl_ac[0] = -1.0
    tariff = TariffPlan(energy_price=[0.1])
    with pytest.raises(ValueError, match="read-only"):
        tariff.energy_price[0] = -1.0


def test_built_series_are_copies():
    loads = np.array([1.0])
    day = _day(cl_ac=loads)
    loads[0] = -1.0
    assert day.cl_ac[0] == 1.0


def test_day_scenario_rejects_ragged_series():
    with pytest.raises(ValidationError, match="lengths differ"):
        _day(cl_ac=[1.0, 2.0])


@pytest.mark.parametrize("series, message", [
    ([[1.0]], r"cl_ac must be a 1-D series, got shape \(1, 1\)"),
    ([float("nan")], "cl_ac contains non-finite values"),
], ids=["2-D", "nan"])
def test_day_scenario_rejects_a_series_that_is_not_finite_1d(series, message):
    with pytest.raises(ValidationError, match=message):
        _day(cl_ac=series)


def test_catalog_validation():
    with pytest.raises(ValidationError):
        DeviceCatalog(eta_ch=0.0)
    with pytest.raises(ValidationError):
        DeviceCatalog(alpha_min=0.9, alpha_max=0.1)
    with pytest.raises(ValidationError):
        DeviceCatalog(c_es=-1.0)
    with pytest.raises(ValidationError):
        DeviceCatalog(rho_ep=0.0)


def test_tariff_validation_and_default_tou():
    with pytest.raises(ValidationError):
        TariffPlan(energy_price=[-0.1] * 24, demand_price=18.0, peak_cap=1000.0)
    with pytest.raises(ValidationError):
        TariffPlan(energy_price=[0.1] * 24, demand_price=18.0, peak_cap=0.0)
    with pytest.raises(ValidationError, match="defined on 24 hourly intervals"):
        TariffPlan.default_tou(12)
    tou = TariffPlan.default_tou()
    assert tou.intervals == 24
    assert set(np.unique(tou.energy_price)) == {0.09, 0.12, 0.16}
    assert tou.demand_price == 18.0 and tou.peak_cap == 1000.0


def test_split_spec_validation():
    with pytest.raises(ValidationError):
        LoadSplitSpec(critical_fraction=1.5)


def test_packaged_profile_path_exists():
    assert packaged_profile_path().exists()


def test_packaged_year_is_written_by_its_recipe(tmp_path):
    path = tmp_path / "synthetic_year.csv"
    write_profile_csv(build_synthetic_year(), path)
    assert path.read_bytes() == packaged_profile_path().read_bytes()
