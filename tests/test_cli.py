import itertools
import json
import os

import pytest

from flexbench import orchestrator
from flexbench.cli import main


@pytest.fixture
def scenario(tmp_path):
    doc = {
        "run": {"horizon": 6, "seed": 11},
        "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
        "building": {"internal_gains_w": [[0, 200], [120, 1200]],
                     "weather": {"series": [[0, 28, 40], [600, 34, 50]]}},
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_dir(tmp_path, scenario, *extra):
    out = str(tmp_path / "out")
    assert main(["run", scenario, "--out", out, *extra]) == 0
    return out


class TestRun:
    def test_writes_exactly_three_artifacts(self, tmp_path, scenario, capsys):
        out = run_dir(tmp_path, scenario)
        assert sorted(os.listdir(out)) == ["run.csv", "scenario.effective.json",
                                           "summary.json"]
        stdout = capsys.readouterr().out
        assert "demo: 6 steps" in stdout
        assert stdout.count("wrote ") == 3

    def test_summary_carries_run_metadata(self, tmp_path, scenario):
        out = run_dir(tmp_path, scenario)
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["log"]["scenario_id"] == "demo"
        assert summary["log"]["steps"] == 6
        assert summary["counts"]["stale_steps"] == 0
        with open(os.path.join(out, "scenario.effective.json")) as f:
            eff = json.load(f)
        assert eff["run"]["seed"] == 11
        assert eff["run"]["scenario_id"] == "demo"

    def test_default_output_location(self, tmp_path, scenario, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", scenario]) == 0
        assert os.path.exists(tmp_path / "runs" / "demo" / "run.csv")

    def test_set_and_seed_overrides(self, tmp_path, scenario):
        out = str(tmp_path / "o2")
        assert main(["run", scenario, "--out", out,
                     "--set", "run.horizon=3", "--seed", "99"]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["log"]["steps"] == 3
        assert summary["log"]["seed"] == 99

    def test_engine_failure_is_exit_2(self, tmp_path, scenario, capsys,
                                      monkeypatch):
        # each monotonic reading is 1000 s after the last, so the first
        # paced step overruns its slot and overrun_policy=abort stops the run
        clock = itertools.count(0.0, 1000.0)
        monkeypatch.setattr(orchestrator.time, "monotonic", lambda: next(clock))
        rc = main(["run", scenario, "--out", str(tmp_path / "x"),
                   "--mode", "realtime", "--set", "run.overrun_policy=abort"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "run error" in err and "overran" in err

    @pytest.mark.parametrize("setting, path", [
        ('logging.include=["zone.t", "zone.bogus"]', "logging.include"),
        ("building.t_init_c=NaN", "building.t_init_c"),
        ("building.internal_gains_w=[[0, Infinity]]",
         "building.internal_gains_w[0][1]"),
    ])
    def test_invalid_scenario_is_exit_1_before_running(self, tmp_path, scenario,
                                                       capsys, setting, path):
        out = tmp_path / "x"
        assert main(["run", scenario, "--out", str(out), "--set", setting]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("doc, path", [
        # each would hang (1e302 substeps), fail mid-run (stamp 1e16 ms, a
        # plant load that overflowed to infinity, a 5e-324 J/K capacitance:
        # a ZeroDivisionError or a non-finite zone.t, or a 5e-324 kg/s flow: a
        # non-finite plant.t_zone_emu), divide by a surrogate weight sum that
        # underflowed to 0, run on at 1e200 degC, at -50 % RH or past the
        # end of its weather, step between weather rows 1e-307 s apart (a
        # slope that overflowed), overflow the envelope load ua * t_out or
        # humidify 5e-324 kg of emulator air to a non-finite latent load
        ({"run": {"horizon": 3}, "plant": {"control_dt_s": 1e-300}},
         "plant.control_dt_s"),
        ({"run": {"step_size_s": 1e13, "horizon": 3},
          "plant": {"ideal_actuators": True}}, "run.step_size_s"),
        ({"run": {"horizon": 3},
          "occupants": {"agents": [{"coords": [3, 3, 1]}],
                        "surrogate": {"w_zone": 0, "w_surfaces": 0,
                                      "decay_length_m": 0.001}}},
         "occupants.surrogate.w_zone"),
        ({"run": {"horizon": 3}, "plant": {"hvac": {"m_dot_kg_s": 1e308}}},
         "plant.hvac.m_dot_kg_s"),
        ({"run": {"horizon": 3}, "plant": {"hvac": {"t_dis_init_c": 1e200}}},
         "plant.hvac.t_dis_init_c"),
        ({"run": {"horizon": 3}, "building": {"weather": {
            "series": [[0, 1e200, 40]]}}}, "building.weather.series[0][1]"),
        ({"run": {"horizon": 3}, "building": {"weather": {
            "series": [[0, 20, -50]]}}}, "building.weather.series[0][2]"),
        ({"run": {"horizon": 3}, "plant": {"zone_emulator": {
            "c_emu_j_per_k": 5e-324}}}, "plant.zone_emulator.c_emu_j_per_k"),
        ({"run": {"horizon": 3}, "building": {"c_z_j_per_k": 5e-324}},
         "building.c_z_j_per_k"),
        ({"run": {"horizon": 3}, "plant": {"hvac": {"m_dot_kg_s": 5e-324}}},
         "plant.hvac.m_dot_kg_s"),
        ({"run": {"horizon": 100}, "building": {"weather": {
            "series": [[0, 25, 40], [600, 30, 50]]}}}, "building.weather.series"),
        ({"run": {"step_size_s": 5e-308, "horizon": 3},
          "delays": {"stale_hold": True}, "plant": {"ideal_actuators": True},
          "building": {"weather": {"series": [[0, -100, 0], [1e-307, 200, 100]]}}},
         "run.step_size_s"),
        ({"run": {"horizon": 3}, "building": {"ua_w_per_k": 1e308}},
         "building.ua_w_per_k"),
        ({"plant": {"hvac": {"m_dot_kg_s": 0.0},
                    "zone_emulator": {"air_mass_kg": 5e-324}}},
         "plant.zone_emulator.air_mass_kg"),
    ], ids=["substeps", "stamps", "surrogate_weights", "supply_flow",
            "temperature", "weather_series", "weather_rh", "emulator_capacity",
            "zone_capacity", "tiny_flow", "weather_coverage", "tiny_step",
            "envelope_conductance", "emulator_air_mass"])
    def test_unrunnable_timeline_is_exit_1(self, tmp_path, capsys, doc, path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert main(["run", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()


    def test_heat_capacity_floor_runs(self, tmp_path):
        # the smallest valid emulator and zone capacitances, at the largest flow
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "run": {"horizon": 3},
            "plant": {"hvac": {"m_dot_kg_s": 100.0},
                      "zone_emulator": {"c_emu_j_per_k": 1.0}},
            "building": {"c_z_j_per_k": 1.0}}))
        assert main(["run", str(scenario), "--out", str(tmp_path / "x")]) == 0

    def test_emulator_air_mass_floor_runs(self, tmp_path):
        # the lightest valid emulator air, humidified with no supply flow
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "run": {"horizon": 30},
            "plant": {"hvac": {"m_dot_kg_s": 0.0},
                      "zone_emulator": {"air_mass_kg": 1e-3}}}))
        assert main(["run", str(scenario), "--out", str(tmp_path / "x")]) == 0

    def test_envelope_conductance_ceiling_runs(self, tmp_path):
        # the largest valid ua, on the lightest zone, in hour steps at 200 degC
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "run": {"horizon": 3, "step_size_s": 3600.0},
            "building": {"ua_w_per_k": 1e7, "c_z_j_per_k": 1.0, "weather": {
                "constant": {"tdb_c": 200.0, "rh_pct": 100.0}}}}))
        assert main(["run", str(scenario), "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("emulator", [
        {}, {"c_emu_j_per_k": 1.0, "heater_w_max": 1e6, "cooling_w_max": 1e6}],
        ids=["default_emulator", "light_strong_emulator"])
    def test_supply_flow_floor_runs(self, tmp_path, emulator):
        # the smallest valid nonzero flow, 1e-3 kg/s
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "run": {"horizon": 30},
            "plant": {"hvac": {"m_dot_kg_s": 1e-3}, "zone_emulator": emulator}}))
        assert main(["run", str(scenario), "--out", str(tmp_path / "x")]) == 0

    def test_weather_file_temperature_out_of_range_is_exit_1(self, tmp_path,
                                                             capsys):
        (tmp_path / "w.csv").write_text("time_s,tdb_c,rh_pct\n0,20,40\n"
                                        "3600,1e200,40\n")
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"run": {"horizon": 3}, "building": {
            "weather": {"path": "w.csv"}}}))
        out = tmp_path / "x"
        assert main(["run", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: building.weather.path: ")
        assert "row 3: tdb_c 1e+200 outside [-100, 200] degC" in err
        assert not out.exists()


class TestValidate:
    def test_ok(self, scenario, capsys):
        assert main(["validate", scenario]) == 0
        assert capsys.readouterr().out.startswith("ok: demo")

    def test_bad_value(self, scenario, capsys):
        assert main(["validate", scenario, "--set", "run.horizon=0"]) == 1
        assert "run.horizon" in capsys.readouterr().err

    def test_missing_weather_file(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"building": {"weather": {"path": "gone.csv"}}}))
        assert main(["validate", str(p)]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_unreadable_scenario(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text("{oops")
        assert main(["validate", str(p)]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestAnalyze:
    @pytest.fixture
    def run_csv(self, tmp_path, scenario):
        return os.path.join(run_dir(tmp_path, scenario), "run.csv")

    def test_rmse_self_is_zero(self, run_csv, capsys):
        assert main(["analyze", "rmse", "--csv", run_csv,
                     "--a", "zone.t:simulated", "--b", "zone.t:simulated"]) == 0
        assert "= 0" in capsys.readouterr().out

    def test_rmse_shift_flag(self, run_csv, capsys):
        assert main(["analyze", "rmse", "--csv", run_csv,
                     "--a", "plant.t_zone_spt:emulated",
                     "--b", "zone.t:simulated", "--shift", "-1"]) == 0
        assert "shift -1] = 0" in capsys.readouterr().out

    def test_unknown_variable_is_exit_1(self, run_csv, capsys):
        rc = main(["analyze", "rmse", "--csv", run_csv,
                   "--a", "zone.nope:simulated", "--b", "zone.t:simulated"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_source_is_exit_1(self, run_csv):
        assert main(["analyze", "rmse", "--csv", run_csv,
                     "--a", "zone.t", "--b", "zone.t:simulated"]) == 1

    def test_flat_step_response_is_exit_3(self, run_csv, capsys):
        rc = main(["analyze", "step-response", "--csv", run_csv,
                   "--var", "ctrl.t_heat_spt:setpoint", "--event", "3"])
        assert rc == 3
        assert "analysis error" in capsys.readouterr().err

    @pytest.mark.parametrize("arg, name", [
        ("--final-window=-5", "final_window"),
        ("--lead=-3", "lead"),
        ("--lead=1", "lead"),
    ])
    def test_step_response_negative_argument_is_exit_1(self, run_csv, capsys,
                                                       arg, name):
        # a bad argument, not the analysis error (exit 3) it used to end in
        rc = main(["analyze", "step-response", "--csv", run_csv,
                   "--var", "plant.t_zone_emu:emulated", "--event", "3", arg])
        assert rc == 1
        lo = 2 if name == "lead" else 0
        assert capsys.readouterr().err == \
            f"error: {name} must be >= {lo}, got {arg.partition('=')[2]}\n"

    def test_delay_bound(self, run_csv, capsys):
        assert main(["analyze", "delay-bound", "--csv", run_csv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("delay_bound = ")
        assert "over 6 steps" in out

    def test_hunting_verdict_line(self, run_csv, capsys):
        assert main(["analyze", "hunting", "--csv", run_csv,
                     "--pv", "plant.t_zone_emu:emulated",
                     "--sp", "plant.t_cool_spt:emulated",
                     "--settle", "0", "--window", "300"]) == 0
        assert "verdict=" in capsys.readouterr().out

    @pytest.mark.parametrize("settle, window, name", [
        ("-1200", "600", "settle_s"),  # used to analyze steps 10-19, exit 0
        ("-120", "600", "settle_s"),   # used to end in numpy's empty-max error
        ("0", "nan", "window_s"),      # used to fail converting NaN to int
        ("0", "-inf", "window_s"),
    ])
    def test_hunting_negative_or_non_finite_window_is_exit_1(
            self, tmp_path, capsys, settle, window, name):
        # a 30-step run at 60 s steps
        scenario = tmp_path / "h.json"
        scenario.write_text(json.dumps({"run": {"horizon": 30}}))
        out = run_dir(tmp_path, str(scenario))
        rc = main(["analyze", "hunting", "--csv", os.path.join(out, "run.csv"),
                   "--pv", "plant.t_zone_emu:emulated",
                   "--sp", "plant.t_cool_spt:emulated",
                   f"--settle={settle}", f"--window={window}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {name} must be a finite number >= 0, got ")

    def test_capacity(self, run_csv, capsys):
        assert main(["analyze", "capacity", "--csv", run_csv,
                     "--var", "plant.q_hvac:emulated", "--rated", "8000"]) == 0
        assert "verdict=" in capsys.readouterr().out

    def test_malformed_csv_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert main(["analyze", "delay-bound", "--csv", str(bad)]) == 1

    def test_bare_csv_without_metadata_still_works(self, run_csv, tmp_path):
        import shutil
        alone = tmp_path / "isolated"
        alone.mkdir()
        target = str(alone / "run.csv")
        shutil.copyfile(run_csv, target)
        assert main(["analyze", "rmse", "--csv", target,
                     "--a", "zone.t:simulated", "--b", "zone.t:simulated"]) == 0


class TestExport:
    def test_round_trip_is_idempotent(self, tmp_path, scenario):
        src = os.path.join(run_dir(tmp_path, scenario), "run.csv")
        d1 = str(tmp_path / "e1")
        d2 = str(tmp_path / "e2")
        assert main(["export", "--csv", src, "--out", d1]) == 0
        assert main(["export", "--csv", os.path.join(d1, "run.csv"),
                     "--out", d2]) == 0
        with open(os.path.join(d1, "run.csv"), "rb") as f1, \
                open(os.path.join(d2, "run.csv"), "rb") as f2:
            assert f1.read() == f2.read()
        assert os.path.exists(os.path.join(d1, "run.meta.json"))

    def test_export_reports_rows(self, tmp_path, scenario, capsys):
        src = os.path.join(run_dir(tmp_path, scenario), "run.csv")
        capsys.readouterr()
        assert main(["export", "--csv", src, "--out",
                     str(tmp_path / "e3")]) == 0
        assert "rows" in capsys.readouterr().out


_META = '"scenario_id": "x", "seed": 0, "start_wall_ms": 0'
_STEPS = "is not an int in [0, 33554432]"
_STEP_SIZE = "is not a finite number > 0"
# (metadata JSON text, the error after "metadata "): each used to end in a
# traceback or to be accepted
_BAD_META = {
    "steps_float_huge": (f'{{{_META}, "step_size_s": 60, "steps": 1e15}}',
                         f"field steps: 1000000000000000.0 {_STEPS}"),
    "steps_int_huge": (f'{{{_META}, "step_size_s": 60, "steps": 1000000000000000}}',
                       f"field steps: 1000000000000000 {_STEPS}"),
    "steps_fraction": (f'{{{_META}, "step_size_s": 60, "steps": 3.7}}',
                       f"field steps: 3.7 {_STEPS}"),
    "steps_negative": (f'{{{_META}, "step_size_s": 60, "steps": -1}}',
                       f"field steps: -1 {_STEPS}"),
    "step_size_missing": (f'{{{_META}, "steps": 1}}', "field step_size_s is missing"),
    "step_size_zero": (f'{{{_META}, "step_size_s": 0.0, "steps": 1}}',
                       f"field step_size_s: 0.0 {_STEP_SIZE}"),
    "step_size_infinite": (f'{{{_META}, "step_size_s": Infinity, "steps": 1}}',
                           f"field step_size_s: inf {_STEP_SIZE}"),
    "json_array": ("[1, 2]", "must be a JSON object, not list"),
}


@pytest.mark.parametrize("meta, error", _BAD_META.values(), ids=_BAD_META.keys())
def test_export_rejects_bad_metadata_at_its_field(tmp_path, capsys, meta, error):
    csv = tmp_path / "run.csv"
    csv.write_text("step_index,sim_time_s,variable,source,unit,value,wall_time_ms\n"
                   "0,0,zone.t,simulated,C,21,5\n")
    meta_path = tmp_path / "m.json"
    meta_path.write_text(meta)
    assert main(["export", "--csv", str(csv), "--meta", str(meta_path),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == f"error: {meta_path}: metadata {error}\n"
    assert not (tmp_path / "o.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("flexbench ")
