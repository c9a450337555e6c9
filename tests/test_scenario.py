import json

import pytest

from flexbench.orchestrator import Engine
from flexbench.scenario import (ScenarioError, apply_overrides, load_scenario,
                                validate_scenario)


class TestDefaults:
    def test_empty_document_fills_everything(self):
        cfg = validate_scenario({})
        assert cfg["run"]["step_size_s"] == 60.0
        assert cfg["run"]["horizon"] == 60
        assert cfg["run"]["mode"] == "fast"
        assert cfg["run"]["scenario_id"] == "scenario"
        assert cfg["delays"]["comm_latency_s"] == 0.0
        assert cfg["plant"]["hvac"]["pv_mode"] == "method2"
        assert cfg["building"]["internal_gains_w"] == 300.0
        assert cfg["building"]["weather"] == {
            "constant": {"tdb_c": 30.0, "rh_pct": 40.0}}
        assert cfg["occupants"]["agents"] == []
        assert cfg["geb"]["mode"] == "efficiency"
        assert cfg["geb"]["windows"] == []
        assert cfg["logging"]["include"] is None

    def test_default_id_fallback(self):
        assert validate_scenario({}, default_id="night_shed")["run"][
            "scenario_id"] == "night_shed"
        doc = {"run": {"scenario_id": "explicit"}}
        assert validate_scenario(doc, default_id="x")["run"][
            "scenario_id"] == "explicit"

    def test_results_do_not_share_defaults(self):
        a = validate_scenario({})
        a["building"]["weather"]["constant"]["tdb_c"] = -99.0
        b = validate_scenario({})
        assert b["building"]["weather"]["constant"]["tdb_c"] == 30.0

    def test_input_not_mutated(self):
        doc = {"run": {"horizon": 10}}
        validate_scenario(doc)
        assert doc == {"run": {"horizon": 10}}


class TestTypeChecking:
    def test_unknown_key_names_full_path(self):
        with pytest.raises(ScenarioError, match=r"plant\.hvac: unknown keys \['bogus'\]"):
            validate_scenario({"plant": {"hvac": {"bogus": 1}}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="top level: unknown keys"):
            validate_scenario({"plan": {}})

    def test_wrong_types(self):
        with pytest.raises(ScenarioError, match="run.step_size_s: expected a number"):
            validate_scenario({"run": {"step_size_s": "sixty"}})
        with pytest.raises(ScenarioError, match="run.horizon: expected an integer"):
            validate_scenario({"run": {"horizon": 2.5}})
        with pytest.raises(ScenarioError, match="expected true/false"):
            validate_scenario({"delays": {"stale_hold": "yes"}})
        with pytest.raises(ScenarioError, match="not one of"):
            validate_scenario({"run": {"mode": "turbo"}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="expected a number"):
            validate_scenario({"run": {"step_size_s": True}})

    def test_range_checks(self):
        with pytest.raises(ScenarioError, match="must be > 0"):
            validate_scenario({"run": {"step_size_s": 0}})
        with pytest.raises(ScenarioError, match="must be >= 1"):
            validate_scenario({"run": {"horizon": 0}})
        with pytest.raises(ScenarioError, match=r"outside \[0, 100\]"):
            validate_scenario({"building": {"rh_init_pct": 140}})

    def test_gains_accept_number_or_breakpoints(self):
        cfg = validate_scenario({"building": {"internal_gains_w": 500}})
        assert cfg["building"]["internal_gains_w"] == 500.0
        cfg = validate_scenario(
            {"building": {"internal_gains_w": [[0, 100], [600, 900]]}})
        assert cfg["building"]["internal_gains_w"] == [[0.0, 100.0], [600.0, 900.0]]
        with pytest.raises(ScenarioError, match="strictly increasing"):
            validate_scenario(
                {"building": {"internal_gains_w": [[0, 100], [0, 900]]}})


class TestWeatherField:
    def test_exactly_one_form(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            validate_scenario({"building": {"weather": {
                "constant": {"tdb_c": 30}, "path": "w.csv"}}})
        with pytest.raises(ScenarioError, match="exactly one"):
            validate_scenario({"building": {"weather": {}}})

    def test_missing_file_fails(self, tmp_path):
        doc = {"building": {"weather": {"path": "nope.csv"}}}
        with pytest.raises(ScenarioError, match="file not found"):
            validate_scenario(doc, base_dir=str(tmp_path))
        # file checking can be skipped for dry validation
        validate_scenario(doc, base_dir=str(tmp_path), check_files=False)

    def test_file_coverage_checked(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("time_s,tdb_c,rh_pct\n0,25,40\n600,30,50\n")
        doc = {"run": {"horizon": 60},
               "building": {"weather": {"path": "w.csv"}}}
        with pytest.raises(ScenarioError, match="weather ends"):
            validate_scenario(doc, base_dir=str(tmp_path))
        doc["run"]["horizon"] = 11  # (11-1)*60 = 600 s: just covered
        validate_scenario(doc, base_dir=str(tmp_path))

    def test_series_coverage_checked(self):
        doc = {"run": {"horizon": 100},
               "building": {"weather": {"series": [[0, 25, 40], [600, 30, 50]]}}}
        with pytest.raises(ScenarioError, match="ends at 600"):
            validate_scenario(doc)

    def test_single_point_series_covers_everything(self):
        doc = {"run": {"horizon": 10000},
               "building": {"weather": {"series": [[0, 25, 40]]}}}
        validate_scenario(doc)


class TestCrossField:
    def test_latency_must_fit_in_step(self):
        doc = {"delays": {"comm_latency_s": 60.0}}
        with pytest.raises(ScenarioError, match="below"):
            validate_scenario(doc)
        doc["delays"]["stale_hold"] = True
        validate_scenario(doc)

    def test_jitter_round_trip_must_fit(self):
        doc = {"delays": {"comm_latency_s": 50.0, "jitter_s": 6.0}}
        with pytest.raises(ScenarioError, match="jitter"):
            validate_scenario(doc)

    def test_discharge_limits_ordered(self):
        doc = {"plant": {"hvac": {"t_dis_min_c": 20.0, "t_dis_max_c": 15.0}}}
        with pytest.raises(ScenarioError, match="t_dis_max_c"):
            validate_scenario(doc)

    def test_baseline_gap(self):
        doc = {"geb": {"baseline": {"t_cool_c": 20.5, "t_heat_c": 20.0}}}
        with pytest.raises(ScenarioError, match="min_gap"):
            validate_scenario(doc)

    def test_window_overlap(self):
        doc = {"geb": {"windows": [{"start_s": 0, "end_s": 100},
                                   {"start_s": 50, "end_s": 200}]}}
        with pytest.raises(ScenarioError, match="overlaps"):
            validate_scenario(doc)

    def test_surrogate_weights_positive_sum(self):
        doc = {"occupants": {"surrogate": {
            "w_discharge": 0, "w_zone": 0, "w_surfaces": 0}}}
        with pytest.raises(ScenarioError, match="sum above 0"):
            validate_scenario(doc)

    def test_humidifier_needs_capacity(self):
        doc = {"plant": {"zone_emulator": {"humidifier_kg_s_max": 0}}}
        with pytest.raises(ScenarioError,
                           match=r"plant\.zone_emulator\.humidifier_kg_s_max: .*> 0"):
            validate_scenario(doc)

    def test_emulator_coil_needs_capacity(self):
        doc = {"plant": {"zone_emulator": {"heater_w_max": 0, "cooling_w_max": 0}}}
        with pytest.raises(ScenarioError,
                           match=r"plant\.zone_emulator\.heater_w_max: .*both be 0"):
            validate_scenario(doc)
        # one coil alone is a valid plant that builds and runs
        doc["plant"]["zone_emulator"]["cooling_w_max"] = 1000.0
        doc["run"] = {"horizon": 3}
        Engine(validate_scenario(doc)).run()

    def test_setpoint_bounds_ordered(self):
        doc = {"geb": {"bounds": {"t_min_c": 30.0, "t_max_c": 20.0}}}
        with pytest.raises(ScenarioError, match=r"geb\.bounds\.t_max_c: must exceed"):
            validate_scenario(doc)


class TestAgents:
    def test_agent_requires_coords(self):
        doc = {"occupants": {"agents": [{"clo": 0.5}]}}
        with pytest.raises(ScenarioError, match=r"agents\[0\].coords"):
            validate_scenario(doc)

    def test_agent_defaults_filled(self):
        doc = {"occupants": {"agents": [{"coords": [1, 2, 1]}]}}
        a = validate_scenario(doc)["occupants"]["agents"][0]
        assert a["t_pref_c"] == 22.5 and a["clo"] == 0.7
        assert a["action_probs"] == {} and a["presence"] is None

    def test_unknown_action_name(self):
        doc = {"occupants": {"agents": [
            {"coords": [1, 2, 1], "action_probs": {"nap": 0.5}}]}}
        with pytest.raises(ScenarioError, match="unknown action"):
            validate_scenario(doc)

    def test_probability_range(self):
        doc = {"occupants": {"agents": [
            {"coords": [1, 2, 1], "action_probs": {"drink": 1.2}}]}}
        with pytest.raises(ScenarioError, match=r"outside \[0, 1\]"):
            validate_scenario(doc)

    def test_presence_flags(self):
        doc = {"occupants": {"agents": [
            {"coords": [1, 2, 1], "presence": [[0, 1], [600, 2]]}]}}
        with pytest.raises(ScenarioError, match="flag must be 0 or 1"):
            validate_scenario(doc)


class TestOverrides:
    def test_values_parse_as_json(self):
        doc = apply_overrides({}, ["run.horizon=120", "run.mode=realtime",
                                   "delays.stale_hold=true",
                                   "geb.windows=[{\"start_s\": 0, \"end_s\": 60}]"])
        assert doc["run"]["horizon"] == 120
        assert doc["run"]["mode"] == "realtime"  # bare string fallback
        assert doc["delays"]["stale_hold"] is True
        assert doc["geb"]["windows"] == [{"start_s": 0, "end_s": 60}]

    def test_original_untouched(self):
        src = {"run": {"horizon": 10}}
        out = apply_overrides(src, ["run.horizon=99"])
        assert src["run"]["horizon"] == 10 and out["run"]["horizon"] == 99

    def test_missing_equals(self):
        with pytest.raises(ScenarioError, match="key.path=value"):
            apply_overrides({}, ["run.horizon"])

    def test_path_through_scalar(self):
        with pytest.raises(ScenarioError, match="not an object"):
            apply_overrides({"run": {"horizon": 10}}, ["run.horizon.x=1"])

    def test_overridden_doc_validates(self):
        doc = apply_overrides({}, ["run.seed=7", "plant.hvac.pv_mode=method1"])
        cfg = validate_scenario(doc)
        assert cfg["run"]["seed"] == 7
        assert cfg["plant"]["hvac"]["pv_mode"] == "method1"


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"run": {"horizon": 5}}))
        assert load_scenario(str(p)) == {"run": {"horizon": 5}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(p))


def test_shipped_scenarios_validate():
    from tests.helpers import SCENARIO_DIR
    names = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
    assert names  # the package ships ready-to-run scenarios
    for name in names:
        doc = load_scenario(str(SCENARIO_DIR / name))
        validate_scenario(doc, base_dir=str(SCENARIO_DIR), default_id=name[:-5])
