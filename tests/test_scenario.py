import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexbench.cli import main
from flexbench.orchestrator import Engine
from flexbench.scenario import (_AGENT, _PROBABILITY, _WEATHER_CONSTANT, _WINDOW,
                                SCHEMA, Leaf, ScenarioError, apply_overrides,
                                load_scenario, validate_scenario)


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

    @pytest.mark.parametrize("path, error", [
        ("", "'' is not a file path"),
        (3, "expected a string, got 3"),
        (None, "expected a string, got None"),
    ])
    def test_path_is_a_non_empty_string(self, tmp_path, path, error):
        with pytest.raises(ScenarioError) as e:
            validate_scenario({"building": {"weather": {"path": path}}},
                              base_dir=str(tmp_path))
        assert str(e.value) == f"building.weather.path: {error}"

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
        with pytest.raises(ScenarioError, match=r"^building\.weather\.series: weather "
                                                r"ends at 600 s but 5940 s is needed$"):
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

    def test_discharge_weight_cannot_carry_the_blend_alone(self):
        # far from the diffuser w_discharge * exp(-dist / 0.001) is 0.0
        doc = {"run": {"horizon": 3},
               "occupants": {"agents": [{"coords": [3, 3, 1]}],
                             "surrogate": {"w_zone": 0, "w_surfaces": 0,
                                           "decay_length_m": 0.001}}}
        with pytest.raises(ScenarioError,
                           match=r"^occupants\.surrogate\.w_zone: .*sum above 0"):
            validate_scenario(doc)
        doc["occupants"]["surrogate"]["w_surfaces"] = 0.1
        Engine(validate_scenario(doc)).run()

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

    def test_setpoint_bounds_hold_the_gap(self):
        # narrower than min_gap_c, the gap rule would push the cooling
        # setpoint above t_max_c on every step
        doc = {"geb": {"bounds": {"t_min_c": 21.9, "t_max_c": 22.0}}}
        with pytest.raises(ScenarioError,
                           match=r"geb\.bounds\.t_max_c: .*geb\.min_gap_c"):
            validate_scenario(doc)
        doc["geb"]["bounds"]["t_min_c"] = 21.0  # exactly the 1 C default gap
        doc["run"] = {"horizon": 3}
        log = Engine(validate_scenario(doc)).run()
        assert max(log.columns[log.key("ctrl.t_cool_spt", "setpoint")][0]) <= 22.0

    def test_step_holds_the_modelled_exchange(self):
        doc = {"run": {"horizon": 5, "step_size_s": 0.0001}}
        with pytest.raises(ScenarioError, match=r"run\.step_size_s: .* 0 ms"):
            validate_scenario(doc)
        # 50 ms each way plus the 1 ms compute floor needs a 101 ms step
        doc = {"run": {"horizon": 5, "step_size_s": 0.1},
               "delays": {"comm_latency_s": 0.1 - 1e-6}}
        with pytest.raises(ScenarioError, match=r"run\.step_size_s"):
            validate_scenario(doc)
        doc["run"]["step_size_s"] = 0.101
        engine = Engine(validate_scenario(doc))
        engine.run()
        assert engine.summary()["counts"]["stale_steps"] == 0
        doc["delays"]["stale_hold"] = True
        doc["run"]["step_size_s"] = 0.0001
        validate_scenario(doc)

    def test_step_has_a_floor(self):
        # rows 1e-307 s apart: a time between them would overflow the slope
        doc = {"run": {"step_size_s": 5e-308, "horizon": 3},
               "plant": {"ideal_actuators": True},
               "building": {"weather": {"series": [[0, -100, 0], [1e-307, 200, 100],
                                                   [1, 20, 50]]}}}
        for stale_hold in (False, True):
            doc["delays"] = {"stale_hold": stale_hold}
            with pytest.raises(ScenarioError,
                               match=r"^run\.step_size_s: 5e-308 s .* 1e-06 s floor"):
                validate_scenario(doc)
        doc["run"]["step_size_s"] = 1e-6  # every engine time is 0 or >= 1 us
        log = Engine(validate_scenario(doc)).run()
        assert np.isfinite(log.columns[log.key("zone.t", "simulated")][0]).all()

    def test_substeps_per_step_are_capped(self):
        # PlantSim.advance runs ceil(step / control_dt) substeps per step
        doc = {"run": {"horizon": 1, "step_size_s": 3600.0}}
        Engine(validate_scenario(doc)).run()  # exactly the cap
        for control_dt in (0.999, 1e-300):
            doc["plant"] = {"control_dt_s": control_dt}
            with pytest.raises(ScenarioError,
                               match=r"^plant\.control_dt_s: .* 3600 substeps"):
                validate_scenario(doc)
        # ideal actuators snap to their targets without substeps
        doc["plant"]["ideal_actuators"] = True
        Engine(validate_scenario(doc)).run()

    def test_exchange_stamps_stay_in_range(self):
        # step 1 would be stamped 1e16 ms, past the store's 2**53 ms
        doc = {"run": {"step_size_s": 1e13, "horizon": 3},
               "plant": {"ideal_actuators": True}}
        with pytest.raises(ScenarioError,
                           match=r"^run\.step_size_s: .* 2\*\*53 ms"):
            validate_scenario(doc)
        # too large for whole ms at all, whatever the horizon
        for patch in ({"run": {"step_size_s": 1e306, "horizon": 1}},
                      {"delays": {"comm_latency_s": 1e306, "stale_hold": True}}):
            with pytest.raises(ScenarioError, match=r"^run\.step_size_s: .* inf ms"):
                validate_scenario({**doc, **patch})
        doc["run"]["horizon"] = 1  # one step: stamped 0 to 1 ms
        engine = Engine(validate_scenario(doc))
        engine.run()
        assert engine.summary()["steps_completed"] == 1


# Rules the components assume and do not check: each fails validation at its
# dotted path.  (document, dotted path of the error)
_COMPONENT_RULES = [
    ({"plant": {"hvac": {"m_dot_kg_s": 1e308}}}, "plant.hvac.m_dot_kg_s"),
    # a flow is 0 or at least 1e-3 kg/s
    ({"plant": {"hvac": {"m_dot_kg_s": 5e-324}}}, "plant.hvac.m_dot_kg_s"),
    ({"plant": {"hvac": {"rated_cooling_w": 0}}}, "plant.hvac.rated_cooling_w"),
    ({"plant": {"hvac": {"rated_heating_w": 0}}}, "plant.hvac.rated_heating_w"),
    ({"plant": {"hvac": {"pv_mode": "method3"}}}, "plant.hvac.pv_mode"),
    ({"plant": {"zone_emulator": {"c_emu_j_per_k": 0}}},
     "plant.zone_emulator.c_emu_j_per_k"),
    ({"plant": {"zone_emulator": {"air_mass_kg": 0}}},
     "plant.zone_emulator.air_mass_kg"),
    # the emulator's air mass is at least 1e-3 kg
    ({"plant": {"zone_emulator": {"air_mass_kg": 9e-4}}},
     "plant.zone_emulator.air_mass_kg"),
    ({"plant": {"outdoor": {"kind": "soil"}}}, "plant.outdoor.kind"),
    ({"building": {"c_z_j_per_k": -1.0}}, "building.c_z_j_per_k"),
    ({"building": {"moisture_capacity_kg": 0}}, "building.moisture_capacity_kg"),
    # ua * (t_out - t) overflows near the float limit
    ({"building": {"ua_w_per_k": 1e308}}, "building.ua_w_per_k"),
    ({"building": {"internal_gains_w": []}}, "building.internal_gains_w"),
    ({"geb": {"modulation": {"signal": [[0, 1.5]]}}}, "geb.modulation.signal[0][1]"),
    ({"occupants": {"surrogate": {"w_zone": -1.0}}}, "occupants.surrogate.w_zone"),
    # absolute temperatures lie in [-100, 200] degC
    ({"plant": {"hvac": {"t_dis_init_c": 1e200}}}, "plant.hvac.t_dis_init_c"),
    ({"plant": {"zone_emulator": {"t_init_c": -1e300}}},
     "plant.zone_emulator.t_init_c"),
    ({"building": {"t_init_c": -273.15}}, "building.t_init_c"),
    ({"building": {"weather": {"constant": {"tdb_c": 1e6}}}},
     "building.weather.constant.tdb_c"),
    ({"occupants": {"agents": [{"coords": [1, 1, 1], "t_pref_c": 250}]}},
     "occupants.agents[0].t_pref_c"),
    ({"geb": {"baseline": {"t_dis_c": 1e9}}}, "geb.baseline.t_dis_c"),
    ({"geb": {"bounds": {"t_max_c": 200.5}}}, "geb.bounds.t_max_c"),
    ({"building": {"weather": {"series": [[0, 20, 40], [600, 1e200, 40]]}}},
     "building.weather.series[1][1]"),
    ({"geb": {"dis_schedule": [[0, 14.0], [600, -100.5]]}}, "geb.dis_schedule[1][1]"),
    ({"building": {"weather": {"series": [[0, 20, 40], [600, 20, 100.5]]}}},
     "building.weather.series[1][2]"),
]
# A rule's id is its path up to the first index; a second rule there keeps
# its whole path, and a second rule at that whole path adds its count.
_RULE_IDS = []
for _, _path in _COMPONENT_RULES:
    _id = _path if _path.split("[")[0] in _RULE_IDS else _path.split("[")[0]
    _RULE_IDS.append(f"{_id}~{_RULE_IDS.count(_id) + 1}" if _id in _RULE_IDS else _id)


@pytest.mark.parametrize("doc, path", _COMPONENT_RULES, ids=_RULE_IDS)
def test_component_rule_fails_at_its_path(doc, path):
    with pytest.raises(ScenarioError) as e:
        validate_scenario(doc)
    assert str(e.value).startswith(f"{path}: ")


def _leaves(schema, path=""):
    for name, spec in schema.items():
        child = f"{path}.{name}" if path else name
        if isinstance(spec, dict):
            yield from _leaves(spec, child)
        elif isinstance(spec, Leaf):
            yield child, name, spec


_TEMPERATURE_LEAVES = [(p, leaf) for p, name, leaf in _leaves(SCHEMA)
                       if leaf.kind.startswith("float")
                       and re.fullmatch(r"t_\w+_c|tdb_c", name)]


def test_every_absolute_temperature_leaf_shares_one_range():
    # the agent's t_pref_c and the constant weather's tdb_c sit in nested
    # schemas; the rule table above covers them
    paths = [p for p, _ in _TEMPERATURE_LEAVES]
    assert len(paths) == 11 and "geb.baseline.t_dis_c" in paths
    for path, leaf in _TEMPERATURE_LEAVES:
        assert leaf.validate(-100, path) == -100.0
        assert leaf.validate(200, path) == 200.0
        for bad in (-100.5, 200.5, 1e200, -1e200):
            with pytest.raises(ScenarioError,
                               match=rf"^{re.escape(path)}: .* outside \[-100, 200\] degC"):
                leaf.validate(bad, path)
    # deltas are not absolute temperatures
    assert validate_scenario({"occupants": {"effects": {"fan_offset_c": 300}}})
    assert validate_scenario({"occupants": {"agents": [
        {"coords": [1, 1, 1], "deadband_c": 300}]}})


# Every leaf with a number, the nested schemas of list items and of the
# constant weather included.
_NUMERIC_LEAVES = [
    (p, leaf) for p, _, leaf in [
        *_leaves(SCHEMA), *_leaves(_AGENT, "occupants.agents[0]"),
        *_leaves(_WINDOW, "geb.windows[0]"),
        *_leaves(_WEATHER_CONSTANT, "building.weather.constant"),
        ("occupants.agents[0].action_probs.fan_toggle", "", _PROBABILITY)]
    if leaf.kind.rstrip("?") in ("float", "int")]
# Float leaves that take any finite number.  A new one belongs here only by
# decision: otherwise it gets a range.
_UNBOUNDED = {"occupants.effects.clo_offset_c_per_clo", "geb.windows[0].end_s",
              "geb.baseline.p_duct_pa"}


def test_every_unbounded_number_is_listed():
    assert {p for p, leaf in _NUMERIC_LEAVES if leaf.range is None} == _UNBOUNDED


@pytest.mark.parametrize("path, leaf", [pytest.param(p, leaf, id=p)
                                        for p, leaf in _NUMERIC_LEAVES
                                        if leaf.range is not None])
def test_range_boundaries_read_from_the_schema(path, leaf):
    r = leaf.range
    integer = leaf.kind == "int"

    def fails(v):
        with pytest.raises(ScenarioError) as e:
            leaf.validate(v, path)
        assert str(e.value) == f"{path}: {v!r} {r.text}"

    ends = [int(r.lo) if integer else r.lo] + (
        [] if r.hi is None else [int(r.hi) if integer else r.hi])
    if r.open_lo:
        fails(ends[0])
        ends[0] = math.nextafter(r.lo, math.inf)
    for v in ends:
        assert leaf.validate(v, path) == v
    if r.zero_ok:
        for zero in (0, -0.0):
            assert leaf.validate(zero, path) == 0
    fails(int(r.lo) - 1 if integer else math.nextafter(r.lo, -math.inf))
    if r.hi is not None:
        fails(int(r.hi) + 1 if integer else math.nextafter(r.hi, math.inf))


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

    def test_presence_times_must_not_decrease(self):
        doc = {"occupants": {"agents": [
            {"coords": [1, 2, 1]},
            {"coords": [1, 2, 1], "presence": [[600, 0], [0, 1]]}]}}
        with pytest.raises(ScenarioError, match=r"^occupants\.agents\[1\]\."
                                                r"presence\[1\]: times must not"):
            validate_scenario(doc)
        # the later of two entries at one time wins
        doc["occupants"]["agents"][1]["presence"] = [[0, 0], [0, 1], [600, 0]]
        engine = Engine(validate_scenario(doc))
        assert engine.population.agents[1].present(0.0)
        assert not engine.population.agents[1].present(700.0)

    def test_presence_flags(self):
        doc = {"occupants": {"agents": [
            {"coords": [1, 2, 1], "presence": [[0, 1], [600, 2]]}]}}
        with pytest.raises(ScenarioError, match="flag must be 0 or 1"):
            validate_scenario(doc)


class TestRequiredKeys:
    def test_window_needs_start_and_end(self):
        with pytest.raises(ScenarioError,
                           match=r"^geb\.windows\[1\]\.end_s: missing required key"):
            validate_scenario({"geb": {"windows": [{"start_s": 0, "end_s": 60},
                                                   {"start_s": 120}]}})
        with pytest.raises(ScenarioError, match=r"^geb\.windows\[0\]: unknown keys"):
            validate_scenario({"geb": {"windows": [
                {"start_s": 0, "end_s": 60, "end": 90}]}})
        with pytest.raises(ScenarioError,
                           match=r"^geb\.windows\[0\]: expected an object"):
            validate_scenario({"geb": {"windows": [[0, 60]]}})

    def test_weather_constant_needs_tdb(self):
        with pytest.raises(ScenarioError, match=r"^building\.weather\.constant\.tdb_c: "
                                                r"missing required key"):
            validate_scenario({"building": {"weather": {"constant": {"rh_pct": 50}}}})
        cfg = validate_scenario({"building": {"weather": {"constant": {"tdb_c": 5}}}})
        assert cfg["building"]["weather"] == {
            "constant": {"tdb_c": 5.0, "rh_pct": 50.0}}

    def test_explicit_null_presence_means_always_present(self):
        doc = {"occupants": {"agents": [{"coords": [1, 2, 1], "presence": None}]}}
        assert validate_scenario(doc)["occupants"]["agents"][0]["presence"] is None


# Two valid documents that between them hold every kind of float: scalar
# leaves, both weather forms, the four other series, agent coordinates and
# probabilities, window bounds and the surrogate geometry.
_FINITE_BASES = [
    {"run": {"horizon": 3},
     "building": {"internal_gains_w": [[0, 300], [60, 500]],
                  "weather": {"series": [[0, 28, 40], [600, 30, 50]]}},
     "occupants": {"agents": [{"coords": [1, 2, 1], "presence": [[0, 1], [60, 0]],
                               "action_probs": {"drink": 0.2}}]},
     "geb": {"mode": "modulate", "windows": [{"start_s": 0, "end_s": 120}],
             "dis_schedule": [[0, 14]], "modulation": {"signal": [[0, 0.5]]},
             "baseline": {"t_dis_c": 14.0, "p_duct_pa": 250.0}}},
    {"run": {"horizon": 3},
     "building": {"weather": {"constant": {"tdb_c": 30, "rh_pct": 40}}}},
]


def _float_sites(node, path=""):
    """(dotted path, key path) of every float in a validated configuration."""
    if isinstance(node, float):
        yield path, ()
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        child = f"{path}[{k}]" if isinstance(k, int) else f"{path}.{k}" if path else k
        for site, keys in _float_sites(v, child):
            yield site, (k, *keys)


_SITES = [(i, site, keys) for i, base in enumerate(_FINITE_BASES)
          for site, keys in _float_sites(validate_scenario(base))]


class TestFiniteNumbers:
    def test_sites_cover_leaves_and_series_cells(self):
        names = {site for _, site, _ in _SITES}
        assert {"building.t_init_c", "building.internal_gains_w[1][1]",
                "building.weather.series[0][2]", "building.weather.constant.tdb_c",
                "occupants.agents[0].coords[2]", "occupants.agents[0].presence[1][0]",
                "occupants.agents[0].action_probs.drink", "geb.windows[0].end_s",
                "geb.modulation.signal[0][1]", "geb.dis_schedule[0][0]",
                "occupants.surrogate.zone_bounds[1][0]",
                "geb.baseline.p_duct_pa"} <= names

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_SITES), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_value_fails_at_its_path(self, site, bad):
        i, path, keys = site
        doc = validate_scenario(_FINITE_BASES[i])  # a complete valid document
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = bad
        with pytest.raises(ScenarioError) as e:
            validate_scenario(doc)
        assert str(e.value).startswith(f"{path}: ")
        with tempfile.TemporaryDirectory() as d:
            scenario = os.path.join(d, "s.json")
            with open(scenario, "w", encoding="utf-8") as f:
                json.dump(doc, f)  # writes NaN / Infinity / -Infinity
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["validate", scenario]) == 1
        assert err.getvalue().startswith(f"error: {path}: ")

    def test_explicit_cases(self):
        with pytest.raises(ScenarioError,
                           match=r"^building\.t_init_c: nan is not a finite"):
            validate_scenario(json.loads('{"building": {"t_init_c": NaN}}'))
        with pytest.raises(ScenarioError,
                           match=r"^building\.internal_gains_w\[0\]\[1\]: inf is not"):
            validate_scenario(json.loads(
                '{"building": {"internal_gains_w": [[0, Infinity]]}}'))
        with pytest.raises(ScenarioError, match=r"^building\.internal_gains_w: -inf"):
            validate_scenario(json.loads(
                '{"building": {"internal_gains_w": -Infinity}}'))
        # an integer too large for a float is not finite either
        with pytest.raises(ScenarioError, match=r"^run\.step_size_s: .* not a finite"):
            validate_scenario({"run": {"step_size_s": 10 ** 400}})
        # the type messages are unchanged
        with pytest.raises(ScenarioError,
                           match=r"^building\.t_init_c: expected a number"):
            validate_scenario({"building": {"t_init_c": "warm"}})

    def test_weather_file_values_must_be_finite(self, tmp_path):
        (tmp_path / "w.csv").write_text("time_s,tdb_c,rh_pct\n0,25,40\n600,nan,50\n")
        doc = {"run": {"horizon": 5}, "building": {"weather": {"path": "w.csv"}}}
        with pytest.raises(ScenarioError, match=r"^building\.weather\.path: .*finite"):
            validate_scenario(doc, base_dir=str(tmp_path))


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
