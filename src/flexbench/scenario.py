"""Scenario documents: schema, strict validation, defaults, overrides.

A scenario is a JSON tree with the blocks run / delays / plant / building /
occupants / geb / logging.  Validation is strict: unknown keys are fatal
(assumed typos), every failure names the dotted key path, and the validated
result has all defaults materialized so the echoed effective configuration is
complete on its own.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any

from .occupants import ActionType


class ScenarioError(Exception):
    """Invalid scenario document; message names the offending key path."""


class Leaf:
    """One schema leaf: default value, type kind, optional constraint."""

    def __init__(self, default, kind: str, choices=None, check=None, msg: str = ""):
        self.default = default
        self.kind = kind
        self.choices = choices
        self.check = check
        self.msg = msg

    def validate(self, value, path: str):
        k = self.kind
        if value is None and self.default is None and k.endswith("?"):
            return None
        if k.endswith("?"):
            k = k[:-1]
        if k == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{path}: expected a number, got {value!r}")
            value = float(value)
        elif k == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        elif k == "bool":
            if not isinstance(value, bool):
                raise ScenarioError(f"{path}: expected true/false, got {value!r}")
        elif k == "str":
            if not isinstance(value, str):
                raise ScenarioError(f"{path}: expected a string, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ScenarioError(f"{path}: {value!r} not one of {sorted(self.choices)}")
        if self.check is not None and not self.check(value):
            raise ScenarioError(f"{path}: {value!r} {self.msg}")
        return value


def _pos(v):
    return v > 0


def _nonneg(v):
    return v >= 0


def _pct(v):
    return 0.0 <= v <= 100.0


_ACTION_NAMES = {a.value for a in ActionType}


def _number_or_breakpoints(value, path):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, list):
        out = []
        last_t = None
        for i, item in enumerate(value):
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in item)):
                raise ScenarioError(f"{path}[{i}]: expected [time_s, value]")
            t, v = float(item[0]), float(item[1])
            if last_t is not None and t <= last_t:
                raise ScenarioError(f"{path}[{i}]: times must be strictly increasing")
            last_t = t
            out.append([t, v])
        if not out:
            raise ScenarioError(f"{path}: breakpoint list must not be empty")
        return out
    raise ScenarioError(f"{path}: expected a number or a [[time_s, value], ...] list")


def _weather(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    forms = [k for k in ("path", "constant", "series") if k in value]
    unknown = set(value) - {"path", "constant", "series"}
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    if len(forms) != 1:
        raise ScenarioError(f"{path}: give exactly one of path / constant / series")
    form = forms[0]
    v = value[form]
    if form == "path":
        if not isinstance(v, str) or not v:
            raise ScenarioError(f"{path}.path: expected a file path string")
        return {"path": v}
    if form == "constant":
        if not isinstance(v, dict):
            raise ScenarioError(f"{path}.constant: expected an object")
        extra = set(v) - {"tdb_c", "rh_pct"}
        if extra:
            raise ScenarioError(f"{path}.constant: unknown keys {sorted(extra)}")
        tdb = Leaf(None, "float").validate(v.get("tdb_c"), f"{path}.constant.tdb_c")
        rh = Leaf(None, "float", check=_pct, msg="outside [0, 100]").validate(
            v.get("rh_pct", 50.0), f"{path}.constant.rh_pct")
        return {"constant": {"tdb_c": tdb, "rh_pct": rh}}
    rows = []
    last_t = None
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{path}.series: expected a non-empty list")
    for i, item in enumerate(v):
        if (not isinstance(item, list) or len(item) != 3
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in item)):
            raise ScenarioError(f"{path}.series[{i}]: expected [time_s, tdb_c, rh_pct]")
        t = float(item[0])
        if last_t is not None and t <= last_t:
            raise ScenarioError(f"{path}.series[{i}]: times must be strictly increasing")
        last_t = t
        rows.append([t, float(item[1]), float(item[2])])
    return {"series": rows}


def _increasing_times(rows, path):
    for i in range(1, len(rows)):
        if rows[i][0] <= rows[i - 1][0]:
            raise ScenarioError(f"{path}[{i}]: times must be strictly increasing")


def _pairs(value, path, inner_len, names):
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list")
    out = []
    for i, item in enumerate(value):
        if (not isinstance(item, list) or len(item) != inner_len
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in item)):
            raise ScenarioError(f"{path}[{i}]: expected [{', '.join(names)}]")
        out.append([float(x) for x in item])
    return out


def _agent(value, path, index):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    allowed = {"coords", "clo", "t_pref_c", "deadband_c", "action_probs", "presence"}
    unknown = set(value) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    coords = value.get("coords")
    if (not isinstance(coords, list) or len(coords) != 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in coords)):
        raise ScenarioError(f"{path}.coords: expected [x, y, z]")
    out = {
        "coords": [float(c) for c in coords],
        "clo": Leaf(0.7, "float", check=_nonneg, msg="must be >= 0").validate(
            value.get("clo", 0.7), f"{path}.clo"),
        "t_pref_c": Leaf(22.5, "float").validate(
            value.get("t_pref_c", 22.5), f"{path}.t_pref_c"),
        "deadband_c": Leaf(1.0, "float", check=_pos, msg="must be > 0").validate(
            value.get("deadband_c", 1.0), f"{path}.deadband_c"),
        "action_probs": {},
        "presence": None,
    }
    probs = value.get("action_probs", {})
    if not isinstance(probs, dict):
        raise ScenarioError(f"{path}.action_probs: expected an object")
    for name, p in probs.items():
        if name not in _ACTION_NAMES:
            raise ScenarioError(f"{path}.action_probs.{name}: unknown action")
        if (isinstance(p, bool) or not isinstance(p, (int, float))
                or not 0.0 <= p <= 1.0):
            raise ScenarioError(f"{path}.action_probs.{name}: probability {p!r} "
                                f"outside [0, 1]")
        out["action_probs"][name] = float(p)
    presence = value.get("presence")
    if presence is not None:
        rows = _pairs(presence, f"{path}.presence", 2, ("time_s", "flag"))
        for i, (_, flag) in enumerate(rows):
            if flag not in (0.0, 1.0):
                raise ScenarioError(f"{path}.presence[{i}]: flag must be 0 or 1")
        out["presence"] = rows
    return out


SCHEMA: dict[str, Any] = {
    "run": {
        "scenario_id": Leaf(None, "str?"),
        "step_size_s": Leaf(60.0, "float", check=_pos, msg="must be > 0"),
        "horizon": Leaf(60, "int", check=lambda v: v >= 1, msg="must be >= 1"),
        "mode": Leaf("fast", "str", choices={"fast", "realtime"}),
        "seed": Leaf(0, "int", check=_nonneg, msg="must be >= 0"),
        "overrun_policy": Leaf("hold", "str", choices={"hold", "abort"}),
    },
    "delays": {
        "comm_latency_s": Leaf(0.0, "float", check=_nonneg, msg="must be >= 0"),
        "jitter_s": Leaf(0.0, "float", check=_nonneg, msg="must be >= 0"),
        "inherited_delay": Leaf(False, "bool"),
        "stale_hold": Leaf(False, "bool"),
    },
    "plant": {
        "ideal_actuators": Leaf(False, "bool"),
        "control_dt_s": Leaf(1.0, "float", check=_pos, msg="must be > 0"),
        "hvac": {
            "m_dot_kg_s": Leaf(0.5, "float", check=_nonneg, msg="must be >= 0"),
            "rated_cooling_w": Leaf(8000.0, "float", check=_pos, msg="must be > 0"),
            "rated_heating_w": Leaf(6000.0, "float", check=_pos, msg="must be > 0"),
            "kp_w_per_k": Leaf(400.0, "float", check=_nonneg, msg="must be >= 0"),
            "ki_w_per_k_s": Leaf(2.0, "float", check=_nonneg, msg="must be >= 0"),
            "tau_dis_s": Leaf(120.0, "float", check=_nonneg, msg="must be >= 0"),
            "t_dis_min_c": Leaf(8.0, "float"),
            "t_dis_max_c": Leaf(45.0, "float"),
            "pv_mode": Leaf("method2", "str", choices={"method1", "method2"}),
            "t_dis_init_c": Leaf(20.0, "float"),
            "rh_dis_init_pct": Leaf(60.0, "float", check=_pct, msg="outside [0, 100]"),
            "bleed_tau_s": Leaf(300.0, "float", check=_nonneg, msg="must be >= 0"),
        },
        "zone_emulator": {
            "c_emu_j_per_k": Leaf(50000.0, "float", check=_pos, msg="must be > 0"),
            "air_mass_kg": Leaf(60.0, "float", check=_pos, msg="must be > 0"),
            "heater_w_max": Leaf(5000.0, "float", check=_nonneg, msg="must be >= 0"),
            "cooling_w_max": Leaf(5000.0, "float", check=_nonneg, msg="must be >= 0"),
            "humidifier_kg_s_max": Leaf(0.002, "float", check=_pos, msg="must be > 0"),
            "kp_w_per_k": Leaf(800.0, "float", check=_nonneg, msg="must be >= 0"),
            "ki_w_per_k_s": Leaf(4.0, "float", check=_nonneg, msg="must be >= 0"),
            "kd_w_s_per_k": Leaf(0.0, "float", check=_nonneg, msg="must be >= 0"),
            "hum_kp": Leaf(0.05, "float", check=_nonneg, msg="must be >= 0"),
            "hum_ki": Leaf(0.002, "float", check=_nonneg, msg="must be >= 0"),
            "t_init_c": Leaf(22.0, "float"),
            "rh_init_pct": Leaf(50.0, "float", check=_pct, msg="outside [0, 100]"),
        },
        "outdoor": {
            "kind": Leaf("air", "str", choices={"air", "water"}),
            "tau_s": Leaf(300.0, "float", check=_nonneg, msg="must be >= 0"),
            "t_init_c": Leaf(15.0, "float"),
            "rh_init_pct": Leaf(50.0, "float", check=_pct, msg="outside [0, 100]"),
        },
    },
    "building": {
        "c_z_j_per_k": Leaf(2.0e7, "float", check=_pos, msg="must be > 0"),
        "ua_w_per_k": Leaf(250.0, "float", check=_nonneg, msg="must be >= 0"),
        "moisture_capacity_kg": Leaf(800.0, "float", check=_pos, msg="must be > 0"),
        "surface_tau_s": Leaf(1800.0, "float", check=_pos, msg="must be > 0"),
        "n_surfaces": Leaf(4, "int", check=_nonneg, msg="must be >= 0"),
        "t_init_c": Leaf(23.0, "float"),
        "rh_init_pct": Leaf(50.0, "float", check=_pct, msg="outside [0, 100]"),
        "internal_gains_w": _number_or_breakpoints,
        "weather": _weather,
    },
    "occupants": {
        "agents": None,  # handled specially
        "effects": {
            "fan_offset_c": Leaf(0.8, "float", check=_nonneg, msg="must be >= 0"),
            "clo_step": Leaf(0.5, "float", check=_pos, msg="must be > 0"),
            "clo_offset_c_per_clo": Leaf(2.0, "float"),
            "clo_min": Leaf(0.3, "float", check=_nonneg, msg="must be >= 0"),
            "clo_max": Leaf(1.5, "float", check=_pos, msg="must be > 0"),
            "drink_offset_c": Leaf(0.5, "float", check=_nonneg, msg="must be >= 0"),
            "drink_duration_s": Leaf(900.0, "float", check=_pos, msg="must be > 0"),
            "walk_offset_c": Leaf(0.3, "float", check=_nonneg, msg="must be >= 0"),
            "walk_duration_s": Leaf(300.0, "float", check=_pos, msg="must be > 0"),
            "thermostat_step_c": Leaf(0.5, "float", check=_pos, msg="must be > 0"),
            "thermostat_band_c": Leaf(2.0, "float", check=_pos, msg="must be > 0"),
            "base_sensible_w": Leaf(75.0, "float", check=_nonneg, msg="must be >= 0"),
            "base_latent_w": Leaf(55.0, "float", check=_nonneg, msg="must be >= 0"),
            "heater_w": Leaf(800.0, "float", check=_nonneg, msg="must be >= 0"),
            "walk_sensible_w": Leaf(40.0, "float", check=_nonneg, msg="must be >= 0"),
        },
        "surrogate": {
            "w_discharge": Leaf(0.2, "float", check=_nonneg, msg="must be >= 0"),
            "w_zone": Leaf(0.6, "float", check=_nonneg, msg="must be >= 0"),
            "w_surfaces": Leaf(0.2, "float", check=_nonneg, msg="must be >= 0"),
            "decay_length_m": Leaf(3.0, "float", check=_pos, msg="must be > 0"),
            "diffuser_xyz": None,  # handled specially
            "zone_bounds": None,   # handled specially
        },
    },
    "geb": {
        "mode": Leaf("efficiency", "str",
                     choices={"efficiency", "shed", "shift", "modulate"}),
        "baseline": {
            "t_cool_c": Leaf(24.0, "float"),
            "t_heat_c": Leaf(20.0, "float"),
            "t_dis_c": Leaf(None, "float?"),
            "p_duct_pa": Leaf(None, "float?"),
        },
        "windows": None,  # handled specially
        "dis_schedule": None,  # handled specially
        "delta_eff_c": Leaf(1.0, "float", check=_nonneg, msg="must be >= 0"),
        "delta_shed_c": Leaf(2.0, "float", check=_nonneg, msg="must be >= 0"),
        "delta_pre_c": Leaf(1.5, "float", check=_nonneg, msg="must be >= 0"),
        "pre_window_s": Leaf(7200.0, "float", check=_nonneg, msg="must be >= 0"),
        "r_max_c_per_step": Leaf(0.5, "float", check=_pos, msg="must be > 0"),
        "modulation": {
            "depth_c": Leaf(1.0, "float", check=_nonneg, msg="must be >= 0"),
            "signal": None,  # handled specially
        },
        "bounds": {
            "t_min_c": Leaf(12.0, "float"),
            "t_max_c": Leaf(32.0, "float"),
        },
        "min_gap_c": Leaf(1.0, "float", check=_pos, msg="must be > 0"),
        "policy": Leaf("rbc", "str", choices={"rbc", "slow"}),
        "slow": {
            "compute_latency_s": Leaf(90.0, "float", check=_nonneg, msg="must be >= 0"),
            "freshness_s": Leaf(600.0, "float", check=_pos, msg="must be > 0"),
        },
    },
    "logging": {
        "plant_internals": Leaf(True, "bool"),
        "include": None,  # handled specially
    },
}


def _validate_level(doc: dict, schema: dict, path: str, out: dict) -> None:
    unknown = set(doc) - set(schema)
    if unknown:
        where = path or "top level"
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    for name, spec in schema.items():
        child_path = f"{path}.{name}" if path else name
        present = name in doc
        value = doc.get(name)
        if isinstance(spec, dict):
            if present and not isinstance(value, dict):
                raise ScenarioError(f"{child_path}: expected an object")
            out[name] = {}
            _validate_level(value or {}, spec, child_path, out[name])
        elif isinstance(spec, Leaf):
            out[name] = spec.validate(value if present else spec.default, child_path) \
                if present else copy.deepcopy(spec.default)
        elif callable(spec):
            default = {"internal_gains_w": 300.0,
                       "weather": {"constant": {"tdb_c": 30.0, "rh_pct": 40.0}}}[name]
            out[name] = spec(value, child_path) if present else default
        else:
            out[name] = _validate_special(name, value, present, child_path)


def _validate_special(name: str, value, present: bool, path: str):
    if name == "agents":
        if not present:
            return []
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        return [_agent(a, f"{path}[{i}]", i) for i, a in enumerate(value)]
    if name == "windows":
        if not present:
            return []
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        out = []
        for i, win in enumerate(value):
            if not isinstance(win, dict) or set(win) != {"start_s", "end_s"}:
                raise ScenarioError(f"{path}[{i}]: expected {{start_s, end_s}}")
            start = Leaf(None, "float", check=_nonneg, msg="must be >= 0").validate(
                win["start_s"], f"{path}[{i}].start_s")
            end = Leaf(None, "float").validate(win["end_s"], f"{path}[{i}].end_s")
            if end <= start:
                raise ScenarioError(f"{path}[{i}]: end_s must exceed start_s")
            out.append({"start_s": start, "end_s": end})
        return out
    if name == "signal":
        if not present:
            return []
        rows = _pairs(value, path, 2, ("time_s", "value"))
        _increasing_times(rows, path)
        for i, (_, v) in enumerate(rows):
            if not -1.0 <= v <= 1.0:
                raise ScenarioError(f"{path}[{i}]: signal value {v} outside [-1, 1]")
        return rows
    if name == "dis_schedule":
        if not present:
            return []
        rows = _pairs(value, path, 2, ("time_s", "t_dis_c"))
        _increasing_times(rows, path)
        return rows
    if name == "diffuser_xyz":
        if not present:
            return [0.0, 0.0, 2.5]
        if (not isinstance(value, list) or len(value) != 3
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in value)):
            raise ScenarioError(f"{path}: expected [x, y, z]")
        return [float(x) for x in value]
    if name == "zone_bounds":
        if not present:
            return [[0.0, 0.0, 0.0], [6.0, 6.0, 3.0]]
        rows = _pairs(value, path, 3, ("x", "y", "z"))
        if len(rows) != 2:
            raise ScenarioError(f"{path}: expected [[lo...], [hi...]]")
        if any(h <= l for l, h in zip(rows[0], rows[1])):
            raise ScenarioError(f"{path}: upper corner must exceed lower corner")
        return rows
    if name == "include":
        if not present or value is None:
            return None
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ScenarioError(f"{path}: expected a list of variable names")
        return list(value)
    raise AssertionError(name)


def validate_scenario(doc: dict, base_dir: str | None = None,
                      default_id: str | None = None,
                      check_files: bool = True) -> dict:
    """Validate a scenario tree and return the effective configuration.

    Cross-field rules live here: exchange latency must fit inside the step
    (unless stale_hold opts in), discharge limits and setpoint bounds must be
    ordered, the emulator coil needs some capacity, windows must not overlap,
    and referenced weather must exist and cover the horizon.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")
    out: dict[str, Any] = {}
    _validate_level(doc, SCHEMA, "", out)

    run, delays = out["run"], out["delays"]
    if run["scenario_id"] is None:
        run["scenario_id"] = default_id or "scenario"
    step = run["step_size_s"]
    if not delays["stale_hold"]:
        if delays["comm_latency_s"] >= step:
            raise ScenarioError(
                f"delays.comm_latency_s: {delays['comm_latency_s']} must be below "
                f"the step size {step} (or set delays.stale_hold)")
        if delays["comm_latency_s"] + 2 * delays["jitter_s"] >= step:
            raise ScenarioError(
                "delays.jitter_s: worst-case round trip reaches the step size "
                "(or set delays.stale_hold)")

    hvac = out["plant"]["hvac"]
    if hvac["t_dis_max_c"] <= hvac["t_dis_min_c"]:
        raise ScenarioError("plant.hvac.t_dis_max_c: must exceed t_dis_min_c")
    emu = out["plant"]["zone_emulator"]
    if emu["heater_w_max"] + emu["cooling_w_max"] <= 0:
        raise ScenarioError("plant.zone_emulator.heater_w_max: heater_w_max and "
                            "cooling_w_max cannot both be 0")

    fx = out["occupants"]["effects"]
    if fx["clo_max"] <= fx["clo_min"]:
        raise ScenarioError("occupants.effects.clo_max: must exceed clo_min")

    gb = out["geb"]
    if gb["baseline"]["t_cool_c"] - gb["baseline"]["t_heat_c"] < gb["min_gap_c"]:
        raise ScenarioError("geb.baseline.t_cool_c: heating/cooling setpoints closer "
                            "than geb.min_gap_c")
    if gb["bounds"]["t_max_c"] <= gb["bounds"]["t_min_c"]:
        raise ScenarioError("geb.bounds.t_max_c: must exceed t_min_c")
    wins = sorted(gb["windows"], key=lambda w: w["start_s"])
    for a, b in zip(wins, wins[1:]):
        if b["start_s"] < a["end_s"]:
            raise ScenarioError(f"geb.windows: [{a['start_s']}, {a['end_s']}) overlaps "
                                f"[{b['start_s']}, {b['end_s']})")

    sur = out["occupants"]["surrogate"]
    if sur["w_discharge"] + sur["w_zone"] + sur["w_surfaces"] <= 0:
        raise ScenarioError("occupants.surrogate.w_zone: weights must sum above 0")

    weather = out["building"]["weather"]
    if check_files and "path" in weather:
        wpath = weather["path"]
        if base_dir is not None and not os.path.isabs(wpath):
            wpath = os.path.join(base_dir, wpath)
        if not os.path.exists(wpath):
            raise ScenarioError(f"building.weather.path: file not found: {wpath}")
        from .building import WeatherCoverageError, WeatherFormatError, load_weather
        try:
            series = load_weather(wpath)
            series.ensure_coverage((run["horizon"] - 1) * step)
        except (WeatherCoverageError, WeatherFormatError) as e:
            raise ScenarioError(f"building.weather.path: {e}") from e
    elif "series" in weather:
        last = weather["series"][-1][0]
        needed = (run["horizon"] - 1) * step
        if len(weather["series"]) > 1 and needed > last + 1e-9:
            raise ScenarioError(
                f"building.weather.series: ends at {last:.0f} s but the horizon "
                f"needs {needed:.0f} s")
    return out


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value pairs onto a raw scenario tree.

    Values parse as JSON when possible (numbers, booleans, lists) and fall
    back to plain strings, so --set run.mode=fast works without quoting.
    """
    doc = copy.deepcopy(doc)
    for item in assignments:
        if "=" not in item:
            raise ScenarioError(f"override {item!r}: expected key.path=value")
        dotted, raw = item.split("=", 1)
        dotted = dotted.strip()
        if not dotted:
            raise ScenarioError(f"override {item!r}: empty key path")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ScenarioError(f"override {dotted}: {part} is not an object")
            node = nxt
        node[parts[-1]] = value
    return doc


def load_scenario(path: str) -> dict:
    """Read a raw scenario document (no validation)."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON: {e}") from e
