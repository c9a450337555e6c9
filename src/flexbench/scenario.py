"""Scenario documents: schema, strict validation, defaults, overrides.

A scenario is a JSON tree with the blocks run / delays / plant / building /
occupants / geb / logging.  Validation is strict: unknown keys are fatal
(assumed typos), every failure names the dotted key path, and the validated
result has all defaults materialized so the echoed effective configuration is
complete on its own.  Every numeric bound is data: a `building.Range` on a
leaf or on a series column, whose text reads in the error as
"<path>: <value> <range text>".
"""

from __future__ import annotations

import copy
import json
import math
import sys
from functools import partial
from typing import Any

from .building import ABS_TEMP, PERCENT, Range, WeatherFormatError, build_weather
from .datastore import MAX_STAMP_MS
from .geb import EventWindow, validate_windows
from .occupants import ActionType
from .orchestrator import VARIABLES, DelayInjector, step_ms


class ScenarioError(Exception):
    """Invalid scenario document; message names the offending key path."""


# Default of a key the document must give.
REQUIRED = object()
# Most control substeps PlantSim.advance may run in one exchange step: one
# hour of 1 s control.  The shipped scenarios use at most 60.
MAX_SUBSTEPS = 3600
# Supply air flow, kg/s: 0 (no flow), or from about 0.8 L/s of air up to the
# 100 kg/s a large air handler moves.  Flows near the float limit overflow the
# plant's loads to infinity; near its smallest values the coil power per unit
# flow overflows and the emulator's temperature turns NaN.
MIN_M_DOT, MAX_M_DOT = 1e-3, 100.0
# Largest envelope conductance, W/K: about a thousand times that of a large
# office floor.  Near the float limit ua * (t_out - t) overflows to infinity.
MAX_UA_W_PER_K = 1e7
# Shortest step, s.  Weather rows can lie close enough for the slope between
# them to overflow only at times below about 1e-290 s, so an engine time of 0
# or at least a microsecond never falls between two such rows.  A step under
# 1 ms is 0 ms on the exchange timeline and needs delays.stale_hold.
MIN_STEP_S = 1e-6
# Smallest heat capacity of an air node, J/K (a litre of air holds about 1.2).
# Near the float's smallest values the emulator's time constant underflows to
# 0, a division by zero, and the zone's rate overflows to infinity.
MIN_C_J_PER_K = 1.0
# Smallest air mass of the zone emulator, kg (a litre of air weighs about
# 1.2 g).  The humidifier adds m_u * dt / air_mass_kg to the humidity ratio
# each substep, which overflows near the float's smallest values.
MIN_AIR_MASS_KG = 1e-3
_NUMBER = (int, float)


def _is_number(x) -> bool:
    return isinstance(x, _NUMBER) and not isinstance(x, bool)


_MAX = sys.float_info.max  # a number outside ±_MAX is NaN, ±Infinity or too big


def _join(path: str, key: str | None = None) -> str:
    """The dotted path of key in the object at path ("" is the top level),
    or path itself without a key."""
    if key is None:
        return path
    return f"{path}.{key}" if path else key


def _finite(x, path: str, key: str | None = None) -> float:
    """A number as a finite float.  Python's json reads NaN and Infinity, and
    the store rejects them, so validation does too."""
    if not -_MAX <= x <= _MAX:
        raise ScenarioError(f"{_join(path, key)}: {x!r} is not a finite number")
    return float(x)


class Leaf:
    """One schema leaf, all data: default value, type kind, and optionally
    the Range a number must lie in or the choices a value must be one of.
    A value outside its range fails with "<path>: <value!r> <range.text>"."""

    def __init__(self, default, kind: str, range: Range | None = None, choices=None):
        self.default = default
        self.kind = kind
        self.range = range
        self.choices = choices

    def validate(self, value, path: str, key: str | None = None):
        """The value, checked; path names it, or with key the object that
        holds it, and the two are joined only for an error."""
        k = self.kind
        if k[-1] == "?":
            if value is None and self.default is None:
                return None
            k = k[:-1]
        if k == "float":
            if isinstance(value, bool) or not isinstance(value, _NUMBER):
                raise ScenarioError(
                    f"{_join(path, key)}: expected a number, got {value!r}")
            value = _finite(value, path, key)
        elif k == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(
                    f"{_join(path, key)}: expected an integer, got {value!r}")
        elif k == "bool":
            if not isinstance(value, bool):
                raise ScenarioError(
                    f"{_join(path, key)}: expected true/false, got {value!r}")
        elif k == "str":
            if not isinstance(value, str):
                raise ScenarioError(
                    f"{_join(path, key)}: expected a string, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ScenarioError(
                f"{_join(path, key)}: {value!r} not one of {sorted(self.choices)}")
        if self.range is not None and value not in self.range:
            raise ScenarioError(f"{_join(path, key)}: {value!r} {self.range.text}")
        return value


_NONNEG, _POSITIVE = Range(0.0), Range(0.0, open_lo=True)
_ACTION_NAMES = {a.value for a in ActionType}


def _breakpoints(value, path: str, names: tuple[str, ...], ranges: tuple = (),
                 empty_ok: bool = False, ties_ok: bool = False) -> list[list[float]]:
    """Parse [[time_s, *values], ...]: rows of len(names) finite numbers (bools
    are not numbers) with strictly increasing times (with ties_ok,
    non-decreasing: the later of two equal times wins), returned as floats.
    ranges gives the Range of each value column after time_s, in order.
    Every scheduled input goes through here; see `schedule.Schedule` for how
    a series is read between and outside its breakpoints."""
    if not isinstance(value, list) or not (value or empty_ok):
        raise ScenarioError(f"{path}: expected a {'' if empty_ok else 'non-empty '}"
                            f"[[{', '.join(names)}], ...] list")
    checks = tuple(enumerate(ranges, 1))
    out = []
    last = -math.inf
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(names):
            raise ScenarioError(f"{path}[{i}]: expected [{', '.join(names)}]")
        floats = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, _NUMBER):
                raise ScenarioError(f"{path}[{i}]: expected [{', '.join(names)}]")
            # series can be long: build a cell's path only to report it
            floats.append(float(x) if -_MAX <= x <= _MAX
                          else _finite(x, f"{path}[{i}][{len(floats)}]"))
        if floats[0] < last or (floats[0] == last and not ties_ok):
            order = "not decrease" if ties_ok else "be strictly increasing"
            raise ScenarioError(f"{path}[{i}]: times must {order}")
        for col, rng in checks:
            if floats[col] not in rng:
                raise ScenarioError(f"{path}[{i}][{col}]: {floats[col]!r} {rng.text}")
        last = floats[0]
        out.append(floats)
    return out


def _gains(value, path):
    if _is_number(value):
        return _finite(value, path)
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a number or a "
                            f"[[time_s, value], ...] list")
    return _breakpoints(value, path, ("time_s", "value"))


def _objects(schema: dict):
    """Parser of a list of objects, each validated against schema."""
    def parse(value, path):
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        return [_validate_level(v, schema, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse


def _file_path(value, path):
    if Leaf(None, "str").validate(value, path) == "":
        raise ScenarioError(f"{path}: '' is not a file path")
    return value


_WEATHER_CONSTANT = {
    "tdb_c": Leaf(REQUIRED, "float", ABS_TEMP),
    "rh_pct": Leaf(50.0, "float", PERCENT),
}
_WEATHER = {
    "path": (None, _file_path),
    "constant": (None, lambda v, p: _validate_level(v, _WEATHER_CONSTANT, p)),
    "series": (None, partial(_breakpoints, names=("time_s", "tdb_c", "rh_pct"),
                             ranges=(ABS_TEMP, PERCENT))),
}


def _weather(value, path):
    forms = {k: v for k, v in _validate_level(value, _WEATHER, path).items()
             if v is not None}
    if len(forms) != 1:
        raise ScenarioError(f"{path}: give exactly one of path / constant / series")
    return forms


def _presence(value, path):
    if value is None:  # present throughout
        return None
    rows = _breakpoints(value, path, ("time_s", "flag"), empty_ok=True, ties_ok=True)
    for i, (_, flag) in enumerate(rows):
        if flag not in (0.0, 1.0):
            raise ScenarioError(f"{path}[{i}]: flag must be 0 or 1")
    return rows


def _signal(value, path):
    rows = _breakpoints(value, path, ("time_s", "value"), empty_ok=True)
    for i, (_, v) in enumerate(rows):
        if not -1.0 <= v <= 1.0:
            raise ScenarioError(f"{path}[{i}]: signal value {v} outside [-1, 1]")
    return rows


def _xyz(value, path):
    if (not isinstance(value, list) or len(value) != 3
            or not all(map(_is_number, value))):
        raise ScenarioError(f"{path}: expected [x, y, z]")
    return [_finite(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _zone_bounds(value, path):
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{path}: expected [[lo...], [hi...]]")
    lo, hi = (_xyz(c, f"{path}[{i}]") for i, c in enumerate(value))
    if any(h <= l for l, h in zip(lo, hi)):
        raise ScenarioError(f"{path}: upper corner must exceed lower corner")
    return [lo, hi]


_PROBABILITY = Leaf(None, "float", Range(0.0, 1.0))


def _action_probs(value, path):
    """A map from action name to probability: its keys are data, so it keeps
    only the actions it is given."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    for name in value:
        if name not in _ACTION_NAMES:
            raise ScenarioError(f"{path}.{name}: unknown action")
    return {name: _PROBABILITY.validate(p, f"{path}.{name}")
            for name, p in value.items()}


_AGENT = {
    "coords": (REQUIRED, _xyz),
    "clo": Leaf(0.7, "float", _NONNEG),
    "t_pref_c": Leaf(22.5, "float", ABS_TEMP),
    "deadband_c": Leaf(1.0, "float", _POSITIVE),
    "action_probs": ({}, _action_probs),
    "presence": (None, _presence),
}

_WINDOW = {
    "start_s": Leaf(REQUIRED, "float", _NONNEG),
    "end_s": Leaf(REQUIRED, "float"),
}


def _windows(value, path):
    out = _objects(_WINDOW)(value, path)
    try:  # each window ends after it starts, and no two overlap
        validate_windows([EventWindow(**w) for w in out])
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from e
    return out


def _include(value, path):
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioError(f"{path}: expected a list of variable names")
    unknown = sorted(set(value) - VARIABLES.keys())
    if unknown:
        raise ScenarioError(f"{path}: unknown variables {unknown}")
    return list(value)


SCHEMA: dict[str, Any] = {
    "run": {
        "scenario_id": Leaf(None, "str?"),
        "step_size_s": Leaf(60.0, "float", _POSITIVE),
        "horizon": Leaf(60, "int", Range(1)),
        "mode": Leaf("fast", "str", choices={"fast", "realtime"}),
        "seed": Leaf(0, "int", _NONNEG),
        "overrun_policy": Leaf("hold", "str", choices={"hold", "abort"}),
    },
    "delays": {
        "comm_latency_s": Leaf(0.0, "float", _NONNEG),
        "jitter_s": Leaf(0.0, "float", _NONNEG),
        "inherited_delay": Leaf(False, "bool"),
        "stale_hold": Leaf(False, "bool"),
    },
    "plant": {
        "ideal_actuators": Leaf(False, "bool"),
        "control_dt_s": Leaf(1.0, "float", _POSITIVE),
        "hvac": {
            "m_dot_kg_s": Leaf(0.5, "float", Range(MIN_M_DOT, MAX_M_DOT, zero_ok=True)),
            "rated_cooling_w": Leaf(8000.0, "float", _POSITIVE),
            "rated_heating_w": Leaf(6000.0, "float", _POSITIVE),
            "kp_w_per_k": Leaf(400.0, "float", _NONNEG),
            "ki_w_per_k_s": Leaf(2.0, "float", _NONNEG),
            "tau_dis_s": Leaf(120.0, "float", _NONNEG),
            "t_dis_min_c": Leaf(8.0, "float", ABS_TEMP),
            "t_dis_max_c": Leaf(45.0, "float", ABS_TEMP),
            "pv_mode": Leaf("method2", "str", choices={"method1", "method2"}),
            "t_dis_init_c": Leaf(20.0, "float", ABS_TEMP),
            "rh_dis_init_pct": Leaf(60.0, "float", PERCENT),
            "bleed_tau_s": Leaf(300.0, "float", _NONNEG),
        },
        "zone_emulator": {
            "c_emu_j_per_k": Leaf(50000.0, "float", Range(MIN_C_J_PER_K)),
            "air_mass_kg": Leaf(60.0, "float", Range(MIN_AIR_MASS_KG)),
            "heater_w_max": Leaf(5000.0, "float", _NONNEG),
            "cooling_w_max": Leaf(5000.0, "float", _NONNEG),
            "humidifier_kg_s_max": Leaf(0.002, "float", _POSITIVE),
            "kp_w_per_k": Leaf(800.0, "float", _NONNEG),
            "ki_w_per_k_s": Leaf(4.0, "float", _NONNEG),
            "kd_w_s_per_k": Leaf(0.0, "float", _NONNEG),
            "hum_kp": Leaf(0.05, "float", _NONNEG),
            "hum_ki": Leaf(0.002, "float", _NONNEG),
            "t_init_c": Leaf(22.0, "float", ABS_TEMP),
            "rh_init_pct": Leaf(50.0, "float", PERCENT),
        },
        "outdoor": {
            "kind": Leaf("air", "str", choices={"air", "water"}),
            "tau_s": Leaf(300.0, "float", _NONNEG),
            "t_init_c": Leaf(15.0, "float", ABS_TEMP),
            "rh_init_pct": Leaf(50.0, "float", PERCENT),
        },
    },
    "building": {
        "c_z_j_per_k": Leaf(2.0e7, "float", Range(MIN_C_J_PER_K)),
        "ua_w_per_k": Leaf(250.0, "float", Range(0.0, MAX_UA_W_PER_K)),
        "moisture_capacity_kg": Leaf(800.0, "float", _POSITIVE),
        "surface_tau_s": Leaf(1800.0, "float", _POSITIVE),
        "n_surfaces": Leaf(4, "int", _NONNEG),
        "t_init_c": Leaf(23.0, "float", ABS_TEMP),
        "rh_init_pct": Leaf(50.0, "float", PERCENT),
        "internal_gains_w": (300.0, _gains),
        "weather": ({"constant": {"tdb_c": 30.0, "rh_pct": 40.0}}, _weather),
    },
    "occupants": {
        "agents": ([], _objects(_AGENT)),
        "effects": {
            "fan_offset_c": Leaf(0.8, "float", _NONNEG),
            "clo_step": Leaf(0.5, "float", _POSITIVE),
            "clo_offset_c_per_clo": Leaf(2.0, "float"),
            "clo_min": Leaf(0.3, "float", _NONNEG),
            "clo_max": Leaf(1.5, "float", _POSITIVE),
            "drink_offset_c": Leaf(0.5, "float", _NONNEG),
            "drink_duration_s": Leaf(900.0, "float", _POSITIVE),
            "walk_offset_c": Leaf(0.3, "float", _NONNEG),
            "walk_duration_s": Leaf(300.0, "float", _POSITIVE),
            "thermostat_step_c": Leaf(0.5, "float", _POSITIVE),
            "thermostat_band_c": Leaf(2.0, "float", _POSITIVE),
            "base_sensible_w": Leaf(75.0, "float", _NONNEG),
            "base_latent_w": Leaf(55.0, "float", _NONNEG),
            "heater_w": Leaf(800.0, "float", _NONNEG),
            "walk_sensible_w": Leaf(40.0, "float", _NONNEG),
        },
        "surrogate": {
            "w_discharge": Leaf(0.2, "float", _NONNEG),
            "w_zone": Leaf(0.6, "float", _NONNEG),
            "w_surfaces": Leaf(0.2, "float", _NONNEG),
            "decay_length_m": Leaf(3.0, "float", _POSITIVE),
            "diffuser_xyz": ([0.0, 0.0, 2.5], _xyz),
            "zone_bounds": ([[0.0, 0.0, 0.0], [6.0, 6.0, 3.0]], _zone_bounds),
        },
    },
    "geb": {
        "mode": Leaf("efficiency", "str",
                     choices={"efficiency", "shed", "shift", "modulate"}),
        "baseline": {
            "t_cool_c": Leaf(24.0, "float", ABS_TEMP),
            "t_heat_c": Leaf(20.0, "float", ABS_TEMP),
            "t_dis_c": Leaf(None, "float?", ABS_TEMP),
            "p_duct_pa": Leaf(None, "float?"),
        },
        "windows": ([], _windows),
        "dis_schedule": ([], partial(_breakpoints, names=("time_s", "t_dis_c"),
                                     ranges=(ABS_TEMP,), empty_ok=True)),
        "delta_eff_c": Leaf(1.0, "float", _NONNEG),
        "delta_shed_c": Leaf(2.0, "float", _NONNEG),
        "delta_pre_c": Leaf(1.5, "float", _NONNEG),
        "pre_window_s": Leaf(7200.0, "float", _NONNEG),
        "r_max_c_per_step": Leaf(0.5, "float", _POSITIVE),
        "modulation": {
            "depth_c": Leaf(1.0, "float", _NONNEG),
            "signal": ([], _signal),
        },
        "bounds": {
            "t_min_c": Leaf(12.0, "float", ABS_TEMP),
            "t_max_c": Leaf(32.0, "float", ABS_TEMP),
        },
        "min_gap_c": Leaf(1.0, "float", _POSITIVE),
        "policy": Leaf("rbc", "str", choices={"rbc", "slow"}),
        "slow": {
            "compute_latency_s": Leaf(90.0, "float", _NONNEG),
            "freshness_s": Leaf(600.0, "float", _POSITIVE),
        },
    },
    "logging": {
        "plant_internals": Leaf(True, "bool"),
        "include": (None, _include),
    },
}


def _validate_level(doc, schema: dict, path: str) -> dict:
    """Validate one object against its schema: no unknown keys, every REQUIRED
    key given, and every other absent key filled with its default."""
    where = path or "top level"
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    # A key's dotted path is built only for a nested object, a parser or an
    # error: a leaf gets (path, name).
    for name, spec in schema.items():
        if isinstance(spec, dict):
            out[name] = _validate_level(doc.get(name, {}), spec, _join(path, name))
            continue
        leaf = isinstance(spec, Leaf)
        if name in doc:
            out[name] = (spec.validate(doc[name], path, name) if leaf
                         else spec[1](doc[name], _join(path, name)))
            continue
        default = spec.default if leaf else spec[0]
        if default is REQUIRED:
            raise ScenarioError(f"{_join(path, name)}: missing required key")
        # leaf defaults are immutable scalars (or None): shared, not copied
        out[name] = default if leaf or default is None else copy.deepcopy(default)
    return out


def validate_scenario(doc: dict, base_dir: str | None = None,
                      default_id: str | None = None) -> dict:
    """Validate a scenario tree and return the effective configuration.

    This is the only gate: the engine and its components assume its output.
    Cross-field rules live here: a step lasts at least MIN_STEP_S, so no
    engine time falls between weather rows too close for their slope;
    exchange latency must fit inside the step (unless stale_hold opts in);
    the last exchange stamp, (horizon - 1) steps plus the worst-case exchange
    in whole ms, must stay below the store's 2**53 ms; without ideal
    actuators a step may hold at most MAX_SUBSTEPS control substeps
    (step_size_s / control_dt_s); discharge limits and
    setpoint bounds must be ordered, the emulator coil needs some capacity,
    and weather series or files must cover the horizon.  Rules of one field
    (breakpoint order, window overlap) live in that field's parser in SCHEMA.
    """
    out = _validate_level(doc, SCHEMA, "")

    run, delays = out["run"], out["delays"]
    if run["scenario_id"] is None:
        run["scenario_id"] = default_id or "scenario"
    step = run["step_size_s"]
    if step < MIN_STEP_S:
        raise ScenarioError(f"run.step_size_s: {step} s is shorter than the "
                            f"{MIN_STEP_S:g} s floor of a step")
    try:  # the engine's own integer-ms arithmetic
        worst_ms = DelayInjector(0, delays["comm_latency_s"],
                                 delays["jitter_s"]).worst_exchange_ms()
        last_ms = (run["horizon"] - 1) * step_ms(step) + worst_ms
    except OverflowError:  # a time near 1e305 s is infinite in ms
        last_ms = math.inf
    if last_ms >= MAX_STAMP_MS:
        raise ScenarioError(
            f"run.step_size_s: {step} s steps over a horizon of {run['horizon']} "
            f"stamp the last exchange at {last_ms} ms, past the store's 2**53 ms")
    if not delays["stale_hold"]:
        if delays["comm_latency_s"] >= step:
            raise ScenarioError(
                f"delays.comm_latency_s: {delays['comm_latency_s']} must be below "
                f"the step size {step} (or set delays.stale_hold)")
        if delays["comm_latency_s"] + 2 * delays["jitter_s"] >= step:
            raise ScenarioError(
                "delays.jitter_s: worst-case round trip reaches the step size "
                "(or set delays.stale_hold)")
        if step_ms(step) < worst_ms:
            raise ScenarioError(
                f"run.step_size_s: {step} s is {step_ms(step)} ms on the exchange "
                f"timeline, shorter than the worst-case exchange of {worst_ms} ms "
                f"(or set delays.stale_hold)")

    plant = out["plant"]
    if not plant["ideal_actuators"] and step / plant["control_dt_s"] > MAX_SUBSTEPS:
        raise ScenarioError(
            f"plant.control_dt_s: {plant['control_dt_s']} s control in {step} s "
            f"steps needs more than {MAX_SUBSTEPS} substeps per step")
    hvac = plant["hvac"]
    if hvac["t_dis_max_c"] <= hvac["t_dis_min_c"]:
        raise ScenarioError("plant.hvac.t_dis_max_c: must exceed t_dis_min_c")
    emu = plant["zone_emulator"]
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
    if gb["bounds"]["t_max_c"] - gb["bounds"]["t_min_c"] < gb["min_gap_c"]:
        raise ScenarioError("geb.bounds.t_max_c: must exceed t_min_c by at least "
                            "geb.min_gap_c")

    # The discharge weight decays with distance to the diffuser and can
    # underflow to 0, so the blend needs weight on the zone or the surfaces.
    sur = out["occupants"]["surrogate"]
    if sur["w_zone"] + sur["w_surfaces"] <= 0:
        raise ScenarioError("occupants.surrogate.w_zone: w_zone and w_surfaces "
                            "must sum above 0")

    weather = out["building"]["weather"]
    [form] = weather  # path, constant or series
    try:
        times = build_weather(weather, base_dir).times
    except FileNotFoundError as e:
        raise ScenarioError(f"building.weather.path: file not found: "
                            f"{e.filename}") from e
    except WeatherFormatError as e:
        raise ScenarioError(f"building.weather.{form}: {e}") from e
    need = (run["horizon"] - 1) * step
    if len(times) > 1 and need > times[-1] + 1e-9:  # one row covers any horizon
        raise ScenarioError(f"building.weather.{form}: weather ends at "
                            f"{times[-1]:.0f} s but {need:.0f} s is needed")
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
