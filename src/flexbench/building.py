"""Virtual building: single-zone RC model, moisture balance, weather input.

The zone energy balance
    c_z * dT/dt = m_dot*cp*(t_dis - T) + ua*(t_out - T) + q_internal
is linear with piecewise-constant inputs, so each step uses the exact
exponential update rather than an approximate integrator.

The inherited-delay switch reproduces a co-simulation import quirk: the model
consumes the discharge-air condition received at the previous exchange step,
so a discharge change first shows up in the zone one step late.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .psychro import CP_AIR, H_FG, rh_from_w, w_from_rh
from .plant import DischargeAir


class WeatherCoverageError(Exception):
    """Weather data ends before the simulation horizon."""


class WeatherFormatError(Exception):
    """Malformed weather file."""


WEATHER_HEADER = "time_s,tdb_c,rh_pct"
# Range of every absolute temperature a scenario gives, degC.  Finite extremes
# such as 1e200 degC would otherwise pass and overflow the plant or zone to
# infinity.
T_MIN_C, T_MAX_C = -100.0, 200.0
T_RANGE = f"outside [{T_MIN_C:g}, {T_MAX_C:g}] degC"


class WeatherSeries:
    """Outdoor dry-bulb and RH over time with linear interpolation."""

    def __init__(self, times_s, tdb_c, rh_pct):
        self.times = np.asarray(times_s, dtype=float)
        self.tdb = np.asarray(tdb_c, dtype=float)
        self.rh = np.asarray(rh_pct, dtype=float)
        if self.times.size == 0:
            raise WeatherFormatError("empty weather series")
        if np.any(np.diff(self.times) <= 0):
            raise WeatherFormatError("weather times must be strictly increasing")

    @classmethod
    def constant(cls, tdb_c: float, rh_pct: float) -> "WeatherSeries":
        return cls([0.0], [tdb_c], [rh_pct])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def ensure_coverage(self, t_end_s: float) -> None:
        if self.times.size == 1:
            return  # constant weather covers any horizon
        if t_end_s > self.end_time + 1e-9:
            raise WeatherCoverageError(
                f"weather ends at {self.end_time:.0f} s but {t_end_s:.0f} s is needed")

    def value_at(self, t_s: float) -> tuple[float, float]:
        if self.times.size == 1:
            return float(self.tdb[0]), float(self.rh[0])
        self.ensure_coverage(t_s)
        t = min(max(t_s, float(self.times[0])), self.end_time)
        return (float(np.interp(t, self.times, self.tdb)),
                float(np.interp(t, self.times, self.rh)))


def load_weather(path: str) -> WeatherSeries:
    """Read a weather CSV with columns time_s,tdb_c,rh_pct."""
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().split("\n") if ln != ""]
    if not lines or lines[0] != WEATHER_HEADER:
        raise WeatherFormatError(f"{path}: expected header {WEATHER_HEADER!r}")
    times, tdb, rh = [], [], []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise WeatherFormatError(f"{path}: row {n}: expected 3 fields")
        try:
            times.append(float(parts[0]))
            tdb.append(float(parts[1]))
            rh.append(float(parts[2]))
        except ValueError as e:
            raise WeatherFormatError(f"{path}: row {n}: {e}") from e
    if not all(map(math.isfinite, times + tdb + rh)):
        raise WeatherFormatError(f"{path}: values must be finite")
    for n, (t, h) in enumerate(zip(tdb, rh), start=2):
        if not T_MIN_C <= t <= T_MAX_C:
            raise WeatherFormatError(f"{path}: row {n}: tdb_c {t!r} {T_RANGE}")
        if not 0.0 <= h <= 100.0:
            raise WeatherFormatError(f"{path}: row {n}: rh_pct {h!r} outside [0, 100]")
    return WeatherSeries(times, tdb, rh)


def build_weather(spec: dict, base_dir: str | None = None) -> WeatherSeries:
    """The series of a validated `building.weather` block: one of constant,
    series rows [[time_s, tdb_c, rh_pct], ...], or a CSV path resolved
    against base_dir."""
    if "constant" in spec:
        c = spec["constant"]
        return WeatherSeries.constant(c["tdb_c"], c["rh_pct"])
    if "series" in spec:
        times, tdb, rh = zip(*spec["series"])
        return WeatherSeries(times, tdb, rh)
    path = spec["path"]
    if base_dir is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return load_weather(path)


@dataclass
class ZoneStepResult:
    t_c: float
    rh_pct: float
    w: float
    t_surf_mean_c: float
    load_sensible_w: float
    load_latent_w: float


class ZoneModel:
    """Single-zone thermal and moisture state with surface temperature filters,
    built from the validated `building` block (its weather and gains aside)."""

    def __init__(self, b: dict, inherited_delay: bool):
        self.c = b["c_z_j_per_k"]
        self.ua = b["ua_w_per_k"]
        self.c_w = b["moisture_capacity_kg"]
        self.inherited_delay = inherited_delay
        self.t = b["t_init_c"]
        self.w = w_from_rh(self.t, b["rh_init_pct"])
        # Staggered surface time constants give the near-occupant surrogate
        # some spread without per-surface configuration.
        n = b["n_surfaces"]
        self.surface_tau = [b["surface_tau_s"] * (1.0 + 0.25 * i) for i in range(n)]
        self.surfaces = [self.t] * n
        self._buffer: DischargeAir | None = None

    @property
    def rh(self) -> float:
        return rh_from_w(self.t, self.w)

    def effective_discharge(self, discharge: DischargeAir) -> DischargeAir:
        """The discharge condition the model consumes this step.

        With inherited_delay the one-slot buffer holds the previous step's
        measurement; on the very first step it is primed with the current one.
        """
        if not self.inherited_delay:
            return discharge
        eff = self._buffer if self._buffer is not None else discharge
        self._buffer = discharge
        return eff

    def step(self, discharge: DischargeAir, out_t_c: float,
             gains_sensible_w: float, gains_latent_w: float, dt: float) -> ZoneStepResult:
        eff = self.effective_discharge(discharge)
        m = eff.m_dot_kg_s
        w_dis = eff.w

        b = (m * CP_AIR + self.ua) / self.c
        if b > 0:
            a = (m * CP_AIR * eff.t_c + self.ua * out_t_c + gains_sensible_w) / self.c
            t_eq = a / b
            self.t = t_eq + (self.t - t_eq) * math.exp(-b * dt)
        else:
            self.t += gains_sensible_w * dt / self.c

        gen = gains_latent_w / H_FG
        if m > 0:
            w_eq = w_dis + gen / m
            self.w = w_eq + (self.w - w_eq) * math.exp(-m * dt / self.c_w)
        else:
            self.w += gen * dt / self.c_w
        self.w = max(0.0, self.w)

        for i, tau in enumerate(self.surface_tau):
            self.surfaces[i] = self.t + (self.surfaces[i] - self.t) * math.exp(-dt / tau)

        sens, lat = compute_zone_load(m, self.t, self.w, eff)
        surf_mean = sum(self.surfaces) / len(self.surfaces) if self.surfaces else self.t
        return ZoneStepResult(self.t, self.rh, self.w, surf_mean, sens, lat)


def compute_zone_load(m_dot_kg_s: float, t_zone_c: float, w_zone: float,
                      discharge: DischargeAir) -> tuple[float, float]:
    """Delivered zone load, positive while the supply air is cooling/drying.

    sensible = m_dot * cp * (t_zone - t_dis); latent pairs the moisture-flow
    difference with the heat of vaporization.
    """
    sens = m_dot_kg_s * CP_AIR * (t_zone_c - discharge.t_c)
    lat = m_dot_kg_s * H_FG * (w_zone - discharge.w)
    return sens, lat
