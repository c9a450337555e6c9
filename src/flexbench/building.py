"""Virtual building: single-zone RC model, moisture balance, weather input.

The zone energy balance
    c_z * dT/dt = m_dot*cp*(t_dis - T) + ua*(t_out - T) + q_internal
is linear with piecewise-constant inputs, so each step uses the exact
exponential update rather than an approximate integrator.

Weather is read from validated [time_s, tdb_c, rh_pct] rows like every other
scheduled input, but interpolates.  `scenario.validate_scenario` checks every
rule of a series, horizon coverage included, and load_weather those of a file.

The inherited-delay switch reproduces a co-simulation import quirk: the model
consumes the discharge-air condition received at the previous exchange step,
so a discharge change first shows up in the zone one step late.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from typing import NamedTuple

from .psychro import CP_AIR, H_FG, rh_from_w, w_from_rh
from .plant import DischargeAir


class WeatherFormatError(Exception):
    """Malformed weather file."""


WEATHER_HEADER = "time_s,tdb_c,rh_pct"


class Range:
    """A numeric range, and the text that follows a value outside it in an
    error ("must be >= 0", "must be > 0", "outside [-100, 200] degC", "is
    neither 0 nor in [0.001, 100]"), derived once from the fields.  v is in it
    when lo <= v (lo < v with open_lo, for a range without hi) and, if hi is
    given, v <= hi; with zero_ok (for a range with hi), 0 is in it too.
    -0.0 == 0, so -0.0 is in a range that holds 0 (a closed lower end at 0, or
    zero_ok) and not in an open "> 0" one."""

    __slots__ = ("lo", "hi", "open_lo", "zero_ok", "unit", "text")

    def __init__(self, lo: float, hi: float | None = None, open_lo: bool = False,
                 zero_ok: bool = False, unit: str = ""):
        self.lo, self.hi, self.open_lo, self.zero_ok, self.unit = (
            lo, hi, open_lo, zero_ok, unit)
        if hi is None:
            text = f"must be {'>' if open_lo else '>='} {lo:g}"
        else:
            text = f"{'is neither 0 nor in' if zero_ok else 'outside'} [{lo:g}, {hi:g}]"
        self.text = f"{text} {unit}" if unit else text

    def __contains__(self, v) -> bool:
        return ((self.lo < v if self.open_lo else self.lo <= v)
                and (self.hi is None or v <= self.hi) or self.zero_ok and v == 0)


# Range of every absolute temperature a scenario gives, degC.  Finite extremes
# such as 1e200 degC would otherwise pass and overflow the plant or zone to
# infinity.
T_MIN_C, T_MAX_C = -100.0, 200.0
ABS_TEMP = Range(T_MIN_C, T_MAX_C, unit="degC")
# Range of every relative humidity, %.
PERCENT = Range(0.0, 100.0)


class WeatherSeries:
    """Outdoor dry-bulb and RH from validated [time_s, tdb_c, rh_pct] rows:
    non-empty, with strictly increasing times.  One row is constant weather."""

    __slots__ = ("times", "rows")

    def __init__(self, rows):
        self.times = [r[0] for r in rows]
        self.rows = rows

    def value_at(self, t_s: float) -> tuple[float, float]:
        """(tdb_c, rh_pct) at t_s: a row at and outside its own time (first
        or last), and np.interp's slope * (t - t0) + y0 between two rows."""
        i = bisect_right(self.times, t_s)
        t0, tdb0, rh0 = self.rows[i - 1 if i else 0]
        if i == 0 or i == len(self.times) or t_s == t0:
            return tdb0, rh0
        t1, tdb1, rh1 = self.rows[i]
        return ((tdb1 - tdb0) / (t1 - t0) * (t_s - t0) + tdb0,
                (rh1 - rh0) / (t1 - t0) * (t_s - t0) + rh0)


def load_weather(path: str) -> WeatherSeries:
    """Read a weather CSV with columns time_s,tdb_c,rh_pct: rows of finite
    numbers in range with strictly increasing times, faults named by row."""
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().split("\n") if ln != ""]
    if not lines or lines[0] != WEATHER_HEADER:
        raise WeatherFormatError(f"{path}: expected header {WEATHER_HEADER!r}")
    if len(lines) == 1:
        raise WeatherFormatError(f"{path}: row 2: missing, the file is empty")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise WeatherFormatError(f"{path}: row {n}: expected 3 fields")
        try:
            t, tdb, rh = map(float, parts)
        except ValueError as e:
            raise WeatherFormatError(f"{path}: row {n}: {e}") from e
        if not all(map(math.isfinite, (t, tdb, rh))):
            raise WeatherFormatError(f"{path}: row {n}: values must be finite")
        if rows and t <= rows[-1][0]:
            raise WeatherFormatError(f"{path}: row {n}: times must be strictly increasing")
        if tdb not in ABS_TEMP:
            raise WeatherFormatError(f"{path}: row {n}: tdb_c {tdb!r} {ABS_TEMP.text}")
        if rh not in PERCENT:
            raise WeatherFormatError(f"{path}: row {n}: rh_pct {rh!r} {PERCENT.text}")
        rows.append([t, tdb, rh])
    return WeatherSeries(rows)


def build_weather(spec: dict, base_dir: str | None = None) -> WeatherSeries:
    """The series of a validated `building.weather` block: one of constant,
    series rows [[time_s, tdb_c, rh_pct], ...], or a CSV path resolved
    against base_dir."""
    if "constant" in spec:
        c = spec["constant"]
        return WeatherSeries([[0.0, c["tdb_c"], c["rh_pct"]]])
    if "series" in spec:
        return WeatherSeries(spec["series"])
    path = spec["path"]
    if base_dir is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return load_weather(path)


class ZoneStepResult(NamedTuple):
    """A zone step's results, in the order of the engine's zone.* variables."""

    t_c: float
    rh_pct: float
    w: float
    t_surf_mean_c: float
    load_sensible_w: float
    load_latent_w: float


class ZoneModel:
    """Single-zone thermal and moisture state with surface temperature filters,
    built from the validated `building` block (its weather and gains aside).

    A step does only per-step work.  The thermal, moisture and surface decay
    factors depend only on the flow and dt, so they are computed once per
    (flow, dt) with the expressions of the update and reused while both stay
    the same.  rh is state, set wherever t and w change, so reading it costs
    no rh_from_w.  Each step builds a new surfaces list, so a caller may keep
    the previous one without copying it.
    """

    def __init__(self, b: dict, inherited_delay: bool):
        self.c = b["c_z_j_per_k"]
        self.ua = b["ua_w_per_k"]
        self.c_w = b["moisture_capacity_kg"]
        self.inherited_delay = inherited_delay
        self.t = b["t_init_c"]
        self.w = w_from_rh(self.t, b["rh_init_pct"])
        self.rh = rh_from_w(self.t, self.w)
        # Staggered surface time constants give the near-occupant surrogate
        # some spread without per-surface configuration.
        n = b["n_surfaces"]
        self.surface_tau = [b["surface_tau_s"] * (1.0 + 0.25 * i) for i in range(n)]
        self.surfaces = [self.t] * n
        self._buffer: DischargeAir | None = None
        # (flow, dt, b, thermal factor, moisture factor, surface factors)
        self._decay: tuple | None = None

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

    def _decay_factors(self, m: float, dt: float) -> tuple:
        """(m, dt, b, exp(-b*dt), exp(-m*dt/c_w), surface factors)."""
        b = (m * CP_AIR + self.ua) / self.c
        return (m, dt, b, math.exp(-b * dt) if b > 0 else 1.0,
                math.exp(-m * dt / self.c_w) if m > 0 else 1.0,
                [math.exp(-dt / tau) for tau in self.surface_tau])

    def step(self, discharge: DischargeAir, out_t_c: float,
             gains_sensible_w: float, gains_latent_w: float, dt: float) -> ZoneStepResult:
        eff = self.effective_discharge(discharge) if self.inherited_delay else discharge
        t_dis, w_dis, m = eff
        d = self._decay
        if d is None or d[0] != m or d[1] != dt:
            d = self._decay = self._decay_factors(m, dt)
        _, _, b, k_t, k_w, k_surf = d

        if b > 0:
            a = (m * CP_AIR * t_dis + self.ua * out_t_c + gains_sensible_w) / self.c
            t_eq = a / b
            t = self.t = t_eq + (self.t - t_eq) * k_t
        else:
            t = self.t = self.t + gains_sensible_w * dt / self.c

        gen = gains_latent_w / H_FG
        if m > 0:
            w_eq = w_dis + gen / m
            w = w_eq + (self.w - w_eq) * k_w
        else:
            w = self.w + gen * dt / self.c_w
        w = self.w = max(0.0, w)
        rh = self.rh = rh_from_w(t, w)

        surfaces = self.surfaces = self.surfaces[:]
        for i, k in enumerate(k_surf):
            surfaces[i] = t + (surfaces[i] - t) * k
        sens, lat = compute_zone_load(m, t, w, eff)
        surf_mean = sum(surfaces) / len(surfaces) if surfaces else t
        return ZoneStepResult(t, rh, w, surf_mean, sens, lat)


def compute_zone_load(m_dot_kg_s: float, t_zone_c: float, w_zone: float,
                      discharge: DischargeAir) -> tuple[float, float]:
    """Delivered zone load, positive while the supply air is cooling/drying.

    sensible = m_dot * cp * (t_zone - t_dis); latent pairs the moisture-flow
    difference with the heat of vaporization.
    """
    sens = m_dot_kg_s * CP_AIR * (t_zone_c - discharge.t_c)
    lat = m_dot_kg_s * H_FG * (w_zone - discharge.w)
    return sens, lat
