"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into a plain scenario document, the same JSON
tree a user would hand to `flexbench run`.  Weather, internal gains,
presence and dispatch signals are synthesized here, so nothing is read from
the package's shipped scenario files and nothing is downloaded.  Every size
that sets the amount of work (steps, agents, logged variables, substeps) is
fixed per workload; the seed only moves values, so runs with different seeds
cost about the same.
"""

from __future__ import annotations

import math
import random

# The layers each workload is built to stress, which its traced run should
# show leading the step's self time.
STRESSES = {"plant_day": ("plant",), "fine_log": ("datastore", "orchestrator"),
            "crowd_grid": ("streams", "occupants")}

ACTION_NAMES = ("heater_toggle", "fan_toggle", "thermostat_adjust",
                "clothing_adjust", "drink", "walk")


def _r(x: float, nd: int = 3) -> float:
    return round(x, nd)


def _diurnal_weather(rng: random.Random, mean: float, amp: float,
                     rh_mean: float, rh_per_k: float) -> list[list[float]]:
    """Hourly [time_s, tdb_c, rh_pct] rows over one day, peaking mid-afternoon.

    Relative humidity falls as the air warms; with a large swing the afternoon
    RH drops under the air chamber's 10 % envelope, which the outdoor emulator
    must clamp and report.
    """
    rows = []
    for h in range(25):
        t = mean + amp * math.sin(2.0 * math.pi * (h - 9.0) / 24.0) \
            + rng.uniform(-0.8, 0.8)
        rh = rh_mean - rh_per_k * (t - mean) + rng.uniform(-3.0, 3.0)
        rows.append([h * 3600.0, _r(t, 2), _r(min(max(rh, 3.0), 98.0), 2)])
    return rows


def _gains_schedule(rng: random.Random) -> list[list[float]]:
    """Half-hourly internal gains: low at night, a noisy office-day plateau."""
    rows = []
    for k in range(48):
        hour = k / 2.0
        base = 1400.0 if 8.0 <= hour < 18.0 else 200.0
        rows.append([k * 1800.0, _r(base * rng.uniform(0.6, 1.3), 1)])
    return rows


def _agent(rng: random.Random, coords: list[float], comfort: tuple,
           n_actions: int, p_lo: float, p_hi: float, presence) -> dict:
    """comfort is (clo, preferred temperature, deadband)."""
    names = list(ACTION_NAMES)
    rng.shuffle(names)
    clo, t_pref, deadband = comfort
    return {
        "coords": [_r(c, 2) for c in coords],
        "clo": _r(clo, 2),
        "t_pref_c": _r(t_pref, 2),
        "deadband_c": _r(deadband, 2),
        "action_probs": {n: _r(rng.uniform(p_lo, p_hi), 3)
                         for n in sorted(names[:n_actions])},
        "presence": presence,
    }


def _random_comfort(rng: random.Random) -> tuple:
    return rng.uniform(0.5, 1.0), rng.uniform(20.5, 25.5), rng.uniform(0.5, 1.5)


def _spread(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values in [lo, hi], in seeded order.  A crowd built
    from them holds the same values for every seed, so the share of agents
    that feel uncomfortable, and with it the work per step, barely moves."""
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def plant_day(seed: int) -> dict:
    """One day at 60 s exchange steps with 1 s non-ideal plant control.

    The shipped standard_dynamic case stretched to a day: `PlantSim.advance`
    (60 control substeps per step) dominates, so a plant fast path shows
    here."""
    rng = random.Random(f"plant_day:{seed}")
    win_start = rng.choice(range(9, 14)) * 3600.0
    win_len = rng.choice((2, 3, 4)) * 3600.0
    return {
        "run": {"scenario_id": f"plant_day-{seed}", "step_size_s": 60.0,
                "horizon": 1440, "seed": seed},
        "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
        "plant": {"ideal_actuators": False, "control_dt_s": 1.0},
        "building": {
            "t_init_c": _r(rng.uniform(22.0, 25.0), 2),
            "weather": {"series": _diurnal_weather(
                rng, rng.uniform(26.0, 30.0), rng.uniform(6.0, 9.0), 35.0, 4.0)},
            "internal_gains_w": _gains_schedule(rng),
        },
        "occupants": {"agents": [
            _agent(rng, [2.0, 2.0, 1.2], _random_comfort(rng), 4, 0.02, 0.1,
                   None),
            _agent(rng, [4.0, 3.0, 1.2], _random_comfort(rng), 3, 0.02, 0.1,
                   [[0, 1], [7200, 0], [10800, 1]]),
        ]},
        "geb": {
            "mode": "efficiency",
            "baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0},
            "windows": [{"start_s": win_start, "end_s": win_start + win_len}],
        },
    }


def fine_log(seed: int) -> dict:
    """An hour at 1 s steps: an open-loop discharge step, everything logged.

    The plant is cheap here, so store writes, per-step orchestration, CSV
    export/import and analysis dominate."""
    rng = random.Random(f"fine_log:{seed}")
    t0 = _r(rng.uniform(18.0, 22.0), 2)
    t1 = _r(t0 + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0), 2)
    return {
        "run": {"scenario_id": f"fine_log-{seed}", "step_size_s": 1.0,
                "horizon": 3600, "seed": seed},
        "delays": {"comm_latency_s": 0.2, "jitter_s": 0.05},
        "plant": {"ideal_actuators": False, "control_dt_s": 1.0,
                  "hvac": {"tau_dis_s": 120.0, "t_dis_init_c": t0}},
        "building": {
            "t_init_c": _r(rng.uniform(22.0, 25.0), 2),
            "weather": {"constant": {"tdb_c": _r(rng.uniform(26.0, 34.0), 2),
                                     "rh_pct": _r(rng.uniform(30.0, 60.0), 2)}},
            "internal_gains_w": _r(rng.uniform(300.0, 1500.0), 1),
        },
        "geb": {
            "baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0},
            "dis_schedule": [[0, t0], [float(rng.choice(range(300, 901, 60))), t1]],
        },
        "logging": {"plant_internals": True, "include": None},
    }


def _presence(arrive_h: float, leave_h: float, rng: random.Random) -> list:
    """Shift-style presence: arrive, an hour's lunch break, leave."""
    lunch = rng.uniform(11.0, 13.0) * 3600.0
    return [[0, 0], [_r(arrive_h * 3600.0, 0), 1], [_r(lunch, 0), 0],
            [_r(lunch + 3600.0, 0), 1], [_r(leave_h * 3600.0, 0), 0]]


def _modulation(rng: random.Random) -> tuple[list[dict], list[list[float]]]:
    """Three modulate windows with a 10-minute dispatch signal in each."""
    windows, signal = [], []
    for start_h in (7.0, 12.0, 17.0):
        start = (start_h + rng.uniform(0.0, 1.0)) * 3600.0
        start = _r(start - start % 600.0, 0)
        end = start + rng.choice((3, 4)) * 3600.0
        windows.append({"start_s": start, "end_s": end})
        t = start
        while t < end:
            signal.append([t, _r(rng.uniform(-1.0, 1.0), 3)])
            t += 600.0
    return windows, signal


def crowd_grid(seed: int) -> dict:
    """A day of 32 agents on an 8 x 4 grid under slow modulate supervision.

    Ideal actuators leave the plant almost idle; per-(agent, step) RNG
    substreams and occupant logic dominate, so this is the bypass case for
    plant changes."""
    rng = random.Random(f"crowd_grid:{seed}")
    n = 32
    comfort = zip(_spread(rng, 0.5, 1.0, n), _spread(rng, 20.5, 25.5, n),
                  _spread(rng, 0.5, 1.5, n))
    shifts = zip(_spread(rng, 0.0, 3.0, n), _spread(rng, 19.0, 23.5, n))
    agents = []
    for i, (c, (arrive_h, leave_h)) in enumerate(zip(comfort, shifts)):
        x = 1.5 + 3.0 * (i % 8) + rng.uniform(-0.5, 0.5)
        y = 1.5 + 3.0 * (i // 8) + rng.uniform(-0.5, 0.5)
        agents.append(_agent(rng, [x, y, 1.2], c, 6, 0.03, 0.25,
                             _presence(arrive_h, leave_h, rng)))
    windows, signal = _modulation(rng)
    return {
        "run": {"scenario_id": f"crowd_grid-{seed}", "step_size_s": 60.0,
                "horizon": 1440, "seed": seed},
        "delays": {"comm_latency_s": 2.0, "jitter_s": 1.0},
        "plant": {"ideal_actuators": True},
        "building": {
            "t_init_c": _r(rng.uniform(22.0, 25.0), 2),
            "weather": {"series": _diurnal_weather(rng, 26.0, 5.0, 50.0, 2.0)},
            "internal_gains_w": _gains_schedule(rng),
        },
        "occupants": {
            "agents": agents,
            "surrogate": {"diffuser_xyz": [12.0, 6.0, 2.8],
                          "zone_bounds": [[0.0, 0.0, 0.0], [24.0, 12.0, 3.0]]},
        },
        "geb": {
            "mode": "modulate",
            "baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0},
            "windows": windows,
            "modulation": {"depth_c": 1.0, "signal": signal},
            "policy": "slow",
            "slow": {"compute_latency_s": 90.0, "freshness_s": 600.0},
        },
    }


GENERATORS = {"plant_day": plant_day, "fine_log": fine_log,
              "crowd_grid": crowd_grid}


def discharge_step(doc: dict) -> tuple[int, float] | None:
    """(step index, first-order time constant) of the scheduled discharge step."""
    sched = doc.get("geb", {}).get("dis_schedule")
    if not sched or len(sched) < 2:
        return None
    step_s = doc["run"]["step_size_s"]
    return int(round(sched[1][0] / step_s)), doc["plant"]["hvac"]["tau_dis_s"]
