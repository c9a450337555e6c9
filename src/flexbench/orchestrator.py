"""Lock-step co-simulation engine.

Each exchange step runs the same phase sequence:

  measure       the plant publishes its state (the response to the previous
                step's simulated results)
  transmit up   a modeled uplink delay stamps when the software stored it
  simulate      occupants, zone model and supervisory control produce this
                step's results
  transmit down a modeled downlink delay stamps when the plant received the
                new setpoints
  actuate       the plant adopts the fresh setpoints and integrates one
                exchange interval
  seal          the step becomes immutable in the datastore

The plant therefore always works one step behind the software side: setpoints
applied during interval [N, N+1) are the simulated outputs of step N, and the
measurements published at step N+1 are the response to them.

Wall stamps are modeled in both pacing modes from the same per-step delay
draws; fast mode anchors the run at 0 ms so repeated runs are byte-identical,
realtime mode anchors at the actual start epoch.
"""

from __future__ import annotations

import copy
import os
import time

from .building import WeatherSeries, ZoneModel, load_weather
from .datastore import Source, StepStore, VariableKey
from .geb import (EventWindow, GebController, SlowControllerHarness,
                  SupervisorySetpoints, signal_value)
from .occupants import (ActionType, EffectConfig, NearOccupantSurrogate,
                        OccupantAgent, Population)
from .plant import (AppliedSetpoints, HvacUnit, OutdoorEmulator, PlantSim,
                    ZoneEmulator)
from .psychro import w_from_rh
from .streams import COMM_DOMAIN, substream

COMPUTE_FLOOR_MS = 1
PACING_TOL_S = 0.05


# Units of the plant measurements, and the internals logged only on request.
PLANT_UNITS = {"t_dis": "C", "rh_dis": "%", "m_dot": "kg/s", "t_zone_emu": "C",
               "rh_zone_emu": "%", "t_out": "C", "rh_out": "%",
               "load_sensible": "W", "load_latent": "W", "q_heater": "W",
               "q_cooling": "W", "m_humidifier": "kg/s", "q_hvac": "W",
               "t_zone_spt": "C", "rh_zone_spt": "%", "t_out_spt": "C",
               "t_cool_spt": "C", "t_heat_spt": "C"}
PLANT_INTERNALS = frozenset({"q_heater", "q_cooling", "m_humidifier", "q_hvac"})


class EngineError(Exception):
    """Engine construction or run failure."""


class OverrunAbort(EngineError):
    """Realtime pacing overran with overrun_policy=abort."""


def _identity(x):
    return x


class DelayInjector:
    """Per-step uplink/downlink delays: latency/2 plus uniform jitter each way.

    Draws come from the (seed, comm domain, step) substream, so delays for a
    given step never depend on what else consumed randomness.
    """

    def __init__(self, seed: int, latency_s: float, jitter_s: float):
        self.seed = seed
        self.latency = latency_s
        self.jitter = jitter_s

    def delays_ms(self, step: int) -> tuple[int, int]:
        half = self.latency / 2.0 * 1000.0
        if self.jitter <= 0:
            return int(round(half)), int(round(half))
        rng = substream(self.seed, COMM_DOMAIN, step)
        u = rng.random(2)
        return (int(round(half + u[0] * self.jitter * 1000.0)),
                int(round(half + u[1] * self.jitter * 1000.0)))


class Engine:
    """One configured run: all components plus the shared datastore."""

    def __init__(self, cfg: dict, base_dir: str | None = None):
        run = cfg["run"]
        self.cfg = cfg
        self.step_size = run["step_size_s"]
        self.step_ms = int(round(self.step_size * 1000.0))
        self.horizon = run["horizon"]
        self.seed = run["seed"]
        self.mode = run["mode"]
        self.overrun_policy = run["overrun_policy"]
        self.run_start_ms = 0

        d = cfg["delays"]
        self.injector = DelayInjector(self.seed, d["comm_latency_s"], d["jitter_s"])
        self.stale_hold = d["stale_hold"]

        p = cfg["plant"]
        hvac = HvacUnit(**p["hvac"])
        emulator = ZoneEmulator(**p["zone_emulator"])
        out = p["outdoor"]
        outdoor = OutdoorEmulator(out["kind"], out["tau_s"], out["t_init_c"],
                                  out["rh_init_pct"])

        b = cfg["building"]
        self.zone = ZoneModel(b["c_z_j_per_k"], b["ua_w_per_k"],
                              b["moisture_capacity_kg"], b["surface_tau_s"],
                              b["n_surfaces"], d["inherited_delay"],
                              b["t_init_c"], b["rh_init_pct"])
        self.weather = self._build_weather(b["weather"], base_dir)
        self.weather.ensure_coverage((self.horizon - 1) * self.step_size)
        gains = b["internal_gains_w"]  # float or [[t, w], ...]
        self.gains_bp = [tuple(p) for p in gains] if isinstance(gains, list) \
            else float(gains)

        o = cfg["occupants"]
        fx = EffectConfig(**o["effects"])
        sur = o["surrogate"]
        surrogate = NearOccupantSurrogate(
            sur["w_discharge"], sur["w_zone"], sur["w_surfaces"],
            sur["decay_length_m"], tuple(sur["diffuser_xyz"]),
            (tuple(sur["zone_bounds"][0]), tuple(sur["zone_bounds"][1])))
        agents = []
        for i, a in enumerate(o["agents"]):
            probs = {ActionType(name): v for name, v in a["action_probs"].items()}
            presence = None if a["presence"] is None else \
                [(t, int(flag)) for t, flag in a["presence"]]
            agents.append(OccupantAgent(i, tuple(a["coords"]), a["clo"],
                                        a["t_pref_c"], a["deadband_c"], probs,
                                        presence))
        self.population = Population(agents, surrogate, fx, self.seed)

        g = cfg["geb"]
        baseline = SupervisorySetpoints(g["baseline"]["t_cool_c"],
                                        g["baseline"]["t_heat_c"],
                                        g["baseline"]["t_dis_c"],
                                        g["baseline"]["p_duct_pa"])
        windows = [EventWindow(w["start_s"], w["end_s"]) for w in g["windows"]]
        self.geb = GebController(
            g["mode"], baseline, windows,
            delta_eff_c=g["delta_eff_c"], delta_shed_c=g["delta_shed_c"],
            delta_pre_c=g["delta_pre_c"], pre_window_s=g["pre_window_s"],
            r_max_c_per_step=g["r_max_c_per_step"],
            modulation_depth_c=g["modulation"]["depth_c"],
            modulation_signal=[tuple(p) for p in g["modulation"]["signal"]],
            t_min_c=g["bounds"]["t_min_c"], t_max_c=g["bounds"]["t_max_c"],
            min_gap_c=g["min_gap_c"])
        self.dis_schedule = [tuple(p) for p in g["dis_schedule"]]
        self.harness = None
        if g["policy"] == "slow":
            # Jobs carry the finished result; the harness only delays delivery.
            self.harness = SlowControllerHarness(_identity,
                                                g["slow"]["compute_latency_s"],
                                                self.step_size,
                                                g["slow"]["freshness_s"])
        self._slow_sp = baseline
        self._slow_flags: list[str] = []

        zone_w0 = w_from_rh(b["t_init_c"], b["rh_init_pct"])
        out_t0, out_rh0 = self.weather.value_at(0.0)
        dis0 = signal_value(self.dis_schedule, 0.0) if self.dis_schedule \
            else baseline.t_dis_c
        applied0 = AppliedSetpoints(b["t_init_c"], zone_w0, out_t0, out_rh0,
                                    baseline.t_cool_c, baseline.t_heat_c,
                                    dis0, baseline.p_duct_pa)
        self.plant = PlantSim(hvac, emulator, outdoor, applied0,
                              p["control_dt_s"], p["ideal_actuators"])

        lg = cfg["logging"]
        self.plant_internals = lg["plant_internals"]
        self.include = None if lg["include"] is None else set(lg["include"])
        if self.include is not None:
            known = self._known_names()
            bad = sorted(self.include - known)
            if bad:
                raise EngineError(f"logging.include names unknown variables: {bad}")

        self.store = StepStore(self.step_size, run["scenario_id"], self.seed, 0)
        for prod in ("plant", "sim", "ctrl"):
            self.store.register_producer(prod)
        self._keys: dict[tuple[str, str], VariableKey] = {}
        self._step = 0
        self.counters = {"overruns": 0, "stale_steps": 0, "limitation_events": 0,
                         "setpoint_clamps": 0, "hvac_stale_holds": 0,
                         "slow_discarded": 0, "occupant_actions": 0}
        self.flag_counts: dict[str, int] = {}
        self._discomfort_sum = 0.0
        self._pacing = {"max_drift_ms": 0.0, "sum_drift_ms": 0.0, "paced_steps": 0}

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _build_weather(spec: dict, base_dir: str | None) -> WeatherSeries:
        if "constant" in spec:
            c = spec["constant"]
            return WeatherSeries.constant(c["tdb_c"], c["rh_pct"])
        if "series" in spec:
            rows = spec["series"]
            return WeatherSeries([r[0] for r in rows], [r[1] for r in rows],
                                 [r[2] for r in rows])
        path = spec["path"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_weather(path)

    def _known_names(self) -> set[str]:
        names = {"plant.t_dis", "plant.rh_dis", "plant.m_dot", "plant.t_zone_emu",
                 "plant.rh_zone_emu", "plant.t_out", "plant.load_sensible",
                 "plant.load_latent", "plant.t_zone_spt", "plant.rh_zone_spt",
                 "plant.t_out_spt", "plant.t_cool_spt", "plant.t_heat_spt",
                 "plant.q_heater", "plant.q_cooling", "plant.m_humidifier",
                 "plant.q_hvac",
                 "zone.t", "zone.rh", "zone.w", "zone.t_surf",
                 "zone.load_sensible", "zone.load_latent",
                 "out.t", "out.rh",
                 "ctrl.t_cool_spt", "ctrl.t_heat_spt", "ctrl.t_dis_spt",
                 "ctrl.p_duct_spt",
                 "occ.sensible_w", "occ.latent_w", "occ.thermostat_delta_c",
                 "occ.n_actions", "occ.discomfort_c"}
        return names

    def _put(self, name: str, source: Source, unit: str, step: int,
             value: float, wall_ms: int) -> None:
        if self.include is not None and name not in self.include:
            return
        key = self._keys.get((name, source.value))
        if key is None:
            key = VariableKey(name, source, unit)
            self.store.register(key)
            self._keys[(name, source.value)] = key
        self.store.upsert(key, step, value, wall_ms)

    # -- stepping ------------------------------------------------------------

    def internal_gains_at(self, t_s: float) -> float:
        if isinstance(self.gains_bp, list):
            return signal_value(self.gains_bp, t_s)
        return self.gains_bp

    def step_once(self) -> None:
        n = self._step
        if n >= self.horizon:
            raise EngineError("run is already complete")
        t_s = n * self.step_size
        send_ms = self.run_start_ms + n * self.step_ms
        up_ms, down_ms = self.injector.delays_ms(n)
        store_ms = send_ms + up_ms + COMPUTE_FLOOR_MS
        recv_ms = store_ms + down_ms

        # measure: plant state at the top of the interval
        meas = self.plant.measure()
        self._publish_plant(n, meas, send_ms)
        self.store.producer_done("plant", n)
        # the state measure() just read, humidity as w; RH only for occupants
        discharge = self.plant.hvac.discharge()

        # simulate: occupants react to the previous zone state, then the zone
        # advances, then the supervisor produces this step's setpoints
        prev_t, prev_rh = self.zone.t, self.zone.rh
        prev_surfaces = list(self.zone.surfaces)
        occ = self.population.step(n, t_s, discharge, prev_t, prev_rh,
                                   prev_surfaces)
        out_t, out_rh = self.weather.value_at(t_s)
        gains_s = self.internal_gains_at(t_s) + occ.gains.sensible_w
        zres = self.zone.step(discharge, out_t, gains_s, occ.gains.latent_w,
                              self.step_size)

        S = Source.SIMULATED
        self._put("zone.t", S, "C", n, zres.t_c, store_ms)
        self._put("zone.rh", S, "%", n, zres.rh_pct, store_ms)
        self._put("zone.w", S, "kg/kg", n, zres.w, store_ms)
        self._put("zone.t_surf", S, "C", n, zres.t_surf_mean_c, store_ms)
        self._put("zone.load_sensible", S, "W", n, zres.load_sensible_w, store_ms)
        self._put("zone.load_latent", S, "W", n, zres.load_latent_w, store_ms)
        self._put("out.t", S, "C", n, out_t, store_ms)
        self._put("out.rh", S, "%", n, out_rh, store_ms)
        if self.population.agents:
            self._put("occ.sensible_w", S, "W", n, occ.gains.sensible_w, store_ms)
            self._put("occ.latent_w", S, "W", n, occ.gains.latent_w, store_ms)
            self._put("occ.thermostat_delta_c", S, "C", n,
                      occ.gains.thermostat_delta_c, store_ms)
            self._put("occ.n_actions", S, "count", n, float(len(occ.actions)),
                      store_ms)
            self._put("occ.discomfort_c", S, "C", n, occ.mean_discomfort, store_ms)
        self.counters["occupant_actions"] += len(occ.actions)
        self._discomfort_sum += occ.mean_discomfort
        self.store.producer_done("sim", n)

        final_sp, flags = self._supervise(n, t_s, occ.gains.thermostat_delta_c)
        for f in flags:
            self.flag_counts[f] = self.flag_counts.get(f, 0) + 1
        SP = Source.SETPOINT
        self._put("ctrl.t_cool_spt", SP, "C", n, final_sp.t_cool_c, recv_ms)
        self._put("ctrl.t_heat_spt", SP, "C", n, final_sp.t_heat_c, recv_ms)
        if final_sp.t_dis_c is not None:
            self._put("ctrl.t_dis_spt", SP, "C", n, final_sp.t_dis_c, recv_ms)
        if final_sp.p_duct_pa is not None:
            self._put("ctrl.p_duct_spt", SP, "Pa", n, final_sp.p_duct_pa, recv_ms)
        self.store.producer_done("ctrl", n)

        # actuate: late results (only possible with stale_hold) are dropped
        # and the plant holds; otherwise the fresh setpoints take effect now
        late = recv_ms > self.run_start_ms + (n + 1) * self.step_ms
        overrun = self._realtime_overrun(n)
        if late or overrun:
            self.counters["stale_steps"] += int(late)
            self.plant.apply(None)
        else:
            self.plant.apply(AppliedSetpoints(
                zres.t_c, zres.w, out_t, out_rh,
                final_sp.t_cool_c, final_sp.t_heat_c,
                final_sp.t_dis_c, final_sp.p_duct_pa))
        self.plant.advance(self.step_size)
        self.counters["limitation_events"] += len(self.plant.drain_events())

        self.store.seal(n)
        self._step += 1

    def _publish_plant(self, n: int, meas: dict, send_ms: int) -> None:
        E = Source.EMULATED
        for name, value in meas.items():
            if name in PLANT_INTERNALS and not self.plant_internals:
                continue
            self._put(f"plant.{name}", E, PLANT_UNITS[name], n, value, send_ms)

    def _supervise(self, n: int, t_s: float,
                   occ_delta: float) -> tuple[SupervisorySetpoints, list[str]]:
        if self.harness is None:
            sp, flags = self.geb.step(t_s)
        else:
            delivered = self.harness.poll(n)
            if delivered is not None:
                self._slow_sp, self._slow_flags = delivered
            if not self.harness.pending:
                self.harness.submit(n, self.geb.step(t_s))
            self.counters["slow_discarded"] = self.harness.discarded
            sp, flags = self._slow_sp, list(self._slow_flags)

        cool = sp.t_cool_c + occ_delta
        heat = sp.t_heat_c + occ_delta
        lo, hi = self.geb.t_min, self.geb.t_max
        cool_c = min(max(cool, lo), hi)
        heat_c = min(max(heat, lo), hi)
        if occ_delta != 0.0 and (cool_c != cool or heat_c != heat):
            flags = flags + ["clamp:occ"]
            self.counters["setpoint_clamps"] += 1
        if cool_c - heat_c < self.geb.min_gap:
            cool_c = heat_c + self.geb.min_gap
            flags = flags + ["gap:occ"]
        t_dis = signal_value(self.dis_schedule, t_s) if self.dis_schedule \
            else sp.t_dis_c
        return SupervisorySetpoints(cool_c, heat_c, t_dis, sp.p_duct_pa), flags

    def _realtime_overrun(self, n: int) -> bool:
        if self.mode != "realtime" or not hasattr(self, "_t0"):
            return False
        target = self._t0 + (n + 1) * self.step_size
        drift = time.monotonic() - target
        if drift <= PACING_TOL_S:
            return False
        self.counters["overruns"] += 1
        if self.overrun_policy == "abort":
            raise OverrunAbort(f"step {n} overran its slot by {drift:.3f} s")
        return True

    # -- whole-run driving ---------------------------------------------------

    def run(self):
        """Execute all remaining steps; returns the finished RunLog."""
        if self.mode == "realtime" and self._step == 0:
            self.run_start_ms = int(time.time() * 1000)
            self.store.start_wall_ms = self.run_start_ms
            self._t0 = time.monotonic()
        while self._step < self.horizon:
            self.step_once()
            if self.mode == "realtime":
                self._pace(self._step - 1)
        return self.store.to_runlog()

    def _pace(self, n: int) -> None:
        target = self._t0 + (n + 1) * self.step_size
        drift_ms = (time.monotonic() - target) * 1000.0
        self._pacing["max_drift_ms"] = max(self._pacing["max_drift_ms"], drift_ms)
        self._pacing["sum_drift_ms"] += max(drift_ms, 0.0)
        self._pacing["paced_steps"] += 1
        if drift_ms < 0:
            time.sleep(-drift_ms / 1000.0)

    def summary(self) -> dict:
        counts = dict(self.counters)
        counts["plant_setpoint_holds"] = self.plant.stale_count
        counts["hvac_stale_holds"] = self.plant.hvac.stale_holds
        counts["discharge_clamps"] = self.plant.clamp_count
        steps = self._step
        out = {
            "scenario_id": self.store.scenario_id,
            "seed": self.seed,
            "mode": self.mode,
            "steps_completed": steps,
            "step_size_s": self.step_size,
            "counts": counts,
            "setpoint_flags": dict(sorted(self.flag_counts.items())),
            "mean_discomfort_c": self._discomfort_sum / steps if steps else 0.0,
        }
        if self.mode == "realtime" and self._pacing["paced_steps"]:
            out["pacing"] = {
                "max_drift_ms": round(self._pacing["max_drift_ms"], 3),
                "mean_late_ms": round(self._pacing["sum_drift_ms"]
                                      / self._pacing["paced_steps"], 3),
            }
        return out

    # -- state capture -------------------------------------------------------

    _STATE_ATTRS = ("zone", "population", "geb", "harness", "plant", "store",
                    "_slow_sp", "_slow_flags", "_step", "counters",
                    "flag_counts", "_discomfort_sum", "_pacing", "run_start_ms")

    def snapshot(self) -> dict:
        """Deep copy of all mutable run state (components plus datastore)."""
        return copy.deepcopy({a: getattr(self, a) for a in self._STATE_ATTRS})

    def restore(self, snap: dict) -> None:
        snap = copy.deepcopy(snap)
        for a in self._STATE_ATTRS:
            setattr(self, a, snap[a])
