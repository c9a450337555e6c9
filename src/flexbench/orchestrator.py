"""Lock-step co-simulation engine.

Each exchange step runs the same phase sequence:

  measure       the plant publishes its state (the response to the previous
                step's simulated results), stored at the send stamp
  transmit up   a modeled uplink delay stamps when the software stored it
  simulate      occupants, zone model and supervisory control produce this
                step's results, stored at that store stamp
  transmit down a modeled downlink delay stamps when the plant received the
                new setpoints, stored at that receive stamp
  actuate       the plant adopts the fresh setpoints and integrates one
                exchange interval
  seal          the step becomes immutable in the datastore

Each of the three exchanges (plant uplink, software results, setpoints) is
one datastore write of its logged values with its one wall stamp.

The plant therefore always works one step behind the software side: setpoints
applied during interval [N, N+1) are the simulated outputs of step N, and the
measurements published at step N+1 are the response to them.

Wall stamps are modeled in both pacing modes from the same per-step delay
draws; fast mode anchors the run at 0 ms so repeated runs are byte-identical,
realtime mode anchors at the actual start epoch.
"""

from __future__ import annotations

import copy
import time
from operator import itemgetter

from .building import ZoneModel, build_weather
from .datastore import Source, StepStore, VariableKey
from .geb import GebController, SlowControllerHarness, SupervisorySetpoints
from .occupants import (EffectConfig, NearOccupantSurrogate, OccupantAgent,
                        Population)
from .plant import (UPLINK, AppliedSetpoints, HvacUnit, OutdoorEmulator,
                    PlantSim, ZoneEmulator)
from .schedule import Schedule
from .streams import COMM_DOMAIN, BlockRows, substream

COMPUTE_FLOOR_MS = 1
PACING_TOL_S = 0.05


_E, _S, _P = Source.EMULATED, Source.SIMULATED, Source.SETPOINT
# Every variable the engine logs: (name, source, unit, plant internal).  Plant
# internals are published only with logging.plant_internals.  The source
# names the exchange: the plant uplink logs the emulated variables (the rows
# of plant.UPLINK), the software results the simulated ones and the downlink
# the setpoints, each exchange's values in table order.
_VARIABLE_TABLE = tuple((name, _E, unit, internal)
                        for name, unit, internal in UPLINK) + (
    ("zone.t", _S, "C", False),
    ("zone.rh", _S, "%", False),
    ("zone.w", _S, "kg/kg", False),
    ("zone.t_surf", _S, "C", False),
    ("zone.load_sensible", _S, "W", False),
    ("zone.load_latent", _S, "W", False),
    ("out.t", _S, "C", False),
    ("out.rh", _S, "%", False),
    ("occ.sensible_w", _S, "W", False),  # occ.* only with occupant agents
    ("occ.latent_w", _S, "W", False),
    ("occ.thermostat_delta_c", _S, "C", False),
    ("occ.n_actions", _S, "count", False),
    ("occ.discomfort_c", _S, "C", False),
    ("ctrl.t_cool_spt", _P, "C", False),
    ("ctrl.t_heat_spt", _P, "C", False),
    ("ctrl.t_dis_spt", _P, "C", False),  # only with a discharge setpoint
    ("ctrl.p_duct_spt", _P, "Pa", False),  # only with a duct pressure setpoint
)
VARIABLES = {name: VariableKey(name, source, unit)
             for name, source, unit, _ in _VARIABLE_TABLE}
_UPLINK = tuple(n for n, _, _ in UPLINK)
_OCCUPANT = tuple(n for n in VARIABLES if n.startswith("occ."))
_RESULTS = tuple(n for n, source, _, _ in _VARIABLE_TABLE
                 if source is _S and n not in _OCCUPANT)
_SETPOINTS = tuple(n for n, source, _, _ in _VARIABLE_TABLE if source is _P)
_INTERNALS = frozenset(n for n, _, _, internal in _VARIABLE_TABLE if internal)


def _exchange(names: tuple[str, ...], absent: set[str],
              include: set[str] | None) -> tuple[tuple, object]:
    """The logged keys of an exchange whose values come as a tuple in the
    order of names, and the pick that gives their values from that tuple:
    an itemgetter, or None when every value or none is logged.  A variable
    is logged if the run produces it and logging.include has it."""
    pick = [i for i, n in enumerate(names)
            if n not in absent and (include is None or n in include)]
    keys = tuple(VARIABLES[names[i]] for i in pick)
    if not pick or len(pick) == len(names):
        return keys, None
    if len(pick) == 1:  # itemgetter of one index gives the value, not a tuple
        (only,) = pick
        return keys, lambda values: (values[only],)
    return keys, itemgetter(*pick)


class EngineError(Exception):
    """Engine construction or run failure."""


class OverrunAbort(EngineError):
    """Realtime pacing overran with overrun_policy=abort."""


def step_ms(step_size_s: float) -> int:
    """The exchange step on the modelled wall timeline, in whole ms."""
    return int(round(step_size_s * 1000.0))


class DelayInjector:
    """Per-step uplink/downlink delays: latency/2 plus uniform jitter each way.

    Step n reads row n % BLOCK_STEPS (uplink, downlink) of the block drawn
    from the (seed, comm domain, n // BLOCK_STEPS) substream (see `streams`),
    so delays for a given step never depend on what else consumed randomness
    or on which steps were drawn before.  The injector keeps the live block,
    converted once when it is drawn to the (up_ms, down_ms) int pair of each
    step.  Without jitter nothing is drawn: every step has the same pair.
    """

    def __init__(self, seed: int, latency_s: float, jitter_s: float):
        self.seed = seed
        self.jitter = jitter_s
        self._half_ms = latency_s / 2.0 * 1000.0
        self._fixed = (self._one_way_ms(0.0), self._one_way_ms(0.0))
        self._draws = BlockRows(2, self._pairs) if jitter_s > 0 else None

    def _one_way_ms(self, u: float) -> int:
        return int(round(self._half_ms + u * self.jitter * 1000.0))

    def _pairs(self, rows) -> list[tuple[int, int]]:
        one_way = self._one_way_ms
        return [(one_way(u_up), one_way(u_down)) for u_up, u_down in rows.tolist()]

    def delays_ms(self, step: int) -> tuple[int, int]:
        if self._draws is None:
            return self._fixed
        return self._draws.row(substream, step, self.seed, COMM_DOMAIN)

    def worst_exchange_ms(self) -> int:
        """The longest modelled exchange: uplink and downlink at the top of
        the jitter band plus the compute floor.  No exchange is late in a
        step whose step_ms() is at least this."""
        return 2 * self._one_way_ms(1.0) + COMPUTE_FLOOR_MS


class Engine:
    """One configured run: all components plus the shared datastore.

    cfg must be the output of `scenario.validate_scenario`: every default is
    filled in and every rule checked there, so the components assume both.
    Each component takes its block as it comes and declares no defaults.
    """

    def __init__(self, cfg: dict, base_dir: str | None = None):
        run = cfg["run"]
        self.cfg = cfg
        self.step_size = run["step_size_s"]
        self.step_ms = step_ms(self.step_size)
        self.horizon = run["horizon"]
        self.seed = run["seed"]
        self.mode = run["mode"]
        self.overrun_policy = run["overrun_policy"]
        self.run_start_ms = 0

        d = cfg["delays"]
        self.injector = DelayInjector(self.seed, d["comm_latency_s"], d["jitter_s"])

        b = cfg["building"]
        self.zone = ZoneModel(b, d["inherited_delay"])
        self.weather = build_weather(b["weather"], base_dir)
        gains = b["internal_gains_w"]  # float or [[t, w], ...]
        self.internal_gains = Schedule(gains if isinstance(gains, list)
                                       else [(0.0, gains)])

        o = cfg["occupants"]
        agents = [OccupantAgent(i, **a) for i, a in enumerate(o["agents"])]
        self.population = Population(agents,
                                     NearOccupantSurrogate(**o["surrogate"]),
                                     EffectConfig(**o["effects"]), self.seed)

        g = cfg["geb"]
        self.geb = GebController(g)
        baseline = self.geb.baseline
        # without a schedule the baseline discharge setpoint (or None) holds
        self.dis_schedule = Schedule(g["dis_schedule"]
                                     or [(0.0, baseline.t_dis_c)])
        self.harness = None
        if g["policy"] == "slow":
            self.harness = SlowControllerHarness(self.step_size, **g["slow"])
        self._slow_sp = baseline
        self._slow_flags: list[str] = []

        p = cfg["plant"]
        out_t0, out_rh0 = self.weather.value_at(0.0)
        applied0 = AppliedSetpoints(self.zone.t, self.zone.w, self.zone.rh,
                                    out_t0, out_rh0,
                                    baseline.t_cool_c, baseline.t_heat_c,
                                    self.dis_schedule.at(0.0))
        self.plant = PlantSim(HvacUnit(**p["hvac"]),
                              ZoneEmulator(**p["zone_emulator"]),
                              OutdoorEmulator(**p["outdoor"]), applied0,
                              p["control_dt_s"], p["ideal_actuators"])

        # Each exchange's logged keys, worked out once; the store registers
        # them at their first write.
        lg = cfg["logging"]
        include = None if lg["include"] is None else set(lg["include"])
        absent = set() if lg["plant_internals"] else set(_INTERNALS)
        if p["outdoor"]["kind"] != "air":
            absent.add("plant.rh_out")
        if self.dis_schedule.at(0.0) is None:
            absent.add("ctrl.t_dis_spt")
        if baseline.p_duct_pa is None:
            absent.add("ctrl.p_duct_spt")
        self._uplink = _exchange(_UPLINK, absent, include)
        self._results = _exchange(_RESULTS + _OCCUPANT if agents else _RESULTS,
                                  absent, include)
        self._setpoints = _exchange(_SETPOINTS, absent, include)

        self.store = StepStore(self.step_size, run["scenario_id"], self.seed, 0)
        self._step = 0
        self._t0 = None  # monotonic start of step 0's slot, set by run()
        self.counters = {"overruns": 0, "stale_steps": 0, "limitation_events": 0,
                         "setpoint_clamps": 0, "occupant_actions": 0}
        self.flag_counts: dict[str, int] = {}
        self._discomfort_sum = 0.0
        self._pacing = {"max_drift_ms": 0.0, "sum_drift_ms": 0.0, "paced_steps": 0}

    def _write(self, n: int, exchange: tuple, values: tuple, wall_ms: int) -> None:
        """One exchange's logged values into the store, in one write."""
        keys, pick = exchange
        if keys:
            self.store.upsert(n, keys, values if pick is None else pick(values),
                              wall_ms)

    # -- stepping ------------------------------------------------------------

    def internal_gains_at(self, t_s: float) -> float:
        return self.internal_gains.at(t_s)

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
        plant = self.plant
        self._write(n, self._uplink, plant.measure(), send_ms)
        # the state measure() just read, humidity as w
        discharge = plant.hvac.discharge()

        # simulate: occupants react to the previous zone state, then the zone
        # advances (into a new surfaces list), then the supervisor produces
        # this step's setpoints
        zone = self.zone
        occ = self.population.step(n, t_s, discharge, zone.t, zone.surfaces)
        gains = occ.gains
        out_t, out_rh = self.weather.value_at(t_s)
        zres = zone.step(discharge, out_t, self.internal_gains.at(t_s)
                         + gains.sensible_w, gains.latent_w, self.step_size)

        if self.population.agents:
            n_actions = len(occ.actions)
            self._write(n, self._results, (*zres, out_t, out_rh, *gains,
                                           float(n_actions), occ.mean_discomfort),
                        store_ms)
            self.counters["occupant_actions"] += n_actions
            self._discomfort_sum += occ.mean_discomfort
        else:  # no actions and no discomfort to count
            self._write(n, self._results, (*zres, out_t, out_rh), store_ms)

        final_sp, flags = self._supervise(n, t_s, gains.thermostat_delta_c)
        for f in flags:
            self.flag_counts[f] = self.flag_counts.get(f, 0) + 1
        self._write(n, self._setpoints, final_sp, recv_ms)

        # actuate: late results (only possible with stale_hold) are dropped
        # and the plant holds; otherwise the fresh setpoints take effect now
        late = recv_ms > self.run_start_ms + (n + 1) * self.step_ms
        # every realtime step is checked for an overrun, late or not
        overrun = self.mode == "realtime" and self._realtime_overrun(n)
        if late or overrun:
            self.counters["stale_steps"] += int(late)
            plant.apply(None)
        else:
            plant.apply(AppliedSetpoints(
                zres.t_c, zres.w, zres.rh_pct, out_t, out_rh,
                final_sp.t_cool_c, final_sp.t_heat_c, final_sp.t_dis_c))
        plant.advance(self.step_size)
        self.counters["limitation_events"] += len(plant.drain_events())

        self.store.seal(n)
        self._step += 1

    def _supervise(self, n: int, t_s: float,
                   occ_delta: float) -> tuple[SupervisorySetpoints, list[str]]:
        """This step's setpoints and flags: the supervisor's (or, under the
        slow policy, the last delivered ones, the baseline until the first
        delivery), moved by the occupant vote occ_delta and limited again.
        A nonzero vote that the limits clamp or the gap rule moves adds
        "clamp:occ" (counted in setpoint_clamps) or "gap:occ"; without a vote
        the limits only repeat the supervisor's, so nothing is flagged."""
        if self.harness is None:
            sp, flags = self.geb.step(t_s)
        else:
            delivered = self.harness.poll(n)
            if delivered is not None:
                self._slow_sp, self._slow_flags = delivered
            if not self.harness.pending:
                self.harness.submit(n, self.geb.step(t_s))
            sp, flags = self._slow_sp, list(self._slow_flags)

        cool, heat, clamped, gap = self.geb.limit(sp.t_cool_c + occ_delta,
                                                  sp.t_heat_c + occ_delta)
        if occ_delta != 0.0:
            if clamped:
                flags = flags + ["clamp:occ"]
                self.counters["setpoint_clamps"] += 1
            if gap:
                flags = flags + ["gap:occ"]
        return SupervisorySetpoints(cool, heat, self.dis_schedule.at(t_s),
                                    sp.p_duct_pa), flags

    def _realtime_overrun(self, n: int) -> bool:
        """Whether realtime step n overran its slot (counted; abort raises)."""
        if self._t0 is None:
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
        if self.mode == "realtime":
            if self._step == 0:
                self.run_start_ms = int(time.time() * 1000)
                self.store.start_wall_ms = self.run_start_ms
            if self._t0 is None:  # step n's slot ends at _t0 + (n+1)*step
                self._t0 = time.monotonic() - self._step * self.step_size
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
        counts["slow_discarded"] = self.harness.discarded if self.harness else 0
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
        self._t0 = None  # the next paced run() restarts the pacing clock
