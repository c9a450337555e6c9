import time

import numpy as np
import pytest

from flexbench import orchestrator
from flexbench.analysis import exchange_stamps, series_from_log
from flexbench.datastore import Source, StepStore, write_csv
from flexbench.orchestrator import (COMPUTE_FLOOR_MS, VARIABLES, DelayInjector,
                                    Engine, EngineError, OverrunAbort)
from flexbench.scenario import ScenarioError, validate_scenario
from flexbench.streams import COMM_DOMAIN
from tests.helpers import (SCENARIO_DIR, agent_block, cfg_from, deep_merge,
                           run_doc)

FAST_DOC = {
    "run": {"horizon": 8, "seed": 3},
    "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
    "building": {"internal_gains_w": [[0, 200], [120, 1500], [300, 400]],
                 "weather": {"series": [[0, 28, 40], [240, 36, 55],
                                        [480, 26, 45]]}},
}


# one occupant who is always uncomfortable, and acts
OCCUPANT_DOC = {
    "run": {"horizon": 8},
    "building": {"t_init_c": 26.0,
                 "weather": {"constant": {"tdb_c": 34.0, "rh_pct": 45.0}}},
    "occupants": {"agents": [
        {"coords": [3, 3, 1], "t_pref_c": 31.0,
         "action_probs": {"thermostat_adjust": 1.0}}]},
}


class TestDelayInjector:
    def test_no_jitter_is_constant(self):
        inj = DelayInjector(seed=1, latency_s=0.1, jitter_s=0.0)
        assert inj.delays_ms(0) == (50, 50)
        assert inj.delays_ms(7) == (50, 50)

    def test_same_seed_same_draws(self):
        a = DelayInjector(5, 0.1, 0.02)
        b = DelayInjector(5, 0.1, 0.02)
        assert [a.delays_ms(n) for n in range(20)] == \
            [b.delays_ms(n) for n in range(20)]

    def test_draws_stay_inside_jitter_band(self):
        inj = DelayInjector(9, 0.1, 0.02)
        for n in range(200):
            up, down = inj.delays_ms(n)
            assert 50 <= up <= 70 and 50 <= down <= 70

    def test_steps_decorrelated(self):
        inj = DelayInjector(9, 0.1, 0.02)
        assert len({inj.delays_ms(n) for n in range(50)}) > 40

    def test_block_boundary_draws_do_not_depend_on_visit_order(self):
        steps = range(1015, 1036)  # crosses the first block boundary, 1024
        fresh = {n: DelayInjector(9, 0.1, 0.02).delays_ms(n) for n in steps}
        inj = DelayInjector(9, 0.1, 0.02)
        assert {n: inj.delays_ms(n) for n in steps} == fresh
        assert {n: inj.delays_ms(n) for n in reversed(steps)} == fresh
        inj.delays_ms(5000)
        assert {n: inj.delays_ms(n) for n in steps} == fresh

    def test_one_substream_per_block_of_steps(self, monkeypatch):
        calls = []
        draw = orchestrator.substream
        monkeypatch.setattr(orchestrator, "substream",
                            lambda *key: calls.append(key) or draw(*key))
        inj = DelayInjector(9, 0.1, 0.02)
        for n in range(3000):
            inj.delays_ms(n)
        assert calls == [(9, COMM_DOMAIN, b) for b in range(3)]

    def test_every_delay_stays_in_its_band(self):
        # one-way delays lie in [L/2, L/2 + J]: here [50, 70] ms
        inj = DelayInjector(4, 0.1, 0.02)
        delays = np.array([inj.delays_ms(n) for n in range(100_000)])
        assert delays.min() >= 50 and delays.max() <= 70
        assert delays.min() == 50 and delays.max() == 70  # the band is used


class TestExchangeLaw:
    def setup_method(self):
        self.log, self.engine = run_doc(FAST_DOC)

    def series(self, expr):
        return series_from_log(self.log, expr)

    def test_plant_echoes_previous_sim_results_exactly(self):
        zone_t = self.series("zone.t:simulated")
        spt = self.series("plant.t_zone_spt:emulated")
        assert np.array_equal(spt[1:], zone_t[:-1])
        zone_rh = self.series("zone.rh:simulated")
        rh_spt = self.series("plant.rh_zone_spt:emulated")
        assert np.array_equal(rh_spt[1:], zone_rh[:-1])

    def test_plant_echoes_previous_supervisory_setpoints(self):
        sent = self.series("ctrl.t_cool_spt:setpoint")
        echo = self.series("plant.t_cool_spt:emulated")
        assert np.array_equal(echo[1:], sent[:-1])

    def test_step_zero_reflects_initial_conditions(self):
        cfg = self.engine.cfg
        assert self.series("plant.t_zone_spt:emulated")[0] == \
            cfg["building"]["t_init_c"]
        assert self.series("plant.t_cool_spt:emulated")[0] == \
            cfg["geb"]["baseline"]["t_cool_c"]

    def test_wall_stamps_follow_modeled_path(self):
        hw, sw = exchange_stamps(self.log)
        inj = self.engine.injector
        # one row per step, in step order: (step, send_ms, recv_ms) and
        # (step, store_ms)
        assert hw.shape == (8, 3) and sw.shape == (8, 2)
        for n in range(8):
            up, down = inj.delays_ms(n)
            step, send, recv = hw[n]
            step_sw, store = sw[n]
            assert step == step_sw == n
            assert send == n * 60000
            assert store == send + up + COMPUTE_FLOOR_MS
            assert recv == store + down

    def test_fresh_delivery_has_no_stale_steps(self):
        assert self.engine.counters["stale_steps"] == 0
        assert self.engine.plant.stale_count == 0


class TestStaleHold:
    def test_latency_beyond_step_holds_plant_every_step(self):
        doc = {
            "run": {"horizon": 6},
            "delays": {"comm_latency_s": 70.0, "stale_hold": True},
            "geb": {"mode": "shed",
                    "windows": [{"start_s": 0, "end_s": 100000}]},
        }
        log, engine = run_doc(doc)
        assert engine.counters["stale_steps"] == 6
        assert engine.summary()["counts"]["plant_setpoint_holds"] == 6
        # supervisor kept asking for the shed band, plant never adopted it
        assert set(series_from_log(log, "ctrl.t_cool_spt:setpoint")) == {26.0}
        assert set(series_from_log(log, "plant.t_cool_spt:emulated")) == {24.0}

    def test_oversized_latency_without_opt_in_is_rejected(self):
        from flexbench.scenario import ScenarioError
        with pytest.raises(ScenarioError):
            cfg_from({"delays": {"comm_latency_s": 70.0}})


class TestLoggingControls:
    def test_include_filter(self):
        doc = {"run": {"horizon": 3},
               "logging": {"include": ["zone.t", "plant.t_dis",
                                       "ctrl.t_cool_spt"]}}
        log, _ = run_doc(doc)
        names = {k.name for k in log.keys}
        assert names == {"zone.t", "plant.t_dis", "ctrl.t_cool_spt"}

    def test_include_accepts_outdoor_rh(self):
        # plant.rh_out is published by the default air-chamber outdoor emulator
        doc = {"run": {"horizon": 3},
               "logging": {"include": ["plant.rh_out", "zone.t"]}}
        log, _ = run_doc(doc)
        assert {k.name for k in log.keys} == {"plant.rh_out", "zone.t"}

    def test_every_logged_key_comes_from_the_table(self):
        log, _ = run_doc(TestOccupantCoupling.DOC,
                         {"geb": {"dis_schedule": [[0, 14.0]]}})
        assert all(VARIABLES[k.name] == k for k in log.keys)
        assert {"plant.rh_out", "plant.q_hvac", "occ.n_actions",
                "ctrl.t_dis_spt"} <= {k.name for k in log.keys}

    @pytest.mark.parametrize("doc, writes", [
        ({}, 3),
        (OCCUPANT_DOC, 3),
        ({"logging": {"include": ["zone.t", "ctrl.t_cool_spt"]}}, 2),
        ({"logging": {"include": ["plant.q_hvac"], "plant_internals": False}}, 0),
    ], ids=["plain", "agents", "no_uplink", "nothing_logged"])
    def test_each_exchange_is_one_store_write(self, monkeypatch, doc, writes):
        calls = []
        upsert = StepStore.upsert

        def counted(store, step, keys, values, wall_time_ms=None):
            calls.append(step)
            upsert(store, step, keys, values, wall_time_ms)
        monkeypatch.setattr(StepStore, "upsert", counted)
        log, _ = run_doc(doc, {"run": {"horizon": 4}})
        assert len(calls) == 4 * writes
        assert sorted(calls) == [n for n in range(4) for _ in range(writes)]
        assert log.meta.steps == 4

    # Three filters: a whole exchange cut, a subset of each exchange, and
    # one variable per exchange (a pick of one value).
    FILTERS = {
        "no_internals": {"plant_internals": False},
        "subsets": {"include": ["plant.rh_dis", "plant.rh_out", "plant.q_hvac",
                                "plant.t_heat_spt", "zone.w", "out.rh",
                                "occ.latent_w", "occ.n_actions",
                                "ctrl.t_heat_spt", "ctrl.t_dis_spt"]},
        "one_each": {"include": ["plant.t_out_spt", "occ.discomfort_c",
                                 "ctrl.t_cool_spt"], "plant_internals": False},
    }

    @pytest.mark.parametrize("kind", ["air", "water"])
    @pytest.mark.parametrize("logging", FILTERS.values(), ids=FILTERS.keys())
    def test_filtered_logging_keeps_the_values(self, kind, logging):
        # every logged value and wall stamp is the one the unfiltered run
        # logs for that variable
        doc = deep_merge(OCCUPANT_DOC, {
            "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
            "plant": {"outdoor": {"kind": kind, "t_init_c": 30.0}},
            "geb": {"dis_schedule": [[0, 14.0], [180, 16.0]]}})
        full, _ = run_doc(doc)
        part, _ = run_doc(doc, {"logging": logging})
        names = {k.name for k in full.keys}
        assert ("plant.rh_out" in names) == (kind == "air")
        if "include" in logging:
            assert {k.name for k in part.keys} == set(logging["include"]) & names
        else:
            assert {k.name for k in part.keys} == names - {
                "plant.q_heater", "plant.q_cooling", "plant.m_humidifier",
                "plant.q_hvac"}
        for key in part.keys:
            values, walls = part.columns[key]
            assert np.array_equal(values, full.columns[key][0]), key.name
            assert np.array_equal(walls, full.columns[key][1]), key.name

    def test_unknown_include_name_fails_fast(self):
        with pytest.raises(ScenarioError, match=r"^logging\.include: .*zone\.bogus"):
            cfg_from({"logging": {"include": ["zone.bogus"]}})

    def test_plant_internals_toggle(self):
        with_doc, _ = run_doc({"run": {"horizon": 2}})
        without_doc, _ = run_doc({"run": {"horizon": 2},
                                  "logging": {"plant_internals": False}})
        assert any(k.name == "plant.q_heater" for k in with_doc.keys)
        assert not any(k.name == "plant.q_heater" for k in without_doc.keys)
        assert any(k.name == "plant.t_dis" for k in without_doc.keys)

    def test_units_recorded(self):
        log, _ = run_doc({"run": {"horizon": 2}})
        assert log.key("zone.t", Source.SIMULATED).unit == "C"
        assert log.key("zone.load_sensible", Source.SIMULATED).unit == "W"


class TestPlantVariants:
    def test_water_loop_has_no_outdoor_rh_measurement(self):
        doc = {"run": {"horizon": 3},
               "plant": {"outdoor": {"kind": "water", "t_init_c": 30.0}}}
        log, _ = run_doc(doc)
        names = {k.name for k in log.keys}
        assert "plant.rh_out" not in names
        assert "out.rh" in names  # weather itself still logs

    def test_envelope_limits_counted(self):
        doc = {"run": {"horizon": 3},
               "plant": {"outdoor": {"kind": "water", "tau_s": 0.0,
                                     "t_init_c": 30.0}},
               "building": {"weather": {"constant": {"tdb_c": 5.0,
                                                     "rh_pct": 40.0}}}}
        _, engine = run_doc(doc)
        assert engine.counters["limitation_events"] > 0

    def test_gains_schedule_changes_trajectory(self):
        flat, _ = run_doc({"run": {"horizon": 6},
                           "building": {"internal_gains_w": 300.0}})
        stepped, _ = run_doc({"run": {"horizon": 6},
                              "building": {"internal_gains_w":
                                           [[0, 300], [60, 4000]]}})
        a = series_from_log(flat, "zone.t:simulated")
        b = series_from_log(stepped, "zone.t:simulated")
        assert a[0] == b[0]          # identical before the schedule departs
        assert not np.array_equal(a[1:], b[1:])

    def test_schedules_hold_their_first_value_before_it(self):
        engine = Engine(cfg_from({"building": {"internal_gains_w":
                                               [[120, 800]]}}))
        assert engine.internal_gains_at(0.0) == 800.0
        _, engine = run_doc({"run": {"horizon": 5},
                             "geb": {"dis_schedule": [[120, 22]]}})
        assert engine.summary()["counts"]["discharge_clamps"] == 0

    def test_internal_gains_lookup(self):
        engine = Engine(cfg_from({"building": {"internal_gains_w":
                                               [[0, 100], [300, 900]]}}))
        assert engine.internal_gains_at(0.0) == 100.0
        assert engine.internal_gains_at(299.0) == 100.0
        assert engine.internal_gains_at(300.0) == 900.0
        constant = Engine(cfg_from({"building": {"internal_gains_w": 425.0}}))
        assert constant.internal_gains_at(1e6) == 425.0


def _series(schedule):
    return [[t, v] for t, v in zip(schedule.times, schedule.values)]


# (dotted path, a value unlike the default and every other value here, where
# the engine keeps it).  "agent." paths are fields of the one agent.
_WIRING = [
    ("geb.mode", "shift", lambda e: e.geb.mode.value),
    ("geb.baseline.t_cool_c", 25.25, lambda e: e.geb.baseline.t_cool_c),
    ("geb.baseline.t_heat_c", 19.75, lambda e: e.geb.baseline.t_heat_c),
    ("geb.baseline.t_dis_c", 13.5, lambda e: e.geb.baseline.t_dis_c),
    ("geb.baseline.p_duct_pa", 215.0, lambda e: e.geb.baseline.p_duct_pa),
    ("geb.windows", [{"start_s": 3600.0, "end_s": 7200.0}],
     lambda e: [vars(w) for w in e.geb.windows]),
    ("geb.dis_schedule", [[0.0, 14.25], [600.0, 13.75]],
     lambda e: _series(e.dis_schedule)),
    ("geb.delta_eff_c", 1.1, lambda e: e.geb.delta_eff),
    ("geb.delta_shed_c", 2.3, lambda e: e.geb.delta_shed),
    ("geb.delta_pre_c", 1.7, lambda e: e.geb.delta_pre),
    ("geb.pre_window_s", 5400.0, lambda e: e.geb.pre_window),
    ("geb.r_max_c_per_step", 0.45, lambda e: e.geb.r_max),
    ("geb.modulation.depth_c", 1.9, lambda e: e.geb.mod_depth),
    ("geb.modulation.signal", [[0.0, 0.6]], lambda e: _series(e.geb.mod_signal)),
    ("geb.bounds.t_min_c", 13.0, lambda e: e.geb.t_min),
    ("geb.bounds.t_max_c", 30.5, lambda e: e.geb.t_max),
    ("geb.min_gap_c", 1.6, lambda e: e.geb.min_gap),
    ("geb.policy", "slow", lambda e: "slow" if e.harness else "rbc"),
    ("geb.slow.compute_latency_s", 75.0, lambda e: e.harness.latency),
    ("geb.slow.freshness_s", 480.0, lambda e: e.harness.freshness),
    ("delays.inherited_delay", True, lambda e: e.zone.inherited_delay),
    ("building.c_z_j_per_k", 1.5e7, lambda e: e.zone.c),
    ("building.ua_w_per_k", 210.0, lambda e: e.zone.ua),
    ("building.moisture_capacity_kg", 650.0, lambda e: e.zone.c_w),
    ("building.surface_tau_s", 1500.0, lambda e: e.zone.surface_tau[0]),
    ("building.n_surfaces", 3, lambda e: len(e.zone.surface_tau)),
    ("building.t_init_c", 24.6, lambda e: e.zone.t),
    ("building.rh_init_pct", 47.0, lambda e: round(e.zone.rh, 9)),
    ("agent.coords", [2.5, 3.5, 1.2], lambda e: e.population.agents[0].coords),
    ("agent.clo", 0.85, lambda e: e.population.agents[0].clo),
    ("agent.t_pref_c", 21.8, lambda e: e.population.agents[0].t_pref_c),
    ("agent.deadband_c", 0.9, lambda e: e.population.agents[0].deadband_c),
    ("agent.action_probs", {"drink": 0.3, "walk": 0.15},
     lambda e: e.population.agents[0].action_probs),
    ("agent.presence", [[0.0, 1.0], [3600.0, 0.0]],
     lambda e: e.population.agents[0].presence),
]


def test_every_block_value_reaches_its_component():
    # components read their blocks by key and hold no defaults of their own,
    # so a key read in the wrong place would otherwise pass unnoticed
    doc, agent = {}, {}
    defaults = {**validate_scenario({}), "agent": agent_block(coords=[0, 0, 0])}
    values = [v for _, v, _ in _WIRING]
    assert all(values.count(v) == 1 for v in values)
    for dotted, value, _ in _WIRING:
        *parents, leaf = dotted.split(".")
        node, default = (agent if parents == ["agent"] else doc), defaults
        for part in parents:
            if part != "agent":
                node = node.setdefault(part, {})
            default = default[part]
        assert value != default[leaf], dotted
        node[leaf] = value
    doc["occupants"] = {"agents": [agent]}
    engine = Engine(cfg_from(doc))
    for dotted, value, get in _WIRING:
        assert get(engine) == value, dotted


class TestOccupantCoupling:
    DOC = OCCUPANT_DOC

    def test_cold_occupant_pushes_setpoints_up(self):
        log, engine = run_doc(self.DOC)
        cools = series_from_log(log, "ctrl.t_cool_spt:setpoint")
        deltas = series_from_log(log, "occ.thermostat_delta_c:simulated")
        # the step-0 action already shifts this step's supervisory output
        assert cools[0] == 24.5
        assert cools[-1] == 26.0     # band-limited adjustment fully applied
        assert np.array_equal(cools, 24.0 + deltas)
        assert engine.counters["occupant_actions"] > 0

    def test_occupant_delta_respects_bounds_with_flag(self):
        doc = dict(self.DOC)
        doc = {**doc, "geb": {"bounds": {"t_min_c": 12.0, "t_max_c": 25.5}}}
        log, engine = run_doc(doc)
        cools = series_from_log(log, "ctrl.t_cool_spt:setpoint")
        assert cools.max() == 25.5
        assert engine.flag_counts.get("clamp:occ", 0) > 0
        assert engine.counters["setpoint_clamps"] > 0

    def test_occupant_offset_keeps_the_gap_inside_the_bounds(self):
        # a cold occupant lifts the heating setpoint to t_max_c; the gap then
        # opens downward instead of pushing cooling above t_max_c
        doc = {**self.DOC, "run": {"horizon": 4},
               "geb": {"bounds": {"t_min_c": 20.0, "t_max_c": 22.0},
                       "baseline": {"t_cool_c": 22.0, "t_heat_c": 21.0}}}
        log, engine = run_doc(doc)
        cools = series_from_log(log, "ctrl.t_cool_spt:setpoint")
        heats = series_from_log(log, "ctrl.t_heat_spt:setpoint")
        assert list(cools) == [22.0] * 4
        assert list(heats) == [21.0] * 4
        assert engine.flag_counts == {"clamp:occ": 4, "gap:occ": 4}

    def test_no_agents_means_no_occ_channels(self):
        log, _ = run_doc({"run": {"horizon": 2}})
        assert not any(k.name.startswith("occ.") for k in log.keys)


class TestSlowPolicy:
    def test_results_land_behind_the_loop(self):
        doc = {
            "run": {"horizon": 14},
            "geb": {"mode": "shed", "policy": "slow",
                    "windows": [{"start_s": 0, "end_s": 600}],
                    "slow": {"compute_latency_s": 90.0, "freshness_s": 600.0}},
        }
        log, engine = run_doc(doc)
        cools = list(series_from_log(log, "ctrl.t_cool_spt:setpoint"))
        # 90 s of compute on a 60 s step: visible two steps after submission.
        # The shed request from t=0 appears at step 2; the post-window
        # baseline computed at t=600 (step 10) appears at step 12.
        assert cools == [24.0, 24.0] + [26.0] * 10 + [24.0, 24.0]
        assert engine.summary()["counts"]["slow_discarded"] == 0

    def test_rbc_policy_reacts_in_the_same_step(self):
        doc = {"run": {"horizon": 4},
               "geb": {"mode": "shed", "policy": "rbc",
                       "windows": [{"start_s": 0, "end_s": 600}]}}
        log, _ = run_doc(doc)
        assert series_from_log(log, "ctrl.t_cool_spt:setpoint")[0] == 26.0


class TestRunControl:
    def test_step_past_horizon(self):
        _, engine = run_doc({"run": {"horizon": 2}})
        with pytest.raises(EngineError, match="complete"):
            engine.step_once()

    def test_snapshot_restore_replays_identically(self):
        engine = Engine(cfg_from(FAST_DOC))
        # a non-ideal plant: the restore carries its per-dt memo mid-run
        assert not engine.plant.ideal
        for _ in range(4):
            engine.step_once()
        snap = engine.snapshot()
        for _ in range(4):
            engine.step_once()
        first = engine.store.to_runlog()

        engine.restore(snap)
        assert engine.store.last_sealed == 3
        for _ in range(4):
            engine.step_once()
        second = engine.store.to_runlog()

        assert first.meta == second.meta
        assert first.keys == second.keys
        for key in first.keys:
            for a, b in zip(first.columns[key], second.columns[key]):
                assert np.array_equal(a, b, equal_nan=True)

    def test_snapshot_replays_run_csv_across_a_block_boundary(self, tmp_path):
        # jitter and an always-uncomfortable agent draw from both block kinds;
        # steps 1020-1030 cross the first block boundary at 1024
        cfg = cfg_from({
            "run": {"horizon": 1031, "step_size_s": 1.0, "seed": 8},
            "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02},
            "plant": {"ideal_actuators": True},
            "occupants": {"agents": [agent_block(
                coords=[1, 1, 1], t_pref_c=10.0,
                action_probs={"drink": 0.5, "walk": 0.5})]}})
        engine = Engine(cfg)
        for _ in range(1020):
            engine.step_once()
        snap = engine.snapshot()
        first = tmp_path / "first.csv"
        write_csv(engine.run(), str(first))

        engine.restore(snap)
        second = tmp_path / "second.csv"
        write_csv(engine.run(), str(second))
        assert engine.counters["occupant_actions"] > 0
        assert first.read_bytes() == second.read_bytes()

    def test_snapshot_is_isolated_from_live_state(self):
        engine = Engine(cfg_from({"run": {"horizon": 4}}))
        engine.step_once()
        snap = engine.snapshot()
        engine.step_once()
        assert snap["_step"] == 1
        assert snap["store"].last_sealed == 0


class TestRealtime:
    def test_short_realtime_run_paces_and_stamps_epoch(self):
        doc = {"run": {"horizon": 3, "step_size_s": 0.2, "mode": "realtime"},
               "plant": {"control_dt_s": 0.2}}
        before = time.time()
        log, engine = run_doc(doc)
        elapsed = time.time() - before
        assert 0.5 <= elapsed < 3.0          # paced, not fast-forwarded
        assert engine.run_start_ms >= int(before * 1000) - 1
        assert log.meta.start_wall_ms == engine.run_start_ms
        assert engine.counters["overruns"] == 0
        assert "pacing" in engine.summary()

    @pytest.mark.parametrize("route", ["step_once", "restore",
                                       "restore_after_run"])
    def test_run_paces_from_the_step_it_resumes_at(self, route):
        cfg = cfg_from({"run": {"horizon": 3, "step_size_s": 0.2,
                                "mode": "realtime"},
                        "plant": {"control_dt_s": 0.2}})
        engine = Engine(cfg)
        engine.step_once()
        if route == "restore":
            snap = engine.snapshot()
            engine = Engine(cfg)
            engine.restore(snap)
        elif route == "restore_after_run":
            snap = engine.snapshot()
            engine.run()  # the restored run must not pace against this one
            engine.restore(snap)
        before = time.monotonic()
        log = engine.run()
        elapsed = time.monotonic() - before
        assert 0.35 <= elapsed < 3.0  # steps 1 and 2 paced, 0.2 s each
        assert log.meta.steps == 3
        assert engine.counters["overruns"] == 0
        assert engine.plant.stale_count == 0
        assert engine._pacing["paced_steps"] == 2

    def test_step_once_without_run_counts_no_overrun(self):
        engine = Engine(cfg_from({"run": {"mode": "realtime", "horizon": 4}}))
        assert engine._t0 is None  # no paced run() has started
        engine.step_once()
        assert engine.counters["overruns"] == 0
        assert engine.plant.stale_count == 0

    def test_forced_overrun_hold_policy(self):
        engine = Engine(cfg_from({"run": {"mode": "realtime", "horizon": 4}}))
        engine._t0 = time.monotonic() - 1000.0  # pretend the run started long ago
        engine.step_once()
        assert engine.counters["overruns"] == 1
        assert engine.plant.stale_count == 1

    def test_forced_overrun_abort_policy(self):
        engine = Engine(cfg_from({"run": {"mode": "realtime", "horizon": 4,
                                          "overrun_policy": "abort"}}))
        engine._t0 = time.monotonic() - 1000.0
        with pytest.raises(OverrunAbort):
            engine.step_once()

    @pytest.mark.parametrize("policy", ["hold", "abort"])
    def test_late_step_still_checks_for_an_overrun(self, policy):
        # the exchange takes longer than the step: every step is late
        engine = Engine(cfg_from({"run": {"mode": "realtime", "horizon": 4,
                                          "step_size_s": 0.1,
                                          "overrun_policy": policy},
                                  "plant": {"control_dt_s": 0.1},
                                  "delays": {"comm_latency_s": 0.5,
                                             "stale_hold": True}}))
        engine._t0 = time.monotonic() - 1000.0
        if policy == "abort":
            with pytest.raises(OverrunAbort):
                engine.step_once()
            return
        engine.step_once()
        assert engine.counters["overruns"] == 1
        assert engine.counters["stale_steps"] == 1


def test_scenario_weather_file_resolves_relative_to_base_dir(tmp_path):
    w = tmp_path / "w.csv"
    w.write_text("time_s,tdb_c,rh_pct\n0,25,40\n600,30,50\n")
    doc = {"run": {"horizon": 5},
           "building": {"weather": {"path": "w.csv"}}}
    from flexbench.scenario import validate_scenario
    cfg = validate_scenario(doc, base_dir=str(tmp_path))
    engine = Engine(cfg, base_dir=str(tmp_path))
    log = engine.run()
    out_t = series_from_log(log, "out.t:simulated")
    assert out_t[0] == 25.0 and out_t[-1] == pytest.approx(27.0)
