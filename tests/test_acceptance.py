"""End-to-end acceptance checks, one test per shipped guarantee.

Each test's docstring first line is the label printed in the terminal
summary (see conftest).  These run the real engine on shipped or patched
scenarios and hold results against independent oracles: closed-form
fixed points, an RK4 reference integrator, analytic response times, and
binomial bounds.  Tolerances are part of the contract; do not relax them.
"""

import math
import time

import numpy as np
import pytest

from flexbench.analysis import (comm_delay_bound, exchange_stamps,
                                hunting_metric, response_time, rmse_shift,
                                series_from_log)
from flexbench.datastore import export_run, import_run
from flexbench.occupants import EffectConfig, OccupantAgent, behave
from flexbench.psychro import CP_AIR

from tests.helpers import agent_block, block, run_doc, run_scenario


def _series(log, key):
    return series_from_log(log, key)


def _window_steps(log, key, start_s, end_s, step_s):
    vals = _series(log, key)
    lo = int(math.ceil(start_s / step_s))
    hi = int(math.ceil(end_s / step_s))
    return vals[lo:hi]


def _cooling_integral(vals, dt):
    return sum(max(v, 0.0) * dt for v in vals)


def test_ac01_control_delay_echo():
    """AC1 control delay: with ideal actuators the emulated setpoint trace equals the supervisory trace shifted one step (rmse at -1 is exactly 0, at 0 strictly positive)"""
    patch = {"run": {"horizon": 40},
             "plant": {"ideal_actuators": True},
             "delays": {"comm_latency_s": 0.0, "jitter_s": 0.0},
             "occupants": {"agents": []},
             "geb": {"mode": "shed",
                     "windows": [{"start_s": 300.0, "end_s": 1500.0}]}}
    log, _ = run_scenario("standard_dynamic", patch)
    emu = _series(log, "plant.t_cool_spt:emulated")
    spt = _series(log, "ctrl.t_cool_spt:setpoint")
    assert len(set(spt)) >= 2  # the trace must actually move
    assert rmse_shift(emu, spt, -1) == 0.0
    assert rmse_shift(emu, spt, 0) > 0.0


def test_ac02_inherited_delay_alignment():
    """AC2 inherited delay: simulated vs emulated load aligns best one step shifted on the standard dynamic scenario, and on/off zone trajectories shift-match within 1e-12 degC"""
    log, _ = run_scenario("standard_dynamic", {"delays": {"inherited_delay": True}})
    sim = _series(log, "zone.load_sensible:simulated")
    emu = _series(log, "plant.load_sensible:emulated")
    assert rmse_shift(sim, emu, 1) < rmse_shift(sim, emu, 0)

    # Paired runs on an open-loop discharge schedule.  The zone starts at the
    # steady state of the initial discharge, so consuming the previous step's
    # input (inherited on) replays the direct run exactly one step later.
    mcp = 0.5 * CP_AIR
    t_star = (mcp * 16.0 + 250.0 * 30.0 + 800.0) / (mcp + 250.0)
    base = {"run": {"horizon": 180},
            "delays": {"comm_latency_s": 0.0, "jitter_s": 0.0},
            "plant": {"hvac": {"tau_dis_s": 0.0, "t_dis_init_c": 16.0}},
            "building": {"t_init_c": t_star, "internal_gains_w": 800.0,
                         "weather": {"constant": {"tdb_c": 30.0, "rh_pct": 40.0}}},
            "occupants": {"agents": []},
            "geb": {"baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0},
                    "dis_schedule": [[0, 16.0], [3600, 12.0], [7200, 18.0]]}}
    log_off, _ = run_doc(dict(base), default_id="shift-off")
    on = dict(base)
    on["delays"] = {"comm_latency_s": 0.0, "jitter_s": 0.0, "inherited_delay": True}
    log_on, _ = run_doc(on, default_id="shift-on")
    t_off = _series(log_off, "zone.t:simulated")
    t_on = _series(log_on, "zone.t:simulated")
    assert len(set(round(v, 6) for v in t_off)) > 3  # nontrivial trajectory
    worst = max(abs(a - b) for a, b in zip(t_on[1:], t_off[:-1]))
    assert worst <= 1e-12


def test_ac03_hunting_verdicts():
    """AC3 hunting: the frozen light-chamber scenario hunts under emulated-PV control (ptp > 0.5 degC, >= 6 crossings in 30 min) and is quiet under simulated-PV control (post-settle ptp < 0.1 degC)"""
    log1, _ = run_scenario("h1_hunting", {})
    pv1 = _series(log1, "plant.t_zone_emu:emulated")
    sp1 = _series(log1, "plant.t_cool_spt:emulated")
    v1 = hunting_metric(pv1, sp1, 60.0)
    assert v1.is_hunting
    assert v1.peak_to_peak > 0.5
    assert v1.crossings >= 6

    log2, _ = run_scenario("h1_hunting", {"plant": {"hvac": {"pv_mode": "method2"}}})
    pv2 = _series(log2, "plant.t_zone_emu:emulated")
    sp2 = _series(log2, "plant.t_cool_spt:emulated")
    v2 = hunting_metric(pv2, sp2, 60.0)
    assert not v2.is_hunting
    assert v2.peak_to_peak < 0.1


def test_ac04_step_response_time():
    """AC4 response time: a 120 s first-order discharge emulator stepped 21.1 -> 22.2 degC at 1 s sampling measures its response within 120 +/- 1 s"""
    log, _ = run_scenario("step_response", {})
    td = _series(log, "plant.t_dis:emulated")
    rt = response_time(td, 1.0, 300)
    assert 119.0 <= rt <= 121.0


def test_ac05_delay_bound_brackets_injection():
    """AC5 delay bound: injected latencies of 5, 20 and 25 s at 60 s steps give a measured bound inside [L, 60) s in 100 seeded trials"""
    lats = (5.0, 20.0, 25.0)
    for i in range(100):
        lat = lats[i % 3]
        patch = {"run": {"horizon": 8, "seed": i},
                 "delays": {"comm_latency_s": lat, "jitter_s": 0.5}}
        log, _ = run_scenario("delay_bound", patch)
        hw, sw = exchange_stamps(log)
        bound = comm_delay_bound(hw, sw)
        assert lat <= bound < 60.0, f"trial {i}: bound {bound} outside [{lat}, 60)"


def test_ac06_zone_model_vs_fine_reference():
    """AC6 zone fidelity: the exact-update zone trajectory stays within 1e-6 degC of a 0.1 s RK4 reference over 1440 steps, with the fast run under 5 s"""
    doc = {"run": {"horizon": 1440, "seed": 9},
           "delays": {"comm_latency_s": 0.0, "jitter_s": 0.0},
           "building": {"n_surfaces": 0,
                        "internal_gains_w": [[0, 400.0], [21600, 1600.0],
                                             [43200, 300.0], [64800, 900.0]],
                        "weather": {"constant": {"tdb_c": 32.0, "rh_pct": 45.0}}},
           "occupants": {"agents": []},
           "geb": {"baseline": {"t_cool_c": 24.0, "t_heat_c": 20.0}}}
    t0 = time.perf_counter()
    log, eng = run_doc(doc, default_id="zone-fidelity")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0

    cfg = eng.cfg
    c_z = cfg["building"]["c_z_j_per_k"]
    ua = cfg["building"]["ua_w_per_k"]
    t_init = cfg["building"]["t_init_c"]
    out_t = 32.0
    step = cfg["run"]["step_size_s"]

    t_dis = _series(log, "plant.t_dis:emulated")
    m_dot = _series(log, "plant.m_dot:emulated")
    t_zone = _series(log, "zone.t:simulated")

    # RK4 on dT/dt = a - b T with per-step constants collapses to a geometric
    # factor per 0.1 s substep; 600 substeps cover one exchange step.
    h = 0.1
    n_sub = int(round(step / h))
    ref = t_init
    worst = 0.0
    for n in range(len(t_zone)):
        mcp = m_dot[n] * CP_AIR
        b = (mcp + ua) / c_z
        a = (mcp * t_dis[n] + ua * out_t + eng.internal_gains_at(n * step)) / c_z
        bh = b * h
        r = 1.0 - bh + bh**2 / 2.0 - bh**3 / 6.0 + bh**4 / 24.0
        ref = a / b + (ref - a / b) * r**n_sub
        worst = max(worst, abs(ref - t_zone[n]))
    assert worst <= 1e-6


def test_ac07_outdoor_envelope_clamps():
    """AC7 envelope clamping: a 5 degC water-loop target clamps to 10 degC and a 70 degC air target clamps to 65 degC, both leaving limitation events"""
    water = {"run": {"horizon": 10},
             "plant": {"outdoor": {"kind": "water", "tau_s": 30.0, "t_init_c": 15.0}},
             "building": {"weather": {"constant": {"tdb_c": 5.0, "rh_pct": 50.0}}},
             "occupants": {"agents": []}}
    log_w, eng_w = run_doc(water, default_id="clamp-water")
    t_out_w = _series(log_w, "plant.t_out:emulated")
    assert min(t_out_w) >= 10.0 - 1e-9
    assert t_out_w[-1] == pytest.approx(10.0, abs=1e-6)
    assert eng_w.counters["limitation_events"] > 0

    air = {"run": {"horizon": 10},
           "plant": {"outdoor": {"kind": "air", "tau_s": 30.0, "t_init_c": 30.0}},
           "building": {"weather": {"constant": {"tdb_c": 70.0, "rh_pct": 30.0}}},
           "occupants": {"agents": []}}
    log_a, eng_a = run_doc(air, default_id="clamp-air")
    t_out_a = _series(log_a, "plant.t_out:emulated")
    assert max(t_out_a) <= 65.0 + 1e-9
    assert t_out_a[-1] == pytest.approx(65.0, abs=1e-6)
    assert eng_a.counters["limitation_events"] > 0


def test_ac08_occupant_action_statistics():
    """AC8 occupant statistics: a 0.3 action probability over 10000 discomfort steps lands in [0.285, 0.315], probability 0 never acts, and equal seeds replay identical action logs"""
    fx = EffectConfig(**block("occupants.effects"))

    def action_log(prob, seed):
        agent = OccupantAgent(0, **agent_block(coords=[1.0, 1.0, 1.0],
                                               t_pref_c=22.0, deadband_c=1.0,
                                               action_probs={"drink": prob}))
        out = []
        for n in range(10_000):
            acts = behave(agent, 1.5, seed, n, n * 60.0, fx)
            out.append((n, tuple(acts)))
        return out

    log = action_log(0.3, 42)
    rate = sum(1 for _, acts in log if acts) / 10_000
    assert 0.285 <= rate <= 0.315

    quiet = action_log(0.0, 42)
    assert all(not acts for _, acts in quiet)

    assert action_log(0.3, 42) == log


def test_ac09_geb_paired_run_effects():
    """AC9 grid services: load shed strictly lowers the in-window cooling integral vs baseline, and load shift strictly raises the pre-window integral (pre-cooling)"""
    step = 60.0
    shed, _ = run_scenario("geb_shed", {})
    shed_base, _ = run_scenario("geb_shed", {"geb": {"windows": []}})
    ev = _cooling_integral(
        _window_steps(shed, "zone.load_sensible:simulated", 10800.0, 16200.0, step), step)
    ev_base = _cooling_integral(
        _window_steps(shed_base, "zone.load_sensible:simulated", 10800.0, 16200.0, step), step)
    assert ev < ev_base

    shift, _ = run_scenario("geb_shift", {})
    shift_base, _ = run_scenario("geb_shift", {"geb": {"windows": []}})
    pre = _cooling_integral(
        _window_steps(shift, "zone.load_sensible:simulated", 7200.0, 14400.0, step), step)
    pre_base = _cooling_integral(
        _window_steps(shift_base, "zone.load_sensible:simulated", 7200.0, 14400.0, step), step)
    assert pre > pre_base


def test_ac10_determinism_and_round_trip(tmp_path):
    """AC10 determinism: two fast runs with one seed export byte-identical CSVs, and export -> import -> export reproduces the file byte for byte"""
    log_a, _ = run_scenario("standard_dynamic", {"run": {"horizon": 60}})
    log_b, _ = run_scenario("standard_dynamic", {"run": {"horizon": 60}})
    pa = tmp_path / "a"
    pb = tmp_path / "b"
    export_run(log_a, str(pa))
    export_run(log_b, str(pb))
    bytes_a = (pa / "run.csv").read_bytes()
    assert bytes_a == (pb / "run.csv").read_bytes()

    again = import_run(str(pa / "run.csv"))
    pc = tmp_path / "c"
    export_run(again, str(pc))
    assert (pc / "run.csv").read_bytes() == bytes_a


def test_ac11_realtime_matches_fast():
    """AC11 realtime equivalence: a 20-step scenario paced in realtime (1 s steps) produces the same value columns as the fast run"""
    doc = {"run": {"horizon": 20, "step_size_s": 1.0, "seed": 4},
           "delays": {"comm_latency_s": 0.05, "jitter_s": 0.01},
           "building": {"internal_gains_w": [[0, 300.0], [7, 900.0], [14, 500.0]],
                        "weather": {"series": [[0, 28.0, 40.0], [10, 33.0, 50.0],
                                               [19, 27.0, 45.0]]}},
           "geb": {"mode": "shed",
                   "windows": [{"start_s": 5.0, "end_s": 15.0}]}}
    fast, _ = run_doc(dict(doc), default_id="rt-fast")
    rt_doc = dict(doc)
    rt_doc["run"] = dict(doc["run"], mode="realtime")
    slow, _ = run_doc(rt_doc, default_id="rt-paced")

    def columns(log):
        out = {}
        for key in log.keys:
            name = f"{key.name}:{key.source.value}"
            out[name] = series_from_log(log, name)
        return out

    cf = columns(fast)
    cs = columns(slow)
    assert set(cf) == set(cs)
    for name in cf:
        assert np.array_equal(np.asarray(cf[name]), np.asarray(cs[name])), name
