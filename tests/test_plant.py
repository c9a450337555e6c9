import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from flexbench.plant import (UPLINK, AppliedSetpoints, DischargeAir, HvacUnit,
                             OutdoorEmulator, PidController, PlantSim,
                             ZoneEmulator)
from flexbench.psychro import (ATM_PA, CP_AIR, PW_CAP, p_ws, rh_from_w,
                              w_from_rh, w_sat)
from tests.helpers import block


class TestPid:
    def test_pure_proportional(self):
        pid = PidController(kp=5.0, out_min=0.0, out_max=10.0)
        assert pid.step(21.0, 20.0, 1.0) == 5.0

    def test_pi_accumulates(self):
        pid = PidController(kp=2.0, ki=0.25, out_min=0.0, out_max=10.0)
        assert pid.step(1.0, 0.0, 1.0) == pytest.approx(2.25)
        assert pid.step(1.0, 0.0, 1.0) == pytest.approx(2.5)

    def test_integration_stops_while_saturated(self):
        pid = PidController(kp=1.0, ki=1.0, out_min=0.0, out_max=1.0)
        assert pid.step(5.0, 0.0, 1.0) == 1.0
        # span clamp already capped the integral at (max-min)/ki = 1
        assert pid.integral == 1.0
        pid.step(5.0, 0.0, 1.0)
        assert pid.integral == 1.0  # frozen: output pegged high, error positive
        # error flips sign: integration resumes immediately
        pid.step(-5.0, 0.0, 1.0)
        assert pid.integral == -1.0

    def test_derivative_acts_on_measurement(self):
        pid = PidController(kp=0.0, kd=2.0, out_min=-10.0, out_max=10.0)
        assert pid.step(0.0, 0.0, 1.0) == 0.0  # no history yet
        assert pid.step(0.0, 2.0, 1.0) == pytest.approx(-4.0)

    def test_setpoint_step_does_not_kick(self):
        pid = PidController(kp=0.0, kd=2.0, out_min=-10.0, out_max=10.0)
        pid.step(0.0, 1.0, 1.0)
        assert pid.step(10.0, 1.0, 1.0) == 0.0

    def test_non_finite_input_holds_and_flags(self):
        pid = PidController(kp=1.0, out_min=0.0, out_max=10.0)
        pid.step(5.0, 0.0, 1.0)
        held = pid.step(float("nan"), 0.0, 1.0)
        assert held == 5.0 and pid.fault
        pid.step(3.0, 0.0, 1.0)
        assert not pid.fault

    def test_bleed_decays_integral(self):
        pid = PidController(kp=1.0, ki=0.5, out_min=0.0, out_max=100.0)
        pid.integral = 4.0
        pid.bleed(math.exp(-300.0 / 300.0))
        assert pid.integral == pytest.approx(4.0 / math.e)

    def test_initial_command_sits_inside_limits(self):
        assert PidController(1.0, out_min=-5.0, out_max=5.0).last_command == 0.0
        assert PidController(1.0, out_min=2.0, out_max=5.0).last_command == 2.0


def emu_step(emu, target_t, target_w, air, dt):
    return emu.step(target_t, target_w, air.t_c, air.w, air.m_dot_kg_s, dt,
                    *emu.decay(air.m_dot_kg_s, dt))


class TestZoneEmulator:
    def test_integrator_mode_heater_clamped(self):
        # No airflow: pure integrator.  Coil pegged at 500 W for 60 s into
        # 5000 J/K moves the node by exactly 6 K.
        emu = ZoneEmulator(**block("plant.zone_emulator", c_emu_j_per_k=5000.0,
                                   heater_w_max=500.0, cooling_w_max=500.0,
                                   kp_w_per_k=800.0, ki_w_per_k_s=0.0,
                                   t_init_c=22.0))
        q, _ = emu_step(emu, 40.0, emu.w,
                        DischargeAir(20.0, w_from_rh(20.0, 50.0), 0.0), 60.0)
        assert emu.t == 28.0
        # heating only, pegged at the heater limit
        assert q == 500.0

    def test_exponential_update_is_substep_invariant(self):
        # Zero-gain PID keeps the coil silent, so the node relaxes toward the
        # discharge temperature.  Exact integration means one 600 s step and
        # 600 one-second steps land on the same temperature.
        def fresh():
            return ZoneEmulator(**block("plant.zone_emulator",
                                        c_emu_j_per_k=40000.0, kp_w_per_k=0.0,
                                        ki_w_per_k_s=0.0, hum_kp=0.0, hum_ki=0.0,
                                        t_init_c=28.0))
        air = DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.4)
        one = fresh()
        emu_step(one, 28.0, one.w, air, 600.0)
        many = fresh()
        for _ in range(600):
            emu_step(many, 28.0, many.w, air, 1.0)
        assert one.t == pytest.approx(many.t, abs=1e-9)
        assert one.w == pytest.approx(many.w, abs=1e-12)

    def test_moisture_never_negative(self):
        emu = ZoneEmulator(**block("plant.zone_emulator", hum_kp=0.0, hum_ki=0.0,
                                   kp_w_per_k=0.0, ki_w_per_k_s=0.0,
                                   t_init_c=24.0, rh_init_pct=40.0))
        dry = DischargeAir(24.0, 0.0, 1.0)
        last = emu.w
        for _ in range(200):
            emu_step(emu, 24.0, 0.0, dry, 60.0)
            assert 0.0 <= emu.w <= last
            last = emu.w


def hv_step(hv, pv_t, pv_w, cool_spt, heat_spt, dt, dis_spt=None):
    return hv.step(pv_t, pv_w, cool_spt, heat_spt, dt, *hv.decay(dt), dis_spt)


class TestHvacUnit:
    def test_cooling_command_from_proportional_loop(self):
        hv = HvacUnit(**block("plant.hvac", m_dot_kg_s=0.5, kp_w_per_k=400.0,
                              ki_w_per_k_s=0.0, tau_dis_s=0.0, t_dis_init_c=20.0))
        q, _ = hv_step(hv, 26.0, 0.008, 24.0, 20.0, 60.0)
        assert q == pytest.approx(-800.0)
        assert hv.t_dis == pytest.approx(26.0 - 800.0 / (0.5 * CP_AIR))

    def test_deadband_bleeds_integral(self):
        hv = HvacUnit(**block("plant.hvac", ki_w_per_k_s=2.0, tau_dis_s=0.0,
                              bleed_tau_s=100.0))
        hv.pid.integral = 10.0
        q, _ = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 100.0)
        assert hv.pid.integral == pytest.approx(10.0 / math.e)
        # remaining command is just the decaying integral term
        assert q == pytest.approx(2.0 * 10.0 / math.e)

    def test_discharge_override_and_clamp(self):
        hv = HvacUnit(**block("plant.hvac", tau_dis_s=0.0))
        _, clamped = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=14.0)
        assert hv.t_dis == 14.0 and not clamped
        _, clamped = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=5.0)
        assert hv.t_dis == 8.0 and clamped

    def test_discharge_lag_first_order(self):
        hv = HvacUnit(**block("plant.hvac", tau_dis_s=120.0, t_dis_init_c=20.0))
        hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=14.0)
        assert hv.t_dis == pytest.approx(14.0 + 6.0 * math.exp(-0.5))

    def test_stale_input_holds_everything(self):
        hv = HvacUnit(**block("plant.hvac", tau_dis_s=0.0, t_dis_init_c=19.0))
        before = (hv.t_dis, hv.w_dis, hv.pid.integral)
        # a held step reports no command and no clamp
        assert hv_step(hv, float("nan"), 0.008, 24.0, 20.0, 60.0) == (0.0, False)
        assert hv.stale_holds == 1
        assert (hv.t_dis, hv.w_dis, hv.pid.integral) == before

    def test_discharge_never_supersaturated(self):
        hv = HvacUnit(**block("plant.hvac", tau_dis_s=0.0))
        for pv in (30.0, 26.0, 22.0, 18.0):
            hv_step(hv, pv, 0.02, 24.0, 20.0, 60.0)
            assert hv.w_dis <= w_sat(hv.t_dis) + 1e-15


class TestOutdoorEmulator:
    def test_water_loop_floor(self):
        out = OutdoorEmulator(**block("plant.outdoor", kind="water", tau_s=0.0,
                                      t_init_c=15.0))
        events = out.step(5.0, 0.0, out.decay(60.0))
        assert out.t == 10.0
        assert [(e.channel, e.requested, e.delivered) for e in events] == [
            ("water_t", 5.0, 10.0)]

    def test_air_chamber_ceiling_and_rh_floor(self):
        out = OutdoorEmulator(**block("plant.outdoor", kind="air", tau_s=0.0,
                                      t_init_c=30.0, rh_init_pct=50.0))
        events = out.step(70.0, 5.0, out.decay(60.0))
        assert out.t == 65.0 and out.rh == 10.0
        assert {e.channel for e in events} == {"air_t", "air_rh"}

    def test_first_order_tracking(self):
        out = OutdoorEmulator(**block("plant.outdoor", kind="air", tau_s=300.0,
                                      t_init_c=20.0))
        out.step(30.0, 50.0, out.decay(300.0))
        assert out.t == pytest.approx(30.0 - 10.0 / math.e)

    def test_initial_value_clamped_to_envelope(self):
        out = OutdoorEmulator(**block("plant.outdoor", kind="water", t_init_c=2.0))
        assert out.t == 10.0


def default_plant(pv_mode="method2", emu_t=23.0, **overrides):
    """PlantSim with plant-level overrides (control_dt_s, ideal_actuators)."""
    hvac = HvacUnit(**block("plant.hvac", pv_mode=pv_mode, tau_dis_s=0.0,
                            ki_w_per_k_s=0.0))
    emu = ZoneEmulator(**block("plant.zone_emulator", t_init_c=emu_t))
    out = OutdoorEmulator(**block("plant.outdoor", kind="air", tau_s=0.0,
                                  t_init_c=30.0))
    w = w_from_rh(23.0, 45.0)
    applied = AppliedSetpoints(zone_t=23.0, zone_w=w, zone_rh=rh_from_w(23.0, w),
                               out_t=30.0, out_rh=50.0,
                               cool_spt=24.0, heat_spt=20.0)
    p = block("plant", **overrides)
    return PlantSim(hvac, emu, out, applied, p["control_dt_s"],
                    p["ideal_actuators"])


class TestPlantSim:
    def test_measure_echoes_applied_setpoints(self):
        plant = default_plant()
        values = plant.measure()
        assert len(values) == len(UPLINK)
        m = {name: v for (name, _, _), v in zip(UPLINK, values)}
        assert m["plant.t_zone_spt"] == 23.0
        assert m["plant.t_cool_spt"] == 24.0
        assert m["plant.t_heat_spt"] == 20.0
        assert m["plant.t_out_spt"] == 30.0
        assert m["plant.load_sensible"] == pytest.approx(
            plant.hvac.m_dot * CP_AIR * (plant.emulator.t - plant.hvac.t_dis))

    def test_apply_none_counts_stale_and_holds(self):
        plant = default_plant()
        kept = plant.applied
        assert plant.apply(None) is False
        assert plant.stale_count == 1 and plant.applied is kept

    def test_pv_mode_selects_feedback_source(self):
        # Emulator is hot (30 C) but the applied simulated zone sits in the
        # deadband.  Closing on the hardware (method1) must call for cooling;
        # closing on the held simulation (method2) must stay quiet.
        m1 = default_plant(pv_mode="method1", emu_t=30.0)
        m1.advance(60.0)
        assert m1.last_q_cmd < 0.0
        m2 = default_plant(pv_mode="method2", emu_t=30.0)
        m2.advance(60.0)
        assert m2.last_q_cmd == 0.0

    def test_ideal_actuators_snap_to_targets(self):
        plant = default_plant(ideal_actuators=True)
        plant.advance(60.0)
        assert plant.emulator.t == 23.0
        assert plant.hvac.t_dis == 23.0
        assert plant.outdoor.t == 30.0

    def test_drain_events_clears(self):
        plant = default_plant()
        plant.applied = AppliedSetpoints(23.0, 0.008, rh_from_w(23.0, 0.008),
                                         80.0, 50.0, 24.0, 20.0)
        plant.advance(60.0)
        assert plant.drain_events()
        assert plant.drain_events() == []

    def test_substep_count_respects_control_rate(self):
        plant = default_plant(control_dt_s=1.0, pv_mode="method1", emu_t=30.0)
        plant.advance(60.0)
        coarse = default_plant(control_dt_s=60.0, pv_mode="method1", emu_t=30.0)
        coarse.advance(60.0)
        # Both settle toward the deadband but the fine loop reacts within the
        # interval; the trajectories must differ.
        assert plant.emulator.t != coarse.emulator.t


def applied_setpoints(sp: dict) -> AppliedSetpoints:
    """AppliedSetpoints from keyword values, with the zone RH that the zone
    model computes from zone_t and zone_w."""
    return AppliedSetpoints(zone_rh=rh_from_w(sp["zone_t"], sp["zone_w"]), **sp)


def lagged_plant(pv_mode, **applied):
    """A plant whose every loop carries state across substeps: discharge lag,
    integrating HVAC and emulator PIDs, a tracking outdoor chamber."""
    hvac = HvacUnit(**block("plant.hvac", pv_mode=pv_mode, tau_dis_s=120.0,
                            ki_w_per_k_s=2.0, bleed_tau_s=300.0,
                            t_dis_init_c=18.0))
    emu = ZoneEmulator(**block("plant.zone_emulator", t_init_c=27.0, rh_init_pct=40.0))
    out = OutdoorEmulator(**block("plant.outdoor", kind="air", tau_s=300.0,
                                  t_init_c=64.5, rh_init_pct=10.5))
    sp = dict(zone_t=25.5, zone_w=w_from_rh(25.5, 55.0), out_t=70.0, out_rh=5.0,
              cool_spt=24.0, heat_spt=20.0)
    sp.update(applied)
    return PlantSim(hvac, emu, out, applied_setpoints(sp),
                    control_dt_s=1.0, ideal_actuators=False)


class TestHoistedSubsteps:
    """Per-advance decay factors change nothing: one 60 s advance at a 1 s
    control rate equals sixty 1 s advances, bit for bit."""

    @staticmethod
    def state(plant):
        return (plant.hvac.t_dis, plant.hvac.w_dis, plant.emulator.t,
                plant.emulator.w, plant.outdoor.t, plant.outdoor.rh,
                plant.clamp_count, len(plant.limitation_events),
                plant.last_q_cmd, plant.last_q_heater, plant.last_q_cooling,
                plant.last_m_hum, plant.hvac.stale_holds)

    @pytest.mark.parametrize("pv_mode", ["method1", "method2"])
    @pytest.mark.parametrize("applied", [
        {},
        {"dis_spt": 5.0},                                     # clamped discharge
        {"zone_t": float("nan"), "zone_w": float("nan")},     # stale hold
    ], ids=["free", "clamped", "stale"])
    def test_one_advance_equals_sixty(self, pv_mode, applied):
        one = lagged_plant(pv_mode, **applied)
        one.advance(60.0)
        many = lagged_plant(pv_mode, **applied)
        for _ in range(60):
            many.advance(1.0)
        assert self.state(one) == self.state(many)
        assert one.limitation_events  # the chamber hit its envelope
        if "dis_spt" in applied:
            assert one.clamp_count == 60
        if pv_mode == "method2" and math.isnan(applied.get("zone_t", 0.0)):
            assert one.hvac.stale_holds == 60 and one.last_q_cmd == 0.0

    def test_discharge_carries_humidity_ratio(self):
        plant = lagged_plant("method1")
        plant.advance(60.0)
        air = plant.hvac.discharge()
        assert (air.t_c, air.w, air.m_dot_kg_s) == (
            plant.hvac.t_dis, plant.hvac.w_dis, plant.hvac.m_dot)


def reference_advance(plant, dt):
    """PlantSim.advance for a non-ideal plant as the per-substep composition
    of the component step() methods it fuses."""
    sp, hvac, emu, out = plant.applied, plant.hvac, plant.emulator, plant.outdoor
    n = max(1, math.ceil(dt / plant.control_dt - 1e-9))
    sub = dt / n
    k_dis, k_bleed = hvac.decay(sub)
    m = hvac.m_dot
    k_t, k_w = emu.decay(m, sub)
    k_out = out.decay(sub)
    pv_t, pv_w = sp.zone_t, sp.zone_w
    for _ in range(n):
        if hvac.pv_mode == "method1":
            pv_t, pv_w = emu.t, emu.w
        q_cmd, clamped = hvac.step(pv_t, pv_w, sp.cool_spt, sp.heat_spt, sub,
                                   k_dis, k_bleed, sp.dis_spt)
        plant.clamp_count += clamped
        q_coil, m_hum = emu.step(sp.zone_t, sp.zone_w, hvac.t_dis, hvac.w_dis,
                                 m, sub, k_t, k_w)
        plant.limitation_events.extend(out.step(sp.out_t, sp.out_rh, k_out))
    plant.last_q_cmd = q_cmd
    plant.last_q_heater = max(q_coil, 0.0)
    plant.last_q_cooling = max(-q_coil, 0.0)
    plant.last_m_hum = m_hum


def _bits(x):
    """Floats compared bit for bit (signed zeros and NaN included)."""
    return struct.pack("<d", x) if isinstance(x, float) else x


def full_state(plant):
    hvac, emu, out = plant.hvac, plant.emulator, plant.outdoor
    values = [hvac.t_dis, hvac.w_dis, hvac.stale_holds, emu.t, emu.w, out.t,
              out.rh, plant.clamp_count, plant.last_q_cmd, plant.last_q_heater,
              plant.last_q_cooling, plant.last_m_hum]
    for pid in (hvac.pid, emu.coil_pid, emu.hum_pid):
        values += [pid.integral, pid.last_pv, pid.last_command, pid.fault]
    for ev in plant.limitation_events:
        values += [ev.channel, ev.requested, ev.delivered]
    return [_bits(v) for v in values]


def varied_plant(pv_mode, hvac=(), emulator=(), outdoor=(), applied=(),
                 emu_w=None):
    hv = HvacUnit(**block("plant.hvac", **{"pv_mode": pv_mode,
                                           "t_dis_init_c": 18.0, **dict(hvac)}))
    emu = ZoneEmulator(**block("plant.zone_emulator", **{
        "t_init_c": 27.0, "rh_init_pct": 40.0, **dict(emulator)}))
    out = OutdoorEmulator(**block("plant.outdoor", **{
        "t_init_c": 60.0, "rh_init_pct": 12.0, **dict(outdoor)}))
    sp = dict(zone_t=25.5, zone_w=w_from_rh(25.5, 55.0), out_t=70.0,
              out_rh=5.0, cool_spt=24.0, heat_spt=20.0)
    sp.update(applied)
    if emu_w is not None:
        emu.w = emu_w
    return PlantSim(hv, emu, out, applied_setpoints(sp),
                    control_dt_s=1.0, ideal_actuators=False)


class TestFusedAdvance:
    """The fused PlantSim.advance reproduces the component step() methods bit
    for bit: every state field, all three PIDs, the counters and every
    limitation event, after each of several consecutive advances."""

    CASES = {
        "lagged": {},
        "no_lag": {"hvac": {"tau_dis_s": 0.0}},
        "no_flow": {"hvac": {"m_dot_kg_s": 0.0}},
        "no_flow_no_lag": {"hvac": {"m_dot_kg_s": 0.0, "tau_dis_s": 0.0}},
        "water": {"outdoor": {"kind": "water", "t_init_c": 50.0}},
        # a tracked -0.0 would come out as +0.0
        "outdoor_snaps": {"outdoor": {"tau_s": 0.0}, "applied": {"out_t": -0.0}},
        "water_snaps": {"outdoor": {"kind": "water", "tau_s": 0.0}},
        "coil_kd": {"emulator": {"kd_w_s_per_k": 5000.0}},
        "dis_inside": {"applied": {"dis_spt": 14.0}},
        # the lagged discharge cools from saturation: capped at w_sat(t_dis)
        "dis_below": {"applied": {"dis_spt": 5.0},
                      "hvac": {"rh_dis_init_pct": 100.0}},
        "dis_above": {"applied": {"dis_spt": 50.0}, "hvac": {"tau_dis_s": 0.0}},
        "deadband_bleed": {"applied": {"zone_t": 22.0}},
        "heating": {"applied": {"zone_t": 17.0, "zone_w": 0.004}},
        "stale_zone": {"applied": {"zone_t": math.nan, "zone_w": math.nan}},
        # integrals that reach their anti-windup bound, one sign per case
        "windup_a": {"hvac": {"ki_w_per_k_s": 2e4},
                     "emulator": {"ki_w_per_k_s": 1e4, "hum_ki": 1.0},
                     "applied": {"zone_t": 30.0, "zone_w": 0.002}},
        "windup_b": {"hvac": {"ki_w_per_k_s": 2e4},
                     "emulator": {"ki_w_per_k_s": 1e4, "hum_ki": 1.0},
                     "applied": {"zone_t": 17.0, "zone_w": 0.015}},
        "capacity_fault": {"applied": {"cool_spt": -math.inf}},
        "dry_floor": {"hvac": {"m_dot_kg_s": 0.0}, "emu_w": -1e-3},
        # a humid zone: the cooling discharge is capped at w_sat(clamped) and,
        # starting saturated, also at w_sat(t_dis), over a moving target
        "humid_zone": {"applied": {"zone_w": 0.02}},
        "humid_zone_saturated": {"applied": {"zone_w": 0.02},
                                 "hvac": {"rh_dis_init_pct": 100.0}},
        "humid_zone_no_lag": {"applied": {"zone_w": 0.02}, "hvac": {"tau_dis_s": 0.0}},
        # a NaN discharge passes the inline cap as it passes min(); a zone_w
        # above the capped w_sat (about 61.6) shows which operand won
        "nan_discharge": {"applied": {"dis_spt": math.nan, "zone_w": 100.0}},
        # a discharge above about 100 degC, where p_ws reaches the PW_CAP cap
        "saturation_cap": {"hvac": {"t_dis_max_c": 160.0},
                           "applied": {"dis_spt": 150.0}},
        "saturation_cap_no_lag": {"hvac": {"t_dis_max_c": 160.0, "tau_dis_s": 0.0},
                                  "applied": {"dis_spt": 150.0}},
    }

    @pytest.mark.parametrize("pv_mode", ["method1", "method2"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_component_steps(self, pv_mode, case):
        fused = varied_plant(pv_mode, **case)
        ref = varied_plant(pv_mode, **case)
        assert full_state(fused) == full_state(ref)
        for dt in (60.0, 60.0, 45.0, 1.5, 600.0):
            fused.advance(dt)
            reference_advance(ref, dt)
            assert full_state(fused) == full_state(ref)

    def test_only_the_coil_pid_has_a_derivative(self):
        # advance() has no derivative term for the capacity and humidifier
        # PIDs: giving either a kd must fail here first
        for case in self.CASES.values():
            plant = varied_plant("method1", **case)
            assert plant.hvac.pid.kd == 0.0 and plant.emulator.hum_pid.kd == 0.0
        assert varied_plant("method1", **self.CASES["coil_kd"]).emulator.coil_pid.kd > 0

    def test_cases_reach_every_branch(self):
        def run(pv_mode, case):
            plant = varied_plant(pv_mode, **self.CASES[case])
            for dt in (60.0, 60.0, 45.0, 1.5, 600.0):
                plant.advance(dt)
            return plant

        assert run("method2", "stale_zone").hvac.stale_holds > 0
        assert run("method1", "stale_zone").emulator.coil_pid.fault
        plant = run("method2", "dis_below")
        assert plant.clamp_count > 0
        assert plant.hvac.w_dis == w_sat(plant.hvac.t_dis)
        assert run("method2", "capacity_fault").hvac.pid.fault
        for case in ("saturation_cap", "saturation_cap_no_lag"):
            assert p_ws(run("method2", case).hvac.t_dis) > PW_CAP * ATM_PA
        for case in ("humid_zone", "humid_zone_saturated", "humid_zone_no_lag"):
            assert run("method2", case).hvac.w_dis < 0.02
        plant = run("method2", "nan_discharge")
        assert math.isnan(plant.hvac.t_dis) and plant.hvac.w_dis > w_sat(150.0)
        assert run("method2", "dis_inside").clamp_count == 0
        assert {ev.channel for ev in run("method2", "lagged").limitation_events} == {
            "air_t", "air_rh"}
        assert {ev.channel for ev in run("method2", "water").limitation_events} == {
            "water_t"}
        plant = varied_plant("method1", **self.CASES["deadband_bleed"])
        plant.advance(600.0)
        assert 20.0 < plant.emulator.t < 24.0 and plant.last_q_cmd != 0.0
        held = plant.hvac.pid.integral
        plant.advance(60.0)
        assert abs(plant.hvac.pid.integral) < abs(held)  # bled in the deadband


# Targets for the property test: the discharge limits are [8, 45] degC, the
# air chamber's envelope [-12, 65] degC and [10, 100] %, the water loop's
# [10, 55] degC.  Outdoor targets beyond them make every substep clamp, so
# events repeat; a zero of either sign must keep its sign in the event.
_ZONE_T = st.sampled_from([25.5, 22.0, 17.0, math.nan])  # 22.0: the deadband
_ZONE_W = st.sampled_from([w_from_rh(25.5, 55.0), 0.004, 0.02, math.nan])
_DIS_SPT = st.one_of(st.none(), st.floats(8.0, 45.0),
                     st.sampled_from([5.0, 60.0, math.nan]))
_OUT_T = st.sampled_from([0.0, -0.0, 5.0, 30.0, 70.0, -20.0, math.nan])
_OUT_RH = st.sampled_from([0.0, -0.0, 5.0, 50.0, 120.0])


@st.composite
def _applied(draw):
    # a cooling setpoint of -inf leaves the capacity PID a non-finite error
    return dict(zone_t=draw(_ZONE_T), zone_w=draw(_ZONE_W), out_t=draw(_OUT_T),
                out_rh=draw(_OUT_RH),
                cool_spt=draw(st.sampled_from([24.0, -math.inf])), heat_spt=20.0,
                dis_spt=draw(_DIS_SPT))


@st.composite
def _fused_case(draw):
    """A plant, its first setpoints and the (dt, next setpoints or None to
    keep them) of each advance: one of 60 s, then 1 s ones."""
    kind = draw(st.sampled_from(["air", "water"]))
    plant = dict(
        hvac={"m_dot_kg_s": draw(st.sampled_from([0.0, 0.5])),
              "tau_dis_s": draw(st.sampled_from([0.0, 120.0])),
              # 0: the deadband bleeds an integral that stays zero
              "ki_w_per_k_s": draw(st.sampled_from([0.0, 2.0]))},
        emulator={"kd_w_s_per_k": draw(st.sampled_from([0.0, 5000.0]))},
        outdoor={"kind": kind, "tau_s": draw(st.sampled_from([0.0, 300.0])),
                 "t_init_c": 50.0 if kind == "water" else 60.0},
        applied=draw(_applied()))
    later = draw(st.lists(st.one_of(st.none(), _applied()), min_size=1, max_size=4))
    return plant, [(60.0, None)] + [(1.0, sp) for sp in later]


class TestFusedAdvanceProperty:
    """Over drawn plants and setpoint sequences, the fused advance matches
    the component step() methods bit for bit: state, PIDs, counters and
    every event field, signed zeros included, across consecutive advances
    that carry the w_sat memo from one to the next."""

    @settings(max_examples=150, deadline=None)
    @given(pv_mode=st.sampled_from(["method1", "method2"]), case=_fused_case())
    def test_matches_reference_advance(self, pv_mode, case):
        plant, advances = case
        fused = varied_plant(pv_mode, **plant)
        ref = varied_plant(pv_mode, **plant)
        for dt, sp in advances:
            if sp is not None:
                fused.apply(applied_setpoints(sp))
                ref.apply(applied_setpoints(sp))
            fused.advance(dt)
            reference_advance(ref, dt)
            assert full_state(fused) == full_state(ref)
            assert fused.clamp_count == ref.clamp_count
