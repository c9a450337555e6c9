import math

import pytest

from flexbench.plant import (AppliedSetpoints, DischargeAir, HvacUnit,
                             OutdoorEmulator, PidController, PlantSim,
                             ZoneEmulator)
from flexbench.psychro import CP_AIR, w_from_rh, w_sat


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

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            PidController(1.0, out_min=1.0, out_max=1.0)


def emu_step(emu, target_t, target_w, air, dt):
    return emu.step(target_t, target_w, air.t_c, air.w, air.m_dot_kg_s, dt,
                    *emu.decay(air.m_dot_kg_s, dt))


class TestZoneEmulator:
    def test_integrator_mode_heater_clamped(self):
        # No airflow: pure integrator.  Coil pegged at 500 W for 60 s into
        # 5000 J/K moves the node by exactly 6 K.
        emu = ZoneEmulator(c_emu_j_per_k=5000.0, heater_w_max=500.0,
                           cooling_w_max=500.0, kp_w_per_k=800.0,
                           ki_w_per_k_s=0.0, t_init_c=22.0)
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
            return ZoneEmulator(c_emu_j_per_k=40000.0, kp_w_per_k=0.0,
                                ki_w_per_k_s=0.0, hum_kp=0.0, hum_ki=0.0,
                                t_init_c=28.0)
        air = DischargeAir(16.0, w_from_rh(16.0, 60.0), 0.4)
        one = fresh()
        emu_step(one, 28.0, one.w, air, 600.0)
        many = fresh()
        for _ in range(600):
            emu_step(many, 28.0, many.w, air, 1.0)
        assert one.t == pytest.approx(many.t, abs=1e-9)
        assert one.w == pytest.approx(many.w, abs=1e-12)

    def test_moisture_never_negative(self):
        emu = ZoneEmulator(hum_kp=0.0, hum_ki=0.0, kp_w_per_k=0.0,
                           ki_w_per_k_s=0.0, t_init_c=24.0, rh_init_pct=40.0)
        dry = DischargeAir(24.0, 0.0, 1.0)
        last = emu.w
        for _ in range(200):
            emu_step(emu, 24.0, 0.0, dry, 60.0)
            assert 0.0 <= emu.w <= last
            last = emu.w

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ZoneEmulator(c_emu_j_per_k=0.0)


def hv_step(hv, pv_t, pv_w, cool_spt, heat_spt, dt, dis_spt=None):
    return hv.step(pv_t, pv_w, cool_spt, heat_spt, dt, *hv.decay(dt), dis_spt)


class TestHvacUnit:
    def test_cooling_command_from_proportional_loop(self):
        hv = HvacUnit(m_dot_kg_s=0.5, kp_w_per_k=400.0, ki_w_per_k_s=0.0,
                      tau_dis_s=0.0, t_dis_init_c=20.0)
        q, _ = hv_step(hv, 26.0, 0.008, 24.0, 20.0, 60.0)
        assert q == pytest.approx(-800.0)
        assert hv.t_dis == pytest.approx(26.0 - 800.0 / (0.5 * CP_AIR))

    def test_deadband_bleeds_integral(self):
        hv = HvacUnit(ki_w_per_k_s=2.0, tau_dis_s=0.0, bleed_tau_s=100.0)
        hv.pid.integral = 10.0
        q, _ = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 100.0)
        assert hv.pid.integral == pytest.approx(10.0 / math.e)
        # remaining command is just the decaying integral term
        assert q == pytest.approx(2.0 * 10.0 / math.e)

    def test_discharge_override_and_clamp(self):
        hv = HvacUnit(tau_dis_s=0.0)
        _, clamped = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=14.0)
        assert hv.t_dis == 14.0 and not clamped
        _, clamped = hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=5.0)
        assert hv.t_dis == 8.0 and clamped

    def test_discharge_lag_first_order(self):
        hv = HvacUnit(tau_dis_s=120.0, t_dis_init_c=20.0)
        hv_step(hv, 23.0, 0.008, 24.0, 20.0, 60.0, dis_spt=14.0)
        assert hv.t_dis == pytest.approx(14.0 + 6.0 * math.exp(-0.5))

    def test_stale_input_holds_everything(self):
        hv = HvacUnit(tau_dis_s=0.0, t_dis_init_c=19.0)
        before = (hv.t_dis, hv.w_dis, hv.pid.integral)
        # a held step reports no command and no clamp
        assert hv_step(hv, float("nan"), 0.008, 24.0, 20.0, 60.0) == (0.0, False)
        assert hv.stale_holds == 1
        assert (hv.t_dis, hv.w_dis, hv.pid.integral) == before

    def test_discharge_never_supersaturated(self):
        hv = HvacUnit(tau_dis_s=0.0)
        for pv in (30.0, 26.0, 22.0, 18.0):
            hv_step(hv, pv, 0.02, 24.0, 20.0, 60.0)
            assert hv.w_dis <= w_sat(hv.t_dis) + 1e-15

    def test_bad_pv_mode(self):
        with pytest.raises(ValueError):
            HvacUnit(pv_mode="method3")


class TestOutdoorEmulator:
    def test_water_loop_floor(self):
        out = OutdoorEmulator(kind="water", tau_s=0.0, t_init_c=15.0)
        events = out.step(5.0, 0.0, out.decay(60.0))
        assert out.t == 10.0
        assert [(e.channel, e.requested, e.delivered) for e in events] == [
            ("water_t", 5.0, 10.0)]

    def test_air_chamber_ceiling_and_rh_floor(self):
        out = OutdoorEmulator(kind="air", tau_s=0.0, t_init_c=30.0,
                              rh_init_pct=50.0)
        events = out.step(70.0, 5.0, out.decay(60.0))
        assert out.t == 65.0 and out.rh == 10.0
        assert {e.channel for e in events} == {"air_t", "air_rh"}

    def test_first_order_tracking(self):
        out = OutdoorEmulator(kind="air", tau_s=300.0, t_init_c=20.0)
        out.step(30.0, 50.0, out.decay(300.0))
        assert out.t == pytest.approx(30.0 - 10.0 / math.e)

    def test_initial_value_clamped_to_envelope(self):
        assert OutdoorEmulator(kind="water", t_init_c=2.0).t == 10.0

    def test_custom_envelope_override(self):
        out = OutdoorEmulator(kind="water", tau_s=0.0, t_init_c=15.0,
                              envelope={"t_min": 4.0})
        assert out.step(5.0, 0.0, out.decay(60.0)) == []
        assert out.t == 5.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OutdoorEmulator(kind="soil")


def default_plant(pv_mode="method2", **kw):
    hvac = HvacUnit(pv_mode=pv_mode, tau_dis_s=0.0, ki_w_per_k_s=0.0)
    emu = ZoneEmulator(t_init_c=kw.pop("emu_t", 23.0))
    out = OutdoorEmulator(kind="air", tau_s=0.0, t_init_c=30.0)
    applied = AppliedSetpoints(zone_t=23.0, zone_w=w_from_rh(23.0, 45.0),
                               out_t=30.0, out_rh=50.0,
                               cool_spt=24.0, heat_spt=20.0)
    return PlantSim(hvac, emu, out, applied, **kw)


class TestPlantSim:
    def test_measure_echoes_applied_setpoints(self):
        plant = default_plant()
        m = plant.measure()
        assert m["t_zone_spt"] == 23.0
        assert m["t_cool_spt"] == 24.0
        assert m["t_heat_spt"] == 20.0
        assert m["t_out_spt"] == 30.0
        assert m["load_sensible"] == pytest.approx(
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
        plant.applied = AppliedSetpoints(23.0, 0.008, 80.0, 50.0, 24.0, 20.0)
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


def lagged_plant(pv_mode, **applied):
    """A plant whose every loop carries state across substeps: discharge lag,
    integrating HVAC and emulator PIDs, a tracking outdoor chamber."""
    hvac = HvacUnit(pv_mode=pv_mode, tau_dis_s=120.0, ki_w_per_k_s=2.0,
                    bleed_tau_s=300.0, t_dis_init_c=18.0)
    emu = ZoneEmulator(t_init_c=27.0, rh_init_pct=40.0)
    out = OutdoorEmulator(kind="air", tau_s=300.0, t_init_c=64.5, rh_init_pct=10.5)
    sp = dict(zone_t=25.5, zone_w=w_from_rh(25.5, 55.0), out_t=70.0, out_rh=5.0,
              cool_spt=24.0, heat_spt=20.0)
    sp.update(applied)
    return PlantSim(hvac, emu, out, AppliedSetpoints(**sp), control_dt_s=1.0)


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
        assert air.rh_pct == plant.measure()["rh_dis"]
