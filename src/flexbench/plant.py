"""Simulated hardware plant: PID loops, zone emulator, HVAC unit, outdoor emulator.

The plant stands in for the laboratory side of the testbed.  It tracks the
setpoints received from the software side (always the previous step's
simulated results), runs its local control loops at a finer internal rate, and
integrates each air-node energy balance with the exact zero-order-hold
exponential update so trajectories are independent of substep choice for
constant inputs.

Humidity is carried as humidity ratio end to end; relative humidity appears
only in measure() and, for the occupants, in DischargeAir.rh_pct.  Decay
factors depend only on the substep, so advance() computes them once per call
and hands them to each component's step().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .psychro import CP_AIR, H_FG, rh_from_w, w_from_rh, w_sat


@dataclass
class DischargeAir:
    """Supply air delivered by the HVAC unit: dry bulb, humidity ratio, flow.

    Humidity travels as w end to end, so the zone consumes it unchanged.  RH
    exists only for the occupants: rh_pct is derived on first read and kept,
    so one exchange step converts at most once."""

    t_c: float
    w: float
    m_dot_kg_s: float

    @cached_property
    def rh_pct(self) -> float:
        return rh_from_w(self.t_c, self.w)


class PidController:
    """Positional PID with clamped output and conditional anti-windup.

    Integration halts while the output is saturated in the direction of the
    error, and the stored integral is additionally bounded so its contribution
    can never exceed the output span.  The derivative acts on the measurement,
    not the error, so setpoint steps do not kick the output.  Non-finite
    inputs hold the last command and raise the fault flag.
    """

    def __init__(self, kp: float, ki: float = 0.0, kd: float = 0.0,
                 out_min: float = 0.0, out_max: float = 1.0):
        if not (out_max > out_min):
            raise ValueError("out_max must exceed out_min")
        self.kp, self.ki, self.kd = kp, ki, kd
        self.out_min, self.out_max = out_min, out_max
        self.integral = 0.0
        self.last_pv: float | None = None
        self.last_command = min(max(0.0, out_min), out_max)
        self.fault = False

    def reset(self) -> None:
        self.integral = 0.0
        self.last_pv = None
        self.fault = False

    def step(self, setpoint: float, pv: float, dt: float) -> float:
        if not (math.isfinite(setpoint) and math.isfinite(pv) and dt > 0):
            self.fault = True
            return self.last_command
        self.fault = False
        error = setpoint - pv

        saturated_hi = self.last_command >= self.out_max and error > 0
        saturated_lo = self.last_command <= self.out_min and error < 0
        if self.ki != 0.0 and not (saturated_hi or saturated_lo):
            self.integral += error * dt
            span = (self.out_max - self.out_min) / abs(self.ki)
            self.integral = min(max(self.integral, -span), span)

        d = 0.0
        if self.kd != 0.0 and self.last_pv is not None:
            d = -self.kd * (pv - self.last_pv) / dt
        self.last_pv = pv

        u = self.kp * error + self.ki * self.integral + d
        self.last_command = min(max(u, self.out_min), self.out_max)
        return self.last_command

    def bleed(self, factor: float) -> None:
        # Capacity release inside a control deadband: decay the integral by
        # exp(-dt/tau) so a raised setpoint actually sheds output instead of
        # freezing it.
        self.integral *= factor


class ZoneEmulator:
    """Air node with heater/cooling coils and humidifier tracking a zone target.

    The energy balance c_emu * dT/dt = q_coil + m_dot*cp*(t_dis - T) is
    integrated exactly for piecewise-constant inputs; decay() gives the
    thermal and moisture factors of one substep.
    """

    def __init__(self, c_emu_j_per_k: float = 50000.0, air_mass_kg: float = 60.0,
                 heater_w_max: float = 5000.0, cooling_w_max: float = 5000.0,
                 humidifier_kg_s_max: float = 0.002,
                 kp_w_per_k: float = 800.0, ki_w_per_k_s: float = 4.0,
                 kd_w_s_per_k: float = 0.0,
                 hum_kp: float = 0.05, hum_ki: float = 0.002,
                 t_init_c: float = 22.0, rh_init_pct: float = 50.0):
        if not (c_emu_j_per_k > 0) or not (air_mass_kg > 0):
            raise ValueError("thermal and moisture capacitances must be positive")
        self.c = c_emu_j_per_k
        self.m_air = air_mass_kg
        self.t = t_init_c
        self.w = w_from_rh(t_init_c, rh_init_pct)
        self.coil_pid = PidController(kp_w_per_k, ki_w_per_k_s, kd_w_s_per_k,
                                      out_min=-cooling_w_max, out_max=heater_w_max)
        self.hum_pid = PidController(hum_kp, hum_ki, 0.0,
                                     out_min=0.0, out_max=humidifier_kg_s_max)

    @property
    def rh(self) -> float:
        return rh_from_w(self.t, self.w)

    def decay(self, m: float, dt: float) -> tuple[float, float]:
        """Thermal and moisture decay factors of one dt-long substep at flow m."""
        if not m > 0:
            return 1.0, 1.0  # pure integrator: step() does not use them
        return math.exp(-dt / (self.c / (m * CP_AIR))), math.exp(-m * dt / self.m_air)

    def step(self, target_t: float, target_w: float, t_dis: float, w_dis: float,
             m: float, dt: float, k_t: float, k_w: float) -> tuple[float, float]:
        """Advance one substep under discharge (t_dis, w_dis, m) with the
        factors decay(m, dt).  Returns the coil power (W, heating positive)
        and the humidifier flow (kg/s)."""
        q = self.coil_pid.step(target_t, self.t, dt)
        u_hum = self.hum_pid.step(target_w, self.w, dt)
        if m > 0:
            t_eq = t_dis + q / (m * CP_AIR)
            self.t = t_eq + (self.t - t_eq) * k_t
            w_eq = w_dis + u_hum / m
            self.w = w_eq + (self.w - w_eq) * k_w
        else:
            self.t = self.t + q * dt / self.c
            self.w = self.w + u_hum * dt / self.m_air
        self.w = max(0.0, self.w)
        return q, u_hum


class HvacUnit:
    """Single-coil air handler: a capacity PID raises or lowers discharge air.

    pv_mode selects the controlled variable: "method1" closes the loop on the
    emulated zone temperature (fast, coupled through the hardware), "method2"
    on the simulated zone temperature (held constant within each exchange
    interval, which decouples the loop from emulator dynamics).
    """

    PV_MODES = ("method1", "method2")

    def __init__(self, m_dot_kg_s: float = 0.5, rated_cooling_w: float = 8000.0,
                 rated_heating_w: float = 6000.0, kp_w_per_k: float = 400.0,
                 ki_w_per_k_s: float = 2.0, tau_dis_s: float = 120.0,
                 t_dis_min_c: float = 8.0, t_dis_max_c: float = 45.0,
                 pv_mode: str = "method2", t_dis_init_c: float = 20.0,
                 rh_dis_init_pct: float = 60.0, bleed_tau_s: float = 300.0):
        if pv_mode not in self.PV_MODES:
            raise ValueError(f"pv_mode must be one of {self.PV_MODES}")
        self.m_dot = m_dot_kg_s
        self.rated_cooling = rated_cooling_w
        self.rated_heating = rated_heating_w
        self.tau_dis = tau_dis_s
        self.t_dis_min, self.t_dis_max = t_dis_min_c, t_dis_max_c
        self.pv_mode = pv_mode
        self.bleed_tau = bleed_tau_s
        self.t_dis = t_dis_init_c
        self.w_dis = w_from_rh(t_dis_init_c, rh_dis_init_pct)
        # The PID tracks a synthetic deadband error (see step); kd stays 0.
        self.pid = PidController(kp_w_per_k, ki_w_per_k_s, 0.0,
                                 out_min=-rated_cooling_w, out_max=rated_heating_w)
        self.stale_holds = 0

    @property
    def rh_dis(self) -> float:
        return rh_from_w(self.t_dis, self.w_dis)

    def discharge(self) -> DischargeAir:
        return DischargeAir(self.t_dis, self.w_dis, self.m_dot)

    def decay(self, dt: float) -> tuple[float, float]:
        """Discharge-lag and deadband-bleed factors of one dt-long substep."""
        return (math.exp(-dt / self.tau_dis) if self.tau_dis > 0 else 0.0,
                math.exp(-dt / self.bleed_tau) if self.bleed_tau > 0 else 1.0)

    def step(self, pv_t: float, pv_w: float, cool_spt: float, heat_spt: float,
             dt: float, k_dis: float, k_bleed: float,
             dis_spt: float | None = None) -> tuple[float, bool]:
        """One control substep with the factors decay(dt).  Returns the
        capacity command (W) and whether the discharge target was clamped."""
        if not (math.isfinite(pv_t) and math.isfinite(pv_w)):
            # Software outage in method2: hold the last discharge condition.
            self.stale_holds += 1
            return 0.0, False

        if pv_t > cool_spt:
            err = cool_spt - pv_t          # negative -> cooling
        elif pv_t < heat_spt:
            err = heat_spt - pv_t          # positive -> heating
        else:
            err = 0.0
            self.pid.bleed(k_bleed)
        q = self.pid.step(err, 0.0, dt)

        if dis_spt is not None:
            target = dis_spt
        elif self.m_dot > 0:
            target = pv_t + q / (self.m_dot * CP_AIR)
        else:
            target = pv_t
        clamped = min(max(target, self.t_dis_min), self.t_dis_max)

        if self.tau_dis > 0:
            self.t_dis = clamped + (self.t_dis - clamped) * k_dis
            w_target = min(pv_w, w_sat(clamped))
            self.w_dis = min(w_target + (self.w_dis - w_target) * k_dis,
                             w_sat(self.t_dis))
        else:
            # t_dis == clamped, so the target is already below saturation.
            self.t_dis = clamped
            self.w_dis = min(pv_w, w_sat(clamped))
        return q, clamped != target


@dataclass
class LimitationEvent:
    """Envelope clamp on the outdoor emulator: requested target vs delivered."""

    channel: str
    requested: float
    delivered: float


class OutdoorEmulator:
    """First-order chamber (air) or loop (water) tracking an outdoor target.

    The tracked value follows value <- target + (value - target)*exp(-dt/tau)
    and is then clamped to the physical envelope; every clamp is reported as a
    limitation event rather than silently absorbed.
    """

    ENVELOPES = {
        "air": {"t_min": -12.0, "t_max": 65.0, "rh_min": 10.0, "rh_max": 100.0},
        "water": {"t_min": 10.0, "t_max": 55.0},
    }

    def __init__(self, kind: str = "air", tau_s: float = 300.0,
                 t_init_c: float = 15.0, rh_init_pct: float = 50.0,
                 envelope: dict | None = None):
        if kind not in self.ENVELOPES:
            raise ValueError(f"kind must be one of {tuple(self.ENVELOPES)}")
        self.kind = kind
        self.tau = tau_s
        self.env = dict(self.ENVELOPES[kind])
        if envelope:
            self.env.update(envelope)
        self.t = min(max(t_init_c, self.env["t_min"]), self.env["t_max"])
        self.rh = rh_init_pct if kind == "air" else 0.0

    def decay(self, dt: float) -> float:
        """Tracking factor exp(-dt/tau) of one dt-long substep."""
        return math.exp(-dt / self.tau) if self.tau > 0 else 0.0

    def _track(self, value: float, target: float, k: float) -> float:
        if self.tau <= 0:
            return target
        return target + (value - target) * k

    def step(self, target_t: float, target_rh: float, k: float) -> list[LimitationEvent]:
        """Track the targets over one substep with the factor decay(dt)."""
        events = []
        raw_t = self._track(self.t, target_t, k)
        self.t = min(max(raw_t, self.env["t_min"]), self.env["t_max"])
        if self.t != raw_t:
            events.append(LimitationEvent(f"{self.kind}_t", raw_t, self.t))
        if self.kind == "air":
            raw_rh = self._track(self.rh, target_rh, k)
            self.rh = min(max(raw_rh, self.env["rh_min"]), self.env["rh_max"])
            if self.rh != raw_rh:
                events.append(LimitationEvent("air_rh", raw_rh, self.rh))
        return events


@dataclass
class AppliedSetpoints:
    """Targets the plant is currently tracking (set at the previous actuation)."""

    zone_t: float
    zone_w: float
    out_t: float
    out_rh: float
    cool_spt: float
    heat_spt: float
    dis_spt: float | None = None
    p_duct_spt: float | None = None


class PlantSim:
    """The full simulated hardware side for one exchange step.

    Life cycle per step: measure() publishes the state produced by the last
    actuation, apply() stores the freshly received setpoints, advance()
    integrates the interior loops over one exchange interval at the internal
    control rate.
    """

    def __init__(self, hvac: HvacUnit, emulator: ZoneEmulator,
                 outdoor: OutdoorEmulator, applied: AppliedSetpoints,
                 control_dt_s: float = 1.0, ideal_actuators: bool = False):
        self.hvac = hvac
        self.emulator = emulator
        self.outdoor = outdoor
        self.applied = applied
        self.control_dt = control_dt_s
        self.ideal = ideal_actuators
        if ideal_actuators:
            self.hvac.tau_dis = 0.0
            self.outdoor.tau = 0.0
        self.limitation_events: list[LimitationEvent] = []
        self.clamp_count = 0
        self.stale_count = 0
        # Emulator coil/humidifier output and HVAC command of the last substep.
        self.last_q_heater = self.last_q_cooling = self.last_m_hum = 0.0
        self.last_q_cmd = 0.0

    def measure(self) -> dict[str, float]:
        """Plant measurements at the top of the step (response to the previous
        step's simulated results)."""
        emu, hv, out, sp = self.emulator, self.hvac, self.outdoor, self.applied
        m = {
            "t_dis": hv.t_dis,
            "rh_dis": hv.rh_dis,
            "m_dot": hv.m_dot,
            "t_zone_emu": emu.t,
            "rh_zone_emu": emu.rh,
            "t_out": out.t,
            "load_sensible": hv.m_dot * CP_AIR * (emu.t - hv.t_dis),
            "load_latent": hv.m_dot * H_FG * (emu.w - hv.w_dis),
            "q_heater": self.last_q_heater,
            "q_cooling": self.last_q_cooling,
            "m_humidifier": self.last_m_hum,
            "q_hvac": self.last_q_cmd,
            # Setpoints in effect while this state developed.
            "t_zone_spt": sp.zone_t,
            "rh_zone_spt": rh_from_w(sp.zone_t, sp.zone_w),
            "t_out_spt": sp.out_t,
            "t_cool_spt": sp.cool_spt,
            "t_heat_spt": sp.heat_spt,
        }
        if out.kind == "air":
            m["rh_out"] = out.rh
        return m

    def apply(self, setpoints: AppliedSetpoints | None) -> bool:
        """Adopt freshly received setpoints; None means hold the last ones
        (overrun or stale exchange).  Returns True when values were applied."""
        if setpoints is None:
            self.stale_count += 1
            return False
        self.applied = setpoints
        return True

    def advance(self, dt: float) -> None:
        sp, hvac, emu, out = self.applied, self.hvac, self.emulator, self.outdoor
        events = self.limitation_events
        if self.ideal:
            emu.t = sp.zone_t
            emu.w = sp.zone_w
            hvac.t_dis = min(max(sp.zone_t, hvac.t_dis_min), hvac.t_dis_max)
            hvac.w_dis = min(sp.zone_w, w_sat(hvac.t_dis))
            events.extend(out.step(sp.out_t, sp.out_rh, out.decay(dt)))
            return
        n = max(1, math.ceil(dt / self.control_dt - 1e-9))
        sub = dt / n
        k_dis, k_bleed = hvac.decay(sub)
        m = hvac.m_dot
        k_t, k_w = emu.decay(m, sub)
        k_out = out.decay(sub)
        method1 = hvac.pv_mode == "method1"
        pv_t, pv_w = sp.zone_t, sp.zone_w
        for _ in range(n):
            if method1:
                pv_t, pv_w = emu.t, emu.w
            q_cmd, clamped = hvac.step(pv_t, pv_w, sp.cool_spt, sp.heat_spt, sub,
                                       k_dis, k_bleed, sp.dis_spt)
            self.clamp_count += clamped
            q_coil, m_hum = emu.step(sp.zone_t, sp.zone_w, hvac.t_dis, hvac.w_dis,
                                     m, sub, k_t, k_w)
            events.extend(out.step(sp.out_t, sp.out_rh, k_out))
        self.last_q_cmd = q_cmd
        self.last_q_heater = max(q_coil, 0.0)
        self.last_q_cooling = max(-q_coil, 0.0)
        self.last_m_hum = m_hum

    def drain_events(self) -> list[LimitationEvent]:
        ev, self.limitation_events = self.limitation_events, []
        return ev
