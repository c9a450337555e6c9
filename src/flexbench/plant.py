"""Simulated hardware plant: PID loops, zone emulator, HVAC unit, outdoor emulator.

The plant stands in for the laboratory side of the testbed.  It tracks the
setpoints received from the software side (always the previous step's
simulated results), runs its local control loops at a finer internal rate, and
integrates each air-node energy balance with the exact zero-order-hold
exponential update so trajectories are independent of substep choice for
constant inputs.

Humidity is carried as humidity ratio end to end; relative humidity appears
only in measure(), which returns the uplink's values as one tuple in the
order of UPLINK.

PlantSim.advance() is the production integrator: one loop over local
variables that performs, substep by substep, the operations of HvacUnit.step,
ZoneEmulator.step and OutdoorEmulator.step (with their PidController.step
calls) in the same order.  Those step() methods are the tested reference that
advance() must reproduce bit for bit; a change to one is a change to both.
Only the coil PID keeps a derivative term in the loop: the capacity and
humidifier PIDs are always built with kd = 0.
The loop computes the saturation curve psychro.w_sat inline, from psychro's
constants and in its operation order, so a substep calls no flexbench
function: only math.exp, math.isfinite and, per envelope clamp, the
LimitationEvent constructor remain.

Each value of advance() is computed at the rate its inputs change: per run
(the plan of a dt), per advance (the finiteness of the applied zone
targets), per change of the clamped discharge target (its w_sat) or per
substep.  advance() documents each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .psychro import (ATM_PA, CP_AIR, H_FG, MAGNUS_A, MAGNUS_B, MAGNUS_C,
                      MW_RATIO, PW_CAP, rh_from_w, w_from_rh, w_sat)

# The plant uplink: (name, unit, plant internal) of each value measure()
# returns, in its order.  Plant internals are logged only with
# logging.plant_internals, and plant.rh_out only for an air chamber (a water
# loop reports its rh of 0.0 there, which is never logged).
UPLINK = (
    ("plant.t_dis", "C", False),
    ("plant.rh_dis", "%", False),
    ("plant.m_dot", "kg/s", False),
    ("plant.t_zone_emu", "C", False),
    ("plant.rh_zone_emu", "%", False),
    ("plant.t_out", "C", False),
    ("plant.rh_out", "%", False),
    ("plant.load_sensible", "W", False),
    ("plant.load_latent", "W", False),
    ("plant.q_heater", "W", True),
    ("plant.q_cooling", "W", True),
    ("plant.m_humidifier", "kg/s", True),
    ("plant.q_hvac", "W", True),
    ("plant.t_zone_spt", "C", False),
    ("plant.rh_zone_spt", "%", False),
    ("plant.t_out_spt", "C", False),
    ("plant.t_cool_spt", "C", False),
    ("plant.t_heat_spt", "C", False),
)


class DischargeAir(NamedTuple):
    """Supply air delivered by the HVAC unit: dry bulb, humidity ratio, flow.

    Humidity travels as w end to end, so the zone consumes it unchanged; its
    RH is derived only in measure()."""

    t_c: float
    w: float
    m_dot_kg_s: float


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
        self.kp, self.ki, self.kd = kp, ki, kd
        self.out_min, self.out_max = out_min, out_max
        self.integral = 0.0
        self.last_pv: float | None = None
        self.last_command = min(max(0.0, out_min), out_max)
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

    def __init__(self, c_emu_j_per_k: float, air_mass_kg: float,
                 heater_w_max: float, cooling_w_max: float,
                 humidifier_kg_s_max: float, kp_w_per_k: float,
                 ki_w_per_k_s: float, kd_w_s_per_k: float, hum_kp: float,
                 hum_ki: float, t_init_c: float, rh_init_pct: float):
        self.c = c_emu_j_per_k
        self.m_air = air_mass_kg
        self.t = t_init_c
        self.w = w_from_rh(t_init_c, rh_init_pct)
        self.coil_pid = PidController(kp_w_per_k, ki_w_per_k_s, kd_w_s_per_k,
                                      out_min=-cooling_w_max, out_max=heater_w_max)
        self.hum_pid = PidController(hum_kp, hum_ki, 0.0,
                                     out_min=0.0, out_max=humidifier_kg_s_max)

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

    def __init__(self, m_dot_kg_s: float, rated_cooling_w: float,
                 rated_heating_w: float, kp_w_per_k: float, ki_w_per_k_s: float,
                 tau_dis_s: float, t_dis_min_c: float, t_dis_max_c: float,
                 pv_mode: str, t_dis_init_c: float, rh_dis_init_pct: float,
                 bleed_tau_s: float):
        self.m_dot = m_dot_kg_s
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

    def __init__(self, kind: str, tau_s: float, t_init_c: float,
                 rh_init_pct: float):
        self.kind = kind
        self.tau = tau_s
        self.env = self.ENVELOPES[kind]
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


class AppliedSetpoints(NamedTuple):
    """Targets the plant is currently tracking (set at the previous actuation).
    zone_rh is the RH of (zone_t, zone_w) that the zone model computed with
    them; the plant only reports it."""

    zone_t: float
    zone_w: float
    zone_rh: float
    out_t: float
    out_rh: float
    cool_spt: float
    heat_spt: float
    dis_spt: float | None = None


def _pid_plan(pid: PidController) -> tuple:
    """(kp, ki, kd, out_min, out_max, span) of a PID, span being the bound of
    its anti-windup integral as PidController.step computes it."""
    span = (pid.out_max - pid.out_min) / abs(pid.ki) if pid.ki != 0.0 else 0.0
    return pid.kp, pid.ki, pid.kd, pid.out_min, pid.out_max, span


class PlantSim:
    """The full simulated hardware side for one exchange step.

    Life cycle per step: measure() publishes the state produced by the last
    actuation, apply() stores the freshly received setpoints, advance()
    integrates the interior loops over one exchange interval at the internal
    control rate.
    """

    def __init__(self, hvac: HvacUnit, emulator: ZoneEmulator,
                 outdoor: OutdoorEmulator, applied: AppliedSetpoints,
                 control_dt_s: float, ideal_actuators: bool):
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
        # The plan of the last advance's dt (see _plan)
        self._per_dt: tuple | None = None
        # (clamped discharge target, its w_sat) of the last substep
        self._sat = (math.nan, math.nan)

    def measure(self) -> tuple[float, ...]:
        """Plant measurements at the top of the step (response to the previous
        step's simulated results), in the order of UPLINK."""
        hv, emu, out, sp = self.hvac, self.emulator, self.outdoor, self.applied
        t_dis, w_dis, m = hv.t_dis, hv.w_dis, hv.m_dot
        emu_t, emu_w = emu.t, emu.w
        return (t_dis, rh_from_w(t_dis, w_dis), m, emu_t, rh_from_w(emu_t, emu_w),
                out.t, out.rh, m * CP_AIR * (emu_t - t_dis),
                m * H_FG * (emu_w - w_dis),
                self.last_q_heater, self.last_q_cooling, self.last_m_hum,
                self.last_q_cmd,
                # Setpoints in effect while this state developed.
                sp.zone_t, sp.zone_rh, sp.out_t, sp.cool_spt, sp.heat_spt)

    def apply(self, setpoints: AppliedSetpoints | None) -> bool:
        """Adopt freshly received setpoints; None means hold the last ones
        (overrun or stale exchange).  Returns True when values were applied."""
        if setpoints is None:
            self.stale_count += 1
            return False
        self.applied = setpoints
        return True

    def _plan(self, dt: float) -> tuple:
        """Everything a non-ideal advance(dt) reads that depends only on dt
        and the components' parameters, which are fixed once the plant is
        built: dt, the substep count n and the substep, the five decay
        factors, the mode and flow flags, the discharge and envelope limits,
        the outdoor t channel's name and the three PIDs' _pid_plan."""
        hvac, emu, out = self.hvac, self.emulator, self.outdoor
        n = max(1, math.ceil(dt / self.control_dt - 1e-9))
        sub = dt / n
        m = hvac.m_dot
        env = out.env
        air = out.kind == "air"
        return (dt, n, sub, *hvac.decay(sub), *emu.decay(m, sub), out.decay(sub),
                hvac.pv_mode == "method1", sub > 0, m, m > 0, m * CP_AIR,
                hvac.tau_dis > 0, hvac.t_dis_min, hvac.t_dis_max, emu.c,
                emu.m_air, out.tau > 0, air, env["t_min"], env["t_max"],
                *((env["rh_min"], env["rh_max"]) if air else (0.0, 0.0)),
                f"{out.kind}_t", *_pid_plan(hvac.pid), *_pid_plan(emu.coil_pid),
                *_pid_plan(emu.hum_pid))

    def advance(self, dt: float) -> None:
        """Integrate the plant over one dt-long exchange interval.

        Without ideal actuators the interval is split into n equal substeps
        of at most control_dt.  n, the substep, its decay factors and every
        other per-run constant depend only on dt and the components'
        parameters, so they are planned once per dt (_plan) and reused until
        an advance brings another dt.  Each substep then does, in this
        order, exactly what these reference calls would do:

        1. HvacUnit.step: pv from the emulator (method1) or the applied zone
           target (method2); a non-finite pv holds everything and counts a
           stale hold; otherwise the deadband error (bleeding the integral
           inside the band), the capacity PidController.step, the discharge
           target and its clamp (counted in clamp_count), and the discharge
           lag capped at saturation;
        2. ZoneEmulator.step on the new discharge: the coil PID, then the
           humidifier PID, both on the emulator state before this substep,
           then the exact air-node update and the w >= 0 floor;
        3. OutdoorEmulator.step: track and clamp t, then rh for an air
           chamber, appending one LimitationEvent per clamp in that order.

        The finiteness of the applied zone targets is worked out once per
        advance.  w_sat of the clamped discharge target is recomputed only
        when that target changes, and the last (target, w_sat) pair is kept
        across advances.

        Component state is read into locals once and written back at the
        end.  The capacity and humidifier PIDs have kd = 0: their derivative
        term is the constant + 0.0, which turns a -0.0 sum into 0.0 as
        step() does, and their last_pv is still written back.  w_sat is
        computed inline (psychro's constants, its operation order and its
        cap at PW_CAP * ATM_PA, NaN passing through), so the only calls left
        in a substep are math.exp, math.isfinite and one LimitationEvent per
        envelope clamp.  tests/test_plant.py pins the equivalence bit for
        bit.
        """
        hvac, emu, out = self.hvac, self.emulator, self.outdoor
        events = self.limitation_events
        if self.ideal:
            sp = self.applied
            emu.t = sp.zone_t
            emu.w = sp.zone_w
            hvac.t_dis = min(max(sp.zone_t, hvac.t_dis_min), hvac.t_dis_max)
            hvac.w_dis = min(sp.zone_w, w_sat(hvac.t_dis))
            events.extend(out.step(sp.out_t, sp.out_rh, out.decay(dt)))
            return
        per_dt = self._per_dt
        if per_dt is None or per_dt[0] != dt:
            per_dt = self._per_dt = self._plan(dt)
        (_, n, sub, k_dis, k_bleed, k_t, k_w, k_out, method1, dt_ok, m, flow,
         mcp, lag, dis_lo, dis_hi, c_emu, m_air, tracked, air, o_tlo, o_thi,
         o_rhlo, o_rhhi, channel_t, h_kp, h_ki, _, h_lo, h_hi, h_span,
         c_kp, c_ki, c_kd, c_lo, c_hi, c_span,
         m_kp, m_ki, _, m_lo, m_hi, m_span) = per_dt
        zone_t, zone_w, _, out_t_spt, out_rh_spt, cool, heat, dis_spt = self.applied
        isfinite, exp = math.isfinite, math.exp
        sat_a, sat_b, sat_c = MAGNUS_A, MAGNUS_B, MAGNUS_C
        atm, pw_max, mw_ratio = ATM_PA, PW_CAP * ATM_PA, MW_RATIO
        # Per advance: the zone targets feed the coil and humidifier PIDs.
        coil_ok = isfinite(zone_t) and dt_ok
        hum_ok = isfinite(zone_w) and dt_ok
        pv_t, pv_w = zone_t, zone_w

        hp, cp, mp = hvac.pid, emu.coil_pid, emu.hum_pid
        h_i, h_pv, h_u, h_fault = hp.integral, hp.last_pv, hp.last_command, hp.fault
        c_i, c_pv, c_u, c_fault = cp.integral, cp.last_pv, cp.last_command, cp.fault
        m_i, m_pv, m_u, m_fault = mp.integral, mp.last_pv, mp.last_command, mp.fault
        t_dis, w_dis, stale = hvac.t_dis, hvac.w_dis, hvac.stale_holds
        emu_t, emu_w = emu.t, emu.w
        o_t, o_rh = out.t, out.rh
        clamps = self.clamp_count
        sat_t, sat_w = self._sat
        # min(max(x, lo), hi) is written "x = lo if lo > x else x;
        # x = hi if hi < x else x", which matches it for every x, NaN included.
        for _ in range(n):
            # 1. HvacUnit.step
            if method1:
                pv_t, pv_w = emu_t, emu_w
            if not (isfinite(pv_t) and isfinite(pv_w)):
                stale += 1
                q_cmd = 0.0
            else:
                if pv_t > cool:
                    err = cool - pv_t
                elif pv_t < heat:
                    err = heat - pv_t
                else:
                    err = 0.0
                    h_i *= k_bleed
                # hvac.pid.step(err, 0.0, sub); err - 0.0 is err.
                if isfinite(err) and dt_ok:
                    h_fault = False
                    if h_ki != 0.0 and not (h_u >= h_hi and err > 0
                                            or h_u <= h_lo and err < 0):
                        h_i += err * sub
                        h_i = -h_span if -h_span > h_i else h_i
                        h_i = h_span if h_span < h_i else h_i
                    h_pv = 0.0
                    u = h_kp * err + h_ki * h_i + 0.0
                    u = h_lo if h_lo > u else u
                    h_u = h_hi if h_hi < u else u
                else:
                    h_fault = True
                q_cmd = h_u

                if dis_spt is not None:
                    target = dis_spt
                elif flow:
                    target = pv_t + q_cmd / mcp
                else:
                    target = pv_t
                clamped = dis_lo if dis_lo > target else target
                clamped = dis_hi if dis_hi < clamped else clamped
                if clamped != target:
                    clamps += 1
                # w_sat(clamped), kept while clamped stays equal (w_sat(-0.0)
                # is w_sat(0.0); NaN is never equal, so it is recomputed)
                if clamped != sat_t:
                    pw = sat_a * exp(sat_b * clamped / (sat_c + clamped))
                    pw = pw_max if pw_max < pw else pw
                    sat_t, sat_w = clamped, mw_ratio * pw / (atm - pw)
                # min(pv_w, w_sat(clamped))
                w_target = sat_w if sat_w < pv_w else pv_w
                if lag:
                    t_dis = clamped + (t_dis - clamped) * k_dis
                    w_dis = w_target + (w_dis - w_target) * k_dis
                    # w_sat(t_dis)
                    pw = sat_a * exp(sat_b * t_dis / (sat_c + t_dis))
                    pw = pw_max if pw_max < pw else pw
                    w_cap = mw_ratio * pw / (atm - pw)
                    w_dis = w_cap if w_cap < w_dis else w_dis
                else:
                    t_dis = clamped
                    w_dis = w_target

            # 2. ZoneEmulator.step: coil_pid.step(zone_t, emu_t, sub) ...
            if coil_ok and isfinite(emu_t):
                c_fault = False
                err = zone_t - emu_t
                if c_ki != 0.0 and not (c_u >= c_hi and err > 0
                                        or c_u <= c_lo and err < 0):
                    c_i += err * sub
                    c_i = -c_span if -c_span > c_i else c_i
                    c_i = c_span if c_span < c_i else c_i
                d = 0.0
                if c_kd != 0.0 and c_pv is not None:
                    d = -c_kd * (emu_t - c_pv) / sub
                c_pv = emu_t
                u = c_kp * err + c_ki * c_i + d
                u = c_lo if c_lo > u else u
                c_u = c_hi if c_hi < u else u
            else:
                c_fault = True
            # ... then hum_pid.step(zone_w, emu_w, sub)
            if hum_ok and isfinite(emu_w):
                m_fault = False
                err = zone_w - emu_w
                if m_ki != 0.0 and not (m_u >= m_hi and err > 0
                                        or m_u <= m_lo and err < 0):
                    m_i += err * sub
                    m_i = -m_span if -m_span > m_i else m_i
                    m_i = m_span if m_span < m_i else m_i
                m_pv = emu_w
                u = m_kp * err + m_ki * m_i + 0.0
                u = m_lo if m_lo > u else u
                m_u = m_hi if m_hi < u else u
            else:
                m_fault = True
            if flow:
                t_eq = t_dis + c_u / mcp
                emu_t = t_eq + (emu_t - t_eq) * k_t
                w_eq = w_dis + m_u / m
                emu_w = w_eq + (emu_w - w_eq) * k_w
            else:
                emu_t = emu_t + c_u * sub / c_emu
                emu_w = emu_w + m_u * sub / m_air
            emu_w = emu_w if emu_w > 0.0 else 0.0

            # 3. OutdoorEmulator.step
            raw = out_t_spt + (o_t - out_t_spt) * k_out if tracked else out_t_spt
            o_t = o_tlo if o_tlo > raw else raw
            o_t = o_thi if o_thi < o_t else o_t
            if o_t != raw:
                events.append(LimitationEvent(channel_t, raw, o_t))
            if air:
                raw = (out_rh_spt + (o_rh - out_rh_spt) * k_out if tracked
                       else out_rh_spt)
                o_rh = o_rhlo if o_rhlo > raw else raw
                o_rh = o_rhhi if o_rhhi < o_rh else o_rh
                if o_rh != raw:
                    events.append(LimitationEvent("air_rh", raw, o_rh))

        hvac.t_dis, hvac.w_dis, hvac.stale_holds = t_dis, w_dis, stale
        hp.integral, hp.last_pv, hp.last_command, hp.fault = h_i, h_pv, h_u, h_fault
        cp.integral, cp.last_pv, cp.last_command, cp.fault = c_i, c_pv, c_u, c_fault
        mp.integral, mp.last_pv, mp.last_command, mp.fault = m_i, m_pv, m_u, m_fault
        emu.t, emu.w = emu_t, emu_w
        out.t, out.rh = o_t, o_rh
        self.clamp_count = clamps
        self._sat = sat_t, sat_w
        self.last_q_cmd = q_cmd
        # max(c_u, 0.0) and max(-c_u, 0.0), NaN included
        self.last_q_heater = 0.0 if 0.0 > c_u else c_u
        self.last_q_cooling = 0.0 if 0.0 > -c_u else -c_u
        self.last_m_hum = m_u

    def drain_events(self) -> list[LimitationEvent]:
        ev, self.limitation_events = self.limitation_events, []
        return ev
