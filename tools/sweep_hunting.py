#!/usr/bin/env python3
"""Gain sweep used to pick the oscillation benchmark configuration.

Runs the light-emulator scenario across HVAC proportional gains and discharge
lag values, for both process-variable couplings, and reports the hunting
verdict for each cell.  The shipped h1_hunting.json freezes a cell that hunts
robustly under method1 (neighbors included) while method2 stays quiet.

The scenario starts the simulated zone at the proportional-droop fixed point
(T* such that kp*(spt - T*) balances envelope plus internal gains) and seeds
the discharge temperature at its matching equilibrium, so under method2 the
loop has nothing to do and the chamber trace is flat.  Under method1 the
chamber tracks the discharge stream almost one-to-one (its coils saturate),
which closes a per-step loop with gain 1 - kp/(m*cp) << -1 and sustains a
limit cycle.

Usage: python3 tools/sweep_hunting.py
"""

import sys

from flexbench.analysis import hunting_metric, series_from_log
from flexbench.orchestrator import Engine
from flexbench.psychro import CP_AIR
from flexbench.scenario import validate_scenario

KP_GRID = [8000.0, 10000.0, 12000.0, 14000.0, 16000.0]
TAU_GRID = [0.0, 1.0, 2.0, 5.0]

OUT = 33.0
GAINS = 3000.0
SPT = 24.0
# envelope conductance and supply-air capacity rate at their scenario defaults
_DEFAULTS = validate_scenario({})
UA = _DEFAULTS["building"]["ua_w_per_k"]
MCP = _DEFAULTS["plant"]["hvac"]["m_dot_kg_s"] * CP_AIR


def equilibrium(kp: float) -> tuple[float, float]:
    """(zone T*, discharge T*) of the proportional-droop fixed point: at T*
    the command kp*(SPT - T*) balances envelope plus internal gains, and the
    discharge temperature delivers that command at the default flow."""
    t_star = (SPT * kp + UA * OUT + GAINS) / (kp + UA)
    return t_star, t_star + kp * (SPT - t_star) / MCP


def trial(pv_mode: str, kp: float, tau_dis: float):
    t_star, t_dis_star = equilibrium(kp)
    doc = {
        "run": {"horizon": 60, "seed": 7},
        "plant": {
            "hvac": {"pv_mode": pv_mode, "kp_w_per_k": kp, "ki_w_per_k_s": 0.0,
                     "tau_dis_s": tau_dis, "t_dis_init_c": t_dis_star},
            "zone_emulator": {"c_emu_j_per_k": 2000.0, "heater_w_max": 1500.0,
                              "cooling_w_max": 1500.0},
        },
        "building": {"weather": {"constant": {"tdb_c": OUT, "rh_pct": 45.0}},
                     "internal_gains_w": GAINS, "t_init_c": t_star},
        "geb": {"baseline": {"t_cool_c": SPT, "t_heat_c": 20.0}},
    }
    log = Engine(validate_scenario(doc, default_id="sweep")).run()
    pv = series_from_log(log, "plant.t_zone_emu:emulated")
    sp = series_from_log(log, "plant.t_cool_spt:emulated")
    return hunting_metric(pv, sp, 60.0)


def main() -> int:
    print(f"{'kp_w_per_k':>10s} {'tau_dis_s':>9s}   "
          f"{'m1 ptp':>8s} {'m1 x':>5s} {'m1 hunt':>8s}   "
          f"{'m2 ptp':>8s} {'m2 x':>5s} {'m2 hunt':>8s}")
    for kp in KP_GRID:
        for tau in TAU_GRID:
            v1 = trial("method1", kp, tau)
            v2 = trial("method2", kp, tau)
            print(f"{kp:10.0f} {tau:9.1f}   "
                  f"{v1.peak_to_peak:8.3f} {v1.crossings:5d} {str(v1.is_hunting):>8s}   "
                  f"{v2.peak_to_peak:8.3f} {v2.crossings:5d} {str(v2.is_hunting):>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
