"""Moist-air property helpers.

Humidity is carried internally as humidity ratio (kg water / kg dry air);
relative humidity appears only at interfaces.  Saturation pressure uses the
Magnus correlation (Alduchov-Eskridge coefficients), which is within 0.1 % RH
of the reference formulations over the -40..60 degC range covered here.

The saturation curve's numbers have one home here: the Magnus coefficients
MAGNUS_A, MAGNUS_B and MAGNUS_C, the cap PW_CAP on vapor pressure as a
fraction of the total pressure ATM_PA, and the molecular weight ratio
MW_RATIO.  p_ws, w_sat, w_from_rh and rh_from_w read them, and so does the
substep loop of plant.PlantSim.advance, which computes w_sat inline in the
same operation order.
"""

import math

ATM_PA = 101325.0
CP_AIR = 1006.0       # J/(kg K), dry air at typical indoor conditions
H_FG = 2.45e6         # J/kg, latent heat of vaporization near 25 degC
# p_ws(t) = MAGNUS_A * exp(MAGNUS_B * t / (MAGNUS_C + t)) Pa, t in degC
MAGNUS_A, MAGNUS_B, MAGNUS_C = 610.94, 17.625, 243.04
PW_CAP = 0.99         # vapor pressure never exceeds this fraction of ATM_PA
MW_RATIO = 0.62198    # molecular weight ratio water/dry air


def p_ws(tdb_c: float) -> float:
    """Saturation vapor pressure in Pa over liquid water."""
    return MAGNUS_A * math.exp(MAGNUS_B * tdb_c / (MAGNUS_C + tdb_c))


def w_from_rh(tdb_c: float, rh_pct: float) -> float:
    """Humidity ratio from dry-bulb temperature and relative humidity."""
    pw = max(0.0, rh_pct) / 100.0 * p_ws(tdb_c)
    pw = min(pw, PW_CAP * ATM_PA)
    return MW_RATIO * pw / (ATM_PA - pw)


def rh_from_w(tdb_c: float, w: float) -> float:
    """Relative humidity (%) from dry-bulb and humidity ratio, clamped to [0, 100].

    The engine calls it three times a step, so p_ws is written out and the
    clamps are conditional expressions; each gives what max(0.0, x) and
    min(100.0, x) give, NaN included."""
    w = w if w > 0.0 else 0.0
    pw = w * ATM_PA / (MW_RATIO + w)
    rh = 100.0 * pw / (MAGNUS_A * math.exp(MAGNUS_B * tdb_c / (MAGNUS_C + tdb_c)))
    rh = rh if rh > 0.0 else 0.0
    return rh if rh < 100.0 else 100.0


def w_sat(tdb_c: float) -> float:
    """Humidity ratio at saturation for the given dry-bulb temperature.

    Same value as w_from_rh(tdb_c, 100.0), without the RH scaling."""
    pw = min(p_ws(tdb_c), PW_CAP * ATM_PA)
    return MW_RATIO * pw / (ATM_PA - pw)
