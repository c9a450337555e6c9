"""Moist-air property helpers.

Humidity is carried internally as humidity ratio (kg water / kg dry air);
relative humidity appears only at interfaces.  Saturation pressure uses the
Magnus correlation (Alduchov-Eskridge coefficients), which is within 0.1 % RH
of the reference formulations over the -40..60 degC range covered here.
"""

import math

ATM_PA = 101325.0
CP_AIR = 1006.0       # J/(kg K), dry air at typical indoor conditions
H_FG = 2.45e6         # J/kg, latent heat of vaporization near 25 degC
_RATIO = 0.62198      # molecular weight ratio water/dry air


def p_ws(tdb_c: float) -> float:
    """Saturation vapor pressure in Pa over liquid water."""
    return 610.94 * math.exp(17.625 * tdb_c / (243.04 + tdb_c))


def w_from_rh(tdb_c: float, rh_pct: float, p_pa: float = ATM_PA) -> float:
    """Humidity ratio from dry-bulb temperature and relative humidity."""
    pw = max(0.0, rh_pct) / 100.0 * p_ws(tdb_c)
    pw = min(pw, 0.99 * p_pa)
    return _RATIO * pw / (p_pa - pw)


def rh_from_w(tdb_c: float, w: float, p_pa: float = ATM_PA) -> float:
    """Relative humidity (%) from dry-bulb and humidity ratio, clamped to [0, 100]."""
    w = max(0.0, w)
    pw = w * p_pa / (_RATIO + w)
    rh = 100.0 * pw / p_ws(tdb_c)
    return min(100.0, max(0.0, rh))


def w_sat(tdb_c: float, p_pa: float = ATM_PA) -> float:
    """Humidity ratio at saturation for the given dry-bulb temperature.

    Same value as w_from_rh(tdb_c, 100.0, p_pa), without the RH scaling."""
    pw = min(p_ws(tdb_c), 0.99 * p_pa)
    return _RATIO * pw / (p_pa - pw)
