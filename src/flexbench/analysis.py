"""Integration-quality metrics for coupled hardware/software runs.

Shift convention used throughout: rmse_shift pairs a[t] with b[t + shift], so
a NEGATIVE shift compares the current sample of `a` against the PREVIOUS
sample of `b`.  The plant always responds one step behind the software side,
so comparing an emulated trace (a) to its simulated counterpart (b) aligns at
shift -1.  Sign errors here invert conclusions; the tests pin this down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datastore import RunLog, Source


class AnalysisError(Exception):
    """Analysis protocol violation (unsteady lead-in, no response, bad stamps)."""


class InsufficientDataError(AnalysisError):
    """Not enough samples for the requested analysis."""


def rmse_shift(a, b, shift: int = 0) -> float:
    """Root-mean-square error between a[t] and b[t + shift] over the overlap."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InsufficientDataError("rmse_shift needs two equal-length 1-d series")
    n = len(a)
    overlap = n - abs(shift)
    if overlap < 2:
        raise InsufficientDataError(
            f"overlap {overlap} after shift {shift} (need at least 2)")
    if shift >= 0:
        d = a[:n - shift] - b[shift:]
    else:
        d = a[-shift:] - b[:n + shift]
    return float(np.sqrt(np.mean(d * d)))


def response_time(values, dt_s: float, event_index: int,
                  final_window: int = 10, lead: int = 10) -> float:
    """Seconds from the setpoint step until the series reaches 63.2 % of its
    final change, linearly interpolated between samples.

    The lead-in before the event must be steady (std below 1 % of the total
    change); a series that never crosses the threshold has no response.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 4 or not (0 < event_index < n - 1):
        raise InsufficientDataError("series too short around the event")
    lead_seg = y[max(0, event_index - lead):event_index]
    if len(lead_seg) < 2:
        raise InsufficientDataError("need at least 2 pre-event samples")
    final_seg = y[-final_window:] if final_window > 0 else y[-1:]
    y0 = float(np.mean(lead_seg))
    y_final = float(np.mean(final_seg))
    change = y_final - y0
    scale = max(1.0, abs(y0), abs(y_final))
    if abs(change) < 1e-9 * scale:
        raise AnalysisError("no response: series is flat after the event")
    if float(np.std(lead_seg)) >= 0.01 * abs(change):
        raise AnalysisError("pre-event series is not steady")

    thr = y0 + 0.632 * change
    sign = 1.0 if change > 0 else -1.0
    if sign * (y[event_index] - thr) >= 0:
        return 0.0
    for k in range(event_index + 1, n):
        if sign * (y[k] - thr) >= 0:
            frac = (thr - y[k - 1]) / (y[k] - y[k - 1])
            return ((k - 1) + frac - event_index) * dt_s
    raise AnalysisError("no response: 63.2 % threshold never crossed")


@dataclass(frozen=True)
class HuntingVerdict:
    peak_to_peak: float
    crossings: int
    is_hunting: bool
    period_s: float | None


def hunting_metric(pv, sp, dt_s: float, settle_s: float = 600.0,
                   window_s: float = 1800.0, eps_amp: float = 0.5,
                   n_min: int = 6) -> HuntingVerdict:
    """Sustained-oscillation check on the control error after a settle period.

    Hunting requires both amplitude (peak-to-peak of pv - sp above eps_amp)
    and persistence (at least n_min sign changes inside the window).  The
    dominant period comes from the mean spacing of upward zero crossings.
    """
    pv = np.asarray(pv, dtype=float)
    sp = np.asarray(sp, dtype=float)
    if pv.shape != sp.shape or pv.ndim != 1:
        raise InsufficientDataError("hunting_metric needs equal-length pv and sp")
    start = int(round(settle_s / dt_s))
    count = int(round(window_s / dt_s))
    if count < 4 or start + count > len(pv):
        raise InsufficientDataError(
            f"window needs {max(count, 4)} samples after {start}, have {len(pv)}")
    err = (pv - sp)[start:start + count]

    ptp = float(np.max(err) - np.min(err))
    crossings = 0
    up_indices = []
    last_sign = 0
    for i, e in enumerate(err):
        s = int(e > 0) - int(e < 0)
        if s == 0:
            continue
        if last_sign != 0 and s != last_sign:
            crossings += 1
            if s > 0:
                up_indices.append(i)
        last_sign = s

    period = None
    if len(up_indices) >= 2:
        period = float(np.mean(np.diff(up_indices))) * dt_s
    return HuntingVerdict(ptp, crossings, ptp > eps_amp and crossings >= n_min, period)


def comm_delay_bound(hw_log: dict[int, tuple[int, int]],
                     sw_log: dict[int, int]) -> float:
    """Upper bound (s) on the communication round trip, from wall stamps.

    hw_log maps step -> (send_ms, receive_ms) on the hardware side; sw_log
    maps step -> store_ms on the software side and is used to match steps.
    The bound is the worst receive - send gap, which brackets transmission
    both ways plus the software compute in between.
    """
    common = sorted(set(hw_log) & set(sw_log))
    if not common:
        raise InsufficientDataError("no steps with stamps on both sides")
    worst = -math.inf
    for step in common:
        send, recv = hw_log[step]
        if recv < send:
            raise AnalysisError(f"step {step}: receive stamp precedes send stamp")
        worst = max(worst, recv - send)
    return worst / 1000.0


@dataclass(frozen=True)
class CapacityReport:
    peak_w: float
    rated_w: float
    ratio: float
    verdict: str  # "ok" | "oversized" | "undersized"

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def capacity_check(load_series, rated_w: float, r_lo: float = 0.5,
                   r_hi: float = 1.0) -> CapacityReport:
    """Peak-load-to-rated-capacity ratio with a sizing verdict.

    Below r_lo the equipment never exercises its range (oversized); above
    r_hi the test article cannot meet the scenario (undersized).
    """
    load = np.asarray(load_series, dtype=float)
    if load.size == 0:
        raise InsufficientDataError("empty load series")
    if not (rated_w > 0):
        raise AnalysisError("rated capacity must be positive")
    peak = float(np.max(np.abs(load)))
    ratio = peak / rated_w
    verdict = "oversized" if ratio < r_lo else "undersized" if ratio > r_hi else "ok"
    return CapacityReport(peak, rated_w, ratio, verdict)


# --- RunLog plumbing -------------------------------------------------------

def parse_variable(expr: str) -> tuple[str, Source]:
    """Parse 'name:source' addressing used by the CLI and helpers."""
    if ":" not in expr:
        raise ValueError(f"variable {expr!r} must be written as name:source")
    name, _, src = expr.rpartition(":")
    try:
        return name, Source(src)
    except ValueError as e:
        raise ValueError(f"unknown source {src!r} in {expr!r}") from e


def series_from_log(log: RunLog, expr: str) -> np.ndarray:
    """Dense per-step values for one variable; gaps are an error here because
    shift arithmetic needs an unbroken step grid."""
    name, source = parse_variable(expr)
    values, _ = log.columns[log.key(name, source)]  # UnknownKeyError when absent
    gaps = np.flatnonzero(np.isnan(values))
    if gaps.size:
        raise InsufficientDataError(f"{expr} has gaps at steps {gaps[:8].tolist()}")
    return values.copy()


def _stamp_by_step(columns, reduce) -> dict[int, int]:
    """Per step, the min or max over the given wall-stamp columns, for steps
    where at least one of them has a stamp."""
    if not columns:
        return {}
    stamps = reduce(np.vstack(columns), axis=0)  # NaN where no column has one
    steps = np.flatnonzero(~np.isnan(stamps))
    return dict(zip(steps.tolist(), stamps[steps].astype(np.int64).tolist()))


def exchange_stamps(log: RunLog) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """Extract hardware send/receive and software store stamps per step.

    Hardware sends its measurements (plant.* emulated samples), the software
    stores its results (simulated samples), and the hardware logs the received
    supervisory setpoints (ctrl.* samples) on arrival.
    """
    sends, recvs, stores = [], [], []
    for key in log.keys:
        walls = log.columns[key][1]
        if key.source is Source.EMULATED and key.name.startswith("plant."):
            sends.append(walls)
        elif key.source is Source.SETPOINT and key.name.startswith("ctrl."):
            recvs.append(walls)
        elif key.source is Source.SIMULATED:
            stores.append(walls)
    send = _stamp_by_step(sends, np.fmin.reduce)
    recv = _stamp_by_step(recvs, np.fmax.reduce)
    hw = {step: (send[step], recv[step]) for step in send if step in recv}
    return hw, _stamp_by_step(stores, np.fmax.reduce)
