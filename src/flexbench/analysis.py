"""Integration-quality metrics for coupled hardware/software runs.

Shift convention used throughout: rmse_shift pairs a[t] with b[t + shift], so
a NEGATIVE shift compares the current sample of `a` against the PREVIOUS
sample of `b`.  The plant always responds one step behind the software side,
so comparing an emulated trace (a) to its simulated counterpart (b) aligns at
shift -1.  Sign errors here invert conclusions; the tests pin this down.

Every metric works on whole arrays: no per-sample Python loop and no per-step
Python object.  Wall stamps come out of a RunLog as int64 tables in ascending
step order, `hw` with rows (step, send_ms, recv_ms) and `sw` with rows
(step, store_ms), so a year of steps costs a few arrays, not a dict per step.
"""

from __future__ import annotations

import functools
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
    change); a series that never crosses the threshold has no response.  A
    negative final_window, or a lead under the 2 samples a steady lead-in
    needs, is a ValueError.
    """
    for name, value, lo in (("final_window", final_window, 0), ("lead", lead, 2)):
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value!r}")
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
    hits = np.flatnonzero(sign * (y[event_index:] - thr) >= 0)
    if not hits.size:
        raise AnalysisError("no response: 63.2 % threshold never crossed")
    k = event_index + int(hits[0])
    if k == event_index:
        return 0.0
    frac = (thr - y[k - 1]) / (y[k] - y[k - 1])
    return ((k - 1) + frac - event_index) * dt_s


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
    and persistence (at least n_min sign changes inside the window).  Zero
    and NaN errors have no sign and are skipped.  The dominant period comes
    from the mean spacing of upward zero crossings.  A negative or non-finite
    settle_s or window_s is a ValueError.
    """
    for name, value in (("settle_s", settle_s), ("window_s", window_s)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
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
    signed = np.flatnonzero((err > 0) | (err < 0))  # indices of nonzero signs
    up = err[signed] > 0
    flips = np.flatnonzero(np.diff(up)) + 1  # where the sign differs from the last
    crossings = flips.size  # ndarray.size is a Python int
    up_indices = signed[flips[up[flips]]]

    period = None
    if up_indices.size >= 2:
        period = float(np.mean(np.diff(up_indices))) * dt_s
    return HuntingVerdict(ptp, crossings, ptp > eps_amp and crossings >= n_min, period)


def comm_delay_bound(hw, sw) -> float:
    """Upper bound (s) on the communication round trip, from wall stamps.

    hw and sw are the int64 tables of exchange_stamps: rows (step, send_ms,
    recv_ms) on the hardware side and rows (step, store_ms) on the software
    side, which is used to match steps.  The bound is the worst recv - send
    gap over the matched steps, which brackets transmission both ways plus
    the software compute in between.
    """
    hw = hw[np.isin(hw[:, 0], sw[:, 0])]
    if not hw.size:
        raise InsufficientDataError("no steps with stamps on both sides")
    gaps = hw[:, 2] - hw[:, 1]  # exact: stamps lie within 2**53 ms (store, import)
    late = hw[gaps < 0, 0]
    if late.size:
        raise AnalysisError(f"step {int(late.min())}: receive stamp precedes send stamp")
    return int(gaps.max()) / 1000.0


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


def exchange_stamps(log: RunLog) -> tuple[np.ndarray, np.ndarray]:
    """Hardware send/receive and software store stamps per step, as int64
    tables in ascending step order: hw with rows (step, send_ms, recv_ms) for
    the steps that have both hardware stamps, sw with rows (step, store_ms).

    Hardware sends its measurements (plant.* emulated samples; a step's send
    is the earliest of them), the software stores its results (simulated
    samples; the latest), and the hardware logs the received supervisory
    setpoints (ctrl.* samples; the latest) on arrival.
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
    # Pairwise folds over the columns, from a column of no stamps: a step's
    # stamp stays NaN only where none of its columns has one.
    none = np.full(log.meta.steps, np.nan)
    send = functools.reduce(np.fmin, sends, none)
    recv = functools.reduce(np.fmax, recvs, none)
    steps = np.flatnonzero(~(np.isnan(send) | np.isnan(recv)))
    hw = np.column_stack((steps, send[steps], recv[steps])).astype(np.int64)
    store = functools.reduce(np.fmax, stores, none)
    steps = np.flatnonzero(~np.isnan(store))
    return hw, np.column_stack((steps, store[steps])).astype(np.int64)
