import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexbench.analysis import (AnalysisError, HuntingVerdict,
                                InsufficientDataError, capacity_check,
                                comm_delay_bound,
                                exchange_stamps, hunting_metric,
                                parse_variable, response_time, rmse_shift,
                                series_from_log)
from flexbench.datastore import Source, StepStore, UnknownKeyError, VariableKey
from tests.helpers import run_doc


class TestRmseShift:
    def test_delayed_copy_recovers_at_its_lag(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [9.0, 1.0, 2.0, 3.0]  # one step behind a
        assert rmse_shift(a, b, 1) == 0.0
        assert rmse_shift(a, b, 0) > 0.0
        # reversed roles need the opposite sign
        assert rmse_shift(b, a, -1) == 0.0

    def test_hand_value(self):
        assert rmse_shift([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=20), rng.normal(size=20)
        for s in (-3, -1, 0, 2):
            assert rmse_shift(a, b, s) == pytest.approx(rmse_shift(b, a, -s))

    def test_overlap_floor(self):
        with pytest.raises(InsufficientDataError, match="overlap 1"):
            rmse_shift([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 3)

    def test_shape_mismatch(self):
        with pytest.raises(InsufficientDataError):
            rmse_shift([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40),
           st.integers(0, 3))
    def test_injected_delay_recovered_exactly(self, x, k):
        if k + 2 > len(x):
            k = 0
        delayed = [0.0] * k + x[:len(x) - k]
        assert rmse_shift(x, delayed, k) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=30),
           st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=30),
           st.floats(-100.0, 100.0))
    def test_scaling(self, a, b, c):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert rmse_shift([c * v for v in a], [c * v for v in b], 1) == \
            pytest.approx(abs(c) * rmse_shift(a, b, 1), abs=1e-6, rel=1e-9)


def first_order_trace(tau_s=120.0, dt_s=60.0, event=30, n=60,
                      y0=20.0, y1=14.0):
    y = [y0] * event
    for k in range(event, n):
        y.append(y1 + (y0 - y1) * math.exp(-(k - event) * dt_s / tau_s))
    return y


class TestResponseTime:
    def test_first_order_analytic(self):
        t = response_time(first_order_trace(), 60.0, 30)
        # continuous crossing sits at -tau*ln(1 - 0.632) = 119.93 s;
        # linear interpolation on the 60 s grid lands within a few ms
        assert t == pytest.approx(119.968, abs=1e-3)

    def test_affine_invariance(self):
        y = first_order_trace()
        base = response_time(y, 60.0, 30)
        assert response_time([3.0 * v - 7.0 for v in y], 60.0, 30) == \
            pytest.approx(base, abs=1e-9)

    def test_rising_direction(self):
        y = first_order_trace(y0=14.0, y1=20.0)
        assert response_time(y, 60.0, 30) == pytest.approx(119.968, abs=1e-3)

    def test_instant_jump_is_zero(self):
        y = [20.0] * 30 + [14.0] * 30
        assert response_time(y, 60.0, 30) == 0.0

    def test_flat_series_has_no_response(self):
        with pytest.raises(AnalysisError, match="flat"):
            response_time([20.0] * 60, 60.0, 30)

    def test_unsteady_lead_rejected(self):
        y = first_order_trace()
        y[25] += 3.0
        with pytest.raises(AnalysisError, match="not steady"):
            response_time(y, 60.0, 30)

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            response_time([1.0, 2.0, 3.0], 60.0, 1)
        with pytest.raises(InsufficientDataError):
            response_time(first_order_trace(), 60.0, 59)

    @pytest.mark.parametrize("name, value", [
        ("final_window", -5),  # used to average only the last sample
        ("final_window", -1),
        ("lead", -3),          # used to report too few pre-event samples
        ("lead", -1),
        ("lead", 0),           # a steady lead-in needs 2 samples
        ("lead", 1),
    ])
    def test_negative_window_or_lead_is_a_value_error(self, name, value):
        lo = 2 if name == "lead" else 0
        with pytest.raises(ValueError, match=rf"^{name} must be >= {lo}, got {value}$"):
            response_time(first_order_trace(), 60.0, 30, **{name: value})

    def test_zero_final_window_reads_the_last_sample(self):
        y = first_order_trace()
        assert response_time(y, 60.0, 30, final_window=0) == \
            response_time(y, 60.0, 30, final_window=1)


class TestHuntingMetric:
    def test_sustained_sinusoid(self):
        n = 40  # 600 s settle + 1800 s window at 60 s steps
        pv = [22.0 + math.sin(math.pi * k / 2.0) for k in range(n)]
        v = hunting_metric(pv, [22.0] * n, 60.0)
        assert v.is_hunting
        assert v.peak_to_peak == pytest.approx(2.0)
        assert v.crossings == 14
        assert v.period_s == pytest.approx(240.0)

    def test_flat_trace(self):
        v = hunting_metric([22.0] * 40, [22.0] * 40, 60.0)
        assert not v.is_hunting
        assert v.peak_to_peak == 0.0 and v.crossings == 0
        assert v.period_s is None

    def test_drift_is_not_hunting(self):
        pv = list(np.linspace(21.0, 23.0, 40))
        v = hunting_metric(pv, [22.0] * 40, 60.0)
        assert v.crossings == 1 and not v.is_hunting
        assert v.peak_to_peak > 0.5  # amplitude alone must not trigger

    def test_small_ripple_is_not_hunting(self):
        pv = [22.0 + 0.1 * math.sin(math.pi * k / 2.0) for k in range(40)]
        v = hunting_metric(pv, [22.0] * 40, 60.0)
        assert v.crossings >= 6 and not v.is_hunting

    def test_settle_period_excluded(self):
        # wild start, quiet after the settle cut: must not count
        pv = [22.0 + (5.0 if k % 2 else -5.0) for k in range(10)] + [22.0] * 30
        v = hunting_metric(pv, [22.0] * 40, 60.0)
        assert not v.is_hunting and v.peak_to_peak == 0.0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            hunting_metric([22.0] * 20, [22.0] * 20, 60.0)

    @pytest.mark.parametrize("name, value", [
        ("settle_s", -1200.0),  # would index from the end of the series
        ("settle_s", -120.0),   # would leave an empty window
        ("settle_s", math.inf),
        ("window_s", -600.0),
        ("window_s", math.nan),
        ("window_s", -math.inf),
    ])
    def test_negative_or_non_finite_window_is_a_value_error(self, name, value):
        pv = [22.0 + math.sin(math.pi * k / 2.0) for k in range(40)]
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number "
                                             rf">= 0, got {value!r}$"):
            hunting_metric(pv, [22.0] * 40, 60.0, **{name: value})

    def test_zero_settle_and_negative_zero_are_valid(self):
        pv = [22.0 + math.sin(math.pi * k / 2.0) for k in range(40)]
        v = hunting_metric(pv, [22.0] * 40, 60.0, settle_s=-0.0)
        assert v == hunting_metric(pv, [22.0] * 40, 60.0, settle_s=0.0)
        assert v.crossings == 14

    def test_zero_and_nan_samples_have_no_sign(self):
        # zeros and NaNs between signed samples neither count as a sign nor
        # reset the last one: + . . - . + . . - + has four crossings
        err = [1.0, 0.0, math.nan, -1.0, -0.0, 1.0, 0.0, 0.0, -1.0, 1.0]
        v = hunting_metric(err, [0.0] * 10, 1.0, settle_s=0.0, window_s=10.0,
                           n_min=4)
        assert (v.crossings, v.is_hunting) == (4, False)  # ptp is NaN
        assert math.isnan(v.peak_to_peak)
        assert v.period_s == 4.0  # up-crossings at indices 5 and 9


def stamps(hw_rows, sw_rows):
    """hw and sw stamp tables as exchange_stamps returns them."""
    return (np.array(hw_rows, dtype=np.int64).reshape(-1, 3),
            np.array(sw_rows, dtype=np.int64).reshape(-1, 2))


class TestCommDelayBound:
    def test_worst_gap_in_seconds(self):
        hw, sw = stamps([(0, 1000, 1150), (1, 2000, 2100), (2, 3000, 3300)],
                        [(0, 1050), (1, 2050), (2, 3100)])
        assert comm_delay_bound(hw, sw) == pytest.approx(0.3)

    def test_only_matched_steps_count(self):
        hw, sw = stamps([(0, 1000, 1100), (5, 9000, 99999)], [(0, 1050)])
        assert comm_delay_bound(hw, sw) == pytest.approx(0.1)

    def test_causality_enforced(self):
        with pytest.raises(AnalysisError, match="precedes"):
            comm_delay_bound(*stamps([(0, 2000, 1000)], [(0, 1500)]))

    def test_no_common_steps(self):
        with pytest.raises(InsufficientDataError):
            comm_delay_bound(*stamps([(0, 1, 2)], [(9, 5)]))

    def test_receive_at_the_send_stamp_is_causal(self):
        assert comm_delay_bound(*stamps([(0, 1000, 1000), (1, 2000, 2000)],
                                        [(0, 1000), (1, 2000)])) == 0.0


class TestCapacityCheck:
    def test_well_sized(self):
        r = capacity_check([100.0, -7000.0, 3000.0], 8000.0)
        assert r.verdict == "ok" and r.ok
        assert r.peak_w == 7000.0
        assert r.ratio == pytest.approx(0.875)

    def test_oversized_and_undersized(self):
        assert capacity_check([100.0], 8000.0).verdict == "oversized"
        assert capacity_check([9000.0], 8000.0).verdict == "undersized"
        assert not capacity_check([9000.0], 8000.0).ok

    def test_bad_inputs(self):
        with pytest.raises(InsufficientDataError):
            capacity_check([], 8000.0)
        with pytest.raises(AnalysisError):
            capacity_check([1.0], 0.0)


class TestParseVariable:
    def test_name_and_source(self):
        assert parse_variable("zone.t:simulated") == ("zone.t", Source.SIMULATED)
        assert parse_variable("plant.t_dis:emulated") == ("plant.t_dis",
                                                          Source.EMULATED)
        assert parse_variable("ctrl.t_cool_spt:setpoint")[1] is Source.SETPOINT

    def test_last_colon_wins(self):
        assert parse_variable("odd:name:simulated")[0] == "odd:name"

    def test_errors(self):
        with pytest.raises(ValueError, match="name:source"):
            parse_variable("zone.t")
        with pytest.raises(ValueError, match="unknown source"):
            parse_variable("zone.t:imagined")


def small_log(with_gap=False):
    s = StepStore(step_size_s=60.0, scenario_id="t", seed=0)
    zt = s.register(VariableKey("zone.t", Source.SIMULATED, "C"))
    pa = s.register(VariableKey("plant.t_dis", Source.EMULATED, "C"))
    pb = s.register(VariableKey("plant.t_zone_emu", Source.EMULATED, "C"))
    sp = s.register(VariableKey("ctrl.t_cool_spt", Source.SETPOINT, "C"))
    for step in range(4):
        base = 1000 * step
        if not (with_gap and step == 2):
            s.upsert(step, (zt,), [22.0 + step], wall_time_ms=base + 120)
        s.upsert(step, (pa,), [14.0], wall_time_ms=base + 10)
        s.upsert(step, (pb,), [23.0], wall_time_ms=base + 5)
        s.upsert(step, (sp,), [24.0], wall_time_ms=base + 200)
        s.seal(step)
    return s.to_runlog()


class TestLogPlumbing:
    def test_series_extraction(self):
        vals = series_from_log(small_log(), "zone.t:simulated")
        assert list(vals) == [22.0, 23.0, 24.0, 25.0]

    def test_gaps_rejected(self):
        with pytest.raises(InsufficientDataError, match="gaps"):
            series_from_log(small_log(with_gap=True), "zone.t:simulated")

    def test_unknown_variable(self):
        with pytest.raises(UnknownKeyError):
            series_from_log(small_log(), "zone.nope:simulated")

    def test_exchange_stamps(self):
        hw, sw = exchange_stamps(small_log())
        # earliest hardware send, latest received setpoint, latest sim store
        assert hw.dtype == sw.dtype == np.int64
        assert hw[0].tolist() == [0, 5, 200]
        assert sw[0].tolist() == [0, 120]
        assert comm_delay_bound(hw, sw) == pytest.approx(0.195)

    def test_exchange_stamps_without_received_setpoints(self):
        s = StepStore(step_size_s=60.0)
        zt = s.register(VariableKey("zone.t", Source.SIMULATED, "C"))
        pa = s.register(VariableKey("plant.t_dis", Source.EMULATED, "C"))
        for step in range(3):
            s.upsert(step, (zt, pa), [22.0, 14.0], wall_time_ms=1000 * step)
            s.seal(step)
        hw, sw = exchange_stamps(s.to_runlog())
        assert hw.shape == (0, 3)
        assert sw.tolist() == [[0, 0], [1, 1000], [2, 2000]]
        with pytest.raises(InsufficientDataError, match="no steps with stamps"):
            comm_delay_bound(hw, sw)


# --- the array code against the per-sample loops it replaced --------------
# Test-local copies of the loops of response_time, hunting_metric and
# comm_delay_bound as they were before the analysis worked on whole arrays.
# The array code must give the same values, of the same types, and raise the
# same errors with the same text.

def loop_response_time(values, dt_s, event_index, final_window=10, lead=10):
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


def loop_hunting_metric(pv, sp, dt_s, settle_s=600.0, window_s=1800.0,
                        eps_amp=0.5, n_min=6):
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


def loop_comm_delay_bound(hw_log, sw_log):
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


def _exact(v):
    """A value with its type, NaN made comparable; a verdict field by field."""
    if isinstance(v, HuntingVerdict):
        return tuple(_exact(getattr(v, f.name)) for f in dataclasses.fields(v))
    return type(v), ("nan" if isinstance(v, float) and math.isnan(v) else v)


def _outcome(fn, *args, **kwargs):
    try:
        return "returned", _exact(fn(*args, **kwargs))
    except Exception as e:  # the error is the outcome under comparison
        return "raised", type(e), str(e)


# Samples with zeros of both signs, NaNs, ties and tiny magnitudes.
_SAMPLES = st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 0.25, -2.0, 1e-300,
                            22.0])


@st.composite
def _step_series(draw):
    """A series with a steady (or slightly disturbed) lead-in at a, a tail
    at b, and between them samples at a, b, halfway, past b, NaN and exactly
    at the 63.2 % threshold, which is where the first crossing ties."""
    a = draw(st.sampled_from([0.0, -0.0, 20.0, -3.5]))
    b = draw(st.sampled_from([0.0, 1.0, 22.5, -10.0, 20.0]))
    # a lead under 2 is an argument error before any sample is read (see
    # test_negative_window_or_lead_is_a_value_error); an event at index 1
    # still leaves too few pre-event samples
    lead, final = draw(st.integers(2, 5)), draw(st.integers(0, 4))
    head = [a] * draw(st.integers(0, 6))
    if head and draw(st.booleans()):
        head[0] += draw(st.sampled_from([1e-3, 5.0]))
    thr = a + 0.632 * (b - a)
    pick = {"a": a, "b": b, "thr": thr, "nan": math.nan,
            "mid": (a + b) / 2.0, "past": b + (b - a)}
    body = draw(st.lists(st.sampled_from(sorted(pick)), min_size=1, max_size=12))
    y = head + [pick[k] for k in body] + [b] * max(final, 1)
    return y, len(head), final, lead


@st.composite
def _error_window(draw):
    """pv and sp of n samples, and settle and window sample counts that
    mostly fit in n (a few do not, which is an error on both sides)."""
    n = draw(st.integers(0, 50))
    pairs = draw(st.lists(st.tuples(_SAMPLES, _SAMPLES), min_size=n, max_size=n))
    settle = draw(st.integers(0, max(n - 4, 0)))
    window = draw(st.integers(0, n - settle + 2))
    return [p for p, _ in pairs], [s for _, s in pairs], settle, window


class TestArraysMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(_step_series(), st.sampled_from([60.0, 1.0, 0.1]))
    def test_response_time(self, series, dt_s):
        y, event, final, lead = series
        for event_index in (event, event - 1, event + 1):
            args = (y, dt_s, event_index, final, lead)
            assert _outcome(response_time, *args) == \
                _outcome(loop_response_time, *args)

    @settings(max_examples=300, deadline=None)
    @given(_error_window(), st.sampled_from([60.0, 1.0, 30.0, 7.0]),
           st.integers(0, 8))
    def test_hunting_metric(self, window, dt_s, n_min):
        pv, sp, settle_n, window_n = window
        kwargs = dict(settle_s=settle_n * dt_s, window_s=window_n * dt_s,
                      eps_amp=0.5, n_min=n_min)
        assert _outcome(hunting_metric, pv, sp, dt_s, **kwargs) == \
            _outcome(loop_hunting_metric, pv, sp, dt_s, **kwargs)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 40),
                           st.tuples(st.integers(0, 2**53 - 10**4),
                                     st.integers(-100, -1) | st.integers(0, 5000)),
                           max_size=20),
           st.dictionaries(st.integers(0, 40), st.integers(0, 10**6), max_size=20))
    def test_comm_delay_bound(self, hw_gaps, sw_log):
        # steps with gaps, late steps (receive before send) and unmatched steps
        hw_log = {step: (send, send + gap) for step, (send, gap) in hw_gaps.items()}
        hw, sw = stamps([(step, *hw_log[step]) for step in sorted(hw_log)],
                        [(step, sw_log[step]) for step in sorted(sw_log)])
        assert _outcome(comm_delay_bound, hw, sw) == \
            _outcome(loop_comm_delay_bound, hw_log, sw_log)


def test_stamp_analysis_keeps_no_per_step_objects():
    # an hour at 1 s steps, every variable logged; the dict-per-step analysis
    # peaked at about 451 B/step here, the int64 tables at about 96
    log, _ = run_doc({"run": {"step_size_s": 1.0, "horizon": 3600},
                      "delays": {"comm_latency_s": 0.2, "jitter_s": 0.05},
                      "logging": {"plant_internals": True, "include": None}})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hw, sw = exchange_stamps(log)
        bound = comm_delay_bound(hw, sw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0.2 <= bound < 1.0 and len(hw) == 3600
    assert peak / log.meta.steps <= 200.0, f"{peak / log.meta.steps:.0f} B/step"
