import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexbench.analysis import (AnalysisError, InsufficientDataError,
                                capacity_check, comm_delay_bound,
                                exchange_stamps, hunting_metric,
                                parse_variable, response_time, rmse_shift,
                                series_from_log)
from flexbench.datastore import Source, StepStore, UnknownKeyError, VariableKey


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


class TestCommDelayBound:
    def test_worst_gap_in_seconds(self):
        hw = {0: (1000, 1150), 1: (2000, 2100), 2: (3000, 3300)}
        sw = {0: 1050, 1: 2050, 2: 3100}
        assert comm_delay_bound(hw, sw) == pytest.approx(0.3)

    def test_only_matched_steps_count(self):
        hw = {0: (1000, 1100), 5: (9000, 99999)}
        sw = {0: 1050}
        assert comm_delay_bound(hw, sw) == pytest.approx(0.1)

    def test_causality_enforced(self):
        with pytest.raises(AnalysisError, match="precedes"):
            comm_delay_bound({0: (2000, 1000)}, {0: 1500})

    def test_no_common_steps(self):
        with pytest.raises(InsufficientDataError):
            comm_delay_bound({0: (1, 2)}, {9: 5})


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
        assert hw[0] == (5, 200)
        assert sw[0] == 120
        assert comm_delay_bound(hw, sw) == pytest.approx(0.195)
