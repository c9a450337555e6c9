import pytest

from flexbench.geb import (EventWindow, GebController, GebMode,
                           SlowBusyError, SlowControllerHarness,
                           SupervisorySetpoints, validate_windows)
from flexbench.schedule import Schedule
from tests.helpers import block

BASE = SupervisorySetpoints(**block("geb.baseline"))  # 24 / 20, no t_dis or p_duct


def controller(mode, windows=(), **overrides):
    """GebController over (start_s, end_s) windows; overrides in geb form."""
    wins = [{"start_s": start, "end_s": end} for start, end in windows]
    return GebController(block("geb", mode=mode, windows=wins, **overrides))


def harness(latency_s, **overrides):
    """SlowControllerHarness on 60 s steps."""
    return SlowControllerHarness(
        60.0, **block("geb.slow", compute_latency_s=latency_s, **overrides))


class TestWindows:
    def test_half_open(self):
        w = EventWindow(100.0, 200.0)
        assert w.contains(100.0)
        assert w.contains(199.9)
        assert not w.contains(200.0)
        assert not w.contains(99.9)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            EventWindow(100.0, 100.0)

    def test_overlap_rejected_touching_ok(self):
        validate_windows([EventWindow(0, 10), EventWindow(10, 20)])
        with pytest.raises(ValueError, match="overlap"):
            validate_windows([EventWindow(0, 11), EventWindow(10, 20)])

    def test_signal_holds_last_value(self):
        sig = Schedule([(0.0, 0.5), (600.0, -1.0)])
        assert sig.at(0.0) == 0.5
        assert sig.at(599.0) == 0.5
        assert sig.at(600.0) == -1.0
        assert Schedule([(100.0, 0.7)]).at(0.0) == 0.7  # before first point


class TestGebController:
    def test_baseline_passes_through_exactly(self):
        ctl = controller("shed", [(3600, 7200)])
        sp, flags = ctl.step(0.0)
        assert sp == BASE and flags == []
        sp, _ = ctl.step(7200.0)  # window end is exclusive
        assert sp == BASE

    def test_efficiency_widens_band(self):
        ctl = controller("efficiency", [(0, 3600)], delta_eff_c=1.0)
        sp, flags = ctl.step(100.0)
        assert (sp.t_cool_c, sp.t_heat_c) == (24.5, 19.5) and flags == []

    def test_shed_raises_cooling_only(self):
        ctl = controller("shed", [(0, 3600)], delta_shed_c=2.0)
        sp, _ = ctl.step(0.0)
        assert (sp.t_cool_c, sp.t_heat_c) == (26.0, 20.0)

    def test_shift_precools_then_sheds(self):
        ctl = controller("shift", [(10800, 14400)], delta_shed_c=2.0,
                         delta_pre_c=1.5, pre_window_s=7200.0)
        assert ctl.step(1000.0)[0].t_cool_c == 24.0      # before anything
        assert ctl.step(3600.0)[0].t_cool_c == 22.5      # pre-cool
        assert ctl.step(10800.0)[0].t_cool_c == 26.0     # event
        assert ctl.step(14400.0)[0].t_cool_c == 24.0     # after

    def test_modulate_ramps_and_resets(self):
        ctl = controller("modulate", [(0, 600)], r_max_c_per_step=0.5,
                         modulation={"depth_c": 1.0, "signal": [[0.0, 1.0]]})
        assert ctl.step(0.0)[0].t_cool_c == 24.5   # rate limited
        assert ctl.step(60.0)[0].t_cool_c == 25.0  # reached depth
        assert ctl.step(120.0)[0].t_cool_c == 25.0
        assert ctl.step(600.0)[0].t_cool_c == 24.0  # outside, offset cleared
        assert ctl.step(0.0)[0].t_cool_c == 24.5    # ramp starts over

    def test_clamp_flags(self):
        ctl = controller("shed", [(0, 600)], delta_shed_c=2.0,
                         baseline={"t_cool_c": 31.5, "t_heat_c": 20.0})
        sp, flags = ctl.step(0.0)
        assert sp.t_cool_c == 32.0 and flags == ["clamp:t_cool"]

    def test_gap_restored_after_modulation(self):
        ctl = controller("modulate", [(0, 600)], r_max_c_per_step=5.0,
                         modulation={"depth_c": 3.0, "signal": [[0.0, -1.0]]},
                         min_gap_c=2.0)
        sp, flags = ctl.step(0.0)
        assert sp.t_heat_c == 20.0
        assert sp.t_cool_c == 22.0  # pushed back above heat + gap
        assert flags == ["gap"]

    def test_gap_opens_downward_at_the_upper_bound(self):
        # cooling clamps to t_max_c; heating + gap would pass it, so heating
        # moves down to t_max_c - gap instead of cooling moving up
        ctl = controller("efficiency",
                         baseline={"t_cool_c": 22.5, "t_heat_c": 21.5},
                         bounds={"t_min_c": 20.0, "t_max_c": 22.0})
        sp, flags = ctl.step(0.0)
        assert (sp.t_cool_c, sp.t_heat_c) == (22.0, 21.0)
        assert flags == ["clamp:t_cool", "gap"]
        assert ctl.limit(23.0, 22.5) == (22.0, 21.0, ["t_cool", "t_heat"], True)
        assert ctl.limit(21.0, 20.5) == (21.5, 20.5, [], True)
        assert ctl.limit(21.0, 20.0) == (21.0, 20.0, [], False)

    def test_discharge_and_duct_pass_through(self):
        ctl = controller("shed", [(0, 600)],
                         baseline={"t_dis_c": 14.0, "p_duct_pa": 250.0})
        sp, _ = ctl.step(0.0)
        assert sp.t_dis_c == 14.0 and sp.p_duct_pa == 250.0

    def test_setpoints_are_immutable(self):
        sp, _ = controller("shed", [(0, 600)]).step(0.0)
        for field in SupervisorySetpoints._fields:
            with pytest.raises(AttributeError):
                setattr(sp, field, 0.0)
        assert sp == SupervisorySetpoints(26.0, 20.0, None, None)

    @pytest.mark.parametrize("mode", [m.value for m in GebMode])
    def test_no_window_scan_without_windows(self, monkeypatch, mode):
        def scanned(*args):
            raise AssertionError("scanned the windows")
        monkeypatch.setattr(GebController, "_in_window", scanned)
        monkeypatch.setattr(GebController, "_in_pre_window", scanned)
        ctl = controller(mode)
        assert ctl.step(0.0) == (BASE, []) and ctl.step(3600.0) == (BASE, [])

    def test_mode_accepts_string_and_enum(self):
        assert controller("shed").mode is GebMode.SHED
        assert controller(GebMode.SHIFT).mode is GebMode.SHIFT


class TestSlowHarness:
    def test_zero_latency_still_lands_next_step(self):
        h = harness(0.0)
        assert h.ready_step(4) == 5

    def test_latency_rounds_up_in_steps(self):
        h = harness(90.0)
        assert h.ready_step(4) == 6
        assert harness(60.0).ready_step(4) == 5

    def test_result_visible_once_at_barrier(self):
        h = harness(90.0, freshness_s=600.0)
        h.submit(3, 42.0)
        assert h.poll(3) is None   # submitting step never sees it
        assert h.poll(4) is None   # still computing
        assert h.pending
        assert h.poll(5) == 42.0
        assert h.poll(6) is None   # consumed
        assert not h.pending

    def test_submit_while_pending_raises(self):
        h = harness(90.0)
        h.submit(0, 1.0)
        with pytest.raises(SlowBusyError):
            h.submit(1, 2.0)

    def test_stale_result_discarded(self):
        h = harness(60.0, freshness_s=120.0)
        h.submit(0, 1.0)
        assert h.poll(3) is None   # 180 s old at poll: beyond freshness
        assert h.discarded == 1
        assert not h.pending       # slot is free again
        h.submit(3, 10.0)
        assert h.poll(4) == 10.0
