"""Supervisory grid-flexibility control.

A rule-based supervisor shapes the zone setpoints inside configured event
windows (efficiency widening, load shed, pre-cool/shift, modulation tracking a
dispatch signal).  Outside every window the baseline passes through exactly.
A slow-controller harness lets an optimization-style controller run in
parallel: submitted results become visible only at the start of a later step,
never in the step that submitted them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .schedule import Schedule


class GebMode(Enum):
    EFFICIENCY = "efficiency"
    SHED = "shed"
    SHIFT = "shift"
    MODULATE = "modulate"


class SupervisorySetpoints(NamedTuple):
    """Setpoint bundle sent down to the plant each step.  An immutable tuple
    in the order of the engine's setpoint exchange, which stores it as it is."""

    t_cool_c: float
    t_heat_c: float
    t_dis_c: float | None
    p_duct_pa: float | None


@dataclass(frozen=True)
class EventWindow:
    start_s: float
    end_s: float

    def __post_init__(self):
        if not (self.end_s > self.start_s):
            raise ValueError(f"window end {self.end_s} must exceed start {self.start_s}")

    def contains(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


def validate_windows(windows: list[EventWindow]) -> None:
    """Reject windows that overlap; touching windows are fine."""
    ordered = sorted(windows, key=lambda w: w.start_s)
    for a, b in zip(ordered, ordered[1:]):
        if b.start_s < a.end_s:
            raise ValueError(f"[{a.start_s}, {a.end_s}) overlaps "
                             f"[{b.start_s}, {b.end_s})")


class GebController:
    """Rule-based supervisor producing one SupervisorySetpoints per step, built
    from the validated `geb` block (its dis_schedule, policy and slow aside)."""

    def __init__(self, g: dict):
        self.mode = GebMode(g["mode"])
        self.baseline = SupervisorySetpoints(**g["baseline"])
        self.windows = [EventWindow(**w) for w in g["windows"]]
        self.delta_eff = g["delta_eff_c"]
        self.delta_shed = g["delta_shed_c"]
        self.delta_pre = g["delta_pre_c"]
        self.pre_window = g["pre_window_s"]
        self.r_max = g["r_max_c_per_step"]
        self.mod_depth = g["modulation"]["depth_c"]
        self.mod_signal = Schedule(g["modulation"]["signal"] or [(0.0, 0.0)])
        self.t_min, self.t_max = g["bounds"]["t_min_c"], g["bounds"]["t_max_c"]
        self.min_gap = g["min_gap_c"]
        self._mod_offset = 0.0
        # Without windows every step has the baseline's limited setpoints and
        # flags: computed here once (see step)
        self._fixed = (None if self.windows else
                       self._limited(self.baseline.t_cool_c, self.baseline.t_heat_c))

    def _in_window(self, t_s: float) -> bool:
        for w in self.windows:
            if w.contains(t_s):
                return True
        return False

    def _in_pre_window(self, t_s: float) -> bool:
        return any(w.start_s - self.pre_window <= t_s < w.start_s for w in self.windows)

    def step(self, t_s: float) -> tuple[SupervisorySetpoints, list[str]]:
        """Setpoints for the step starting at t_s, plus clamp/gap flags.
        Without windows the baseline passes through: no window is scanned,
        and each call returns the result computed at construction, with a
        fresh flags list."""
        if self._fixed is not None:
            sp, flags = self._fixed
            return sp, flags[:]
        base = self.baseline
        return self._limited(*self._shape(t_s, base.t_cool_c, base.t_heat_c))

    def _limited(self, cool: float, heat: float) -> tuple[SupervisorySetpoints,
                                                          list[str]]:
        """The setpoints of shaped (cool, heat) after limit(), and its flags:
        one clamp flag per clamped setpoint, then "gap"."""
        base = self.baseline
        cool, heat, clamped, gap = self.limit(cool, heat)
        flags = [f"clamp:{name}" for name in clamped] if clamped else []
        if gap:
            flags.append("gap")
        return SupervisorySetpoints(cool, heat, base.t_dis_c, base.p_duct_pa), flags

    def _shape(self, t_s: float, cool: float, heat: float) -> tuple[float, float]:
        """The mode's shaping of the baseline (cool, heat) at t_s."""
        in_win = self._in_window(t_s)

        if self.mode is GebMode.EFFICIENCY and in_win:
            cool += self.delta_eff / 2.0
            heat -= self.delta_eff / 2.0
        elif self.mode is GebMode.SHED and in_win:
            cool += self.delta_shed
        elif self.mode is GebMode.SHIFT:
            if in_win:
                cool += self.delta_shed
            elif self._in_pre_window(t_s):
                cool -= self.delta_pre
        elif self.mode is GebMode.MODULATE and in_win:
            target = self.mod_depth * self.mod_signal.at(t_s)
            self._mod_offset = min(max(target, self._mod_offset - self.r_max),
                                   self._mod_offset + self.r_max)
            cool += self._mod_offset

        if self.mode is GebMode.MODULATE and not in_win:
            self._mod_offset = 0.0
        return cool, heat

    def limit(self, cool: float, heat: float) -> tuple[float, float, list[str], bool]:
        """Clamp both setpoints into the bounds, then restore the minimum gap.

        The gap opens upward (cooling = heating + gap) unless that would pass
        t_max; then cooling sits at t_max and heating at t_max - gap.  Returns
        (cool, heat, names of the clamped setpoints, whether the gap rule
        moved anything).
        """
        lo, hi, gap = self.t_min, self.t_max, self.min_gap
        cool_c = min(max(cool, lo), hi)
        heat_c = min(max(heat, lo), hi)
        clamped = []
        if cool_c != cool:
            clamped.append("t_cool")
        if heat_c != heat:
            clamped.append("t_heat")
        if cool_c - heat_c >= gap:
            return cool_c, heat_c, clamped, False
        if heat_c + gap > hi:
            return hi, hi - gap, clamped, True
        return heat_c + gap, heat_c, clamped, True


class SlowBusyError(Exception):
    """submit() while a previous job is still pending."""


class SlowControllerHarness:
    """Runs an expensive controller logically in parallel with the loop.

    A job submitted at step N with compute latency L becomes visible at the
    start of step N + max(1, ceil(L / step)); latency zero still lands at
    N + 1, never in the submitting step.  Results are consumed exactly once;
    results older than the freshness horizon at poll time are discarded.
    """

    def __init__(self, step_size_s: float, compute_latency_s: float,
                 freshness_s: float):
        self.latency = compute_latency_s
        self.step_size = step_size_s
        self.freshness = freshness_s
        self._pending = None  # (submit_step, ready_step, result)
        self.discarded = 0

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def ready_step(self, submit_step: int) -> int:
        return submit_step + max(1, math.ceil(self.latency / self.step_size))

    def submit(self, step: int, result) -> None:
        """Hand in a finished result; the harness only delays its delivery."""
        if self._pending is not None:
            raise SlowBusyError(f"job from step {self._pending[0]} still pending")
        self._pending = (step, self.ready_step(step), result)

    def poll(self, step: int):
        """Result if ready at this step, else None.  Consumes on return."""
        if self._pending is None:
            return None
        submit_step, ready, result = self._pending
        if step < ready:
            return None
        self._pending = None
        if (step - submit_step) * self.step_size > self.freshness:
            self.discarded += 1
            return None
        return result
