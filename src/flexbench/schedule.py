"""Step-hold breakpoint series for scheduled inputs.

Internal gains, occupant presence, the dispatch signal and the discharge-air
schedule are all given as [[time_s, value], ...] with increasing times.  One
rule reads them all: at time t the series holds the value of the last
breakpoint at or before t (of two at the same time, the later one), and
before its first breakpoint it holds the first value.  Weather, which
interpolates, clamps to its first and last rows the same way.
"""

from __future__ import annotations

from bisect import bisect_right


class Schedule:
    """A step-hold series of (time_s, value) breakpoints, non-empty and with
    times that do not decrease, as `scenario._breakpoints` returns them."""

    __slots__ = ("times", "values")

    def __init__(self, rows):
        self.times = [r[0] for r in rows]
        self.values = [r[1] for r in rows]

    def at(self, t_s: float):
        i = bisect_right(self.times, t_s)
        return self.values[i - 1 if i else 0]
