"""Outside-in span tracing of flexbench's layers.

The benchmark does not change the program to trace it.  `Tracer` swaps
wrappers onto public class attributes and module functions (for example
`PlantSim.advance`, `StepStore.upsert`, and `substream` where `occupants` and
`orchestrator` import it) and puts the originals back on exit.  A span wrapper
records (name, start_ns, end_ns, parent index) in memory; a count wrapper only
bumps a counter, for calls too small or too frequent to time (the 60 control
substeps inside one `PlantSim.advance`).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from flexbench import (analysis, building, datastore, geb, occupants,
                       orchestrator, plant, scenario)

# (owner, attribute, span name).  Every span name starts with its layer.
SPANS = (
    (scenario, "validate_scenario", "scenario.validate"),
    (orchestrator.Engine, "__init__", "orchestrator.engine_init"),
    (orchestrator.Engine, "step_once", "orchestrator.step"),
    (orchestrator.DelayInjector, "delays_ms", "orchestrator.delays"),
    (orchestrator, "substream", "streams.substream"),
    (occupants, "substream", "streams.substream"),
    (plant.PlantSim, "advance", "plant.advance"),
    (plant.PlantSim, "measure", "plant.measure"),
    (building.ZoneModel, "step", "building.zone_step"),
    (building.WeatherSeries, "value_at", "building.weather"),
    (occupants.Population, "step", "occupants.step"),
    (geb.GebController, "step", "geb.step"),
    (geb.SlowControllerHarness, "submit", "geb.harness"),
    (geb.SlowControllerHarness, "poll", "geb.harness"),
    (datastore.StepStore, "upsert", "datastore.upsert"),
    (datastore.StepStore, "seal", "datastore.seal"),
    (datastore.StepStore, "to_runlog", "datastore.to_runlog"),
    (datastore, "write_csv", "datastore.write_csv"),
    (datastore, "import_run", "datastore.import_run"),
    (analysis, "series_from_log", "analysis.series_from_log"),
    (analysis, "exchange_stamps", "analysis.exchange_stamps"),
    (analysis, "rmse_shift", "analysis.metrics"),
    (analysis, "comm_delay_bound", "analysis.metrics"),
    (analysis, "capacity_check", "analysis.metrics"),
    (analysis, "hunting_metric", "analysis.metrics"),
    (analysis, "response_time", "analysis.metrics"),
)

_N_ACTIONS = len(occupants.ActionType)


def _behave_counts(args, result):
    # behave(agent, score, ...) draws one number per action type unless the
    # agent is comfortable (score 0), in which case it returns before drawing.
    drew = args[1] != 0.0
    return (("occupants.behave_calls", 1),
            ("occupants.draws", _N_ACTIONS if drew else 0),
            ("occupants.actions", len(result)))


# (owner, attribute, function of (args, result) giving (counter, increment)s)
COUNTS = (
    (plant.HvacUnit, "step", lambda args, result: (("plant.substeps", 1),)),
    (plant.PlantSim, "drain_events",
     lambda args, result: (("plant.limitation_events", len(result)),)),
    (occupants, "behave", _behave_counts),
    (geb.SlowControllerHarness, "submit",
     lambda args, result: (("geb.submitted", 1),)),
    (datastore.VariableKey, "__post_init__",
     lambda args, result: (("datastore.keys_built", 1),)),
)


class Tracer:
    """Context manager that installs span and count wrappers while active."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
        return wrapped

    def _count(self, measure, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, inc in measure(args, result):
                counts[key] += inc
            return result
        return wrapped

    def _install(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for owner, attr, measure in COUNTS:
            self._install(owner, attr, self._count(measure, vars(owner)[attr]))
        for owner, attr, name in SPANS:
            self._install(owner, attr, self._span(name, vars(owner)[attr]))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one phase."""
        return len(self.spans)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children are merged)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (_, t0, t1, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(t1 - t0 - covered)
    return out


def by_name(spans, base: int = 0,
            root: str | None = None) -> dict[str, tuple[int, int, int]]:
    """name -> (calls, total ns, self ns) over a slice of the span list.

    Parents index the full list, so `base` is the slice's offset in it.  With
    `root`, only spans inside a top-level span of that name are counted."""
    rebased = [(n, t0, t1, p - base if p >= base else -1)
               for n, t0, t1, p in spans]
    selfs = self_times(rebased)
    # A parent starts, and so is indexed, before any of its children.
    roots: list[int] = []
    for i, (_, _, _, p) in enumerate(rebased):
        roots.append(i if p < 0 else roots[p])
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for i, ((name, t0, t1, _), s) in enumerate(zip(rebased, selfs)):
        if root is not None and rebased[roots[i]][0] != root:
            continue
        agg = out[name]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += s
    return {k: tuple(v) for k, v in out.items()}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
