"""Timed and traced passes over one workload, with output checks.

One process measures one workload: a closed loop with a single caller that
drives only flexbench's public API (`load_scenario`, `validate_scenario`,
`Engine`, `Engine.step_once` / `Engine.run`, `write_csv`, `import_run` and the
`analysis` functions).  Calls go through module attributes so that the
tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import traceback
import tracemalloc
from statistics import median
from time import perf_counter, perf_counter_ns

from flexbench import analysis, datastore, orchestrator, scenario

import tracer
from workloads import discharge_step

SETUP_REPS = 15          # timed set-ups before each run
REPEATS = 3              # timed exports and analyses in each iteration
MALLOC_STEPS = 300       # steps of the tracemalloc pass

# (a, b) pairs compared by shifted RMSE; the first one is the control-delay
# check: the plant echoes the supervisory cooling setpoint one step late.
PAIRS = (
    ("plant.t_cool_spt:emulated", "ctrl.t_cool_spt:setpoint"),
    ("plant.t_heat_spt:emulated", "ctrl.t_heat_spt:setpoint"),
    ("plant.t_zone_emu:emulated", "zone.t:simulated"),
    ("plant.load_sensible:emulated", "zone.load_sensible:simulated"),
    ("plant.t_out:emulated", "out.t:simulated"),
)
DIS_PAIR = ("plant.t_dis:emulated", "ctrl.t_dis_spt:setpoint")

# Layers whose self time makes up a step, in report order.
STEP_LAYERS = ("orchestrator", "streams", "plant", "building", "occupants",
               "geb", "datastore")


class OpFailed(Exception):
    """An operation or check failed; the current pass stops."""


class Ops:
    """Operations attempted and failed.  Operations are set-ups, runs,
    exports, imports, analyses and checks; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def do(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any failure of the program is a result
            where = traceback.extract_tb(e.__traceback__)[-1]
            self.failures.append(f"{name}: {type(e).__name__}: {e} "
                                 f"({os.path.basename(where.filename)}:{where.lineno})")
            raise OpFailed(name) from e

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            raise OpFailed(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def setup(doc_path: str):
    """Scenario load + validation + engine construction: the set-up a user
    pays before the first step.  Returns (effective config, engine)."""
    doc = scenario.load_scenario(doc_path)
    cfg = scenario.validate_scenario(doc)
    return cfg, orchestrator.Engine(cfg)


def timed_setups(doc_path: str, reps: int) -> tuple[list[float], tuple]:
    """`reps` set-ups in a row, each timed in seconds, after a full collection.

    The caller holds no earlier run's Engine or RunLog, so the collector has
    nothing of theirs to traverse.  Returns the times and the last
    (config, engine), which the caller may run."""
    gc.collect()
    times = []
    for _ in range(reps):
        built = None  # drop the previous engine before building the next
        t0 = perf_counter()
        built = setup(doc_path)
        times.append(perf_counter() - t0)
    return times, built


def drive(engine) -> tuple[object, list[int], int]:
    """Step a fresh engine to the horizon one `step_once` at a time.

    Returns the finished RunLog (from `Engine.run`, which with no steps left
    only builds it), each step's host time in ns and the whole run's host
    time in ns, up to the finished RunLog."""
    horizon = engine.horizon
    steps = []
    append = steps.append
    step_once = engine.step_once
    start = perf_counter_ns()
    for _ in range(horizon):
        t0 = perf_counter_ns()
        step_once()
        append(perf_counter_ns() - t0)
    log = engine.run()
    return log, steps, perf_counter_ns() - start


def analyze(log, cfg: dict, dis) -> dict:
    """The paper's coupling-quality analysis of one RunLog."""
    cache = {}

    def series(expr):
        if expr not in cache:
            cache[expr] = analysis.series_from_log(log, expr)
        return cache[expr]

    out = {"rmse": {}}
    pairs = PAIRS + ((DIS_PAIR,) if dis else ())
    for a, b in pairs:
        sa, sb = series(a), series(b)
        out["rmse"][f"{a} vs {b}"] = (analysis.rmse_shift(sa, sb, 0),
                                      analysis.rmse_shift(sa, sb, -1))
    step = cfg["run"]["step_size_s"]
    hw, sw = analysis.exchange_stamps(log)
    out["delay_bound_s"] = analysis.comm_delay_bound(hw, sw)
    cap = analysis.capacity_check(series("plant.q_hvac:emulated"),
                                  cfg["plant"]["hvac"]["rated_cooling_w"])
    out["capacity_ratio"] = cap.ratio
    hunt = analysis.hunting_metric(series("plant.t_zone_emu:emulated"),
                                   series("plant.t_cool_spt:emulated"), step)
    out["hunting"] = [hunt.peak_to_peak, hunt.crossings, hunt.is_hunting]
    if dis:
        out["response_time_s"] = analysis.response_time(
            series("plant.t_dis:emulated"), step, dis[0])
    return out


def check_analysis(ops: Ops, result: dict, cfg: dict, dis) -> None:
    first = f"{PAIRS[0][0]} vs {PAIRS[0][1]}"
    rmse_m1 = result["rmse"][first][1]
    ops.check("control_delay_rmse", rmse_m1 == 0.0,
              f"rmse at shift -1 is {rmse_m1!r}, expected exactly 0")
    lat = cfg["delays"]["comm_latency_s"]
    jit = cfg["delays"]["jitter_s"]
    hi = lat + 2.0 * jit + orchestrator.COMPUTE_FLOOR_MS / 1000.0
    bound = result["delay_bound_s"]
    ops.check("delay_bound", lat <= bound <= hi + 1e-9,
              f"bound {bound} s outside [{lat}, {hi}]")
    if dis:
        rt = result["response_time_s"]
        step = cfg["run"]["step_size_s"]
        ops.check("response_time", abs(rt - dis[1]) <= step,
                  f"response {rt} s vs discharge time constant {dis[1]} s")


def check_same_file(ops: Ops, name: str, path: str, ref_sha: str) -> None:
    sha = sha256_file(path)
    ops.check(name, sha == ref_sha, f"{path}: sha256 {sha} != {ref_sha}")


class Workload:
    """One generated scenario document, written to `scenario.json` in a work
    directory.  `dis` is its discharge step (see `discharge_step`) or None;
    `run_sha` is the sha256 of the first run's CSV, which every later run
    and every re-export must reproduce."""

    def __init__(self, doc: dict, work_dir: str):
        self.dis = discharge_step(doc)
        os.makedirs(work_dir, exist_ok=True)
        self.dir = work_dir
        self.doc_path = os.path.join(work_dir, "scenario.json")
        with open(self.doc_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        self.run_sha: str | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def repeated(ops: Ops, name: str, fn, *args) -> tuple[object, int]:
    """REPEATS calls in a row; the last result and the fastest time in ns.
    A burst of interference that slows one or two of the calls drops out;
    the host's slower state, which lasts seconds, does not."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        result = ops.do(name, fn, *args)
        times.append(perf_counter_ns() - t0)
    return result, min(times)


def one_iteration(wl: Workload, ops: Ops, tr: tracer.Tracer | None = None) -> dict:
    """One run, REPEATS exports, an import, a re-export and REPEATS analyses,
    each timed.

    With a tracer, the result also carries the spans and counts of the
    stepping loop and of the phases after it."""
    setup_mark = tr.mark() if tr else 0
    setups, (cfg, eng) = ops.do("setup", timed_setups, wl.doc_path, SETUP_REPS)
    if tr:
        step_mark, counts0 = tr.mark(), dict(tr.counts)
    log, steps, run_ns = ops.do("run", drive, eng)
    out = {"steps": len(steps), "run_ns": run_ns, "step_ns": steps,
           "setup_s": setups}
    if tr:
        out["trace"] = summarise_steps(tr, step_mark, counts0, steps)
        out["trace"]["discarded"] = eng.harness.discarded if eng.harness else 0
        out["trace"]["setup"] = tracer.by_name(tr.spans[setup_mark:step_mark],
                                               setup_mark)
        after_mark = tr.mark()
    meta = datastore.meta_dict(log.meta)
    csv = wl.path("run.csv")

    rows, out["export_ns"] = repeated(ops, "export", datastore.write_csv, log, csv)
    out["rows"] = rows
    if wl.run_sha is None:
        wl.run_sha = sha256_file(csv)
    else:
        check_same_file(ops, "same_seed_same_bytes", csv, wl.run_sha)
    # Free the run's log before the import builds another, so peak RSS does
    # not depend on when the collector happens to run.
    del log, eng
    gc.collect()

    keys0 = tr.counts["datastore.keys_built"] if tr else 0
    t0 = perf_counter_ns()
    imported = ops.do("import", datastore.import_run, csv, meta)
    out["import_ns"] = perf_counter_ns() - t0
    if tr:
        out["trace"]["keys_built_on_import"] = \
            tr.counts["datastore.keys_built"] - keys0
    again = wl.path("reexport.csv")
    ops.do("reexport", datastore.write_csv, imported, again)
    check_same_file(ops, "roundtrip_bytes", again, wl.run_sha)

    result, out["analyze_ns"] = repeated(ops, "analyze", analyze, imported, cfg,
                                         wl.dis)
    check_analysis(ops, result, cfg, wl.dis)
    out["analysis"] = result
    if tr:
        out["trace"]["after"] = tracer.by_name(tr.spans[after_mark:], after_mark)
    return out


def summarise_steps(tr: tracer.Tracer, mark: int, counts0: dict,
                    step_ns: list[int]) -> dict:
    """Per-layer self time of the stepping loop, against its outside timing,
    and the time `Engine.run` took to build the RunLog after the last step."""
    spans = tr.spans[mark:]
    agg = tracer.by_name(spans, mark, root="orchestrator.step")
    layers = {layer: 0 for layer in STEP_LAYERS}
    for name, (_, _, self_ns) in agg.items():
        layers[tracer.layer_of(name)] += self_ns
    counts = {k: v - counts0.get(k, 0) for k, v in tr.counts.items()}
    to_runlog_ns = [t1 - t0 for name, t0, t1, _ in spans
                    if name == "datastore.to_runlog"]
    return {"by_name": agg, "layers": layers, "total_ns": sum(step_ns),
            "counts": counts, "to_runlog_ns": to_runlog_ns[0]}


def bytes_per_sample(wl: Workload, ops: Ops, rows_per_step: float) -> float:
    """Memory the store gains per logged sample, from a tracemalloc pass over
    the first MALLOC_STEPS steps (tracemalloc slows every allocation)."""
    _, (cfg, eng) = ops.do("setup", timed_setups, wl.doc_path, 1)
    steps = min(MALLOC_STEPS, eng.horizon)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            eng.step_once()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / (rows_per_step * steps)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_SELF excludes child processes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iterate(wl: Workload, ops: Ops, seconds: float, traced_too: bool) -> list:
    """Iterations until the next would overrun `seconds` (at least one),
    after a warm-up iteration that is checked but not reported: it pays the
    first-call costs and writes the CSV every later run must reproduce.
    With traced_too, each entry is an (untraced, traced) pair of
    iterations."""
    done = []
    deadline = perf_counter() + seconds
    one_iteration(wl, ops)
    while True:
        t0 = perf_counter()
        if traced_too:
            plain = one_iteration(wl, ops)
            with tracer.Tracer() as tr:
                done.append((plain, one_iteration(wl, ops, tr)))
            del tr
        else:
            done.append(one_iteration(wl, ops))
        took = perf_counter() - t0
        if perf_counter() + took > deadline:
            return done


def slow_phase(values) -> float:
    """The upper decile (nearest rank) of per-iteration values.

    The host alternates, for spans of a second to minutes, between two speed
    states about 1.5x apart, and the share of a run spent in each moves from
    run to run.  A median over iterations then jumps between the two states;
    the upper decile stays in the slow one, which nearly every run reaches."""
    return percentile(sorted(values), 0.9)


def end_to_end(wl: Workload, ops: Ops, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with tracing off.

    Each iteration gives one value per metric (the median of its set-ups,
    the percentiles of its >= 1000 steps, which leaves >= 10 samples beyond
    p99); a timing is then the slow phase of those values (see
    `slow_phase`).  `step_us_p99` is the median of the runs' p99 instead:
    a run's tail already holds its slowest moments, and their upper decile
    would be one burst of interference."""
    its = iterate(wl, ops, seconds, traced_too=False)
    setups = [median(it["setup_s"]) for it in its]
    run_us = [it["run_ns"] / it["steps"] / 1e3 for it in its]
    p50s, p99s = [], []
    for it in its:
        ordered = sorted(it["step_ns"])
        p50s.append(percentile(ordered, 0.50) / 1e3)
        p99s.append(percentile(ordered, 0.99) / 1e3)
    export_s = [it["export_ns"] / 1e9 for it in its]
    import_s = [it["import_ns"] / 1e9 for it in its]
    analyze_s = [it["analyze_ns"] / 1e9 for it in its]
    rows = its[0]["rows"]
    metrics = {
        "setup_s": slow_phase(setups),
        "run_us_per_step": slow_phase(run_us),
        "step_us_p50": slow_phase(p50s),
        "step_us_p99": median(p99s),
        "export_rows_per_s": rows / slow_phase(export_s),
        "import_rows_per_s": rows / slow_phase(import_s),
        "analyze_s": slow_phase(analyze_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"setups_per_iteration": SETUP_REPS, "iterations": len(its),
               "rows": rows, "steps_per_run": its[0]["steps"],
               "setup_s_each": setups, "run_us_per_step_each": run_us,
               "step_us_p50_each": p50s, "step_us_p99_each": p99s,
               "export_s_each": export_s, "import_s_each": import_s,
               "analyze_s_each": analyze_s, "analysis": its[0]["analysis"]}
    return metrics, details


def _ns_per_call(agg: dict, name: str, self_only: bool = False) -> float:
    calls, total, self_ns = agg.get(name, (0, 0, 0))
    return (self_ns if self_only else total) / calls if calls else 0.0


def layer_sample(it: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    t, steps = it["trace"], it["steps"]
    by, c, after = t["by_name"], t["counts"], t["after"]

    def self_us(name):
        return _ns_per_call(by, name, self_only=True) / 1e3

    def per_step(count):
        return count / steps

    layered = sum(t["layers"].values())
    m = {
        "scenario.validate_ms": _ns_per_call(t["setup"], "scenario.validate") / 1e6,
        "orchestrator.engine_init_ms":
            _ns_per_call(t["setup"], "orchestrator.engine_init") / 1e6,
        "orchestrator.step_self_us": per_step(by["orchestrator.step"][2]) / 1e3,
        "orchestrator.delays_us": self_us("orchestrator.delays"),
        "streams.substream_us": self_us("streams.substream"),
        "streams.substreams": per_step(by.get("streams.substream", (0,))[0]),
        "plant.advance_us": self_us("plant.advance"),
        "plant.measure_us": self_us("plant.measure"),
        "plant.substeps": per_step(c.get("plant.substeps", 0)),
        "plant.limitation_events": c.get("plant.limitation_events", 0),
        "building.zone_step_us": self_us("building.zone_step"),
        "building.weather_us": self_us("building.weather"),
        "occupants.step_us": self_us("occupants.step"),
        "occupants.behave_calls": c.get("occupants.behave_calls", 0),
        "occupants.actions": c.get("occupants.actions", 0),
        "occupants.actions_per_draw":
            c.get("occupants.actions", 0) / c["occupants.draws"]
            if c.get("occupants.draws") else 0.0,
        "geb.step_us": self_us("geb.step"),
        "geb.slow_discarded_ratio":
            t["discarded"] / c["geb.submitted"] if c.get("geb.submitted") else 0.0,
        "datastore.upsert_us": self_us("datastore.upsert"),
        "datastore.upserts": per_step(by["datastore.upsert"][0]),
        "datastore.seal_us": self_us("datastore.seal"),
        "datastore.to_runlog_ms": t["to_runlog_ns"] / 1e6,
        "datastore.write_csv_ms": _ns_per_call(after, "datastore.write_csv") / 1e6,
        "datastore.import_run_ms": _ns_per_call(after, "datastore.import_run") / 1e6,
        "datastore.keys_built_on_import": t["keys_built_on_import"] / it["rows"],
        "analysis.series_from_log_ms":
            _ns_per_call(after, "analysis.series_from_log") / 1e6,
        "analysis.exchange_stamps_ms":
            _ns_per_call(after, "analysis.exchange_stamps") / 1e6,
        "analysis.metrics_ms":
            after.get("analysis.metrics", (0, 0, 0))[1] / REPEATS / 1e6,
        "trace.step_us": per_step(t["total_ns"]) / 1e3,
        "trace.coverage": layered / t["total_ns"],
        "trace.unattributed_us": per_step(t["total_ns"] - layered) / 1e3,
    }
    for layer, ns in t["layers"].items():
        m[f"{layer}.self_share"] = ns / t["total_ns"]
    return m


def per_layer(wl: Workload, ops: Ops, seconds: float) -> tuple[dict, dict]:
    """The per-layer metrics from traced iterations, each paired with an
    untraced one that gives the tracing overhead."""
    pairs = iterate(wl, ops, seconds, traced_too=True)
    samples = [layer_sample(traced) for _, traced in pairs]
    metrics = {name: median(s[name] for s in samples) for name in samples[0]}
    untraced = median(p["run_ns"] / p["steps"] for p, _ in pairs) / 1e3
    traced = median(t["run_ns"] / t["steps"] for _, t in pairs) / 1e3
    metrics["trace.overhead_us_per_step"] = traced - untraced
    rows, steps = pairs[0][0]["rows"], pairs[0][0]["steps"]
    metrics["datastore.bytes_per_sample"] = bytes_per_sample(wl, ops, rows / steps)
    coverage = metrics["trace.coverage"]
    ops.check("trace_coverage", abs(1.0 - coverage) <= 0.05,
              f"layer self times cover {coverage:.3f} of the traced step total")

    first = pairs[0][1]
    by = first["trace"]["by_name"]
    top = sorted(by, key=lambda n: -by[n][2])[:4]
    details = {"traced_iterations": len(pairs), "rows": rows,
               "untraced_run_us_per_step": untraced,
               "top_spans_us_per_step": {n: by[n][2] / steps / 1e3 for n in top}}
    return metrics, details
