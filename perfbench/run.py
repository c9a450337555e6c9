#!/usr/bin/env python3
"""flexbench benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                      # every workload, 10 s each
    python3 perfbench/run.py --workload fine_log --seed 3 --seconds 10 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  Each workload is measured in its own fresh process (the
all-workload form starts one per workload), so peak RSS belongs to that
workload alone.  `--trace 0` reports the end-to-end metrics, `--trace 1` a
separate traced run with the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results, with
the environment and the sha256 of each run's CSV, go to
`.perfbench_out/results/`.  The exit code is 0 only when every operation and
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import GENERATORS, STRESSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

UNITS = {
    "setup_s": "s", "run_us_per_step": "us", "step_us_p50": "us",
    "step_us_p99": "us", "export_rows_per_s": "rows/s",
    "import_rows_per_s": "rows/s", "analyze_s": "s", "peak_rss_mb": "MB",
}


def _check_sources() -> None:
    if not (SRC / "flexbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flexbench sources at {SRC}")


def _load_program() -> None:
    _check_sources()
    sys.path.insert(0, str(SRC))
    import flexbench
    if Path(flexbench.__file__).resolve().parent != SRC / "flexbench":
        sys.exit(f"perfbench: imported flexbench from {flexbench.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform()}


# Per-layer units follow the name's suffix; other counts are per run.
SUFFIX_UNITS = {"_us": "us", "_us_per_step": "us", "_ms": "ms", "_share": "ratio",
                "_ratio": "ratio", "_per_draw": "ratio", ".coverage": "ratio"}
NAMED_UNITS = {"streams.substreams": "count/step", "plant.substeps": "count/step",
               "datastore.upserts": "count/step",
               "datastore.keys_built_on_import": "count/row",
               "datastore.bytes_per_sample": "B"}


def layer_unit(name: str) -> str:
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def print_layers(workload: str, metrics: dict, details: dict) -> None:
    import measure
    print("  step self time by layer (share of the traced step total):")
    shares = {layer: metrics[f"{layer}.self_share"] for layer in measure.STEP_LAYERS}
    ranked = sorted(shares, key=lambda layer: -shares[layer])
    for layer in ranked:
        print(f"    {layer:<14}{100 * shares[layer]:6.1f} %")
    expected = STRESSES[workload]
    verdict = "yes" if set(ranked[:len(expected)]) == set(expected) else "NO"
    print(f"  built to stress {' + '.join(expected)}; leads the step: {verdict}")
    print("  largest self times: " + ", ".join(
        f"{n} {us:.1f} us/step" for n, us in details["top_spans_us_per_step"].items()))
    print(f"  residual of step_once, named orchestrator.step_self_us "
          f"(_put dispatch, unit dicts, supervise clamps, producer barriers): "
          f"{metrics['orchestrator.step_self_us']:.2f} us/step")
    print(f"  unattributed (outside every span, tracer overhead at the step "
          f"boundary): {metrics['trace.unattributed_us']:.2f} us/step; "
          f"coverage {100 * metrics['trace.coverage']:.2f} %")


def one_workload(args) -> int:
    _load_program()
    import measure
    ops = measure.Ops()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    doc = GENERATORS[args.workload](args.seed)
    wl = measure.Workload(doc, str(work))
    metrics, details = {}, {}
    try:
        ops.do("validate", measure.scenario.validate_scenario, doc)
        if args.trace:
            metrics, details = measure.per_layer(wl, ops, args.seconds)
        else:
            metrics, details = measure.end_to_end(wl, ops, args.seconds)
    except measure.OpFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratio = ops.failed / ops.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        unit = layer_unit(name) if args.trace else UNITS[name]
        print(f"  {name:<34}{value:>16.6g} {unit}")
    print(f"  {'failed_ops_ratio':<34}{ratio:>16.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    if args.trace and metrics:
        print_layers(args.workload, metrics, details)
    print(f"  run.csv sha256 {wl.run_sha}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "run_csv_sha256": wl.run_sha,
              "attempted": ops.attempted, "failed": ops.failed,
              "failed_ops_ratio": ratio, "failures": ops.failures,
              "metrics": metrics, "details": details}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True, default=str)

    units = layer_unit if args.trace else UNITS.get
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {n: {"value": v, "unit": units(n)}
                                  for n, v in metrics.items()}}))
    return 0 if ops.failed == 0 else 1


def all_workloads(args) -> int:
    """Each workload in a fresh child process; their reports are relayed."""
    _check_sources()
    results, code = {}, 0
    for name in GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        code = code or proc.returncode or int(not results[name]["correct"])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(GENERATORS),
                   help="one workload in this process (default: all, one "
                        "child process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload is None:
        return all_workloads(args)
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
