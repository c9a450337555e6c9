"""Command line front end.

Exit status contract (scripts rely on it):
  0  success
  1  bad input: invalid scenario, unknown variable, missing or malformed file
  2  run failure: engine abort, datastore violation
  3  analysis could not produce a result (insufficient or unusable data)
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .analysis import (AnalysisError, InsufficientDataError, capacity_check,
                       comm_delay_bound, exchange_stamps, hunting_metric,
                       response_time, rmse_shift, series_from_log)
from .building import WeatherFormatError
from .datastore import (DatastoreError, ExportError, UnknownKeyError,
                        export_run, import_run, meta_dict, write_csv,
                        write_json)
from .orchestrator import Engine, EngineError
from .scenario import ScenarioError, apply_overrides, load_scenario, validate_scenario


def _g(v: float) -> str:
    return format(v, ".6g")


def _load_effective(args) -> tuple[dict, str]:
    doc = load_scenario(args.scenario)
    if args.set:
        doc = apply_overrides(doc, args.set)
    if getattr(args, "seed", None) is not None:
        doc.setdefault("run", {})["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        doc.setdefault("run", {})["mode"] = args.mode
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    default_id = os.path.splitext(os.path.basename(args.scenario))[0]
    cfg = validate_scenario(doc, base_dir=base_dir, default_id=default_id)
    return cfg, base_dir


def cmd_run(args) -> int:
    cfg, base_dir = _load_effective(args)
    engine = Engine(cfg, base_dir=base_dir)
    log = engine.run()

    out_dir = args.out or os.path.join("runs", cfg["run"]["scenario_id"])
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "run.csv")
    rows = write_csv(log, csv_path)

    summary = engine.summary()
    summary["log"] = meta_dict(log.meta)
    summary_path = os.path.join(out_dir, "summary.json")
    write_json(summary, summary_path)
    eff_path = os.path.join(out_dir, "scenario.effective.json")
    write_json(cfg, eff_path)

    print(f"run {cfg['run']['scenario_id']}: {log.meta.steps} steps, {rows} rows")
    for path in (csv_path, summary_path, eff_path):
        print(f"wrote {path}")
    counts = summary["counts"]
    if counts["overruns"] or counts["stale_steps"]:
        print(f"overruns={counts['overruns']} stale_steps={counts['stale_steps']}")
    return 0


def cmd_validate(args) -> int:
    cfg, _ = _load_effective(args)
    run = cfg["run"]
    print(f"ok: {run['scenario_id']} ({run['horizon']} steps of "
          f"{_g(run['step_size_s'])} s, mode {run['mode']}, seed {run['seed']})")
    return 0


def _load_log(args):
    return import_run(args.csv, meta=getattr(args, "meta", None))


def cmd_rmse(args) -> int:
    log = _load_log(args)
    a = series_from_log(log, args.a)
    b = series_from_log(log, args.b)
    value = rmse_shift(a, b, args.shift)
    print(f"rmse[{args.a} vs {args.b}, shift {args.shift:+d}] = {_g(value)}")
    return 0


def cmd_step_response(args) -> int:
    log = _load_log(args)
    y = series_from_log(log, args.var)
    t = response_time(y, log.meta.step_size_s, args.event,
                      final_window=args.final_window, lead=args.lead)
    print(f"response_time[{args.var}, event {args.event}] = {_g(t)} s")
    return 0


def cmd_hunting(args) -> int:
    log = _load_log(args)
    pv = series_from_log(log, args.pv)
    sp = series_from_log(log, args.sp)
    v = hunting_metric(pv, sp, log.meta.step_size_s, settle_s=args.settle,
                       window_s=args.window, eps_amp=args.eps_amp,
                       n_min=args.n_min)
    period = "n/a" if v.period_s is None else f"{_g(v.period_s)} s"
    print(f"hunting[{args.pv}]: ptp={_g(v.peak_to_peak)} C "
          f"crossings={v.crossings} period={period} "
          f"verdict={'hunting' if v.is_hunting else 'stable'}")
    return 0


def cmd_delay_bound(args) -> int:
    log = _load_log(args)
    hw, sw = exchange_stamps(log)
    bound = comm_delay_bound(hw, sw)
    print(f"delay_bound = {_g(bound)} s over {len(hw)} steps")
    return 0


def cmd_capacity(args) -> int:
    log = _load_log(args)
    load = series_from_log(log, args.var)
    rep = capacity_check(load, args.rated, r_lo=args.lo, r_hi=args.hi)
    print(f"capacity[{args.var}]: peak={_g(rep.peak_w)} W "
          f"rated={_g(rep.rated_w)} W ratio={_g(rep.ratio)} verdict={rep.verdict}")
    return 0


def cmd_export(args) -> int:
    log = _load_log(args)
    summary = export_run(log, args.out)
    for path in summary.files:
        print(f"wrote {path}")
    print(f"{summary.rows_written} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flexbench",
                                 description="Coupled plant/building run driver "
                                             "and integration-quality analyzer")
    ap.add_argument("--version", action="version", version=f"flexbench {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def scenario_args(p):
        p.add_argument("scenario", help="scenario JSON path")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario entry (dotted path, JSON value)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--mode", choices=["fast", "realtime"],
                       help="override run.mode")

    p = sub.add_parser("run", help="execute a scenario and write its artifacts")
    scenario_args(p)
    p.add_argument("--out", help="output directory (default runs/<scenario_id>)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("validate", help="check a scenario without running it")
    scenario_args(p)
    p.set_defaults(fn=cmd_validate)

    pa = sub.add_parser("analyze", help="metrics over an exported run CSV")
    asub = pa.add_subparsers(dest="metric", required=True)

    def csv_args(p):
        p.add_argument("--csv", required=True, help="run CSV path")
        p.add_argument("--meta", help="metadata JSON (default: sidecar/summary)")

    p = asub.add_parser("rmse", help="shifted RMSE between two variables")
    csv_args(p)
    p.add_argument("--a", required=True, metavar="NAME:SOURCE")
    p.add_argument("--b", required=True, metavar="NAME:SOURCE")
    p.add_argument("--shift", type=int, default=0,
                   help="pair a[t] with b[t+shift] (default 0)")
    p.set_defaults(fn=cmd_rmse)

    p = asub.add_parser("step-response",
                        help="63.2 %% response time after a setpoint step")
    csv_args(p)
    p.add_argument("--var", required=True, metavar="NAME:SOURCE")
    p.add_argument("--event", type=int, required=True,
                   help="step index of the last pre-step sample")
    p.add_argument("--final-window", type=int, default=10)
    p.add_argument("--lead", type=int, default=10)
    p.set_defaults(fn=cmd_step_response)

    p = asub.add_parser("hunting", help="sustained-oscillation verdict")
    csv_args(p)
    p.add_argument("--pv", required=True, metavar="NAME:SOURCE")
    p.add_argument("--sp", required=True, metavar="NAME:SOURCE")
    p.add_argument("--settle", type=float, default=600.0)
    p.add_argument("--window", type=float, default=1800.0)
    p.add_argument("--eps-amp", type=float, default=0.5)
    p.add_argument("--n-min", type=int, default=6)
    p.set_defaults(fn=cmd_hunting)

    p = asub.add_parser("delay-bound",
                        help="worst-case exchange round trip from wall stamps")
    csv_args(p)
    p.set_defaults(fn=cmd_delay_bound)

    p = asub.add_parser("capacity", help="peak load vs rated capacity")
    csv_args(p)
    p.add_argument("--var", required=True, metavar="NAME:SOURCE")
    p.add_argument("--rated", type=float, required=True, help="rated capacity, W")
    p.add_argument("--lo", type=float, default=0.5)
    p.add_argument("--hi", type=float, default=1.0)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("export", help="re-export a CSV in canonical form")
    p.add_argument("--csv", required=True, help="source run CSV")
    p.add_argument("--meta", help="metadata JSON for the source")
    p.add_argument("--out", required=True, help="destination directory or .csv path")
    p.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, WeatherFormatError, ExportError, UnknownKeyError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (EngineError, DatastoreError) as e:
        print(f"run error: {e}", file=sys.stderr)
        return 2
    except (InsufficientDataError, AnalysisError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
