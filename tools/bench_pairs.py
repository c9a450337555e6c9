#!/usr/bin/env python3
"""Paired benchmark of two checkouts: parent vs change, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_2.json \
        --workload plant_day --workload fine_log --pairs 10 --seconds 60

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each checkout (at least two pairs), one process at a time, with a fresh seed per pair (S = --seed0
+ pair index) and the side that runs first alternating between pairs.  For
every end-to-end metric named in the change's BENCHMARK.json the output holds
each side's median and quartiles (inclusive method), every run's value, the
relative change of the medians, whether that change stays within the metric's
bound (the change's median is no worse than the parent's by more than the
bound), how many pairs the change won, whether a gain is claimable: the
change wins at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range, and whether the metric is
unresolved: the parent's interquartile range, relative to its median,
exceeds the metric's bound, so the runs spread too widely to tell a change
within the bound from one beyond it, unless every change run beats every
parent run.  Failed operations, each side's
environment, the sha256 of every run's run.csv and whether every pair's
digests agree are kept too, and so are every run's analysis results
(perfbench's `details.analysis`) and whether every pair's results agree
(`analysis_identical`, compared as sorted-key JSON, so NaN equals NaN).  A run that prints no result line stops the tool
with the command and its return code.  `src_lines` holds the lines of each
checkout's src/**/*.py and the change's net difference.

At the end it prints its verdict: one line with src_lines, then one line
per workload and end-to-end metric (both medians, the change in per cent,
the pairs won, gain_claimable, within_bound and unresolved) and, per
workload, one line with run_csv_identical and analysis_identical.  It
exits 1, after writing the file, when any change-side run failed an
operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    try:
        last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{' '.join(cmd)} (in {root}) printed no result line, "
                         f"return code {proc.returncode}") from None
    result_file = root / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    detail = json.loads(result_file.read_text(encoding="utf-8"))
    return {"returncode": proc.returncode, "attempted": last["attempted"],
            "failed": last["failed"], "run_csv_sha256": detail["run_csv_sha256"],
            "analysis": detail["details"].get("analysis"),
            "environment": detail["environment"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def src_lines(root: Path) -> int:
    """Lines of the checkout's src/**/*.py files."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src").glob("**/*.py"))


def same_analysis(pair: dict) -> bool:
    """Whether both sides of a pair gave the same analysis results."""
    return (json.dumps(pair["parent"]["analysis"], sort_keys=True)
            == json.dumps(pair["change"]["analysis"], sort_keys=True))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        pairs = [(r["parent"]["metrics"].get(name, float("nan")),
                  r["change"]["metrics"].get(name, float("nan"))) for r in runs]
        parent = spread([p for p, _ in pairs])
        change = spread([c for _, c in pairs])
        wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
        gap = sign * (parent["median"] - change["median"])
        median_change = change["median"] / parent["median"] - 1.0
        parent_iqr = parent["q3"] - parent["q1"]
        every_run_beaten = all(sign * (p - c) > 0 for p in parent["runs"]
                               for c in change["runs"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "median_change": median_change,
            "within_bound": sign * median_change <= m["bound"],
            "change_wins": wins, "pairs": len(pairs),
            "gain_claimable": wins >= 0.9 * len(pairs) and gap > parent_iqr,
            "unresolved": parent_iqr / abs(parent["median"]) > m["bound"]
            and not every_run_beaten,
        }
    return out


def verdict_lines(report: dict) -> list[str]:
    """The src/ line count of both sides, one line per workload and
    end-to-end metric of a written report, and one per workload on whether
    both sides gave the same bytes."""
    src = report["src_lines"]
    lines = [f"src lines: parent {src['parent']} change {src['change']} "
             f"(net {src['net']:+d})"]
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            lines.append(
                f"{workload} {name}: parent {m['parent']['median']:.6g} change "
                f"{m['change']['median']:.6g} {m['unit']} "
                f"({100.0 * m['median_change']:+.1f} %), wins "
                f"{m['change_wins']}/{m['pairs']}, gain_claimable "
                f"{str(m['gain_claimable']).lower()}, within_bound "
                f"{str(m['within_bound']).lower()}, unresolved "
                f"{str(m['unresolved']).lower()}")
        lines.append(
            f"{workload} bytes: run_csv_identical "
            f"{str(w['run_csv_identical']).lower()}, analysis_identical "
            f"{str(w['analysis_identical']).lower()}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=201)
    p.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2: quartiles need two runs per side")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines = {side: src_lines(root) for side, root in sides.items()}

    report = {"command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
              "pairs": args.pairs, "seeds": [args.seed0 + i for i in range(args.pairs)],
              "quartiles": "statistics.quantiles(n=4, method='inclusive')",
              "src_lines": {**lines, "net": lines["change"] - lines["parent"]},
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: run_us_per_step "
                      f"{pair[side]['metrics'].get('run_us_per_step', float('nan')):.1f}",
                      flush=True)
            runs.append(pair)
        report["workloads"][workload] = {
            "environment": {s: runs[0][s]["environment"] for s in sides},
            "metrics": summarise(runs, spec),
            "failed_ops": {s: sum(r[s]["failed"] for r in runs) for s in sides},
            "attempted_ops": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
            "run_csv_sha256": [{"seed": r["seed"], "parent": r["parent"]["run_csv_sha256"],
                                "change": r["change"]["run_csv_sha256"]} for r in runs],
            "run_csv_identical": all(r["parent"]["run_csv_sha256"]
                                     == r["change"]["run_csv_sha256"] for r in runs),
            "analysis": [{"seed": r["seed"], "parent": r["parent"]["analysis"],
                          "change": r["change"]["analysis"]} for r in runs],
            "analysis_identical": all(same_analysis(r) for r in runs),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("\n".join(verdict_lines(report)))
    failed = {w: r["failed_ops"]["change"] for w, r in report["workloads"].items()}
    if any(failed.values()):
        print(f"change-side runs failed operations: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
