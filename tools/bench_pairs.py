#!/usr/bin/env python3
"""Paired benchmark of two checkouts: parent vs change, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_2.json \
        --workload plant_day --workload fine_log --pairs 10 --seconds 60

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each checkout, one process at a time, with a fresh seed per pair (S = --seed0
+ pair index) and the side that runs first alternating between pairs.  For
every end-to-end metric named in the change's BENCHMARK.json the output holds
each side's median and quartiles (inclusive method), every run's value, the
relative change of the medians, how many pairs the change won, and whether a
gain is claimable: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  Failed
operations and the sha256 of every run's run.csv are kept too.
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
    last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    result_file = root / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    detail = json.loads(result_file.read_text(encoding="utf-8"))
    return {"returncode": proc.returncode, "attempted": last["attempted"],
            "failed": last["failed"], "run_csv_sha256": detail["run_csv_sha256"],
            "environment": detail["environment"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


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
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "median_change": change["median"] / parent["median"] - 1.0,
            "change_wins": wins, "pairs": len(pairs),
            "gain_claimable": wins >= 0.9 * len(pairs)
            and gap > parent["q3"] - parent["q1"],
        }
    return out


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
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    report = {"command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
              "pairs": args.pairs, "seeds": [args.seed0 + i for i in range(args.pairs)],
              "quartiles": "statistics.quantiles(n=4, method='inclusive')",
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
        report["environment"] = runs[0]["change"]["environment"]
        report["workloads"][workload] = {
            "metrics": summarise(runs, spec),
            "failed_ops": {s: sum(r[s]["failed"] for r in runs) for s in sides},
            "attempted_ops": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
            "run_csv_sha256": [{"seed": r["seed"], "parent": r["parent"]["run_csv_sha256"],
                                "change": r["change"]["run_csv_sha256"]} for r in runs],
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
