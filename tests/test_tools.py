"""The scripts under tools/ that reproduce shipped configurations."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from tests.helpers import scenario_doc

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_hunting_reproduces_the_shipped_hunting_cell():
    sweep = _load("sweep_hunting")
    doc = scenario_doc("h1_hunting")
    hvac = doc["plant"]["hvac"]
    assert hvac["kp_w_per_k"] == 12000.0
    t_star, t_dis_star = sweep.equilibrium(12000.0)
    assert t_star == doc["building"]["t_init_c"]
    assert t_dis_star == hvac["t_dis_init_c"]
    assert sweep.trial("method1", 12000.0, hvac["tau_dis_s"]).is_hunting
    assert not sweep.trial("method2", 12000.0, hvac["tau_dis_s"]).is_hunting


_SPEC = {"end_to_end": [
    {"name": "run_us_per_step", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "export_rows_per_s", "unit": "rows/s", "better": "higher",
     "bound": 0.25},
]}


def _runs(parent: list[float], change: list[float], metric: str) -> list[dict]:
    return [{"parent": {"metrics": {metric: p}}, "change": {"metrics": {metric: c}}}
            for p, c in zip(parent, change)]


def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, capsys):
    bench = _load("bench_pairs")

    def no_runs(*args):
        raise AssertionError("ran a pair")
    bench.run_once = no_runs
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as e:
        bench.main([str(tmp_path), str(tmp_path), "--out", str(out),
                    "--workload", "fine_log", "--pairs", "1"])
    assert e.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_bench_pairs_claims_a_gain_on_nine_of_ten_wins_beyond_the_iqr():
    summarise = _load("bench_pairs").summarise
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    change = [80.0] * 9 + [110.0]  # the last pair is a loss
    m = summarise(_runs(parent, change, "run_us_per_step"), _SPEC)["run_us_per_step"]
    assert (m["change_wins"], m["pairs"]) == (9, 10)
    assert m["parent"]["median"] == 102.0 and m["change"]["median"] == 80.0
    assert m["gain_claimable"] and m["within_bound"]
    assert m["median_change"] == pytest.approx(80.0 / 102.0 - 1.0)
    # eight wins are not enough, however large the gap
    change = [80.0] * 8 + [110.0, 110.0]
    m = summarise(_runs(parent, change, "run_us_per_step"), _SPEC)["run_us_per_step"]
    assert m["change_wins"] == 8 and not m["gain_claimable"]
    # ten wins by less than the parent's interquartile range are not a gain
    change = [p - 0.5 for p in parent]
    m = summarise(_runs(parent, change, "run_us_per_step"), _SPEC)["run_us_per_step"]
    assert m["change_wins"] == 10 and not m["gain_claimable"]


def test_bench_pairs_bound_of_a_higher_is_better_metric():
    summarise = _load("bench_pairs").summarise
    parent = [1000.0] * 4

    def export(change):
        return summarise(_runs(parent, change, "export_rows_per_s"),
                         _SPEC)["export_rows_per_s"]
    assert export([800.0] * 4)["within_bound"]  # 20 % fewer rows/s
    assert not export([700.0] * 4)["within_bound"]  # 30 % fewer
    faster = export([1500.0] * 4)
    assert faster["within_bound"] and faster["change_wins"] == 4
    assert faster["gain_claimable"]


def test_bench_pairs_unresolved_when_the_parent_spreads_beyond_the_bound():
    summarise = _load("bench_pairs").summarise

    def steps(parent, change):
        return summarise(_runs(parent, change, "run_us_per_step"),
                         _SPEC)["run_us_per_step"]
    # parent quartiles 80 and 120 around a median of 100: an IQR of 40 %,
    # beyond the 25 % bound, so a change within it cannot be told apart
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]
    m = steps(parent, [110.0, 90.0, 100.0, 115.0, 85.0])
    assert m["parent"]["q3"] - m["parent"]["q1"] == 40.0
    assert m["unresolved"] and m["within_bound"]
    # unless every change run beats every parent run
    m = steps(parent, [50.0, 55.0, 45.0, 58.0, 40.0])
    assert m["change_wins"] == 5 and not m["unresolved"]
    # a change run of 61 does not beat the fastest parent run, 60
    assert steps(parent, [50.0, 55.0, 45.0, 58.0, 61.0])["unresolved"]
    # a parent IQR of exactly the bound still resolves
    parent = [75.0, 87.5, 100.0, 112.5, 125.0]
    assert not steps(parent, parent)["unresolved"]
    # a higher-is-better metric: every change run above every parent run
    m = summarise(_runs([600.0, 800.0, 1000.0, 1200.0, 1400.0],
                        [1500.0, 1600.0, 1700.0, 1800.0, 1900.0],
                        "export_rows_per_s"), _SPEC)["export_rows_per_s"]
    assert not m["unresolved"]


def _stubbed_bench(tmp_path, failed_on=None, change_analysis=None):
    """bench_pairs with run_once stubbed: the change side runs 20 % faster,
    the side named by failed_on fails one operation per run, and the change
    side's analysis results are change_analysis(seed) when given."""
    bench = _load("bench_pairs")
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        path.mkdir()
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps(_SPEC))

    def run_once(root, workload, seed, seconds):
        side = "change" if root == sides["change"].resolve() else "parent"
        scale = 0.8 if side == "change" else 1.0
        analysis = {"delay_bound_s": 0.25, "hunting": [float("nan"), seed, False]}
        if side == "change" and change_analysis is not None:
            analysis = change_analysis(seed)
        return {"returncode": 0, "attempted": 5, "failed": int(side == failed_on),
                "run_csv_sha256": f"{workload}-{seed}", "analysis": analysis,
                "environment": {"side": side},
                "metrics": {"run_us_per_step": scale * (100.0 + seed % 3),
                            "export_rows_per_s": 1000.0}}
    bench.run_once = run_once
    out = tmp_path / "BENCH.json"
    argv = [str(sides["parent"]), str(sides["change"]), "--out", str(out),
            "--workload", "plant_day", "--workload", "fine_log", "--pairs", "3"]
    return bench.main(argv), out


def test_bench_pairs_prints_its_verdict_and_both_environments(tmp_path, capsys):
    code, out = _stubbed_bench(tmp_path)
    assert code == 0
    report = json.loads(out.read_text())
    for workload in ("plant_day", "fine_log"):
        w = report["workloads"][workload]
        assert w["environment"] == {"parent": {"side": "parent"},
                                    "change": {"side": "change"}}
        assert w["run_csv_identical"]
        assert w["analysis_identical"]  # NaN results match NaN
    verdict = capsys.readouterr().out.splitlines()[-6:]
    assert verdict == [
        "plant_day run_us_per_step: parent 101 change 80.8 us (-20.0 %), "
        "wins 3/3, gain_claimable true, within_bound true, unresolved false",
        "plant_day export_rows_per_s: parent 1000 change 1000 rows/s (+0.0 %), "
        "wins 0/3, gain_claimable false, within_bound true, unresolved false",
        "plant_day bytes: run_csv_identical true, analysis_identical true",
        "fine_log run_us_per_step: parent 101 change 80.8 us (-20.0 %), "
        "wins 3/3, gain_claimable true, within_bound true, unresolved false",
        "fine_log export_rows_per_s: parent 1000 change 1000 rows/s (+0.0 %), "
        "wins 0/3, gain_claimable false, within_bound true, unresolved false",
        "fine_log bytes: run_csv_identical true, analysis_identical true"]


@pytest.mark.parametrize("failed_on, code", [("change", 1), ("parent", 0)])
def test_bench_pairs_exits_1_when_a_change_run_fails(tmp_path, capsys,
                                                     failed_on, code):
    assert _stubbed_bench(tmp_path, failed_on) == (code, tmp_path / "BENCH.json")
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert report["workloads"]["fine_log"]["failed_ops"][failed_on] == 3
    assert ("change-side runs failed" in capsys.readouterr().err) == (code == 1)


def test_bench_pairs_records_each_runs_analysis_and_compares_them(tmp_path):
    # the change side reports the integer crossing count as a string (as
    # json.dump(default=str) writes a numpy integer) for one seed only
    def change_analysis(seed):
        hunting = [float("nan"), str(seed) if seed == 202 else seed, False]
        return {"delay_bound_s": 0.25, "hunting": hunting}
    code, out = _stubbed_bench(tmp_path, change_analysis=change_analysis)
    assert code == 0
    w = json.loads(out.read_text())["workloads"]["fine_log"]
    assert not w["analysis_identical"] and w["run_csv_identical"]
    assert [r["seed"] for r in w["analysis"]] == [201, 202, 203]
    assert w["analysis"][1]["parent"]["hunting"][1] == 202
    assert w["analysis"][1]["change"]["hunting"][1] == "202"
    assert math.isnan(w["analysis"][0]["change"]["hunting"][0])
