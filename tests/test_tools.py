"""The scripts under tools/ that reproduce shipped configurations."""

import importlib.util
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
