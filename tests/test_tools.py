"""The scripts under tools/ that reproduce shipped configurations."""

import importlib.util
from pathlib import Path

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
