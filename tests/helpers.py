"""Shared test plumbing: scenario loading, deep merge, engine driving."""

from __future__ import annotations

import copy
from pathlib import Path

import flexbench
from flexbench.orchestrator import Engine
from flexbench.scenario import load_scenario, validate_scenario

SCENARIO_DIR = Path(flexbench.__file__).parent / "scenarios"


def deep_merge(base: dict, patch: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in patch.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def block(dotted: str, **overrides) -> dict:
    """A fresh copy of one sub-block of validate_scenario({}) with overrides
    merged in (into nested objects too), for the component built from it:
    unpacked for keyword constructors, HvacUnit(**block("plant.hvac",
    tau_dis_s=0.0)), or as it is for dict-taking ones,
    GebController(block("geb", baseline={"t_cool_c": 31.5})).  Overrides
    are not validated, so give them in validated form (a window is a
    {"start_s", "end_s"} object)."""
    node = validate_scenario({})
    for part in dotted.split("."):
        node = node[part]
    return deep_merge(node, overrides)


def agent_block(**fields) -> dict:
    """One validated occupants.agents entry (fields need coords), for
    OccupantAgent(agent_id, **agent_block(...))."""
    doc = {"occupants": {"agents": [fields]}}
    return validate_scenario(doc)["occupants"]["agents"][0]


def cfg_from(doc: dict | None = None, patch: dict | None = None,
             default_id: str = "test") -> dict:
    merged = deep_merge(doc or {}, patch or {})
    return validate_scenario(merged, base_dir=str(SCENARIO_DIR),
                             default_id=default_id)


def run_doc(doc: dict | None = None, patch: dict | None = None,
            default_id: str = "test"):
    """Build, run and return (RunLog, Engine) for an inline scenario tree."""
    engine = Engine(cfg_from(doc, patch, default_id), base_dir=str(SCENARIO_DIR))
    log = engine.run()
    return log, engine


def scenario_doc(name: str) -> dict:
    return load_scenario(str(SCENARIO_DIR / f"{name}.json"))


def run_scenario(name: str, patch: dict | None = None):
    """Run one of the packaged scenarios, optionally patched."""
    doc = scenario_doc(name)
    if patch:
        doc = deep_merge(doc, patch)
    cfg = validate_scenario(doc, base_dir=str(SCENARIO_DIR), default_id=name)
    engine = Engine(cfg, base_dir=str(SCENARIO_DIR))
    return engine.run(), engine
