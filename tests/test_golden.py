"""Byte identity of the shipped scenarios.

Each shipped scenario, run in fast mode through `flexbench run`, must write
the `run.csv` and `summary.json` pinned here.  A change that moves any byte
of them has to update the digest and declare the numeric change.
"""

import hashlib

import pytest

from flexbench.cli import main
from tests.helpers import SCENARIO_DIR

# scenario -> (sha256 of run.csv, sha256 of summary.json)
GOLDEN = {
    "delay_bound": (
        "3a075dea8b28c2e0593b9b694fbfad6048950ef2770128e8dfb46d5128edf9b0",
        "ee2c7d957b66a603bec66d753536a51b212049c6eeea4a76e575d778ef210aa6"),
    "geb_shed": (
        "bfa27a48a9b352d9b4112eb07a6510246b8584200bbca918c5734b81d5316950",
        "a50bd0794b224574d1e54f7958dcc0ce9aa202f4f0d6804120edcdb5894e8eb4"),
    "geb_shift": (
        "39966ab60fe7717dc2567e98901d0f60b424d75fcccf92ed76b285a01b4b0824",
        "a94d8393ea8f41dcc6ae1174a4322fe63db3b5d3d1ab333aa350dedb397137cd"),
    "h1_hunting": (
        "babd0acfe0d33532987ec2eb79ea1ab81d9455c9b53680dc36407d7ec716cd21",
        "2451d3b86800829591eecbbf69f2fe1195276ebde759df1d1f0b95407b9db16c"),
    "standard_dynamic": (
        "825232e81985d6ee07b46ec7a692dfe82cb0b29954b071a19d08d47fd900f587",
        "3f1cd1be67ad9d7d7f0a507104ef6b493c680f31ed1f483769c1c872ad8de5b3"),
    "step_response": (
        "8c27a6eb31ca6a9c73ccde62a9c0aa65554a139ebcfcf664c0ace6ba5bebc36f",
        "c7224c3a851573594d5db3e6dec2bb320a3d1b33519b2c8e95d8a8ad9b16ee5b"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out),
                 "--mode", "fast"]) == 0
    capsys.readouterr()
    assert (_sha256(out / "run.csv"), _sha256(out / "summary.json")) == GOLDEN[name]
