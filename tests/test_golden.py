"""Byte identity of the shipped scenarios.

Each shipped scenario, run in fast mode through `flexbench run`, must write
the `run.csv` and `summary.json` pinned here.  A change that moves any byte
of them has to update the digest and declare the numeric change.  The
`scenario.effective.json` it writes is pinned too, so a change to validation
or its defaults shows here even when the run itself does not move.
"""

import hashlib

import pytest

from flexbench.cli import main
from tests.helpers import SCENARIO_DIR

# scenario -> (sha256 of run.csv, sha256 of summary.json)
GOLDEN = {
    "delay_bound": (
        "4c5687919fdfde944f56379ea68c7bb342728ffad90a675f038703eb729e0594",
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
        "412f77b6250359785bd458d9586ca18e84223933f111a201bc624c1d280ea434",
        "420fa298a84b350ee564658d8dca0eb4be972c0ef9afe5ad0234a4bf21b393d1"),
    "step_response": (
        "8c27a6eb31ca6a9c73ccde62a9c0aa65554a139ebcfcf664c0ace6ba5bebc36f",
        "c7224c3a851573594d5db3e6dec2bb320a3d1b33519b2c8e95d8a8ad9b16ee5b"),
}

# scenario -> sha256 of scenario.effective.json
EFFECTIVE = {
    "delay_bound": "a56d47683bc0663a034d39a6c2274ddedb5ee68f120c53fe22b4ae74f5a8a8d0",
    "geb_shed": "45551dd0ecaba3842e27873621c13d9f010cad6dc13d82d13bc767d4ef468c86",
    "geb_shift": "7f6aba3dd73892643be083cc05373e2f00369131a9e0fc142d183627a863069b",
    "h1_hunting": "cbfc45cda0e2f2a3d590477d8b69d42df3ec7a2624a701836ad31d9744c85125",
    "standard_dynamic": "17fec2d4b9f54f566473a10a87ad1449862e621ec3d51c026f6fa2b0de362b10",
    "step_response": "ddc9a2135e8adc1fa8a4b27b473edad3030d70646950a5fd9ec2a3de3b7b6bb7",
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
    assert _sha256(out / "scenario.effective.json") == EFFECTIVE[name]
