"""Tests of the benchmark itself: generators, self-time arithmetic, checks.

Run with: python3 -m pytest perfbench/tests
"""

import json

import pytest

import measure
import tracer
from flexbench.datastore import write_csv
from flexbench.scenario import validate_scenario
from workloads import GENERATORS


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic_and_valid(name):
    gen = GENERATORS[name]
    for seed in (0, 1, 17):
        doc = gen(seed)
        assert json.dumps(doc, sort_keys=True) == json.dumps(gen(seed), sort_keys=True)
        cfg = validate_scenario(doc)
        assert cfg["run"]["seed"] == seed
        # Each run must give at least 10 step samples beyond p99.
        assert cfg["run"]["horizon"] >= 1000
    assert gen(1) != gen(2)


def test_self_times_on_hand_built_tree():
    # root [0, 100) with children a [10, 40) and b [50, 90); a has child
    # c [20, 30); d [60, 70) and e [65, 80) overlap inside b.
    spans = [
        ("orchestrator.step", 0, 100, -1),
        ("plant.advance", 10, 40, 0),
        ("streams.substream", 20, 30, 1),
        ("datastore.upsert", 50, 90, 0),
        ("datastore.seal", 60, 70, 3),
        ("datastore.seal", 65, 80, 3),
        ("orchestrator.step", 100, 110, -1),
    ]
    assert tracer.self_times(spans) == [30, 20, 10, 20, 10, 15, 10]
    agg = tracer.by_name(spans)
    assert agg["orchestrator.step"] == (2, 110, 40)
    assert agg["datastore.seal"] == (2, 25, 25)
    # Without overlapping siblings (a call stack has none), self times add up
    # to the root spans' durations.
    nested = spans[:5] + spans[6:]
    assert sum(tracer.self_times(nested)) == 110


def test_by_name_on_a_slice_and_under_a_root():
    spans = [
        ("datastore.write_csv", 0, 5, -1),
        ("orchestrator.step", 10, 20, -1),
        ("datastore.upsert", 12, 15, 1),
        ("datastore.to_runlog", 20, 30, -1),
    ]
    agg = tracer.by_name(spans[1:], base=1, root="orchestrator.step")
    assert agg == {"orchestrator.step": (1, 10, 7), "datastore.upsert": (1, 3, 3)}


def test_tracer_restores_the_program():
    from flexbench import occupants, plant
    before = (vars(plant.PlantSim)["advance"], occupants.substream)
    with tracer.Tracer():
        assert vars(plant.PlantSim)["advance"] is not before[0]
    assert (vars(plant.PlantSim)["advance"], occupants.substream) == before


def small_doc(seed=3):
    doc = GENERATORS["crowd_grid"](seed)
    doc["run"]["horizon"] = 60
    return doc


def test_flipped_csv_byte_is_a_failed_operation(tmp_path):
    wl = measure.Workload(small_doc(), str(tmp_path))
    ops = measure.Ops()
    measure.one_iteration(wl, ops)
    assert ops.failed == 0
    ok_attempts = ops.attempted

    data = bytearray((tmp_path / "run.csv").read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / "run.csv").write_bytes(bytes(data))
    with pytest.raises(measure.OpFailed):
        measure.check_same_file(ops, "same_seed_same_bytes",
                                str(tmp_path / "run.csv"), wl.run_sha)
    assert ops.failed == 1 and ops.attempted == ok_attempts + 1
    assert ops.failures[0].startswith("same_seed_same_bytes")


def test_changed_output_fails_the_determinism_check(tmp_path, monkeypatch):
    wl = measure.Workload(small_doc(), str(tmp_path))
    ops = measure.Ops()
    measure.one_iteration(wl, ops)

    def corrupted(log, path):
        rows = write_csv(log, path)
        with open(path, "r+b") as f:
            f.seek(-3, 2)
            last = f.read(1)
            f.seek(-3, 2)
            f.write(b"7" if last != b"7" else b"8")
        return rows

    monkeypatch.setattr(measure.datastore, "write_csv", corrupted)
    with pytest.raises(measure.OpFailed):
        measure.one_iteration(wl, ops)
    assert ops.failed == 1
    assert ops.failures[0].startswith("same_seed_same_bytes")


def test_program_exception_is_a_failed_operation(tmp_path, monkeypatch):
    wl = measure.Workload(small_doc(), str(tmp_path))
    ops = measure.Ops()

    def broken(*args, **kwargs):
        raise ValueError("malformed row")

    monkeypatch.setattr(measure.datastore, "import_run", broken)
    with pytest.raises(measure.OpFailed):
        measure.one_iteration(wl, ops)
    assert ops.failed == 1
    assert ops.failures[0].startswith("import: ValueError: malformed row (")


def test_traced_iteration_covers_the_step_total(tmp_path):
    wl = measure.Workload(small_doc(), str(tmp_path))
    ops = measure.Ops()
    with tracer.Tracer() as tr:
        it = measure.one_iteration(wl, ops, tr)
    t = it["trace"]
    assert ops.failed == 0
    assert t["by_name"]["orchestrator.step"][0] == 60
    assert 0.95 <= sum(t["layers"].values()) / t["total_ns"] <= 1.0
    assert t["keys_built_on_import"] == it["rows"]


def test_slow_phase_is_the_upper_decile():
    # Two host states 1.5x apart: the upper decile stays in the slow one
    # whether the slow state holds most of the run or a fifth of it.
    mostly_slow = [150.0] * 16 + [100.0] * 4
    mostly_fast = [150.0] * 4 + [100.0] * 16
    assert measure.slow_phase(mostly_slow) == measure.slow_phase(mostly_fast) == 150.0
    assert measure.slow_phase(list(range(1, 21))) == 18
