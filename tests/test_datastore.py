import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexbench.datastore import (CSV_HEADER, MAX_IMPORT_STEPS, MAX_STAMP_MS,
                                 DataIntegrityError, ExportError, OutOfOrderError,
                                 Source, StepStore, UnknownKeyError, VariableKey,
                                 export_run, import_run, write_csv, write_json,
                                 write_meta)


def make_store(**kw):
    return StepStore(step_size_s=kw.pop("step_size_s", 60.0), **kw)


def k(name, source=Source.SIMULATED, unit="C"):
    return VariableKey(name, source, unit)


class TestKeysAndSamples:
    def test_key_rejects_separator_characters(self):
        for bad in ("a,b", "a b", "a\tb", "", "a\nb"):
            with pytest.raises(DataIntegrityError):
                VariableKey(bad, Source.EMULATED, "C")

    def test_key_accepts_string_source(self):
        key = VariableKey("zone.t", "simulated", "C")
        assert key.source is Source.SIMULATED

    def test_unit_required(self):
        with pytest.raises(DataIntegrityError):
            VariableKey("zone.t", Source.SIMULATED, "")


class TestUpsertAndSeal:
    def test_update_in_place_within_open_step(self):
        s = make_store()
        key = s.register(k("zone.t"))
        s.upsert(0, (key,), [21.0])
        s.upsert(0, (key,), [22.5])
        s.seal(0)
        values, _ = s.to_runlog().columns[key]
        assert values.tolist() == [22.5]

    def test_non_finite_rejected(self):
        s = make_store()
        key = s.register(k("zone.t"))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataIntegrityError):
                s.upsert(0, (key,), [bad])

    def test_non_finite_value_rejects_the_whole_exchange(self):
        s = make_store()
        keys = (k("zone.t"), k("zone.rh", unit="%"), k("zone.w", unit="kg/kg"))
        s.upsert(0, keys, [21.0, 40.0, 0.008], wall_time_ms=7)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DataIntegrityError,
                               match=r"^non-finite value for zone\.rh:simulated at step 1$"):
                s.upsert(1, keys, [22.0, bad, 0.009], wall_time_ms=8)
        s.seal(0)
        s.seal(1)
        log = s.to_runlog()
        for key, first in zip(keys, (21.0, 40.0, 0.008)):
            values, walls = log.columns[key]
            assert values[0] == first and walls[0] == 7.0
            assert np.isnan(values[1]) and np.isnan(walls[1])

    def test_rejected_exchange_writes_no_cell(self):
        s = make_store()
        t, rh = k("zone.t"), k("zone.rh", unit="%")
        s.upsert(0, (t,), [21.0])
        with pytest.raises(DataIntegrityError, match="already registered"):
            s.upsert(0, (rh, k("zone.t", unit="K")), [40.0, 294.0])
        with pytest.raises(DataIntegrityError, match="2 values for 1 keys"):
            s.upsert(0, (t,), [22.0, 23.0])
        with pytest.raises(DataIntegrityError, match="wall stamp"):
            s.upsert(0, (t, rh), [22.0, 41.0], wall_time_ms=MAX_STAMP_MS)
        s.seal(0)
        log = s.to_runlog()
        assert log.keys == (t,) and log.columns[t][0].tolist() == [21.0]

    def test_exchanges_sharing_keys_in_any_order(self):
        s = make_store()
        a, b, c = k("v.a"), k("v.b"), k("v.c")
        for step in range(3):
            s.upsert(step, (a, b), [1.0, 2.0], wall_time_ms=10)
            # a new tuple on every write, its keys out of row order
            s.upsert(step, (c, a), [3.0, 4.0 + step], wall_time_ms=20)
            s.seal(step)
        log = s.to_runlog()
        assert log.columns[a][0].tolist() == [4.0, 5.0, 6.0]
        assert log.columns[a][1].tolist() == [20.0] * 3
        assert log.columns[b][0].tolist() == [2.0] * 3
        assert log.columns[c][1].tolist() == [20.0] * 3
        assert all(col.flags.c_contiguous and not col.flags.writeable
                   for pair in log.columns.values() for col in pair)

    def test_write_below_frontier_rejected(self):
        s = make_store()
        key = s.register(k("zone.t"))
        s.upsert(0, (key,), [21.0])
        s.seal(0)
        with pytest.raises(OutOfOrderError):
            s.upsert(0, (key,), [21.5])

    def test_seal_strict_order(self):
        s = make_store()
        with pytest.raises(OutOfOrderError):
            s.seal(1)
        s.seal(0)
        with pytest.raises(OutOfOrderError):
            s.seal(0)
        s.seal(1)
        assert s.last_sealed == 1

    def test_unit_conflict(self):
        s = make_store()
        s.register(k("zone.t", unit="C"))
        with pytest.raises(DataIntegrityError):
            s.register(k("zone.t", unit="K"))

    def test_sealed_frame_view_is_immutable(self):
        s = make_store()
        key = s.register(k("zone.t"))
        s.upsert(0, (key,), [21.0], wall_time_ms=5)
        s.seal(0)
        values, walls = s.to_runlog().columns[key]
        with pytest.raises(ValueError):
            values[0] = 9.9
        with pytest.raises(ValueError):
            walls[0] = 1.0
        # later steps, and the column growth they cause, leave the log alone
        for step in range(1, 200):
            s.upsert(step, (key,), [30.0])
            s.seal(step)
        assert values.tolist() == [21.0] and walls.tolist() == [5.0]

    def test_sim_time_follows_step_size(self, tmp_path):
        s = make_store(step_size_s=30.0)
        key = s.register(k("zone.t"))
        for step in range(5):
            if step == 4:
                s.upsert(step, (key,), [20.0])
            s.seal(step)
        path = tmp_path / "run.csv"
        assert write_csv(s.to_runlog(), str(path)) == 1
        assert path.read_text().split("\n")[1].split(",")[:2] == ["4", "120"]

    def test_late_column_has_gaps_before_its_first_step(self):
        s = make_store()
        early, late = k("zone.t"), k("zone.rh", unit="%")
        for step in range(100):
            s.upsert(step, (early,), [float(step)])
            if step >= 70:
                s.upsert(step, (late,), [50.0])
            s.seal(step)
        log = s.to_runlog()
        assert log.columns[early][0].tolist() == [float(i) for i in range(100)]
        late_values = log.columns[late][0]
        assert np.isnan(late_values[:70]).all() and (late_values[70:] == 50.0).all()

    def test_steps_sealed_without_writes_are_gaps(self, tmp_path):
        s = make_store()
        key = s.register(k("zone.t"))
        for step in range(100):
            if step < 10:
                s.upsert(step, (key,), [20.0])
            s.seal(step)
        log = s.to_runlog()
        values, walls = log.columns[key]
        assert len(values) == len(walls) == 100
        assert np.isnan(values[10:]).all()
        assert write_csv(log, str(tmp_path / "run.csv")) == 10

    def test_wall_stamp_must_fit_float64(self, tmp_path):
        s = make_store()
        key = s.register(k("zone.t"))
        for bad in (MAX_STAMP_MS, -MAX_STAMP_MS):
            with pytest.raises(DataIntegrityError, match="wall stamp"):
                s.upsert(0, (key,), [1.0], wall_time_ms=bad)
        s.upsert(0, (key,), [1.0], wall_time_ms=MAX_STAMP_MS - 1)
        s.seal(0)
        path = tmp_path / "run.csv"
        write_csv(s.to_runlog(), str(path))
        assert path.read_text().split("\n")[1].endswith(f",{MAX_STAMP_MS - 1}")


class TestQuerySeries:
    """A RunLog column is the series of one variable over the sealed steps."""

    def setup_method(self):
        self.s = make_store()
        self.key = self.s.register(k("zone.t"))
        for step in range(5):
            if step != 2:  # leave a hole
                self.s.upsert(step, (self.key,), [20.0 + step])
            self.s.seal(step)

    def test_values_and_gap_report(self):
        values, walls = self.s.to_runlog().columns[self.key]
        assert values[~np.isnan(values)].tolist() == [20.0, 21.0, 23.0, 24.0]
        assert np.flatnonzero(np.isnan(values)).tolist() == [2]
        assert np.isnan(walls).all()

    def test_beyond_frontier(self):
        # the open step stays out of the log until it is sealed
        self.s.upsert(5, (self.key,), [99.0])
        log = self.s.to_runlog()
        assert log.meta.steps == 5
        assert len(log.columns[self.key][0]) == 5
        self.s.seal(5)
        assert self.s.to_runlog().columns[self.key][0][5] == 99.0

    def test_unknown_key(self):
        with pytest.raises(UnknownKeyError):
            self.s.to_runlog().key("nope", Source.SIMULATED)


class TestExportImport:
    def _small_log(self):
        s = make_store(scenario_id="exp", seed=9)
        a = s.register(k("zone.t"))
        b = s.register(k("plant.t_dis", Source.EMULATED, "C"))
        for step in range(3):
            s.upsert(step, (a,), [20.0 + 0.1 * step], wall_time_ms=1000 * step + 5)
            s.upsert(step, (b,), [14.0 - 0.01 * step], wall_time_ms=1000 * step)
            s.seal(step)
        return s.to_runlog()

    def test_header_and_row_order(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "run.csv"
        write_csv(log, str(path))
        lines = path.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        # within a step: variable name sorts plant.* before zone.*
        assert lines[1].split(",")[2] == "plant.t_dis"
        assert lines[2].split(",")[2] == "zone.t"
        assert lines[-1] == ""

    def test_round_trip_identical_bytes(self, tmp_path):
        log = self._small_log()
        p1 = tmp_path / "a.csv"
        write_csv(log, str(p1))
        write_meta(log.meta, str(tmp_path / "a.meta.json"))
        log2 = import_run(str(p1))
        p2 = tmp_path / "b.csv"
        write_csv(log2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert log2.meta == log.meta

    def test_export_dir_layout(self, tmp_path):
        summary = export_run(self._small_log(), str(tmp_path))
        assert sorted(os.path.basename(f) for f in summary.files) == [
            "run.csv", "run.meta.json"]
        assert summary.rows_written == 6

    def test_import_meta_from_summary_json(self, tmp_path):
        log = self._small_log()
        write_csv(log, str(tmp_path / "run.csv"))
        with open(tmp_path / "summary.json", "w") as f:
            json.dump({"counts": {}, "log": {
                "scenario_id": "exp", "seed": 9, "step_size_s": 60.0,
                "start_wall_ms": 0, "steps": 3}}, f)
        log2 = import_run(str(tmp_path / "run.csv"))
        assert log2.meta.scenario_id == "exp"
        assert log2.meta.seed == 9

    def test_import_infers_meta_when_nothing_present(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "bare.csv"
        write_csv(log, str(path))
        log2 = import_run(str(path))
        assert log2.meta.step_size_s == 60.0
        assert log2.meta.steps == 3

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ExportError, match="header"):
            import_run(str(path))

    def test_import_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        row = "0,0,zone.t,simulated,C,21,5"
        path.write_text(f"{CSV_HEADER}\n{row}\n{row}\n")
        with pytest.raises(ExportError, match="row 3"):
            import_run(str(path))

    def test_import_rejects_stamp_beyond_float64(self, tmp_path):
        path = tmp_path / "stamp.csv"
        path.write_text(f"{CSV_HEADER}\n0,0,zone.t,simulated,C,21,{MAX_STAMP_MS}\n")
        with pytest.raises(ExportError, match="row 2"):
            import_run(str(path))

    def test_import_rejects_unit_mismatch(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text(f"{CSV_HEADER}\n"
                        "0,0,zone.t,simulated,C,21,\n"
                        "1,60,zone.t,simulated,K,294,\n")
        with pytest.raises(ExportError, match="unit mismatch"):
            import_run(str(path))

    def test_import_rejects_inconsistent_sim_time(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text(f"{CSV_HEADER}\n0,0,zone.t,simulated,C,21,\n"
                        "1,61,zone.t,simulated,C,21.5,\n")
        with pytest.raises(ExportError, match="inconsistent"):
            import_run(str(path), meta={"scenario_id": "x", "seed": 0,
                                        "step_size_s": 60.0, "start_wall_ms": 0,
                                        "steps": 2})

    def test_failed_export_leaves_no_partial_file(self, tmp_path):
        log = self._small_log()
        target = tmp_path / "missing_dir" / "run.csv"
        with pytest.raises((ExportError, OSError)):
            write_csv(log, str(target))
        assert not target.exists()
        assert not target.with_suffix(".csv.tmp").exists()

    def test_failed_json_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "summary.json"
        write_json({"steps": 3}, str(target))
        before = target.read_bytes()
        with pytest.raises(TypeError):  # not serializable, after the first key
            write_json({"a": 1, "b": object()}, str(target))
        assert target.read_bytes() == before == b'{\n  "steps": 3\n}\n'
        assert os.listdir(tmp_path) == ["summary.json"]


_VALUES = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e12, max_value=1e12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abcd"),
                          st.sampled_from(list(Source)), _VALUES,
                          st.one_of(st.none(), st.integers(0, 10 ** 9))),
                min_size=1, max_size=24))
def test_round_trip_property(rows):
    import tempfile
    s = StepStore(step_size_s=15.0, scenario_id="prop", seed=1)
    max_step = max(r[0] for r in rows)
    for step in range(max_step + 1):
        for r_step, name, source, value, wall in rows:
            if r_step == step:
                s.upsert(step, (s.register(VariableKey(f"v.{name}", source, "u")),),
                         [value], wall)
        s.seal(step)
    log = s.to_runlog()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.csv")
        write_csv(log, path)
        write_meta(log.meta, os.path.join(d, "run.meta.json"))
        log2 = import_run(path)
        path2 = os.path.join(d, "again.csv")
        write_csv(log2, path2)
        with open(path, "rb") as f1, open(path2, "rb") as f2:
            assert f1.read() == f2.read()


def test_runlog_pickles(tmp_path):
    import pickle
    s = make_store()
    key = s.register(k("zone.t"))
    s.upsert(0, (key,), [20.0])
    s.seal(0)
    log = s.to_runlog()
    blob = pickle.dumps(log)
    log2 = pickle.loads(blob)
    assert log2.columns[key][0].tolist() == [20.0]
    assert log2.key("zone.t", "simulated") == key


def test_store_deepcopy_independent():
    import copy
    s = make_store()
    key = s.register(k("zone.t"))
    s.upsert(0, (key,), [20.0])
    s.seal(0)
    dup = copy.deepcopy(s)
    dup.upsert(1, (key,), [21.0])
    dup.seal(1)
    assert dup.last_sealed == 1
    assert s.last_sealed == 0


def test_store_memory_per_logged_sample():
    # Columns cost 16 B per cell (value + wall stamp), at most doubled by
    # geometric growth; per-sample objects cost about 200 B each.
    import tracemalloc
    from flexbench.orchestrator import Engine
    from tests.helpers import cfg_from
    steps = 2000
    engine = Engine(cfg_from({"run": {"horizon": steps, "step_size_s": 1.0},
                              "plant": {"control_dt_s": 1.0}}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            engine.step_once()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    log = engine.store.to_runlog()
    samples = sum(int(np.count_nonzero(~np.isnan(values)))
                  for values, _ in log.columns.values())
    assert samples >= 25 * steps
    assert grown / samples <= 40.0



def _traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once, by tracemalloc."""
    import tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_log():
    """A 5000-step engine run logging 28 variables per step."""
    from flexbench.orchestrator import Engine
    from tests.helpers import cfg_from
    return Engine(cfg_from({"run": {"horizon": 5000, "step_size_s": 1.0},
                            "plant": {"control_dt_s": 1.0}})).run()


def _first_steps(log, n):
    from dataclasses import replace
    from flexbench.datastore import RunLog
    return RunLog(replace(log.meta, steps=n),
                  {key: (values[:n], walls[:n])
                   for key, (values, walls) in log.columns.items()})


def test_import_memory_per_row(tmp_path, long_log):
    # One value and one wall-stamp float64 cell per row (16 B), allocated
    # once from the metadata; no copy of the file's lines, no object per row.
    log = _first_steps(long_log, 1250)
    path = str(tmp_path / "run.csv")
    rows = write_csv(log, path)
    assert rows >= 20_000
    write_meta(log.meta, str(tmp_path / "run.meta.json"))
    imported, peak = _traced_peak(import_run, path)
    assert imported.meta == log.meta
    assert peak / rows <= 24.0


def test_export_memory_does_not_grow_with_the_horizon(tmp_path, long_log):
    # export holds one block of steps as Python floats, not the run
    quarter = _first_steps(long_log, long_log.meta.steps // 4)
    rows, quarter_peak = _traced_peak(write_csv, quarter, str(tmp_path / "a.csv"))
    assert rows >= 20_000
    _, full_peak = _traced_peak(write_csv, long_log, str(tmp_path / "b.csv"))
    assert full_peak < 1.25 * quarter_peak


@pytest.mark.parametrize("with_meta", [True, False], ids=["meta", "no_meta"])
def test_imported_columns_are_float64(tmp_path, with_meta):
    s = make_store(scenario_id="dtype", seed=3)
    dense = s.register(k("zone.t"))
    late = s.register(k("ctrl.t_cool_spt", Source.SETPOINT))
    for step in range(4):
        s.upsert(step, (dense,), [20.0 + step], wall_time_ms=1000 * step + 7)
        if step >= 2:  # a gap at steps 0 and 1
            s.upsert(step, (late,), [24.0], wall_time_ms=1000 * step)
        s.seal(step)
    log = s.to_runlog()
    path = tmp_path / "run.csv"
    write_csv(log, str(path))
    if with_meta:
        write_meta(log.meta, str(tmp_path / "run.meta.json"))
    log2 = import_run(str(path))
    assert [key.name for key in log2.keys] == ["ctrl.t_cool_spt", "zone.t"]
    for key in log2.keys:
        values, walls = log2.columns[key]
        assert values.dtype == walls.dtype == np.float64
        assert not values.flags.writeable and not walls.flags.writeable
        np.testing.assert_array_equal(walls, log.columns[key][1])
    again = tmp_path / "again.csv"
    write_csv(log2, str(again))
    assert again.read_bytes() == path.read_bytes()


_R0 = "0,0,zone.t,simulated,C,21,5"
_R1 = "1,60,zone.t,simulated,C,22,65"
_META_1_STEP = {"scenario_id": "x", "seed": 0, "step_size_s": 60.0,
                "start_wall_ms": 0, "steps": 1}
# (file text, metadata, outcome): import's result or error for each file
# shape, line endings and row fault
_IMPORT_CASES = {
    "blank_line_mid_file": (f"{CSV_HEADER}\n{_R0}\n\n{_R1}\n", None,
                            "ExportError: {path}: row 3: expected 7 fields, got 1"),
    "blank_line_after_header": (f"{CSV_HEADER}\n\n{_R0}\n", None,
                                "ExportError: {path}: row 2: expected 7 fields, got 1"),
    "ends_in_two_newlines": (f"{CSV_HEADER}\n{_R0}\n\n", None,
                             "ExportError: {path}: row 3: expected 7 fields, got 1"),
    "no_final_newline": (f"{CSV_HEADER}\n{_R0}\n{_R1}", None,
                         "ok 2 steps; zone.t:simulated:C 21.0@5.0 22.0@65.0"),
    "crlf_endings": (f"{CSV_HEADER}\r\n{_R0}\r\n", None,
                     "ExportError: {path}: missing or wrong header row"),
    "crlf_rows": (f"{CSV_HEADER}\n{_R0}\r\n{_R1}\r\n", None,
                  "ok 2 steps; zone.t:simulated:C 21.0@5.0 22.0@65.0"),
    "crlf_row_without_stamp": (
        f"{CSV_HEADER}\n0,0,zone.t,simulated,C,21,\r\n", None,
        "ExportError: {path}: row 2: invalid literal for int() with base 10: '\\r'"),
    "cr_inside_a_row": (f"{CSV_HEADER}\n0,0,zone.t,simulated,C,21\r,5\n", None,
                        "ok 1 steps; zone.t:simulated:C 21.0@5.0"),
    "empty_file": ("", None, "ExportError: {path}: missing or wrong header row"),
    "header_only": (f"{CSV_HEADER}\n", None, "ok 0 steps; "),
    "header_without_newline": (CSV_HEADER, None, "ok 0 steps; "),
    "six_fields": (f"{CSV_HEADER}\n0,0,zone.t,simulated,C,21\n", None,
                   "ExportError: {path}: row 2: expected 7 fields, got 6"),
    "eight_fields": (f"{CSV_HEADER}\n{_R0},7\n", None,
                     "ExportError: {path}: row 2: expected 7 fields, got 8"),
    "unknown_source": (f"{CSV_HEADER}\n0,0,zone.t,measured,C,21,5\n", None,
                       "ExportError: {path}: row 2: 'measured' is not a valid Source"),
    "non_finite_value": (f"{CSV_HEADER}\n{_R0}\n1,60,zone.t,simulated,C,inf,65\n",
                         None, "ExportError: {path}: row 3: invalid value, step or stamp"),
    "step_beyond_metadata": (f"{CSV_HEADER}\n{_R0}\n{_R1}\n", _META_1_STEP,
                             "ExportError: {path}: step 1 beyond metadata steps 1"),
    "duplicate_sample": (f"{CSV_HEADER}\n{_R0}\n{_R0}\n", None,
                         "ExportError: {path}: row 3: duplicate sample"),
    "unit_mismatch": (f"{CSV_HEADER}\n{_R0}\n1,60,zone.t,simulated,K,294,65\n", None,
                      "ExportError: {path}: row 3: unit mismatch for zone.t"),
}


def _import_outcome(path, meta) -> str:
    try:
        log = import_run(path, meta)
    except Exception as e:
        return f"{type(e).__name__}: {str(e).replace(path, '{path}')}"
    cols = [f"{key.name}:{key.source.value}:{key.unit} " + " ".join(
        f"{float(v)!r}@{float(w)!r}" for v, w in zip(*log.columns[key]))
        for key in log.keys]
    return f"ok {log.meta.steps} steps; " + "; ".join(cols)


@pytest.mark.parametrize("text, meta, expected", _IMPORT_CASES.values(),
                         ids=_IMPORT_CASES.keys())
def test_import_outcome_of_each_file_shape(tmp_path, text, meta, expected):
    path = tmp_path / "run.csv"
    path.write_bytes(text.encode())
    assert _import_outcome(str(path), meta) == expected


def test_import_caps_the_steps_it_allocates(tmp_path):
    # metadata may claim up to MAX_IMPORT_STEPS steps (a header-only file
    # allocates no column); one more, or a row past it, is an ExportError
    path = tmp_path / "run.csv"
    path.write_text(f"{CSV_HEADER}\n")
    meta = dict(_META_1_STEP, steps=MAX_IMPORT_STEPS)
    assert import_run(str(path), meta).meta.steps == MAX_IMPORT_STEPS
    meta["steps"] = MAX_IMPORT_STEPS + 1
    with pytest.raises(ExportError, match=r"metadata field steps: 33554433 is not"):
        import_run(str(path), meta)
    path.write_text(f"{CSV_HEADER}\n{MAX_IMPORT_STEPS},{60 * MAX_IMPORT_STEPS},"
                    "zone.t,simulated,C,21,\n")
    with pytest.raises(ExportError, match=r"row 2: step 33554432 beyond the maximum"):
        import_run(str(path))


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", 1.5),
                                          ("start_wall_ms", "0"),
                                          ("step_size_s", True)])
def test_import_metadata_fields_have_their_types(tmp_path, field, value):
    path = tmp_path / "run.csv"
    path.write_text(f"{CSV_HEADER}\n{_R0}\n")
    with pytest.raises(ExportError, match=f"metadata field {field}: "):
        import_run(str(path), dict(_META_1_STEP, **{field: value}))
    assert import_run(str(path), _META_1_STEP).meta.steps == 1
