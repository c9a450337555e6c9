"""Property tests for the scheduled inputs: one parser, one hold rule.

The five breakpoint-series fields (internal gains, weather series, presence,
modulation signal, discharge schedule) share one parser in `scenario` and,
except weather, one step-hold reader, `schedule.Schedule`.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from flexbench.datastore import import_run, write_csv
from flexbench.orchestrator import Engine
from flexbench.scenario import ScenarioError, validate_scenario
from flexbench.schedule import Schedule

STEP_S = 60.0

# dotted path -> strategy for the values that follow time_s in one row
FIELDS = {
    "building.internal_gains_w": st.tuples(st.floats(0.0, 5000.0)),
    "building.weather.series": st.tuples(st.floats(-10.0, 45.0),
                                         st.floats(0.0, 100.0)),
    "occupants.agents[0].presence": st.tuples(st.sampled_from([0, 1])),
    "geb.modulation.signal": st.tuples(st.floats(-1.0, 1.0)),
    "geb.dis_schedule": st.tuples(st.floats(0.0, 50.0)),
}


def _doc(path: str, rows, horizon: int) -> dict:
    """A scenario whose `path` field holds `rows` and is read every step."""
    doc = {"run": {"horizon": horizon, "step_size_s": STEP_S, "seed": 3},
           "delays": {"comm_latency_s": 0.1, "jitter_s": 0.02}}
    if path == "building.internal_gains_w":
        doc["building"] = {"internal_gains_w": rows}
    elif path == "building.weather.series":
        doc["building"] = {"weather": {"series": rows}}
    elif path == "occupants.agents[0].presence":
        doc["occupants"] = {"agents": [{
            "coords": [2.0, 2.0, 1.2], "presence": rows,
            "action_probs": {"drink": 0.3, "thermostat_adjust": 0.3}}]}
    elif path == "geb.modulation.signal":
        doc["geb"] = {"mode": "modulate",
                      "windows": [{"start_s": 0.0, "end_s": horizon * STEP_S}],
                      "modulation": {"signal": rows}}
    else:
        doc["geb"] = {"dis_schedule": rows}
    return doc


_TIME = st.one_of(st.integers(1, 300), st.floats(0.5, 300.0))


@st.composite
def series(draw, path):
    """1-12 rows with strictly increasing times from a first time >= 0."""
    values = FIELDS[path]
    n = draw(st.integers(1, 12))
    t = draw(st.one_of(st.integers(0, 900), st.floats(0.0, 900.0)))
    rows = []
    for _ in range(n):
        rows.append([t, *draw(values)])
        t = t + draw(_TIME)
    return rows


def _export(log, directory: str, name: str) -> bytes:
    path = os.path.join(directory, name)
    write_csv(log, path)
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("path", sorted(FIELDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 10))
def test_valid_series_validate_run_and_round_trip(path, data, horizon):
    rows = data.draw(series(path))
    if path == "building.weather.series" and len(rows) > 1:
        # weather interpolates and must cover the horizon
        horizon = min(horizon, 1 + int(rows[-1][0] // STEP_S))
    cfg = validate_scenario(_doc(path, rows, horizon))
    engine = Engine(cfg)
    log = engine.run()
    assert engine.summary()["steps_completed"] == horizon
    with tempfile.TemporaryDirectory() as d:
        first = _export(log, d, "a.csv")
        back = import_run(os.path.join(d, "a.csv"), meta=log.meta)
        again = _export(back, d, "b.csv")
    assert again == first


def _break(kind: str, path: str, rows: list):
    """`rows` made malformed in one way, or None where that way is allowed."""
    rows = [list(r) for r in rows]
    if kind == "unsorted":
        return rows[::-1]
    if kind == "duplicate time":
        if path == "occupants.agents[0].presence":
            return None  # equal presence times are allowed: the later wins
        rows[1][0] = rows[0][0]
        return rows
    if kind == "wrong arity":
        rows[-1] = rows[-1] + [1.0]
        return rows
    if kind == "bool":
        rows[0][-1] = True
        return rows
    if kind == "non-list row":
        rows[1] = 5.0
        return rows
    return "not a list"


@pytest.mark.parametrize("path", sorted(FIELDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["unsorted", "duplicate time", "wrong arity", "bool",
                             "non-list row", "non-list"]))
def test_malformed_series_name_their_path(path, data, kind):
    rows = data.draw(series(path).filter(lambda r: len(r) >= 2))
    bad = _break(kind, path, rows)
    if bad is None:
        return
    with pytest.raises(ScenarioError) as err:
        validate_scenario(_doc(path, bad, 2))
    assert str(err.value).startswith(path), str(err.value)


def _reference(rows, t_s):
    """Naive scan: the last breakpoint at or before t, else the first."""
    value = rows[0][1]
    for time_s, v in rows:
        if t_s >= time_s:
            value = v
    return value


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(-5, 5)),
                min_size=1, max_size=12),
       st.lists(st.one_of(st.integers(-10, 60), st.floats(-10.0, 60.0)),
                min_size=1, max_size=20))
def test_schedule_matches_a_reference_scan(rows, queries):
    rows = sorted(rows, key=lambda r: r[0])  # ties keep their drawn order
    sched = Schedule(rows)
    for t in queries + [r[0] for r in rows]:
        assert sched.at(t) == _reference(rows, t)
