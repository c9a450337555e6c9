"""Step-indexed columnar run datastore with strict sealing and CSV export.

The store is the shared record of one co-simulation run.  The engine upserts
each exchange of the currently open step (its variables' values, with the one
wall stamp they share) in one call, and seals steps in strict order; a sealed
step is immutable, which is what makes downstream delay analysis trustworthy:
a sealed step can never be rewritten by a late arrival.

Values and wall stamps live in two float64 blocks with one row per variable
and one column per step, so a variable's series is one contiguous row.  NaN
marks a step without a value (a gap) or without a stamp; upsert rejects
non-finite values and stamps float64 cannot hold exactly, so NaN is never a
real sample.

Export is a long-format CSV (one row per sample) using 17-significant-digit
decimals so that export -> import -> export is byte-identical.  Both
directions stream: export turns a block of steps into text at a time, and
import reads one line at a time into float64 columns it allocates once from
the run's metadata.  Import's traced peak is about 16 B per row (the columns
it returns), and export's does not grow with the run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from collections.abc import Sequence
from contextlib import closing, contextmanager
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np


class DatastoreError(Exception):
    """Base class for store failures."""


class DataIntegrityError(DatastoreError):
    """Rejected sample or inconsistent key/metadata."""


class OutOfOrderError(DatastoreError):
    """Write or seal that violates the monotone step ordering."""


class UnknownKeyError(DatastoreError):
    """Query for a key that was never registered."""


class ExportError(DatastoreError):
    """Export or import failure (I/O, malformed file)."""


class Source(str, Enum):
    EMULATED = "emulated"
    SIMULATED = "simulated"
    SETPOINT = "setpoint"


_SOURCES = {s.value: s for s in Source}
_FORBIDDEN = frozenset(", \t\n\r")
_FORBIDDEN_UNIT = frozenset(",\n\r")
# Wall stamps are integers kept in float64 columns: exact below 2**53.
MAX_STAMP_MS = 2 ** 53
# The most steps an imported run may have.  Import allocates each column at
# the metadata's step count, 16 B per step, before it has read the rows that
# would justify it; the cap holds one column under 512 MB whatever a file
# claims, and a year of 1 s steps (31.5 M) still fits.
MAX_IMPORT_STEPS = 2 ** 25
# Exchanges whose rows a store remembers.  An engine writes three; a caller
# that builds a new keys tuple for every write only empties the memo.
_MAX_EXCHANGES = 64


@dataclass(frozen=True)
class VariableKey:
    """Identity of one logged variable: name, data source, engineering unit."""

    name: str
    source: Source
    unit: str

    def __post_init__(self):
        if not self.name or not _FORBIDDEN.isdisjoint(self.name):
            raise DataIntegrityError(f"invalid variable name {self.name!r}")
        if not isinstance(self.source, Source):
            object.__setattr__(self, "source", Source(self.source))
        if not self.unit or not _FORBIDDEN_UNIT.isdisjoint(self.unit):
            raise DataIntegrityError(f"invalid unit {self.unit!r} for {self.name}")


@dataclass(frozen=True)
class RunMeta:
    scenario_id: str
    seed: int
    step_size_s: float
    start_wall_ms: int
    steps: int


class RunLog:
    """Finalized record of a run: metadata plus, per variable, a read-only
    (values, wall_ms) pair of float64 arrays of length meta.steps.  NaN marks
    a step without a value or without a wall stamp."""

    def __init__(self, meta: RunMeta,
                 columns: dict[VariableKey, tuple[np.ndarray, np.ndarray]]):
        self.meta = meta
        self.columns = columns
        # Every variable of the run, in CSV row order.
        self.keys = tuple(sorted(columns, key=lambda k: (k.name, k.source.value)))
        self._by_name = {(k.name, k.source): k for k in self.keys}

    def key(self, name: str, source: Source | str) -> VariableKey:
        source = Source(source)
        try:
            return self._by_name[(name, source)]
        except KeyError:
            raise UnknownKeyError(f"{name}:{source.value}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ExportSummary:
    rows_written: int
    files: tuple[str, ...]


class StepStore:
    """Mutable store for one run: a float64 value block and a float64 wall-stamp
    block, each with one row per registered variable and one column per step.
    A write assigns one exchange's rows at one step's column.  The blocks are
    allocated at the first write and gain rows as new variables arrive; their
    step capacity doubles when a step outgrows it.  Not thread-safe: the
    engine writes and seals from one thread."""

    def __init__(self, step_size_s: float, scenario_id: str = "run", seed: int = 0,
                 start_wall_ms: int = 0):
        if not (step_size_s > 0):
            raise DataIntegrityError("step_size_s must be positive")
        self.step_size_s = float(step_size_s)
        self.scenario_id = scenario_id
        self.seed = int(seed)
        self.start_wall_ms = int(start_wall_ms)
        self._keys: list[VariableKey] = []  # row r of both blocks is _keys[r]
        self._rows: dict[tuple[str, Source], int] = {}
        # id(keys) -> (keys, their rows) for every exchange written so far
        self._exchanges: dict[int, tuple[tuple, slice | list[int]]] = {}
        self._values = self._walls = np.empty((0, 0))
        self._sealed = 0  # steps [0, _sealed) are sealed

    @property
    def last_sealed(self) -> int:
        return self._sealed - 1

    def register(self, key: VariableKey) -> VariableKey:
        """The store's key for (name, source); a second unit is a conflict."""
        row = self._rows.get((key.name, key.source))
        if row is None:
            self._rows[(key.name, key.source)] = len(self._keys)
            self._keys.append(key)
            return key
        known = self._keys[row]
        if known.unit != key.unit:
            raise DataIntegrityError(
                f"{key.name}:{key.source.value} already registered with unit "
                f"{known.unit!r}, got {key.unit!r}")
        return known

    def upsert(self, step_index: int, keys: tuple[VariableKey, ...],
               values: Sequence[float], wall_time_ms: int | None = None) -> None:
        """Insert or update one exchange in an unsealed step: values[i] for
        keys[i], all with the one wall stamp.

        keys should be the same tuple object on every write of an exchange:
        the store registers a tuple once and keeps its rows.  A second write
        of a (key, step) replaces the first.  A non-finite value, a stamp of
        2**53 ms or more in magnitude or a write at or below the sealed
        frontier rejects the whole exchange, and no cell is written.

        The values are checked through their sum first: a finite sum has
        only finite terms, so each value is tested on its own only when the
        sum is not finite (a NaN or infinite value, or an overflow), to name
        the first non-finite one or to find that there is none.
        """
        if not isinstance(step_index, int) or step_index < 0:
            raise DataIntegrityError(f"bad step_index {step_index!r}")
        if len(values) != len(keys):
            raise DataIntegrityError(
                f"{len(values)} values for {len(keys)} keys at step {step_index}")
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            key = keys[[math.isfinite(v) for v in values].index(False)]
            raise DataIntegrityError(
                f"non-finite value for {key.name}:{key.source.value} at step {step_index}")
        if step_index < self._sealed:
            raise OutOfOrderError(
                f"step {step_index} already sealed (frontier {self.last_sealed})")
        if wall_time_ms is None:
            wall = math.nan
        else:
            wall = int(wall_time_ms)
            if abs(wall) >= MAX_STAMP_MS:
                key = keys[0]
                raise DataIntegrityError(
                    f"wall stamp {wall} for {key.name}:{key.source.value} "
                    f"out of range (|stamp| < 2**53 ms)")
        known = self._exchanges.get(id(keys))
        rows = known[1] if known is not None and known[0] is keys \
            else self._register_exchange(keys)
        if step_index >= self._values.shape[1]:
            self._resize(step_index + 1)
        self._values[rows, step_index] = values
        self._walls[rows, step_index] = wall

    def _register_exchange(self, keys: tuple) -> slice | list[int]:
        """Register every key of an exchange and give the block rows they
        write: a slice when the rows are consecutive, as a new exchange's
        are."""
        for key in keys:
            self.register(key)
        rows = [self._rows[(key.name, key.source)] for key in keys]
        if rows and rows == list(range(rows[0], rows[-1] + 1)):
            rows = slice(rows[0], rows[-1] + 1)
        if len(self._exchanges) >= _MAX_EXCHANGES:
            self._exchanges.clear()
        self._exchanges[id(keys)] = (keys, rows)
        if len(self._keys) > self._values.shape[0]:
            self._resize()
        return rows

    def _resize(self, steps: int = 0) -> None:
        """Give the blocks a row for every registered key and room for at
        least `steps` steps, doubling the step capacity when it grows."""
        height, width = self._values.shape
        capacity = max(steps, 2 * width, 64) if steps > width else width
        for name in ("_values", "_walls"):
            block = np.full((len(self._keys), capacity), np.nan)
            block[:height, :width] = getattr(self, name)
            setattr(self, name, block)

    def seal(self, step_index: int) -> None:
        """Seal the next step; steps seal in strict order."""
        if step_index != self._sealed:
            raise OutOfOrderError(
                f"seal({step_index}) out of order, frontier {self.last_sealed}")
        self._sealed += 1

    def to_runlog(self) -> RunLog:
        """Read-only views of the sealed steps as a RunLog: one contiguous row
        of each block per variable.  Sealed cells never change, so the views
        need no copy."""
        n = self._sealed
        if n > self._values.shape[1]:  # steps sealed past the last write
            self._resize(n)
        meta = RunMeta(self.scenario_id, self.seed, self.step_size_s,
                       self.start_wall_ms, n)
        columns = {}
        for key, values, walls in zip(self._keys, self._values, self._walls):
            values = values[:n]
            if not np.isnan(values).all():
                columns[key] = (_read_only(values), _read_only(walls[:n]))
        return RunLog(meta, columns)


CSV_HEADER = "step_index,sim_time_s,variable,source,unit,value,wall_time_ms"
# Steps of every column that write_csv turns into Python floats at a time.
CSV_BLOCK_STEPS = 1024


@contextmanager
def _atomic(path: str):
    """A text file that replaces path only once it is completely written: the
    content goes to path + ".tmp", which is renamed onto path on success and
    removed on failure, so no reader ever sees half a file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(log: RunLog, path: str) -> int:
    """Write the export CSV atomically.  Returns the number of data rows.

    Rows come in canonical order: by step, then variable name, then source;
    a step without a value for a variable has no row for it.  The columns
    become Python floats CSV_BLOCK_STEPS steps at a time, so the export holds
    one block of the run, not all of it."""
    cols = [(f",{k.name},{k.source.value},{k.unit},", *log.columns[k])
            for k in log.keys]
    step_size, steps = log.meta.step_size_s, log.meta.steps
    rows = 0
    with _atomic(path) as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, steps, CSV_BLOCK_STEPS):
            stop = min(start + CSV_BLOCK_STEPS, steps)
            block = [(mid, values[start:stop].tolist(), walls[start:stop].tolist())
                     for mid, values, walls in cols]
            for i, step in enumerate(range(start, stop)):
                lead = f"{step},{format(step * step_size, '.17g')}"
                lines = []
                for mid, values, walls in block:
                    v = values[i]
                    if v != v:  # NaN: no sample at this step
                        continue
                    w = walls[i]
                    lines.append(f"{lead}{mid}{format(v, '.17g')},"
                                 f"{'' if w != w else int(w)}\n")
                f.write("".join(lines))
                rows += len(lines)
            del block  # one block at a time: free it before the next
    return rows


def meta_dict(meta: RunMeta) -> dict:
    return {
        "scenario_id": meta.scenario_id,
        "seed": meta.seed,
        "step_size_s": meta.step_size_s,
        "start_wall_ms": meta.start_wall_ms,
        "steps": meta.steps,
    }


def write_json(obj, path: str) -> None:
    """Write obj as indented, key-sorted JSON atomically."""
    with _atomic(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_meta(meta: RunMeta, path: str) -> None:
    write_json(meta_dict(meta), path)


def export_run(log: RunLog, dest: str) -> ExportSummary:
    """Export a RunLog to CSV plus a metadata sidecar.

    dest may be a directory (writes run.csv and run.meta.json inside) or a
    .csv path (sidecar gets the .meta.json suffix).  A failed write leaves no
    partial file behind.
    """
    if dest.endswith(".csv"):
        csv_path = dest
    else:
        os.makedirs(dest, exist_ok=True)
        csv_path = os.path.join(dest, "run.csv")
    meta_path = _sidecar_path(csv_path)
    try:
        rows = write_csv(log, csv_path)
        write_meta(log.meta, meta_path)
    except OSError as e:
        raise ExportError(f"export to {dest} failed: {e}") from e
    return ExportSummary(rows, (csv_path, meta_path))


def _sidecar_path(csv_path: str) -> str:
    base, ext = os.path.splitext(csv_path)
    return base + ".meta.json" if ext == ".csv" else csv_path + ".meta.json"


def _resolve_meta(csv_path: str, meta) -> dict | None:
    """The run's metadata, checked by _checked_meta, or None without any."""
    if isinstance(meta, RunMeta):
        return _checked_meta(meta_dict(meta), csv_path)
    if isinstance(meta, dict):
        return _checked_meta(meta.get("log", meta), csv_path)
    if isinstance(meta, str):
        with open(meta, encoding="utf-8") as f:
            d = json.load(f)
        return _checked_meta(d.get("log", d) if isinstance(d, dict) else d, meta)
    for cand in (_sidecar_path(csv_path),
                 os.path.join(os.path.dirname(csv_path) or ".", "summary.json")):
        if os.path.exists(cand):
            with open(cand, encoding="utf-8") as f:
                d = json.load(f)
            if isinstance(d, dict) and ("step_size_s" in d or "log" in d):
                return _checked_meta(d.get("log", d), cand)
    return None


_META_FIELDS = ("scenario_id", "seed", "step_size_s", "start_wall_ms", "steps")


def _is_a(kind, value) -> bool:
    """value is a number of that kind; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _checked_meta(md, source: str) -> dict:
    """md if it is a metadata object whose fields import may trust: steps an
    int in [0, MAX_IMPORT_STEPS], step_size_s a finite number > 0, seed and
    start_wall_ms ints.  Anything else is an ExportError naming the field."""
    if not isinstance(md, dict):
        raise ExportError(f"{source}: metadata must be a JSON object, "
                          f"not {type(md).__name__}")
    for name in _META_FIELDS:
        if name not in md:
            raise ExportError(f"{source}: metadata field {name} is missing")
    steps, step_size = md["steps"], md["step_size_s"]
    if not _is_a(Integral, steps) or not 0 <= steps <= MAX_IMPORT_STEPS:
        raise ExportError(f"{source}: metadata field steps: {steps!r} is not "
                          f"an int in [0, {MAX_IMPORT_STEPS}]")
    if not _is_a(Real, step_size) or not 0 < step_size <= sys.float_info.max:
        raise ExportError(f"{source}: metadata field step_size_s: {step_size!r} "
                          f"is not a finite number > 0")
    for name in ("seed", "start_wall_ms"):
        if not _is_a(Integral, md[name]):
            raise ExportError(f"{source}: metadata field {name}: {md[name]!r} "
                              f"is not an int")
    return md


_NAN = array("d", [math.nan])


def _nans(n: int) -> array:
    """n float64 NaNs (none for n <= 0): a column with no sample yet."""
    return array("d", _NAN) * n


def _lines(csv_path: str):
    """The file's lines, each without its one trailing "\\n" (a "\\r" stays
    part of its line); a failed open or read is an ExportError."""
    try:
        with open(csv_path, encoding="utf-8", newline="\n") as f:
            for line in f:
                yield line.removesuffix("\n")
    except OSError as e:
        raise ExportError(f"cannot read {csv_path}: {e}") from e


def import_run(csv_path: str, meta=None) -> RunLog:
    """Rebuild a RunLog from an export CSV, reading it one line at a time.

    Metadata comes from (in order): an explicit RunMeta/dict/path, the
    .meta.json sidecar, a summary.json next to the CSV, or is inferred from
    row contents as a last resort.  With metadata, each variable's value and
    wall-stamp columns are allocated once at the run's length and filled in
    place; without it they grow to the last step seen.  The metadata is
    checked before any column is allocated (see _checked_meta), and no run
    may have more than MAX_IMPORT_STEPS steps.  Malformed rows fail with the
    row number.
    """
    with closing(_lines(csv_path)) as lines:
        if next(lines, None) != CSV_HEADER:
            raise ExportError(f"{csv_path}: missing or wrong header row")
        md = _resolve_meta(csv_path, meta)
        # Without metadata the step size comes from the first row past step 0
        # and the step count from the last step seen.
        step_size = None if md is None else float(md["step_size_s"])
        n_steps = None if md is None else md["steps"]
        # (name, source) -> (key, values, wall stamps), indexed by step
        cols: dict[tuple[str, str], tuple[VariableKey, array, array]] = {}
        for n, line in enumerate(lines, start=2):
            parts = line.split(",")
            if len(parts) != 7:
                raise ExportError(
                    f"{csv_path}: row {n}: expected 7 fields, got {len(parts)}")
            step, sim_time, name, source, unit, value, wall = parts
            try:
                step = int(step)
                sim_time = float(sim_time)
                value = float(value)
                wall = math.nan if wall == "" else int(wall)
                # a known source is passed as its member, which VariableKey
                # takes as it is; an unknown one fails there as before
                key = VariableKey(name, _SOURCES.get(source, source), unit)
            except (ValueError, DataIntegrityError) as e:
                raise ExportError(f"{csv_path}: row {n}: {e}") from e
            if not math.isfinite(value) or step < 0 or abs(wall) >= MAX_STAMP_MS:
                raise ExportError(f"{csv_path}: row {n}: invalid value, step or stamp")
            col = cols.get((name, source))
            if col is None:
                col = cols[(name, source)] = (key, _nans(n_steps or 0),
                                              _nans(n_steps or 0))
            elif col[0].unit != unit:
                raise ExportError(f"{csv_path}: row {n}: unit mismatch for {name}")
            if n_steps is not None and step >= n_steps:
                raise ExportError(
                    f"{csv_path}: step {step} beyond metadata steps {n_steps}")
            if step_size is None and step > 0:
                step_size = sim_time / step
            if sim_time != (step * step_size if step else 0.0):
                raise ExportError(
                    f"{csv_path}: sim_time_s {sim_time} at step {step} "
                    f"inconsistent with step size {step_size}")
            _, values, walls = col
            if step >= len(values):
                if step >= MAX_IMPORT_STEPS:
                    raise ExportError(f"{csv_path}: row {n}: step {step} beyond "
                                      f"the maximum of {MAX_IMPORT_STEPS} steps")
                gap = _nans(step + 1 - len(values))
                values += gap
                walls += gap
            elif values[step] == values[step]:
                raise ExportError(f"{csv_path}: row {n}: duplicate sample")
            values[step] = value
            walls[step] = wall

    if md is None:
        md = {"scenario_id": "imported", "seed": 0,
              "step_size_s": 1.0 if step_size is None else step_size,
              "start_wall_ms": 0,
              "steps": max((len(v) for _, v, _ in cols.values()), default=0)}
    meta_obj = RunMeta(str(md["scenario_id"]), int(md["seed"]),
                       float(md["step_size_s"]), int(md["start_wall_ms"]),
                       int(md["steps"]))
    columns = {}
    for key, values, walls in cols.values():
        gap = _nans(meta_obj.steps - len(values))
        values += gap
        walls += gap
        # views of the arrays' own memory: no second copy
        columns[key] = (_read_only(np.frombuffer(values)),
                        _read_only(np.frombuffer(walls)))
    return RunLog(meta_obj, columns)
