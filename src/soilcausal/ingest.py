"""Tabular ingestion: typed daily tables, scaling, and lag features.

A Table is an immutable (rows, timestamps, field_id, treatment) bundle with a
typed, numeric schema and one row per (field, day).  Construction
canonicalizes row order to (field_id, date) with a stable sort, so every
downstream artifact is order-independent by design, and rejects a NaT day or
a repeated (field, day) with SchemaError.

The protocol's one row split, ``split_by_treatment``, selects the train
rows and each held-out treatment's rows by their treatment tags.  It holds
out whole fields: a field with rows on the train side and on a held-out
side is a ConfigError, so no held-out field's rows reach training.

Column kinds:
    continuous   real-valued observable (pH, totalC, lag counts, ...)
    one_hot      0/1 indicator, one column per label of its source_group
    event_count  daily occurrence count of a management event
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, SchemaError, require_labels

KINDS = ("continuous", "one_hot", "event_count")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    source_group: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in "\t\n\r"):
            raise SchemaError(f"bad column name {self.name!r}")
        if any(ch in self.source_group for ch in "\t\n\r"):
            raise SchemaError(f"{self.name}: bad source_group {self.source_group!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind == "one_hot" and not self.source_group:
            raise SchemaError(f"{self.name}: one_hot column needs a source_group")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Table:
    """One row per (field, day), in (field, day) order."""

    schema: tuple[ColumnSpec, ...]
    rows: np.ndarray
    timestamps: np.ndarray
    field_id: np.ndarray
    treatment: np.ndarray
    target: str = ""

    def __post_init__(self) -> None:
        schema = tuple(self.schema)
        rows = np.array(self.rows, dtype=np.float64, ndmin=2)
        ts = np.asarray(self.timestamps, dtype="datetime64[D]")
        fid = np.asarray(self.field_id, dtype=str)
        trt = np.asarray(self.treatment, dtype=str)
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if rows.shape[1] != len(schema):
            raise SchemaError(
                f"row width {rows.shape[1]} != schema width {len(schema)}"
            )
        n = rows.shape[0]
        if not (len(ts) == len(fid) == len(trt) == n):
            raise SchemaError("rows, timestamps, field_id, treatment length mismatch")
        if self.target and self.target not in names:
            raise SchemaError(f"target {self.target!r} is not a schema column")
        nat = np.isnat(ts)
        if nat.any():
            r = int(nat.argmax())
            raise SchemaError(f"row {r} of field {str(fid[r])!r} has no day (NaT)")
        order = np.lexsort((ts, fid))  # (field, date)
        ts, fid = ts[order], fid[order]
        repeat = (fid[1:] == fid[:-1]) & (ts[1:] <= ts[:-1])
        if repeat.any():
            r = int(repeat.argmax()) + 1
            raise SchemaError(f"field {str(fid[r])!r} has more than one row on {ts[r]}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", _freeze(rows[order]))
        object.__setattr__(self, "timestamps", _freeze(ts))
        object.__setattr__(self, "field_id", _freeze(fid))
        object.__setattr__(self, "treatment", _freeze(trt[order]))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def col_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown column {name!r}") from exc

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.col_index(name)].copy()

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """The named columns as a fresh, writable, row-major array."""
        # one copy; ``rows[:, idx]`` would be a column-major one
        return self.rows.take([self.col_index(n) for n in names], axis=1)

    def equals(self, other: "Table") -> bool:
        """Bitwise equality of schema, tags, and values (NaN != NaN)."""
        return (
            self.schema == other.schema
            and self.target == other.target
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.field_id, other.field_id)
            and np.array_equal(self.treatment, other.treatment)
            and np.array_equal(self.rows, other.rows)
        )


def _day_numbers(ts: np.ndarray) -> np.ndarray:
    return ts.astype("datetime64[D]").view("int64")


def _field_slices(fid: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each field's contiguous block in canonical order."""
    bounds = [0, *(np.flatnonzero(fid[1:] != fid[:-1]) + 1).tolist(), len(fid)]
    return list(zip(bounds[:-1], bounds[1:])) if len(fid) else []


def require_finite(values: np.ndarray, what: str, rows) -> None:
    """Raise ``NumericError`` naming the first row of ``values`` (one entry
    or one row per row of ``rows``) that holds NaN or ±inf, by its
    (field, day, treatment) tags in ``rows``."""
    finite = np.isfinite(values)
    bad = ~(finite if finite.ndim == 1 else finite.all(axis=1))
    if bad.any():
        r = int(bad.argmax())
        raise NumericError(
            f"non-finite {what} in row {r} "
            f"({rows.field_id[r]}, {rows.timestamps[r]}, {rows.treatment[r]})"
        )


def validate_model_ready(table: Table) -> None:
    """Strict invariants for tables entering discovery/training: finite
    values and a designated target."""
    if not table.target:
        raise SchemaError("model-ready table needs a designated target column")
    if not np.isfinite(table.rows).all():
        raise SchemaError("non-finite values remain after preprocessing")


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def add_field_onehots(table: Table) -> Table:
    """Append one 0/1 indicator column per field id (the location encoding)."""
    labels = sorted(set(table.field_id.tolist()))
    specs = list(table.schema)
    cols = [table.rows]
    for fid in labels:
        name = f"field={fid}"
        if name in table.names:
            raise SchemaError(f"field indicator collision on {name!r}")
        specs.append(ColumnSpec(name, "one_hot", source_group="field"))
        cols.append((table.field_id == fid).astype(np.float64).reshape(-1, 1))
    return Table(
        tuple(specs),
        np.hstack(cols),
        table.timestamps,
        table.field_id,
        table.treatment,
        target=table.target,
    )


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalerParams:
    columns: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    fitted_on: int

    def __post_init__(self) -> None:
        if not (len(self.columns) == len(self.mins) == len(self.maxs)):
            raise SchemaError("scaler column/min/max length mismatch")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"scaler names a column twice: {self.columns!r}")
        for c, lo, hi in zip(self.columns, self.mins, self.maxs):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SchemaError(f"{c}: non-finite scaler bounds ({lo}, {hi})")
            if lo > hi:
                raise SchemaError(f"{c}: scaler min {lo} > max {hi}")


def min_max_fit(table: Table, columns: Sequence[str], train_mask: np.ndarray) -> ScalerParams:
    """Per-column min/max from training rows only; NumericError naming the
    first training row of a column that holds NaN or ±inf."""
    mask = np.asarray(train_mask, dtype=bool)
    if mask.shape != (table.n,):
        raise ConfigError("train mask length must match row count")
    if not mask.any():
        raise ConfigError("cannot fit a scaler on zero training rows")
    mins, maxs = [], []
    for name in columns:
        col = table.column(name)
        require_finite(np.where(mask, col, 0.0), f"train value of {name!r}", table)
        mins.append(float(col[mask].min()))
        maxs.append(float(col[mask].max()))
    return ScalerParams(tuple(columns), tuple(mins), tuple(maxs), int(mask.sum()))


def min_max_apply(table: Table, params: ScalerParams) -> Table:
    """x -> (x - min) / (max - min); constant columns map to 0; values from
    outside the fitted range land outside [0, 1] and are not clipped."""
    rows = np.array(table.rows)
    for name, lo, hi in zip(params.columns, params.mins, params.maxs):
        j = table.col_index(name)  # SchemaError if the column is absent
        span = hi - lo
        if span == 0.0:
            rows[:, j] = 0.0
        else:
            rows[:, j] = (rows[:, j] - lo) / span
    return replace(table, rows=rows)


def select_columns(table: Table, names: Sequence[str]) -> Table:
    """Sub-table with just ``names`` (in the given order), same rows/tags."""
    idx = [table.col_index(n) for n in names]
    if len(set(idx)) != len(idx):
        raise SchemaError("duplicate columns in selection")
    return replace(
        table,
        schema=tuple(table.schema[j] for j in idx),
        rows=table.rows[:, idx],
        target=table.target if table.target in names else "",
    )


# ---------------------------------------------------------------------------
# the protocol's row split
# ---------------------------------------------------------------------------


def _take_rows(table: Table, mask: np.ndarray) -> Table:
    """Sub-table of the rows where ``mask`` holds, same schema and order."""
    return replace(
        table,
        rows=table.rows[mask],
        timestamps=table.timestamps[mask],
        field_id=table.field_id[mask],
        treatment=table.treatment[mask],
    )


def split_by_treatment(table: Table, train, held_out) -> tuple[Table, dict[str, Table]]:
    """The train table, of the rows whose treatment is in ``train``, and one
    table per treatment in ``held_out``, keyed by name in sorted order.
    Rows whose treatment is on neither side are dropped.

    ``train`` and ``held_out`` are collections of treatment names.
    ConfigError for a bare string in place of one, an empty side, a name on
    both sides, a treatment that no row carries, or a field with rows on
    the train side and on a held-out side (the split holds out whole
    fields)."""
    sides = []
    for side, names in (("train", train), ("held-out", held_out)):
        names = require_labels(
            names, ConfigError(f"{side} treatments must be a collection of names, got {names!r}")
        )
        if not names:
            raise ConfigError(f"no {side} treatment named")
        sides.append(names)
    train, held_out = sides
    if both := train & held_out:
        raise ConfigError(f"treatments named on both sides of the split: {sorted(both, key=repr)}")
    if unknown := (train | held_out) - set(table.treatment.tolist()):
        raise ConfigError(f"no row has treatment {sorted(unknown, key=repr)}")
    in_train = np.isin(table.treatment, sorted(train))
    shared = np.intersect1d(
        table.field_id[in_train], table.field_id[np.isin(table.treatment, sorted(held_out))]
    )
    if len(shared):
        field = str(shared[0])
        tags = set(table.treatment[table.field_id == field].tolist())
        raise ConfigError(
            f"field {field!r} has rows in train treatments {sorted(tags & train)} "
            f"and in held-out treatments {sorted(tags & held_out)}"
        )
    return _take_rows(table, in_train), {
        name: _take_rows(table, table.treatment == name) for name in sorted(held_out)
    }


# ---------------------------------------------------------------------------
# lag features
# ---------------------------------------------------------------------------

DEFAULT_LAG_WINDOWS = (45, 182, 365, 730)


def lag_counts(events: Table, windows: Sequence[int] = DEFAULT_LAG_WINDOWS) -> Table:
    """Append, for every event_count column and window w, a column counting
    event occurrences in the half-open day window (t - w, t].

    Counting sums the event column, so a day with a count of 2 contributes 2.
    A window is a positive whole number of days, such as 30 or 30.0; a bool
    is not one.
    """
    for w in windows:
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or not 0 < w < math.inf or int(w) != w:
            raise ConfigError(f"lag window must be a positive day count, got {w!r}")
    windows = [int(w) for w in windows]
    event_cols = [c.name for c in events.schema if c.kind == "event_count"]
    if not event_cols:
        return events
    days = _day_numbers(events.timestamps)
    slices = _field_slices(events.field_id)
    existing = set(events.names)
    new_specs = list(events.schema)
    new_cols = [events.rows]
    for name in event_cols:
        vals = events.rows[:, events.col_index(name)]
        for w in windows:
            cname = f"{name}_last{w}d"
            if cname in existing:
                raise SchemaError(f"lag column collision on {cname!r}")
            existing.add(cname)
            out = np.empty(events.n, dtype=np.float64)
            for a, b in slices:
                d = days[a:b]
                prefix = np.concatenate([[0.0], np.cumsum(vals[a:b])])
                lo = np.searchsorted(d, d - w, side="right")
                hi = np.arange(1, b - a + 1)
                out[a:b] = prefix[hi] - prefix[lo]
            new_specs.append(ColumnSpec(cname, "continuous", source_group=name))
            new_cols.append(out.reshape(-1, 1))
    return Table(
        tuple(new_specs),
        np.hstack(new_cols),
        events.timestamps,
        events.field_id,
        events.treatment,
        target=events.target,
    )


def concat_tables(tables: Sequence[Table]) -> Table:
    """Row-wise concatenation of identically-shaped tables (the Table
    constructor restores canonical order and rejects a shared (field, day))."""
    tables = list(tables)
    if not tables:
        raise ConfigError("concat_tables needs at least one table")
    first = tables[0]
    for t in tables[1:]:
        if t.schema != first.schema:
            raise SchemaError("concat_tables requires identical schemas")
        if t.target != first.target:
            raise SchemaError("concat_tables requires identical targets")
    return Table(
        first.schema,
        np.vstack([t.rows for t in tables]),
        np.concatenate([t.timestamps for t in tables]),
        np.concatenate([t.field_id for t in tables]),
        np.concatenate([t.treatment for t in tables]),
        target=first.target,
    )


# ---------------------------------------------------------------------------
# CSV + sidecar serialization
# ---------------------------------------------------------------------------

_RESERVED = ("date", "field_id", "treatment")


def default_schema_path(csv_path: str) -> str:
    return csv_path + ".schema"


def write_schema(table: Table, path: str) -> None:
    lines = ["# soilcausal table schema: col\tname\tkind\tsource_group"]
    lines.append(f"target\t{table.target}")
    for c in table.schema:
        lines.append(f"col\t{c.name}\t{c.kind}\t{c.source_group}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str, newline: str | None = None) -> list[str]:
    """The lines of a text file; a file that is not UTF-8 is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc


def read_schema(path: str) -> tuple[tuple[ColumnSpec, ...], str]:
    """Column specs and target of a sidecar schema: at most one
    ``target<TAB>name`` line and one ``col<TAB>name<TAB>kind<TAB>source_group``
    line per column; past blank and ``#`` lines, any other line is a
    SchemaError."""
    specs: list[ColumnSpec] = []
    target = None
    for ln, raw in enumerate(_read_lines(path), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "target":
            if len(parts) != 2:
                raise SchemaError(f"{path}:{ln}: malformed target line")
            if target is not None:
                raise SchemaError(f"{path}:{ln}: second target line")
            target = parts[1]
        elif parts[0] == "col":
            if len(parts) != 4:
                raise SchemaError(f"{path}:{ln}: malformed column line")
            specs.append(ColumnSpec(*parts[1:]))
        else:
            raise SchemaError(f"{path}:{ln}: unknown record {parts[0]!r}")
    return tuple(specs), target or ""


def write_csv(table: Table, path: str, schema_path: str | None = None) -> None:
    """CSV with ISO dates plus a sidecar schema file.  Floats use repr so the
    round-trip is value-exact."""
    schema_path = schema_path or default_schema_path(path)
    write_schema(table, schema_path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([*_RESERVED, *table.names])
        for i in range(table.n):
            w.writerow([
                str(table.timestamps[i]),
                str(table.field_id[i]),
                str(table.treatment[i]),
                *(repr(float(v)) for v in table.rows[i]),
            ])


def _first_bad_cell(cells: Sequence[str]) -> int:
    """Row of the first cell of a column that ``float`` rejects."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i


def _first_bad_date(dates: Sequence[str]) -> int | None:
    """Row of the first date that is not an ISO ``YYYY-MM-DD`` day, or None:
    a date must parse and print back as the same text."""
    try:
        ts = np.asarray(dates, dtype="datetime64[D]")
    except ValueError:  # some text does not parse: try the dates one by one
        if len(dates) == 1:
            return 0
        return next(i for i, d in enumerate(dates) if _first_bad_date((d,)) == 0)
    bad = np.flatnonzero(np.isnat(ts) | (np.datetime_as_string(ts) != np.asarray(dates, dtype=str)))
    return int(bad[0]) if len(bad) else None


def read_csv(path: str, schema_path: str | None = None) -> Table:
    """Table from a CSV and its sidecar schema.  Each column is parsed in
    one pass, and every date must be a ``YYYY-MM-DD`` day; a malformed file
    raises SchemaError for its first bad cell in row-major order."""
    schema_path = schema_path or default_schema_path(path)
    specs, target = read_schema(schema_path)
    names = {c.name for c in specs}
    try:
        rows = list(csv.reader(_read_lines(path, newline="")))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise SchemaError(f"{path}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: empty CSV")
    header, raw_rows = rows[0], rows[1:]
    if header[: len(_RESERVED)] != list(_RESERVED):
        raise SchemaError(f"{path}: header must start with {_RESERVED}")
    value_names = header[len(_RESERVED):]
    if len(set(value_names)) != len(value_names):
        raise SchemaError(f"{path}: CSV header names a column twice")
    if set(value_names) != names:
        missing = sorted(names - set(value_names))
        extra = sorted(set(value_names) - names)
        raise SchemaError(
            f"{path}: CSV/schema column mismatch (missing {missing}, extra {extra})"
        )
    # the rows before the first one of the wrong width, column by column
    widths = np.fromiter(map(len, raw_rows), np.intp, len(raw_rows))
    bad_width = np.flatnonzero(widths != len(header))
    n = int(bad_width[0]) if len(bad_width) else len(raw_rows)
    dates, fids, trts, *columns = list(zip(*raw_rows[:n])) or [()] * len(header)
    values, errors = {}, []
    i = _first_bad_date(dates)
    if i is not None:
        errors.append((i, -1, f"{path}: row {i + 2}: date {dates[i]!r} is not YYYY-MM-DD"))
    for j, (name, col) in enumerate(zip(value_names, columns)):
        try:
            values[name] = list(map(float, col))
        except ValueError:
            i = _first_bad_cell(col)
            errors.append((i, j, f"{path}: row {i + 2}: non-numeric value {col[i]!r} for {name}"))
    if errors:
        raise SchemaError(min(errors)[2])
    if n < len(raw_rows):
        raise SchemaError(f"{path}: row {n + 2} has {len(raw_rows[n])} cells")
    # schema order defines column order
    data = np.array([values[c.name] for c in specs], dtype=np.float64).reshape(len(specs), n).T
    ts = np.asarray(dates, dtype="datetime64[D]")
    return Table(specs, data, ts, np.asarray(fids, dtype=str),
                 np.asarray(trts, dtype=str), target=target)
