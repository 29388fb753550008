"""Tabular ingestion: typed tables, encodings, scaling, lag features, and
daily alignment.

A Table is an immutable (rows, timestamps, field_id, treatment) bundle with a
typed schema.  Construction canonicalizes row order to (field_id, date) with a
stable sort, so every downstream artifact is order-independent by design.

Column kinds:
    continuous   real-valued observable (pH, totalC, lag counts, ...)
    one_hot      0/1 member of an encoded categorical group
    event_count  daily occurrence count of a management event
    categorical  integer-coded labels awaiting one-hot encoding (raw input only)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, SchemaError

KINDS = ("continuous", "one_hot", "event_count", "categorical")
CADENCES = ("daily", "sub_daily", "sparse_event")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    source_group: str = ""
    cadence: str = "daily"
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        if not self.name or any(ch in self.name for ch in "\t\n\r"):
            raise SchemaError(f"bad column name {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        if self.cadence not in CADENCES:
            raise SchemaError(f"{self.name}: unknown cadence {self.cadence!r}")
        if self.kind == "one_hot" and not self.source_group:
            raise SchemaError(f"{self.name}: one_hot column needs a source_group")
        for c in self.categories:
            if any(ch in c for ch in "\t\n\r,"):
                raise SchemaError(f"{self.name}: bad category label {c!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Table:
    """One row per (field, day) after preprocessing; raw sub-daily logs may
    carry repeated days until `daily_merge` collapses them."""

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
        order = np.lexsort((ts, fid))  # stable: (field, date), input order on ties
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", _freeze(rows[order]))
        object.__setattr__(self, "timestamps", _freeze(ts[order]))
        object.__setattr__(self, "field_id", _freeze(fid[order]))
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

    def spec(self, name: str) -> ColumnSpec:
        return self.schema[self.col_index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.col_index(name)].copy()

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        idx = [self.col_index(n) for n in names]
        return self.rows[:, idx].copy()

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
    out = []
    start = 0
    for i in range(1, len(fid) + 1):
        if i == len(fid) or fid[i] != fid[start]:
            out.append((start, i))
            start = i
    return out


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
    """Strict invariants for tables entering discovery/training: one row per
    (field, day), finite values, a designated target, no raw categoricals."""
    if not table.target:
        raise SchemaError("model-ready table needs a designated target column")
    if not np.isfinite(table.rows).all():
        raise SchemaError("non-finite values remain after preprocessing")
    for spec in table.schema:
        if spec.kind == "categorical":
            raise SchemaError(f"{spec.name}: categorical column not yet encoded")
        if spec.cadence != "daily":
            raise SchemaError(f"{spec.name}: cadence {spec.cadence!r} not daily")
    days = _day_numbers(table.timestamps)
    for a, b in _field_slices(table.field_id):
        if np.any(np.diff(days[a:b]) <= 0):
            raise SchemaError(
                f"timestamps not strictly increasing within field "
                f"{table.field_id[a]!r}"
            )


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def _observed_labels(spec: ColumnSpec, values: np.ndarray) -> list[tuple[str, float]]:
    """(label, code) pairs for the categories observed in `values`,
    lexicographic by label."""
    if np.any(values != np.round(values)):
        raise SchemaError(f"{spec.name}: categorical column holds non-integer codes")
    codes = sorted(set(values.astype(np.int64).tolist()))
    if spec.categories:
        for c in codes:
            if not 0 <= c < len(spec.categories):
                raise SchemaError(f"{spec.name}: code {c} outside category table")
        pairs = [(spec.categories[c], float(c)) for c in codes]
    else:
        pairs = [(str(c), float(c)) for c in codes]
    pairs.sort(key=lambda p: p[0])
    return pairs


def one_hot_encode(table: Table, columns: Sequence[str]) -> Table:
    """Replace each named categorical column, in place in the schema order,
    by one 0/1 column per observed category (lexicographic by label)."""
    targets = list(columns)
    for name in targets:
        table.col_index(name)  # raises SchemaError on unknown names
    new_specs: list[ColumnSpec] = []
    new_cols: list[np.ndarray] = []
    taken = {c.name for c in table.schema if c.name not in targets}
    for spec in table.schema:
        vals = table.rows[:, table.col_index(spec.name)]
        if spec.name not in targets:
            new_specs.append(spec)
            new_cols.append(vals)
            continue
        for label, code in _observed_labels(spec, vals):
            name = f"{spec.name}={label}"
            if name in taken:
                raise SchemaError(f"one-hot name collision on {name!r}")
            taken.add(name)
            new_specs.append(
                ColumnSpec(name, "one_hot", source_group=spec.name, cadence=spec.cadence)
            )
            new_cols.append((vals == code).astype(np.float64))
    return Table(
        tuple(new_specs),
        np.column_stack(new_cols),
        table.timestamps,
        table.field_id,
        table.treatment,
        target=table.target,
    )


def add_field_onehots(table: Table, group: str = "field") -> Table:
    """Append one 0/1 indicator column per field id (the location encoding)."""
    labels = sorted(set(table.field_id.tolist()))
    specs = list(table.schema)
    cols = [table.rows]
    for fid in labels:
        name = f"{group}={fid}"
        if name in table.names:
            raise SchemaError(f"field indicator collision on {name!r}")
        specs.append(ColumnSpec(name, "one_hot", source_group=group))
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
        for c, lo, hi in zip(self.columns, self.mins, self.maxs):
            if lo > hi:
                raise SchemaError(f"{c}: scaler min {lo} > max {hi}")


def min_max_fit(table: Table, columns: Sequence[str], train_mask: np.ndarray) -> ScalerParams:
    """Per-column min/max from training rows only."""
    mask = np.asarray(train_mask, dtype=bool)
    if mask.shape != (table.n,):
        raise ConfigError("train mask length must match row count")
    if not mask.any():
        raise ConfigError("cannot fit a scaler on zero training rows")
    mins, maxs = [], []
    for name in columns:
        v = table.column(name)[mask]
        mins.append(float(v.min()))
        maxs.append(float(v.max()))
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
# lag features
# ---------------------------------------------------------------------------

DEFAULT_LAG_WINDOWS = (45, 182, 365, 730)


def lag_counts(events: Table, windows: Sequence[int] = DEFAULT_LAG_WINDOWS) -> Table:
    """Append, for every event_count column and window w, a column counting
    event occurrences in the half-open day window (t - w, t].

    The input must be daily (one row per field and day).  Counting sums the
    event column, so a day holding two merged events contributes 2.
    """
    for w in windows:
        if int(w) != w or w <= 0:
            raise ConfigError(f"lag window must be a positive day count, got {w!r}")
    windows = [int(w) for w in windows]
    event_cols = [c.name for c in events.schema if c.kind == "event_count"]
    if not event_cols:
        return events
    days = _day_numbers(events.timestamps)
    slices = _field_slices(events.field_id)
    for a, b in slices:
        if np.any(np.diff(days[a:b]) <= 0):
            raise SchemaError("lag counting needs one row per (field, day)")
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
            new_specs.append(
                ColumnSpec(cname, "continuous", source_group=name, cadence="daily")
            )
            new_cols.append(out.reshape(-1, 1))
    return Table(
        tuple(new_specs),
        np.hstack(new_cols),
        events.timestamps,
        events.field_id,
        events.treatment,
        target=events.target,
    )


# ---------------------------------------------------------------------------
# daily alignment
# ---------------------------------------------------------------------------


def _ffill_bfill(values: np.ndarray, slices: list[tuple[int, int]]) -> np.ndarray:
    """Forward-fill then back-fill NaN runs, independently per field block."""
    out = values.copy()
    for a, b in slices:
        block = out[a:b]
        mask = np.isnan(block)
        if mask.all() or not mask.any():
            continue
        idx = np.where(~mask, np.arange(b - a), -1)
        np.maximum.accumulate(idx, out=idx)
        filled = np.where(idx >= 0, block[np.maximum(idx, 0)], np.nan)
        # leading gap: take the first observed value
        first = block[~mask][0]
        out[a:b] = np.where(np.isnan(filled), first, filled)
    return out


def daily_merge(tables: Sequence[Table]) -> Table:
    """Merge per-source tables onto one row per (field, day).

    Within a day, event_count columns sum and all other kinds average;
    days present in any input appear for that field; continuous gaps are
    forward-filled within the field (then back-filled at the lead).  Output
    cadence is daily everywhere.  Duplicate column names across inputs are
    rejected rather than silently reconciled.
    """
    tables = list(tables)
    if not tables:
        raise ConfigError("daily_merge needs at least one table")
    seen: dict[str, int] = {}
    for k, t in enumerate(tables):
        for c in t.schema:
            if c.name in seen:
                raise SchemaError(
                    f"column {c.name!r} appears in inputs {seen[c.name]} and {k}"
                )
            seen[c.name] = k
    targets = {t.target for t in tables if t.target}
    if len(targets) > 1:
        raise SchemaError(f"conflicting targets across inputs: {sorted(targets)}")
    target = targets.pop() if targets else ""

    # the output grid: all (field, day) pairs observed anywhere
    keys: set[tuple[str, np.datetime64]] = set()
    treatment_of: dict[str, str] = {}
    for t in tables:
        for f, d, trt in zip(t.field_id, t.timestamps, t.treatment):
            keys.add((str(f), d))
            treatment_of.setdefault(str(f), str(trt))
    grid = sorted(keys)
    index = {k: i for i, k in enumerate(grid)}
    m = len(grid)

    new_specs: list[ColumnSpec] = []
    new_cols: list[np.ndarray] = []
    g_fields = np.asarray([f for f, _ in grid], dtype=str)
    g_days = np.asarray([d for _, d in grid], dtype="datetime64[D]")
    slices = _field_slices(g_fields)
    for t in tables:
        rows_idx = np.asarray(
            [index[(str(f), d)] for f, d in zip(t.field_id, t.timestamps)],
            dtype=np.int64,
        )
        for j, spec in enumerate(t.schema):
            vals = t.rows[:, j]
            if spec.kind == "event_count":
                acc = np.zeros(m, dtype=np.float64)
                np.add.at(acc, rows_idx, vals)
                merged = acc
            else:
                acc = np.zeros(m, dtype=np.float64)
                cnt = np.zeros(m, dtype=np.float64)
                np.add.at(acc, rows_idx, vals)
                np.add.at(cnt, rows_idx, 1.0)
                with np.errstate(invalid="ignore"):
                    merged = np.where(cnt > 0, acc / np.maximum(cnt, 1.0), np.nan)
                if spec.kind in ("continuous", "categorical"):
                    merged = _ffill_bfill(merged, slices)
            new_specs.append(replace(spec, cadence="daily"))
            new_cols.append(merged.reshape(-1, 1))
    return Table(
        tuple(new_specs),
        np.hstack(new_cols),
        g_days,
        g_fields,
        np.asarray([treatment_of[str(f)] for f in g_fields], dtype=str),
        target=target,
    )


def concat_tables(tables: Sequence[Table]) -> Table:
    """Row-wise concatenation of identically-shaped tables (canonical order
    is restored by the Table constructor)."""
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
    lines = ["# soilcausal table schema: col\tname\tkind\tcadence\tsource_group\tcategories"]
    lines.append(f"target\t{table.target}")
    for c in table.schema:
        cats = ",".join(c.categories)
        lines.append(f"col\t{c.name}\t{c.kind}\t{c.cadence}\t{c.source_group}\t{cats}")
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
    specs: list[ColumnSpec] = []
    target = ""
    for ln, raw in enumerate(_read_lines(path), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "target":
            target = parts[1] if len(parts) > 1 else ""
        elif parts[0] == "col":
            if len(parts) != 6:
                raise SchemaError(f"{path}:{ln}: malformed column line")
            cats = tuple(p for p in parts[5].split(",") if p)
            specs.append(ColumnSpec(parts[1], parts[2], parts[4], parts[3], cats))
        else:
            raise SchemaError(f"{path}:{ln}: unknown record {parts[0]!r}")
    return tuple(specs), target


def write_csv(table: Table, path: str, schema_path: str | None = None) -> None:
    """CSV with ISO dates plus a sidecar schema file.  Floats use repr so the
    round-trip is value-exact; categorical codes are written as labels."""
    schema_path = schema_path or default_schema_path(path)
    write_schema(table, schema_path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([*_RESERVED, *table.names])
        for i in range(table.n):
            row: list[str] = [
                str(table.timestamps[i]),
                str(table.field_id[i]),
                str(table.treatment[i]),
            ]
            for j, spec in enumerate(table.schema):
                v = table.rows[i, j]
                if spec.categories:
                    row.append(spec.categories[int(v)])
                else:
                    row.append(repr(float(v)))
            w.writerow(row)


def _first_bad_cell(cells: Sequence[str], codes: dict[str, float] | None) -> int:
    """Row of the first cell of a column that ``float`` (or, for a
    categorical column, its code table) rejects."""
    for i, cell in enumerate(cells):
        try:
            codes[cell] if codes is not None else float(cell)
        except (KeyError, ValueError):
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
    by_name = {c.name: c for c in specs}
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
    if set(value_names) != set(by_name):
        missing = sorted(set(by_name) - set(value_names))
        extra = sorted(set(value_names) - set(by_name))
        raise SchemaError(
            f"{path}: CSV/schema column mismatch (missing {missing}, extra {extra})"
        )
    # the rows before the first one of the wrong width, column by column
    widths = np.fromiter(map(len, raw_rows), np.intp, len(raw_rows))
    bad_width = np.flatnonzero(widths != len(header))
    n = int(bad_width[0]) if len(bad_width) else len(raw_rows)
    dates, fids, trts, *columns = list(zip(*raw_rows[:n])) or [()] * len(header)
    values, derived, errors = {}, {}, []
    i = _first_bad_date(dates)
    if i is not None:
        errors.append((i, -1, f"{path}: row {i + 2}: date {dates[i]!r} is not YYYY-MM-DD"))
    for j, (name, col) in enumerate(zip(value_names, columns)):
        spec = by_name[name]
        cats = spec.categories
        if spec.kind == "categorical" and not cats:
            # declared without a vocabulary: build one from the data
            cats = derived[name] = tuple(sorted(set(col)))
        codes = {lab: float(k) for k, lab in enumerate(cats)} if cats else None
        try:
            values[name] = list(map(float, col) if codes is None else map(codes.__getitem__, col))
        except (KeyError, ValueError):
            i = _first_bad_cell(col, codes)
            what = "non-numeric value" if codes is None else "unknown category"
            errors.append((i, j, f"{path}: row {i + 2}: {what} {col[i]!r} for {name}"))
    if errors:
        raise SchemaError(min(errors)[2])
    if n < len(raw_rows):
        raise SchemaError(f"{path}: row {n + 2} has {len(raw_rows[n])} cells")
    # schema order defines column order
    data = np.array([values[c.name] for c in specs], dtype=np.float64).reshape(len(specs), n).T
    out_specs = tuple(
        replace(c, categories=derived.get(c.name, c.categories)) for c in specs
    )
    ts = np.asarray(dates, dtype="datetime64[D]")
    return Table(out_specs, data, ts, np.asarray(fids, dtype=str),
                 np.asarray(trts, dtype=str), target=target)
