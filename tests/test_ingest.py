"""Tabular-ingestion tests: the one-row-per-(field, day) table, field
indicators, scaling, lag windows, and the CSV + sidecar round trip.  Oracles
are naive per-row rescans."""

from __future__ import annotations

import itertools
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import soilcausal.ingest as I
from soilcausal.errors import ConfigError, SchemaError

D0 = np.datetime64("2020-01-01")


def days(*offsets):
    return np.array([D0 + int(o) for o in offsets], dtype="datetime64[D]")


def mk(colspecs, values, day_offsets, fields=None, treatments=None, target=""):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    fields = np.asarray(fields if fields is not None else ["f1"] * n, dtype=str)
    treatments = np.asarray(treatments if treatments is not None else ["red"] * n, dtype=str)
    return I.Table(tuple(colspecs), values, days(*day_offsets), fields, treatments, target=target)


# ---------------------------------------------------------------------------
# Table basics
# ---------------------------------------------------------------------------


def test_rows_are_canonically_ordered_by_field_then_date():
    t = mk(
        [I.ColumnSpec("x", "continuous")],
        [[1.0], [2.0], [3.0], [4.0]],
        [5, 1, 3, 2],
        fields=["b", "a", "a", "b"],
    )
    assert t.field_id.tolist() == ["a", "a", "b", "b"]
    assert t.rows[:, 0].tolist() == [2.0, 3.0, 4.0, 1.0]


def test_matrix_extracts_by_name():
    t = mk(
        [I.ColumnSpec("x", "continuous"), I.ColumnSpec("y", "continuous")],
        [[1.0, 10.0], [2.0, 20.0]],
        [0, 1],
    )
    assert t.matrix(["y", "x"]).tolist() == [[10.0, 1.0], [20.0, 2.0]]
    with pytest.raises(SchemaError):
        t.matrix(["nope"])


def test_schema_validation():
    with pytest.raises(SchemaError):
        mk([I.ColumnSpec("x", "continuous"), I.ColumnSpec("x", "continuous")],
           [[1.0, 2.0]], [0])
    with pytest.raises(SchemaError):
        mk([I.ColumnSpec("x", "nonsense")], [[1.0]], [0])
    with pytest.raises(SchemaError):
        mk([I.ColumnSpec("x", "one_hot")], [[1.0]], [0])  # needs source_group
    for bad in ("a\tb", "a\nb", "a\rb"):  # the sidecar's separators
        with pytest.raises(SchemaError, match="bad source_group"):
            I.ColumnSpec("x", "one_hot", source_group=bad)
    with pytest.raises(SchemaError):
        mk([I.ColumnSpec("x", "continuous")], [[1.0]], [0], target="missing")
    nat_first = np.array(["NaT", "2020-01-01"], dtype="datetime64[D]")
    with pytest.raises(SchemaError, match=re.escape("row 0 of field 'f1' has no day (NaT)")):
        I.Table((I.ColumnSpec("ev", "event_count"),), [[1.0], [1.0]], nat_first,
                ["f1", "f1"], ["red", "red"])


def test_one_row_per_field_and_day():
    spec = [I.ColumnSpec("x", "continuous")]
    recs = [("a", 0), ("a", 1), ("b", 1), ("a", 1)]  # (a, day 1) twice
    for perm in itertools.permutations(range(len(recs))):
        with pytest.raises(SchemaError, match="field 'a' has more than one row on 2020-01-02"):
            mk(spec, [[float(k)] for k in perm], [recs[k][1] for k in perm],
               fields=[recs[k][0] for k in perm])
    # the duplicate-day cases of validate_model_ready and lag_counts now
    # fail where the table is built
    with pytest.raises(SchemaError):
        mk(spec, [[1.0], [2.0]], [3, 3], target="x")
    with pytest.raises(SchemaError):
        _event_table([1, 1], [1.0, 1.0])

    t1 = mk(spec, [[1.0], [2.0]], [0, 1], fields=["a", "a"])
    t2 = mk(spec, [[3.0], [4.0]], [1, 2], fields=["a", "b"])
    with pytest.raises(SchemaError, match="field 'a' has more than one row on 2020-01-02"):
        I.concat_tables([t1, t2])
    with pytest.raises(SchemaError):
        replace(t1, timestamps=days(5, 5))

    # a row-mask subset, built by `replace` on the masked arrays as the
    # benchmark protocol builds its train and test tables, stays valid
    t = mk(spec, [[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1],
           fields=["a", "a", "b", "b"], treatments=["red", "red", "green", "green"])
    mask = t.treatment == "red"
    sub = replace(t, rows=t.rows[mask], timestamps=t.timestamps[mask],
                  field_id=t.field_id[mask], treatment=t.treatment[mask])
    assert sub.field_id.tolist() == ["a", "a"]
    assert sub.column("x").tolist() == [1.0, 2.0]


def test_validate_model_ready():
    good = mk([I.ColumnSpec("x", "continuous")], [[1.0], [2.0]], [0, 1], target="x")
    I.validate_model_ready(good)
    with pytest.raises(SchemaError):
        I.validate_model_ready(
            mk([I.ColumnSpec("x", "continuous")], [[1.0], [2.0]], [0, 1])
        )  # no target
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SchemaError):
            I.validate_model_ready(
                mk([I.ColumnSpec("x", "continuous")], [[bad], [2.0]], [0, 1], target="x")
            )


# ---------------------------------------------------------------------------
# field indicators
# ---------------------------------------------------------------------------


def test_add_field_onehots():
    t = mk(
        [I.ColumnSpec("x", "continuous")],
        [[1.0], [2.0], [3.0]],
        [0, 0, 1],
        fields=["north", "south", "north"],
    )
    enc = I.add_field_onehots(t)
    assert enc.names == ("x", "field=north", "field=south")
    assert enc.column("field=north").tolist() == [1.0, 1.0, 0.0]
    assert enc.column("field=south").tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------


def test_min_max_affine_endpoints():
    t = mk([I.ColumnSpec("x", "continuous")], [[2.0], [4.0], [6.0]], [0, 1, 2])
    params = I.min_max_fit(t, ["x"], np.ones(3, dtype=bool))
    out = I.min_max_apply(t, params)
    assert out.column("x").tolist() == [0.0, 0.5, 1.0]


def test_min_max_constant_column_maps_to_zero():
    t = mk([I.ColumnSpec("x", "continuous")], [[5.0]] * 3, [0, 1, 2])
    params = I.min_max_fit(t, ["x"], np.ones(3, dtype=bool))
    assert I.min_max_apply(t, params).column("x").tolist() == [0.0, 0.0, 0.0]


def test_min_max_test_rows_extrapolate_unclipped():
    t = mk([I.ColumnSpec("x", "continuous")], [[2.0], [4.0], [6.0]], [0, 1, 2])
    mask = np.array([True, True, False])
    params = I.min_max_fit(t, ["x"], mask)
    out = I.min_max_apply(t, params)
    assert out.column("x").tolist() == [0.0, 1.0, 2.0]
    assert params.fitted_on == 2


def test_min_max_roundtrip_within_1e12():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(50, 2)) * 7 + 3
    t = mk([I.ColumnSpec("a", "continuous"), I.ColumnSpec("b", "continuous")],
           vals, range(50))
    params = I.min_max_fit(t, ["a", "b"], np.ones(50, dtype=bool))
    scaled = I.min_max_apply(t, params).rows
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    assert np.abs(scaled * (hi - lo) + lo - vals).max() < 1e-12


def test_min_max_errors():
    t = mk([I.ColumnSpec("x", "continuous")], [[1.0], [2.0]], [0, 1])
    with pytest.raises(ConfigError):
        I.min_max_fit(t, ["x"], np.zeros(2, dtype=bool))
    params = I.min_max_fit(t, ["x"], np.ones(2, dtype=bool))
    other = mk([I.ColumnSpec("y", "continuous")], [[1.0]], [0])
    with pytest.raises(SchemaError):
        I.min_max_apply(other, params)


# ---------------------------------------------------------------------------
# lag windows
# ---------------------------------------------------------------------------


def _event_table(day_offsets, values, fields=None):
    return mk([I.ColumnSpec("ev", "event_count")],
              np.asarray(values, dtype=np.float64).reshape(-1, 1),
              day_offsets, fields=fields)


def test_lag_half_open_window_semantics():
    # events on day 1 and day 10 (relative); querying day 10:
    t = _event_table(range(1, 11), [1.0] + [0.0] * 8 + [1.0])
    out45 = I.lag_counts(t, [45])
    assert out45.column("ev_last45d")[-1] == 2.0  # both inside (t-45, t]
    out5 = I.lag_counts(t, [5])
    assert out5.column("ev_last5d")[-1] == 1.0  # day 1 excluded by half-open edge


def test_lag_matches_bruteforce_rescan():
    rng = np.random.default_rng(2)
    n = 200
    vals = rng.integers(0, 3, size=n).astype(np.float64)
    t = _event_table(range(n), vals)
    out = I.lag_counts(t, I.DEFAULT_LAG_WINDOWS)
    day = np.arange(n)
    for w in I.DEFAULT_LAG_WINDOWS:
        got = out.column(f"ev_last{w}d")
        for i in range(n):
            inside = (day > day[i] - w) & (day <= day[i])
            assert got[i] == vals[inside].sum()


def test_lag_monotone_in_window():
    rng = np.random.default_rng(3)
    t = _event_table(range(120), rng.integers(0, 2, size=120).astype(np.float64))
    out = I.lag_counts(t, [10, 45, 100])
    a = out.column("ev_last10d")
    b = out.column("ev_last45d")
    c = out.column("ev_last100d")
    assert np.all(a <= b) and np.all(b <= c)


def test_lag_does_not_leak_across_fields():
    t = _event_table([0, 1, 0, 1], [1.0, 0.0, 1.0, 1.0], fields=["a", "a", "b", "b"])
    out = I.lag_counts(t, [30])
    lag = out.column("ev_last30d")
    # canonical order: (a,0), (a,1), (b,0), (b,1)
    assert lag.tolist() == [1.0, 1.0, 1.0, 2.0]


def _field_slices_loop(fid):
    """The row-by-row scan ``_field_slices`` replaced."""
    out, start = [], 0
    for i in range(1, len(fid) + 1):
        if i == len(fid) or fid[i] != fid[start]:
            out.append((start, i))
            start = i
    return out


@pytest.mark.parametrize("seed", range(20))
def test_field_slices_match_a_row_by_row_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3)) if seed < 6 else int(rng.integers(3, 200))  # empty and single-row tables too
    fid = np.array([f"f{k}" for k in np.sort(rng.integers(0, 1 + seed % 7, size=n))])
    assert I._field_slices(fid) == _field_slices_loop(fid)


def test_lag_rejects_bad_windows():
    t = _event_table([0, 1], [1.0, 0.0])
    with pytest.raises(ConfigError):
        I.lag_counts(t, [0])


# ---------------------------------------------------------------------------
# concatenation
# ---------------------------------------------------------------------------


def test_concat_tables_restores_canonical_order():
    spec = [I.ColumnSpec("x", "continuous")]
    t1 = mk(spec, [[1.0]], [1], fields=["b"])
    t2 = mk(spec, [[2.0]], [0], fields=["a"])
    out = I.concat_tables([t1, t2])
    assert out.field_id.tolist() == ["a", "b"]
    assert out.column("x").tolist() == [2.0, 1.0]


# ---------------------------------------------------------------------------
# CSV + sidecar round trip
# ---------------------------------------------------------------------------


def test_csv_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(6)
    t = mk(
        [
            I.ColumnSpec("x", "continuous"),
            I.ColumnSpec("ev", "event_count"),
            I.ColumnSpec("op=plough", "one_hot", source_group="op"),
        ],
        np.column_stack(
            [rng.normal(size=5) * 1e3, rng.integers(0, 3, 5), rng.integers(0, 2, 5)]
        ),
        range(5),
        fields=["f1", "f2", "f1", "f2", "f1"],
        treatments=["red", "green", "red", "green", "red"],
        target="x",
    )
    path = tmp_path / "table.csv"
    I.write_csv(t, str(path))
    back = I.read_csv(str(path))
    assert back.equals(t)


def test_csv_reader_errors(tmp_path):
    path = tmp_path / "bad.csv"
    schema = tmp_path / "bad.csv.schema"
    path.write_text("date,field_id,treatment,x\n2020-01-01,f1,red,oops\n", encoding="utf-8")
    schema.write_text("target\t\ncol\tx\tcontinuous\t\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        I.read_csv(str(path))
    schema.write_text("target\t\ncol\ty\tcontinuous\t\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        I.read_csv(str(path))
    # a target line has two fields and comes at most once
    path.write_text("date,field_id,treatment,x\n2020-01-01,f1,red,1.0\n", encoding="utf-8")
    schema.write_text("target\tx\ncol\tx\tcontinuous\t\n", encoding="utf-8")
    assert I.read_csv(str(path)).target == "x"
    for text, message in [
        ("target\tx\ntarget\tx\ncol\tx\tcontinuous\t\n", ":2: second target line"),
        ("col\tx\tcontinuous\t\ntarget\tx\ty\n", ":2: malformed target line"),
    ]:
        schema.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(schema) + message)):
            I.read_csv(str(path))


def test_csv_reader_reports_the_first_bad_cell_in_row_major_order(tmp_path):
    path = tmp_path / "bad.csv"
    (tmp_path / "bad.csv.schema").write_text(
        "target\t\ncol\tx\tcontinuous\t\ncol\ty\tcontinuous\t\n", encoding="utf-8"
    )
    ok, short = "2020-01-01,f1,red,1.0,2.0", "2020-01-02,f1,red"
    bad_y, bad_both = "2020-01-03,f1,red,2.0,nope", "2020-01-04,f1,red,oops,nope"
    cases = [
        ([ok, bad_y, bad_both, short], "row 3: non-numeric value 'nope' for y"),
        ([ok, bad_both, bad_y], "row 3: non-numeric value 'oops' for x"),
        ([ok, short, bad_both], "row 3 has 3 cells"),
        ([ok, bad_y, ",f1,red,1.0,2.0"], "row 3: non-numeric value 'nope' for y"),
        ([ok, "2020-01,f1,red,oops,nope"], "row 3: date '2020-01' is not YYYY-MM-DD"),
    ]
    # a date must be a YYYY-MM-DD day, not a year, a month, a time or NaT
    for date in ("", "NaT", "2020", "2020-01", "2020-01-01T10", " 2020-01-01", "+2020-01-01", "2020-13-01"):
        cases.append(([ok, f"{date},f1,red,1.0,2.0"], f"row 3: date {date!r} is not YYYY-MM-DD"))
    for rows, message in cases:
        path.write_text("\n".join(["date,field_id,treatment,x,y", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(message)):
            I.read_csv(str(path))
    path.write_text(f"date,field_id,treatment,x,y,x\n{ok},1.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="names a column twice"):
        I.read_csv(str(path))


# Malformed inputs: small schemas and CSVs assembled from valid and broken
# pieces, the CSV header mostly naming the schema's columns.  Whatever the
# reader makes of them, it returns a Table or raises SchemaError; a bare
# ValueError, IndexError or KeyError is a bug.
_NAMES = st.sampled_from(["x", "op", "date", "", "y\tz"])
_CELLS = st.sampled_from(
    ["1.5", "-0.0", "nan", "1e999", "oops", "", "plough", "sow", "2020-01-01", "2020-13-01", "f1", '"',
     "9" * 131_073]  # longer than the csv module's field limit
)
_COL_LINES = st.builds(
    lambda n, kind, group: f"col\t{n}\t{kind}\t{group}",
    _NAMES,
    st.sampled_from([*I.KINDS, "categorical", "bogus"]),
    st.sampled_from(["", "g"]),
)
_OTHER_LINES = st.one_of(
    st.builds(lambda n: f"target\t{n}", _NAMES),
    st.builds(lambda n: f"col\t{n}\tcontinuous\tdaily\t\t", _NAMES),  # the old 6-field line
    st.sampled_from(["target", "target\tx\tx", "col\tx", "col\top\tcategorical\tdaily\t\tplough,sow",
                     "bogus\tx", "# comment", ""]),
    st.text(alphabet="ab,\t#", max_size=8),
)


@st.composite
def _malformed_inputs(draw):
    cols = draw(st.lists(_COL_LINES, max_size=3))
    schema = cols + draw(st.lists(_OTHER_LINES, max_size=2))
    if draw(st.booleans()):
        schema = draw(st.permutations(schema))
    names = [line.split("\t")[1] for line in cols]
    if draw(st.integers(0, 3)):
        header = ["date", "field_id", "treatment", *draw(st.permutations(names))]
    else:
        header = draw(st.lists(_NAMES, max_size=6))
    rows = []
    for day in range(1, draw(st.integers(0, 4)) + 1):
        width = len(header) if draw(st.integers(0, 3)) else draw(st.integers(0, len(header) + 1))
        cells = draw(st.lists(_CELLS, min_size=width, max_size=width))
        if draw(st.booleans()):
            cells[:3] = [f"2020-01-0{day}", "f1", "red"][:width]  # valid reserved cells, one row a day
        rows.append(",".join(cells))
    csv_text = "\n".join([",".join(header), *rows]) + draw(st.sampled_from(["", "\n", "\n\n"]))
    texts = [("\n".join(schema) + "\n").encode(), csv_text.encode()]
    if draw(st.booleans()):
        texts[draw(st.integers(0, 1))] += b"\xe9"  # not UTF-8
    return texts


@settings(max_examples=400, deadline=None)
@given(_malformed_inputs())
def test_csv_reader_raises_only_schema_errors(inputs):
    schema_bytes, csv_bytes = inputs
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        for name, raw in ((path, csv_bytes), (path + ".schema", schema_bytes)):
            with open(name, "wb") as fh:
                fh.write(raw)
        try:
            I.read_csv(path)
        except SchemaError:
            pass
