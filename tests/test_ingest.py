"""Tabular-ingestion tests: encodings, scaling, lag windows, daily merge,
and the CSV + sidecar round trip.  Oracles are naive per-row rescans and
group-by reimplementations."""

from __future__ import annotations

import numpy as np
import pytest

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
    with pytest.raises(SchemaError):
        mk([I.ColumnSpec("x", "continuous")], [[1.0]], [0], target="missing")


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
    with pytest.raises(SchemaError):
        I.validate_model_ready(
            mk([I.ColumnSpec("x", "continuous")], [[1.0], [2.0]], [3, 3], target="x")
        )  # duplicate (field, day)


# ---------------------------------------------------------------------------
# one-hot encoding
# ---------------------------------------------------------------------------


def test_one_hot_basic():
    spec = I.ColumnSpec("op", "categorical", categories=("plough", "sow"))
    t = mk([spec], [[0.0], [1.0], [0.0]], [0, 1, 2])
    enc = I.one_hot_encode(t, ["op"])
    assert enc.names == ("op=plough", "op=sow")
    assert enc.column("op=plough").tolist() == [1.0, 0.0, 1.0]
    assert enc.column("op=sow").tolist() == [0.0, 1.0, 0.0]
    assert all(c.kind == "one_hot" and c.source_group == "op" for c in enc.schema)


def test_one_hot_single_category_still_emits_column():
    spec = I.ColumnSpec("op", "categorical", categories=("plough",))
    t = mk([spec], [[0.0], [0.0]], [0, 1])
    enc = I.one_hot_encode(t, ["op"])
    assert enc.names == ("op=plough",)
    assert enc.column("op=plough").tolist() == [1.0, 1.0]


def test_one_hot_rows_sum_to_one_per_group():
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 4, size=40).astype(np.float64)
    spec = I.ColumnSpec("field", "categorical", categories=("a", "b", "c", "d"))
    t = mk([spec], codes.reshape(-1, 1), range(40))
    enc = I.one_hot_encode(t, ["field"])
    group = [c.name for c in enc.schema if c.source_group == "field"]
    assert np.all(enc.matrix(group).sum(axis=1) == 1.0)


def test_one_hot_unknown_column_and_bad_codes():
    t = mk([I.ColumnSpec("x", "continuous")], [[0.5]], [0])
    with pytest.raises(SchemaError):
        I.one_hot_encode(t, ["nope"])
    with pytest.raises(SchemaError):
        I.one_hot_encode(t, ["x"])  # 0.5 is not an integer code


def test_one_hot_preserves_surrounding_column_order():
    specs = [
        I.ColumnSpec("a", "continuous"),
        I.ColumnSpec("op", "categorical", categories=("x", "y")),
        I.ColumnSpec("b", "continuous"),
    ]
    t = mk(specs, [[1.0, 0.0, 2.0], [1.0, 1.0, 2.0]], [0, 1])
    enc = I.one_hot_encode(t, ["op"])
    assert enc.names == ("a", "op=x", "op=y", "b")


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
    back = I.min_max_invert(I.min_max_apply(t, params), params)
    assert np.abs(back.rows - t.rows).max() < 1e-12


def test_min_max_errors():
    t = mk([I.ColumnSpec("x", "continuous")], [[1.0], [2.0]], [0, 1])
    with pytest.raises(ConfigError):
        I.min_max_fit(t, ["x"], np.zeros(2, dtype=bool))
    params = I.min_max_fit(t, ["x"], np.ones(2, dtype=bool))
    other = mk([I.ColumnSpec("y", "continuous")], [[1.0]], [0])
    with pytest.raises(SchemaError):
        I.min_max_apply(other, params)


def test_scaler_serialization_is_value_exact(tmp_path):
    params = I.ScalerParams(("a", "b"), (0.1, -3.7182818284590451), (2.5, 9.0), 17)
    path = tmp_path / "scaler.txt"
    I.write_scaler(params, str(path))
    back = I.read_scaler(str(path))
    assert back == params


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


def test_lag_rejects_bad_windows_and_duplicate_days():
    t = _event_table([0, 1], [1.0, 0.0])
    with pytest.raises(ConfigError):
        I.lag_counts(t, [0])
    dup = _event_table([1, 1], [1.0, 1.0])
    with pytest.raises(SchemaError):
        I.lag_counts(dup, [5])


# ---------------------------------------------------------------------------
# daily merge
# ---------------------------------------------------------------------------


def test_merge_averages_subdaily_readings():
    t = mk([I.ColumnSpec("pH", "continuous", cadence="sub_daily")],
           [[6.0], [7.0]], [0, 0])
    out = I.daily_merge([t])
    assert out.n == 1
    assert out.column("pH")[0] == 6.5
    assert out.spec("pH").cadence == "daily"


def test_merge_sums_same_day_events():
    t = mk([I.ColumnSpec("plough", "event_count", cadence="sparse_event")],
           [[1.0], [1.0]], [0, 0])
    out = I.daily_merge([t])
    assert out.column("plough")[0] == 2.0


def test_merge_is_idempotent_bitwise_on_daily_table():
    rng = np.random.default_rng(4)
    t = mk(
        [I.ColumnSpec("x", "continuous"), I.ColumnSpec("e", "event_count")],
        np.column_stack([rng.normal(size=6), rng.integers(0, 2, 6)]),
        [0, 1, 2, 0, 1, 2],
        fields=["a"] * 3 + ["b"] * 3,
        target="x",
    )
    assert I.daily_merge([t]).equals(t)


def test_merge_three_tables_matches_naive_groupby():
    rng = np.random.default_rng(5)
    fields = ["a", "b"]
    # table 1: sub-daily pH readings; table 2: sparse events; table 3: daily soil
    recs1, recs2, recs3 = [], [], []
    for f in fields:
        for d in range(10):
            for _ in range(rng.integers(1, 3)):
                recs1.append((f, d, rng.normal()))
            if rng.random() < 0.4:
                recs2.append((f, d, 1.0))
            if rng.random() < 0.7:
                recs3.append((f, d, rng.normal()))
    def tab(recs, spec):
        vals = np.asarray([r[2] for r in recs]).reshape(-1, 1)
        return mk([spec], vals, [r[1] for r in recs], fields=[r[0] for r in recs])
    t1 = tab(recs1, I.ColumnSpec("pH", "continuous", cadence="sub_daily"))
    t2 = tab(recs2, I.ColumnSpec("ev", "event_count", cadence="sparse_event"))
    t3 = tab(recs3, I.ColumnSpec("soil", "continuous"))
    out = I.daily_merge([t1, t2, t3])

    # naive group-by oracle
    keys = sorted({(f, d) for f, d, _ in recs1 + recs2 + recs3})
    assert [(f, (D0 + d)) for f, d in keys] == list(zip(out.field_id.tolist(), out.timestamps.tolist()))
    ph = {k: [] for k in keys}
    for f, d, v in recs1:
        ph[(f, d)].append(v)
    for k, i in zip(keys, range(out.n)):
        if ph[k]:
            assert abs(out.column("pH")[i] - np.mean(ph[k])) < 1e-12
    ev = {k: 0.0 for k in keys}
    for f, d, v in recs2:
        ev[(f, d)] += v
    assert out.column("ev").tolist() == [ev[k] for k in keys]


def test_merge_forward_fills_gaps_within_field():
    t1 = mk([I.ColumnSpec("x", "continuous")], [[1.0], [3.0]], [0, 2])
    t2 = mk([I.ColumnSpec("e", "event_count", cadence="sparse_event")], [[1.0]], [1])
    out = I.daily_merge([t1, t2])
    assert out.n == 3
    assert out.column("x").tolist() == [1.0, 1.0, 3.0]  # day 1 forward-filled
    assert out.column("e").tolist() == [0.0, 1.0, 0.0]


def test_merge_backfills_leading_gap():
    t1 = mk([I.ColumnSpec("x", "continuous")], [[5.0]], [2])
    t2 = mk([I.ColumnSpec("e", "event_count")], [[1.0], [1.0], [0.0]], [0, 1, 2])
    out = I.daily_merge([t1, t2])
    assert out.column("x").tolist() == [5.0, 5.0, 5.0]


def test_merge_rejects_duplicate_columns():
    t1 = mk([I.ColumnSpec("x", "continuous")], [[1.0]], [0])
    t2 = mk([I.ColumnSpec("x", "continuous")], [[2.0]], [0])
    with pytest.raises(SchemaError):
        I.daily_merge([t1, t2])


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
            I.ColumnSpec("op", "categorical", categories=("mow", "plough")),
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


def test_csv_reader_derives_categorical_vocabulary(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(
        "date,field_id,treatment,op\n"
        "2020-01-01,f1,red,plough\n"
        "2020-01-02,f1,red,sow\n"
        "2020-01-03,f1,red,plough\n",
        encoding="utf-8",
    )
    (tmp_path / "raw.csv.schema").write_text(
        "target\t\ncol\top\tcategorical\tdaily\t\t\n", encoding="utf-8"
    )
    t = I.read_csv(str(path))
    assert t.spec("op").categories == ("plough", "sow")
    assert t.column("op").tolist() == [0.0, 1.0, 0.0]


def test_csv_reader_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,field_id,treatment,x\n2020-01-01,f1,red,oops\n", encoding="utf-8")
    (tmp_path / "bad.csv.schema").write_text(
        "target\t\ncol\tx\tcontinuous\tdaily\t\t\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError):
        I.read_csv(str(path))
    (tmp_path / "bad.csv.schema").write_text(
        "target\t\ncol\ty\tcontinuous\tdaily\t\t\n", encoding="utf-8"
    )
    with pytest.raises(SchemaError):
        I.read_csv(str(path))
