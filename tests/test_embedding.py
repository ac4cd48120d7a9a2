import copy
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from unittab.embedding import (
    EncodedRow, build_bank, clamp_count, embed_slot_batch, expand_schema, freq_encode,
    prepare_series, reset_clamp_count, split_timestamp,
)
from unittab.schema import Cat, Missing, Num, Time
from unittab.tensor import Tensor, matmul
from conftest import make_tiny_schema, make_tiny_series
from test_ingest_golden import _ref_expand_series

SQ2 = math.sqrt(2.0) / 2.0


def make_bank(schema, d=6, m=8, L=2, numeric_input="frequency", seed=0):
    expanded = expand_schema(schema)
    rng = np.random.default_rng(seed)
    return expanded, build_bank(expanded, d, m, L, numeric_input, rng)


def embed(params, spec, values, masked=False):
    """embed_slot_batch over one attribute's values (Cat, Num or Missing),
    one batch row per value; `masked` is one flag for all or one per value."""
    ids = np.array([v.index if isinstance(v, Cat) else -1 for v in values], dtype=np.int64)
    vals = np.array([v.value if isinstance(v, Num) else np.nan for v in values])
    missing = np.array([v is Missing for v in values])
    flags = np.broadcast_to(np.asarray(masked, dtype=bool), missing.shape).copy()
    return embed_slot_batch(params, spec, ids, vals, missing, flags)


def test_freq_encode_zero():
    assert np.allclose(freq_encode(0.0, 2), [0.0, 1.0, 0.0, 1.0], atol=1e-15)


def test_freq_encode_half():
    out = freq_encode(0.5, 1)
    assert abs(out[0] - 1.0) < 1e-15 and abs(out[1]) < 1e-15


def test_freq_encode_quarter():
    out = freq_encode(0.25, 2)
    assert np.allclose(out, [SQ2, SQ2, 1.0, 0.0], atol=1e-15)


def test_freq_encode_interleaved_order_and_unit_circles():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.random()
        out = freq_encode(v, 4)
        for i in range(4):
            s, c = out[2 * i], out[2 * i + 1]
            assert abs(s * s + c * c - 1.0) <= 1e-12
            assert abs(s - math.sin(2 ** i * math.pi * v)) < 1e-15
    assert np.all(np.abs(out) <= 1.0)


def test_freq_encode_clamps_and_counts():
    reset_clamp_count()
    with pytest.warns(UserWarning):
        out = freq_encode(1.5, 2)
    assert clamp_count() == 1
    assert np.allclose(out, freq_encode(1.0, 2))
    reset_clamp_count()


def test_freq_encode_counts_every_clamp_across_threads():
    """Four threads clamp at once with a one-microsecond switch interval;
    the count must come out exact."""
    calls, threads = 1000, 4

    def clamp():
        for _ in range(calls):
            freq_encode(np.array([-1.0, 2.0]), 1)

    reset_clamp_count()
    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=clamp) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert clamp_count() == 2 * calls * threads
    reset_clamp_count()


def test_encoded_row_is_slotted_and_survives_copy_and_pickle():
    row = EncodedRow(2, np.array([3, -1]), np.array([np.nan, 0.5]), np.array([False, True]))
    assert not hasattr(row, "__dict__")
    for again in (copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert again.type_id == 2
        assert np.array_equal(again.cat_ids, row.cat_ids)
        assert np.array_equal(again.num_vals, row.num_vals, equal_nan=True)
        assert np.array_equal(again.is_missing, row.is_missing)
        assert again.cat_ids is not row.cat_ids


def test_split_timestamp_zero_based():
    out = split_timestamp(Time(2021, 3, 7), years=[2020, 2021])
    assert [v.index for v in out] == [1, 2, 6]


def test_split_timestamp_with_hour():
    out = split_timestamp(Time(2021, 3, 7, 13), years=[2021], with_hour=True)
    assert len(out) == 4 and out[3].index == 13


def test_split_timestamp_unseen_year_maps_to_oov():
    out = split_timestamp(Time(1999, 1, 1), years=[2020, 2021])
    assert out[0].index == 2  # OOV slot after the two known years


def test_expand_schema_raises_arity():
    schema = make_tiny_schema()
    expanded = expand_schema(schema)
    assert expanded.row_types[0].arity == 5  # timestamp -> year, month, day
    assert "timestamp.year" in expanded.attributes
    assert expanded.attributes["timestamp.month"].group == "timestamp"
    assert len(expanded.attributes["timestamp.month"].vocab) == 12
    assert len(expanded.attributes["timestamp.day"].vocab) == 31


def test_expand_series_matches_expanded_schema():
    schema = make_tiny_schema()
    expanded, (out,) = prepare_series([make_tiny_series()], schema)
    assert expanded == expand_schema(schema)
    assert all(len(r.cat_ids) == expanded.row_types[0].arity for r in out.rows)
    assert out.rows[0].cat_ids[0] == 0  # year 2021 at index 0


def test_embed_field_cat_is_exact_table_row():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema)
    spec = expanded.attributes["color"]
    table = params["embed.cat.color.table"].data
    assert np.array_equal(embed(params, spec, [Cat(3)]).data, table[[3]])
    assert np.array_equal(embed(params, spec, [Cat(3), Cat(0), Cat(2)]).data, table[[3, 0, 2]])


def test_embed_field_num_at_range_min():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema, L=2)
    spec = expanded.attributes["amount"]  # value_range (0, 3)
    w, b = params["embed.num.amount.weight"], params["embed.num.amount.bias"]
    out = embed(params, spec, [Num(0.0)])
    expected = matmul(Tensor(freq_encode(0.0, 2).reshape(1, -1)), w) + b
    assert np.allclose(out.data, expected.data, atol=1e-15)
    out = embed(params, spec, [Num(0.0), Num(1.5), Num(3.0)])
    feats = np.stack([freq_encode(v / 3.0, 2) for v in (0.0, 1.5, 3.0)])
    assert np.allclose(out.data, (matmul(Tensor(feats), w) + b).data, atol=1e-15)


def test_embed_field_missing_uses_missing_vector():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema)
    missing = params["embed.missing"].data
    for name, value in (("color", Cat(1)), ("amount", Num(1.0))):
        spec = expanded.attributes[name]
        assert np.array_equal(embed(params, spec, [Missing]).data, missing[None])
        out = embed(params, spec, [value, Missing, value])
        assert np.array_equal(out.data[1], missing)
        assert np.allclose(out.data[[0, 2]], np.tile(embed(params, spec, [value]).data, (2, 1)))


def test_embed_field_masked_overrides_value():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema)
    spec = expanded.attributes["color"]
    out = embed(params, spec, [Cat(1)], masked=True)
    assert np.array_equal(out.data, params["embed.mask"].data[None])
    out = embed(params, spec, [Cat(1), Missing, Cat(2)], masked=[True, True, False])
    assert np.array_equal(out.data[:2], np.tile(params["embed.mask"].data, (2, 1)))
    assert np.array_equal(out.data[2], params["embed.cat.color.table"].data[2])


def test_embed_row_composition():
    schema = make_tiny_schema()
    series = _ref_expand_series(make_tiny_series(), schema)
    expanded, params = make_bank(schema)
    rt = expanded.row_types[0]
    for s, name in enumerate(rt.attributes):
        spec = expanded.attributes[name]
        column = [row.values[s] for row in series.rows]
        batch = embed(params, spec, column)
        for i, v in enumerate(column):
            assert np.allclose(batch.data[i], embed(params, spec, [v]).data[0])


def test_embed_row_all_masked():
    schema = make_tiny_schema()
    series = _ref_expand_series(make_tiny_series(), schema)
    expanded, params = make_bank(schema)
    for s, name in enumerate(expanded.row_types[0].attributes):
        column = [row.values[s] for row in series.rows]
        out = embed(params, expanded.attributes[name], column, masked=True)
        assert np.array_equal(out.data, np.tile(params["embed.mask"].data, (len(column), 1)))


def test_equal_normalized_values_embed_bitwise_equal():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema)
    spec = expanded.attributes["amount"]
    a = embed(params, spec, [Num(1.2)])
    b = embed(params, spec, [Num(1.2)])
    assert np.array_equal(a.data, b.data)
    pair = embed(params, spec, [Num(1.2), Num(0.4), Num(1.2)])
    assert np.array_equal(pair.data[0], pair.data[2])


def test_binned_input_mode_uses_tables():
    schema = make_tiny_schema()
    expanded, params = make_bank(schema, numeric_input="binned")
    spec = expanded.attributes["amount"]
    table = params["embed.num.amount.table"].data
    assert np.array_equal(embed(params, spec, [Num(1.5)]).data, table[[1]])  # bin 1
    out = embed(params, spec, [Num(1.5), Num(0.2), Num(2.9)])
    assert np.array_equal(out.data, table[[1, 0, 2]])


def test_prepare_series_round_trip_shapes():
    schema = make_tiny_schema()
    series = [make_tiny_series("a"), make_tiny_series("b", n_rows=2)]
    expanded, encoded = prepare_series(series, schema)
    assert len(encoded) == 2
    assert all(len(r.cat_ids) == expanded.row_types[0].arity for r in encoded[0].rows)
