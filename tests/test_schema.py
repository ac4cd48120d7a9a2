import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unittab.schema import (
    AttributeSpec, Cat, DegenerateAttributeError, Missing, Row, SchemaError, Time,
    fit_bins, fit_schema, fit_vocab, quantize_array, schema_from_json, schema_hash,
    schema_to_json, validate, vocab_index, NUMERICAL,
)
from conftest import make_tiny_schema, make_tiny_series


def quantile_oracle(sorted_vals, fraction):
    # independent linear-interpolation quantile on the sorted sample
    pos = fraction * (len(sorted_vals) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    w = pos - lo
    return sorted_vals[lo] * (1 - w) + sorted_vals[hi] * w


def test_validate_well_formed_series():
    assert validate(make_tiny_series(), make_tiny_schema()) == []


def test_validate_arity_violation():
    schema = make_tiny_schema()
    series = make_tiny_series()
    series.rows[1] = Row(1, series.rows[1].values[:-1])
    out = validate(series, schema)
    assert len(out) == 1 and out[0].row == 1 and "values" in out[0].reason


def test_validate_category_range_violation():
    schema = make_tiny_schema()
    series = make_tiny_series()
    series.rows[0].values[1] = Cat(4)  # vocab size is 4
    out = validate(series, schema)
    assert len(out) == 1 and out[0].field == "color"


def test_validate_unordered_timestamps():
    schema = make_tiny_schema()
    series = make_tiny_series()
    series.rows[2].values[0] = Time(2020, 1, 1)
    out = validate(series, schema)
    assert any("ordered" in v.reason for v in out)


def test_quantize_examples():
    spec = AttributeSpec("x", NUMERICAL, bin_edges=[0.0, 1.0, 2.0, 3.0], value_range=(0.0, 3.0))
    assert quantize_array(1.5, spec) == 1
    assert quantize_array(-5.0, spec) == 0
    assert quantize_array(3.0, spec) == 2
    assert quantize_array(0.0, spec) == 0


def test_quantize_wrong_kind():
    spec = AttributeSpec("c", "categorical", vocab=["a", "OOV"])
    with pytest.raises(SchemaError):
        quantize_array(1.0, spec)


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_quantize_monotone(a, b):
    spec = AttributeSpec("x", NUMERICAL, bin_edges=[-2.0, -0.5, 0.5, 1.0, 2.5], value_range=(-2.0, 2.5))
    lo, hi = min(a, b), max(a, b)
    assert quantize_array(lo, spec) <= quantize_array(hi, spec)


def test_fit_bins_1_to_100():
    values = list(range(1, 101))
    edges = fit_bins(values, 4)
    oracle = [quantile_oracle(sorted(values), f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert np.allclose(edges, oracle)
    assert np.allclose(edges, [1.0, 25.75, 50.5, 75.25, 100.0])


def test_fit_bins_median_edge():
    rng = np.random.default_rng(0)
    values = rng.random(1001)
    edges = fit_bins(values, 2)
    assert abs(edges[1] - np.median(values)) < 1e-12


def test_fit_bins_degenerate():
    with pytest.raises(DegenerateAttributeError):
        fit_bins([7.0] * 50, 4)


def test_fit_bins_quantile_balance():
    rng = np.random.default_rng(1)
    values = rng.normal(size=400)  # unique with probability 1
    q = 8
    edges = fit_bins(values, q)
    spec = AttributeSpec("x", NUMERICAL, bin_edges=edges,
                         value_range=(float(values.min()), float(values.max())))
    counts = np.bincount([quantize_array(v, spec) for v in values], minlength=q)
    n = len(values)
    assert all(n // q - 1 <= c <= -(-n // q) + 1 for c in counts)


def test_fit_vocab_examples():
    assert fit_vocab(["a", "b", "a"], 1) == ["a", "b", "OOV"]
    assert fit_vocab(["a", "b", "a"], 2) == ["a", "OOV"]
    spec = AttributeSpec("c", "categorical", vocab=fit_vocab(["a", "b", "a"], 1))
    assert vocab_index(spec, "z") == 2  # OOV slot


def test_schema_json_round_trip_and_hash():
    schema = make_tiny_schema()
    text = schema_to_json(schema)
    back = schema_from_json(text)
    assert schema_hash(back) == schema_hash(schema)
    assert schema_to_json(back) == text


def test_schema_json_with_special_token_ids_still_loads():
    # schema.json files written before the unused special-token ids were
    # dropped carry a "special_tokens" key; loading ignores it
    schema = make_tiny_schema()
    d = json.loads(schema_to_json(schema))
    d["special_tokens"] = {"mask": 31, "cls": 32, "missing": 33, "pad": 34}
    back = schema_from_json(json.dumps(d))
    assert schema_to_json(back) == schema_to_json(schema)
    assert schema_hash(back) == schema_hash(schema)


def test_fit_schema_refits_numerical_and_years():
    schema = make_tiny_schema()
    series = [make_tiny_series("a"), make_tiny_series("b", n_rows=6)]
    fitted = fit_schema(series, schema, q=3)
    amount = fitted.attributes["amount"]
    assert amount.n_bins <= 3 and amount.value_range[0] >= 0.0
    assert fitted.attributes["timestamp"].years == [2021]


def test_missing_allowed_anywhere():
    schema = make_tiny_schema()
    series = make_tiny_series()
    series.rows[0].values[2] = Missing
    assert validate(series, schema) == []
