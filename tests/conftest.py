import numpy as np
import pytest

from unittab.schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP,
    AttributeSpec, Cat, Num, Row, RowTypeSpec, Schema, Time, TimeSeries,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_tiny_schema() -> Schema:
    attrs = {
        "color": AttributeSpec("color", CATEGORICAL, vocab=["red", "green", "blue", "OOV"]),
        "amount": AttributeSpec("amount", NUMERICAL, bin_edges=[0.0, 1.0, 2.0, 3.0],
                                value_range=(0.0, 3.0)),
        "timestamp": AttributeSpec("timestamp", TIMESTAMP, years=[2021, 2022], with_hour=False),
    }
    row_types = [RowTypeSpec(1, ["timestamp", "color", "amount"])]
    return Schema(attrs, row_types)


def make_tiny_series(entity="e0", n_rows=4) -> TimeSeries:
    rows = []
    for i in range(n_rows):
        rows.append(Row(1, [Time(2021, 1, i + 1), Cat(i % 3), Num(0.5 + 0.4 * i)]))
    return TimeSeries(entity, rows)


@pytest.fixture
def tiny_schema():
    return make_tiny_schema()


@pytest.fixture
def tiny_series():
    return make_tiny_series()
