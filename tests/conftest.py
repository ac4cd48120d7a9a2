"""Shared fixtures, and the OpenBLAS kernel every test runs under.

The bit-exact pins (golden losses, checkpoint hashes) hold for one BLAS
kernel: OpenBLAS picks its kernel at load time from the CPU, and another
kernel rounds some products differently. The tests therefore pin the
Haswell (AVX2) kernel, which any x86-64-v3 host can run, before numpy
loads OpenBLAS; subprocesses the tests start inherit the pin. The session
stops at once if the pin did not take.
"""

import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import ctypes
from pathlib import Path

import numpy as np
import pytest

from unittab.schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP,
    AttributeSpec, Cat, Num, Row, RowTypeSpec, Schema, Time, TimeSeries,
)


def openblas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS runs with."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if not libs:
        return "none: no bundled scipy-openblas library next to numpy"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_sessionstart(session):
    core = openblas_core()
    if core != os.environ["OPENBLAS_CORETYPE"]:
        pytest.exit(f"OpenBLAS runs the {core} kernel, not the pinned "
                    f"{os.environ['OPENBLAS_CORETYPE']} (was numpy imported before "
                    f"tests/conftest.py set OPENBLAS_CORETYPE?)", returncode=1)


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
