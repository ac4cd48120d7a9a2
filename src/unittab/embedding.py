"""Heterogeneous field embeddings.

Categorical values use per-attribute lookup tables. Numerical values are
min-max normalized to [0, 1] over the attribute's fitted value range
(values outside it are clamped and counted), expanded into an interleaved
battery of sin/cos features at frequencies 2^0*pi .. 2^(L-1)*pi, and
linearly projected to the field width d (config `numeric_input="frequency"`;
`"binned"` looks up a per-bin table instead). Timestamps are split into
categorical subfields (year/month/day and hour when present) before any of
this happens. Masked positions use a single shared [MASK] vector; missing
values a shared [MISSING] vector. The parameters live in the model's one
name -> Tensor registry, under the names `build_bank` gives them.

`prepare_series` encodes raw rows without building expanded ones: the rows
of each row type are stacked into one int64 id matrix, one float64 value
matrix and one bool missing matrix, filled a column at a time, and each
`EncodedRow` holds row views of its type's matrices. Timestamp subfield ids
come from `split_timestamp` once per distinct `Time` value; that cache lives
for one call.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP, OOV,
    AttributeSpec, Cat, Missing, Num, Row, RowTypeSpec, Schema, SchemaError, Time, TimeSeries,
    quantize_array,
)
from .tensor import Tensor, embedding_gather, matmul

_CLAMP_COUNT = [0]
_CLAMP_LOCK = threading.Lock()  # predict's two lanes may clamp at once


def clamp_count() -> int:
    """Number of out-of-[0,1] values clamped by freq_encode so far."""
    return _CLAMP_COUNT[0]


def reset_clamp_count() -> None:
    _CLAMP_COUNT[0] = 0


def freq_encode(v: np.ndarray, L: int) -> np.ndarray:
    """Interleaved (sin, cos) features of [0,1]-normalized values, along a
    new last axis: (sin(2^0 pi v), cos(2^0 pi v), ..., sin(2^(L-1) pi v),
    cos(2^(L-1) pi v)). Values outside [0,1] are clamped (counted, see
    clamp_count)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    v = np.asarray(v, dtype=np.float64)
    bad = int(np.sum((v < 0.0) | (v > 1.0)))
    if bad:
        with _CLAMP_LOCK:
            _CLAMP_COUNT[0] += bad
        warnings.warn(f"{bad} value(s) outside [0,1] clamped before frequency encoding")
        v = np.clip(v, 0.0, 1.0)
    angles = (2.0 ** np.arange(L)) * np.pi * v[..., None]  # (..., L)
    out = np.empty(v.shape + (2 * L,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


# ---------------------------------------------------------------------------
# timestamp expansion

_MONTH_VOCAB = [f"{i:02d}" for i in range(1, 13)]
_DAY_VOCAB = [f"{i:02d}" for i in range(1, 32)]
_HOUR_VOCAB = [f"{i:02d}" for i in range(24)]


def split_timestamp(ts: Time, years: list[int], with_hour: bool = False) -> list[Cat]:
    """Decompose a timestamp into zero-based categorical subfield values:
    year (vocabulary = observed training years + OOV), month, day, and hour
    when the schema carries hours."""
    year_idx = years.index(ts.year) if ts.year in years else len(years)
    out = [Cat(year_idx), Cat(ts.month - 1), Cat(ts.day - 1)]
    if with_hour:
        out.append(Cat(ts.hour if ts.hour is not None else 0))
    return out


def timestamp_subfields(name: str, spec: AttributeSpec) -> list[AttributeSpec]:
    if spec.years is None:
        raise SchemaError(f"timestamp attribute {name!r} has no fitted year vocabulary")
    year_vocab = [str(y) for y in spec.years] + [OOV]
    subs = [
        AttributeSpec(f"{name}.year", CATEGORICAL, vocab=year_vocab, group=name),
        AttributeSpec(f"{name}.month", CATEGORICAL, vocab=list(_MONTH_VOCAB), group=name),
        AttributeSpec(f"{name}.day", CATEGORICAL, vocab=list(_DAY_VOCAB), group=name),
    ]
    if spec.with_hour:
        subs.append(AttributeSpec(f"{name}.hour", CATEGORICAL, vocab=list(_HOUR_VOCAB), group=name))
    return subs


def expand_schema(schema: Schema) -> Schema:
    """Replace each timestamp attribute with its categorical subfields,
    raising every row type's arity accordingly."""
    attrs: dict[str, AttributeSpec] = {}
    replacement: dict[str, list[str]] = {}
    for name, spec in schema.attributes.items():
        if spec.kind == TIMESTAMP:
            subs = timestamp_subfields(name, spec)
            replacement[name] = [s.name for s in subs]
            for s in subs:
                attrs[s.name] = s
        else:
            attrs[name] = spec
    row_types = []
    for rt in schema.row_types:
        names: list[str] = []
        for a in rt.attributes:
            names.extend(replacement.get(a, [a]))
        row_types.append(type(rt)(rt.type_id, names))
    return Schema(attrs, row_types, version=schema.version)


# ---------------------------------------------------------------------------
# numeric array encoding of expanded rows (model-ready form)


@dataclass(slots=True)
class EncodedRow:
    type_id: int
    cat_ids: np.ndarray    # int64 (k,), -1 where missing or numerical
    num_vals: np.ndarray   # float64 (k,), nan where missing or categorical
    is_missing: np.ndarray  # bool (k,)


class _TimeCodes(dict):
    """Maps each distinct timestamp value of one attribute to its row in
    `table`, which holds its subfield ids from split_timestamp; Missing
    maps to row 0 (all -1)."""

    def __init__(self, spec: AttributeSpec):
        super().__init__()
        self.spec = spec
        self.table = [(-1,) * (4 if spec.with_hour else 3)]
        self[Missing] = 0

    def __missing__(self, ts):
        code = self[ts] = len(self.table)
        self.table.append(tuple(c.index for c in split_timestamp(ts, self.spec.years,
                                                                self.spec.with_hour)))
        return code


def _encode_rows(rows: list[Row], rt: RowTypeSpec, raw_schema: Schema, k: int,
                 time_codes: dict[str, _TimeCodes]) -> list[EncodedRow]:
    """Encode the raw rows of one row type into (n, k) id, value and
    missing matrices, column by column; each EncodedRow holds row views."""
    n = len(rows)
    values = [r.values for r in rows]
    if set(map(len, values)) - {rt.arity}:
        raise SchemaError(f"row type {rt.type_id} rows must have {rt.arity} values")
    ids = np.full((n, k), -1, dtype=np.int64)
    vals = np.full((n, k), np.nan, dtype=np.float64)
    miss = np.zeros((n, k), dtype=bool)
    s = 0
    for name, col in zip(rt.attributes, zip(*values)):
        spec = raw_schema.attributes[name]
        kinds = set(map(type, col))
        if spec.kind == TIMESTAMP:
            codes = time_codes[name]
            rows_of = [codes[v] for v in col]
            width = len(codes.table[0])
            ids[:, s:s + width] = np.array(codes.table, dtype=np.int64)[rows_of]
            if type(Missing) in kinds:
                miss[:, s:s + width] = np.array([v is Missing for v in col])[:, None]
            s += width
            continue
        if kinds - {Cat, Num, type(Missing)}:
            raise SchemaError(f"row contains unexpanded timestamp at field {name!r}")
        if type(Missing) in kinds:
            miss[:, s] = [v is Missing for v in col]
        if Cat in kinds:
            ids[:, s] = [v.index if type(v) is Cat else -1 for v in col]
        if Num in kinds:
            vals[:, s] = [v.value if type(v) is Num else np.nan for v in col]
        s += 1
    return list(map(EncodedRow, repeat(rt.type_id, n), ids, vals, miss))


def prepare_series(series_list: list[TimeSeries], raw_schema: Schema
                   ) -> tuple[Schema, list[TimeSeries]]:
    """Expand timestamps and encode a whole dataset in one step: the rows
    of each row type are encoded together (see _encode_rows) and handed
    back to their series in order, as series of EncodedRows."""
    expanded = expand_schema(raw_schema)
    by_type: dict[int, list[Row]] = {}
    for s in series_list:
        for r in s.rows:
            by_type.setdefault(r.type_id, []).append(r)
    time_codes = {name: _TimeCodes(spec) for name, spec in raw_schema.attributes.items()
                  if spec.kind == TIMESTAMP}
    encoded_rows = {h: iter(_encode_rows(rows, raw_schema.row_type(h), raw_schema,
                                         expanded.row_type(h).arity, time_codes))
                    for h, rows in by_type.items()}
    encoded = [TimeSeries(s.entity_id, [next(encoded_rows[r.type_id]) for r in s.rows],
                          s.label, s.start)
               for s in series_list]
    return expanded, encoded


# ---------------------------------------------------------------------------
# embedding parameters


def build_bank(schema: Schema, d: int, m: int, L: int, numeric_input: str,
               rng: np.random.Generator) -> dict[str, Tensor]:
    """Create embedding parameters for an expanded schema, drawn from
    N(0, 0.02^2) (biases zero), as a name -> parameter mapping (names are
    checkpoint keys): per attribute in name order `embed.cat.<a>.table`
    (V_j, d), `embed.num.<a>.weight` (2L, d) and `.bias` (d,) for frequency
    input or `embed.num.<a>.table` (q, d) for binned input; then
    `embed.mask` (d,), `embed.missing` (d,) and the sequence-level
    `embed.cls` (1, m)."""
    if numeric_input not in ("frequency", "binned"):
        raise ValueError(f"unknown numeric_input {numeric_input!r}")
    std = 0.02
    params: dict[str, Tensor] = {}
    for name in sorted(schema.attributes):
        spec = schema.attributes[name]
        if spec.kind == CATEGORICAL:
            t = Tensor(rng.normal(0.0, std, size=(len(spec.vocab), d)), requires_grad=True)
            if np.unique(t.data, axis=0).shape[0] != t.shape[0]:
                raise AssertionError(f"embedding table rows for {name!r} are not distinct")
            params[f"embed.cat.{name}.table"] = t
        elif spec.kind == NUMERICAL:
            if numeric_input == "frequency":
                params[f"embed.num.{name}.weight"] = Tensor(
                    rng.normal(0.0, std, size=(2 * L, d)), requires_grad=True)
                params[f"embed.num.{name}.bias"] = Tensor(np.zeros(d), requires_grad=True)
            else:
                params[f"embed.num.{name}.table"] = Tensor(
                    rng.normal(0.0, std, size=(spec.n_bins, d)), requires_grad=True)
        else:
            raise SchemaError("expand_schema must run before building the bank")
    for name, shape in (("mask", (d,)), ("missing", (d,)), ("cls", (1, m))):
        params[f"embed.{name}"] = Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)
    return params


def normalize_numeric(vals: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    """Min-max scale onto [0, 1] over the attribute's value range; a
    degenerate range maps everything to 0.5."""
    lo, hi = spec.value_range
    if hi <= lo:
        return np.full_like(vals, 0.5)
    return (vals - lo) / (hi - lo)


def embed_slot_batch(params: dict[str, Tensor], spec: AttributeSpec, ids: np.ndarray,
                     vals: np.ndarray, missing: np.ndarray, masked: np.ndarray) -> Tensor:
    """Embed one attribute slot across a batch of same-type rows, reading
    the parameters by the names `build_bank` gives them. A numerical
    attribute is binned when its `.table` exists; otherwise its frequency
    count L is half the rows of its `.weight`.

    Masked positions get the [MASK] vector, missing unmasked positions the
    [MISSING] vector; blending uses exact 0/1 weights so unselected branches
    contribute nothing to values or gradients.
    """
    w_mask = masked.astype(np.float64)[:, None]
    w_miss = (missing & ~masked).astype(np.float64)[:, None]
    w_keep = ((~missing) & (~masked)).astype(np.float64)[:, None]
    if spec.kind == CATEGORICAL:
        safe = np.where(ids < 0, 0, ids)
        raw = embedding_gather(params[f"embed.cat.{spec.name}.table"], safe)
    else:
        safe = np.where(np.isfinite(vals), vals, 0.5 * sum(spec.value_range))
        table = params.get(f"embed.num.{spec.name}.table")
        if table is not None:
            raw = embedding_gather(table, quantize_array(safe, spec))
        else:
            w = params[f"embed.num.{spec.name}.weight"]
            feats = Tensor(freq_encode(normalize_numeric(safe, spec), w.shape[0] // 2))
            raw = matmul(feats, w) + params[f"embed.num.{spec.name}.bias"]
    return raw * w_keep + params["embed.missing"] * w_miss + params["embed.mask"] * w_mask

