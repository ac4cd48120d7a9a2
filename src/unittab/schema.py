"""Data model for heterogeneous tabular time series.

A Schema declares attributes (categorical with a vocabulary, numerical with
quantization bins and an observed value range, or a timestamp) and row types
(ordered attribute subsets). Rows carry tagged field values aligned with
their row type; a TimeSeries is an ordered list of typed rows for one entity.
Schemas and fitted attribute specs are treated as immutable once built and
are safe for concurrent reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

CATEGORICAL = "categorical"
NUMERICAL = "numerical"
TIMESTAMP = "timestamp"

OOV = "OOV"


class SchemaError(Exception):
    pass


class DegenerateAttributeError(SchemaError):
    """All fitting values identical; the attribute cannot be binned."""


# ---------------------------------------------------------------------------
# field values (tagged union)


@dataclass(frozen=True, slots=True)
class Cat:
    index: int


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Time:
    year: int
    month: int  # 1..12
    day: int    # 1..31
    hour: int | None = None  # 0..23


class _Missing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Missing"


Missing = _Missing()
FieldValue = Cat | Num | Time | _Missing


# ---------------------------------------------------------------------------
# schema


@dataclass
class AttributeSpec:
    name: str
    kind: str
    vocab: list[str] | None = None            # categorical
    bin_edges: list[float] | None = None      # numerical
    value_range: tuple[float, float] | None = None  # numerical
    years: list[int] | None = None            # timestamp: observed training years
    with_hour: bool = False                   # timestamp
    group: str | None = None                  # set on expanded timestamp subfields

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL, TIMESTAMP):
            raise SchemaError(f"unknown attribute kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.vocab is not None:
            if not self.vocab:
                raise SchemaError(f"{self.name}: empty vocabulary")
            if len(set(self.vocab)) != len(self.vocab):
                raise SchemaError(f"{self.name}: duplicate vocabulary entries")
        if self.kind == NUMERICAL and self.bin_edges is not None:
            edges = self.bin_edges
            if len(edges) < 3 or any(a >= b for a, b in zip(edges, edges[1:])):
                raise SchemaError(f"{self.name}: bin edges must be strictly increasing with q >= 2")
        if self.value_range is not None and self.value_range[0] > self.value_range[1]:
            raise SchemaError(f"{self.name}: value_range min > max")

    @functools.cached_property
    def vocab_ids(self) -> dict[str, int]:
        """Category -> vocabulary index, built on first use and kept on this
        spec (a fitted spec is not mutated)."""
        return {v: i for i, v in enumerate(self.vocab)}

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1

    def target_size(self) -> int:
        """Size of the masked-token target vocabulary for this attribute."""
        if self.kind == CATEGORICAL:
            return len(self.vocab)
        if self.kind == NUMERICAL:
            return self.n_bins
        raise SchemaError(f"{self.name}: timestamp attributes have no direct target (expand first)")


@dataclass
class RowTypeSpec:
    type_id: int                 # 1..n, contiguous
    attributes: list[str]

    @property
    def arity(self) -> int:
        return len(self.attributes)


@dataclass
class Schema:
    attributes: dict[str, AttributeSpec]
    row_types: list[RowTypeSpec]
    version: int = 1

    def __post_init__(self):
        ids = [rt.type_id for rt in self.row_types]
        if ids != list(range(1, len(ids) + 1)):
            raise SchemaError(f"row type ids must be contiguous 1..n, got {ids}")
        for rt in self.row_types:
            if rt.arity < 1:
                raise SchemaError(f"row type {rt.type_id} has no attributes")
            for a in rt.attributes:
                if a not in self.attributes:
                    raise SchemaError(f"row type {rt.type_id} references unknown attribute {a!r}")

    @property
    def n_row_types(self) -> int:
        return len(self.row_types)

    def row_type(self, type_id: int) -> RowTypeSpec:
        if not 1 <= type_id <= len(self.row_types):
            raise SchemaError(f"unknown row type id {type_id}")
        return self.row_types[type_id - 1]

    @functools.cached_property
    def slots(self) -> SlotTables:
        """Per-slot lookup tables, built on first use and kept on this schema."""
        return SlotTables.build(self)


@dataclass(frozen=True)
class SlotTables:
    """Array lookups over (row type id, slot) for array-form masking and
    target grouping. Row 0 and slots past a row type's arity are padding
    (-1). Attribute ids index `names`, the sorted attribute names."""
    names: list[str]
    arity: np.ndarray      # (n + 1,)
    attr_id: np.ndarray    # (n + 1, k_max)
    unit: np.ndarray       # (n + 1, k_max) joint masking unit: one per timestamp group
    n_units: np.ndarray    # (n + 1,) joint masking units per row type

    @classmethod
    def build(cls, schema: Schema) -> SlotTables:
        names = sorted(schema.attributes)
        n = schema.n_row_types
        k_max = max((rt.arity for rt in schema.row_types), default=0)
        arity = np.zeros(n + 1, dtype=np.int64)
        attr_id = np.full((n + 1, k_max), -1, dtype=np.int64)
        unit = np.full((n + 1, k_max), -1, dtype=np.int64)
        n_units = np.zeros(n + 1, dtype=np.int64)
        for rt in schema.row_types:
            h = rt.type_id
            arity[h] = rt.arity
            groups: dict[str, int] = {}
            for s, name in enumerate(rt.attributes):
                attr_id[h, s] = names.index(name)
                g = schema.attributes[name].group
                if g is not None and g in groups:
                    unit[h, s] = groups[g]
                    continue
                unit[h, s] = n_units[h]
                n_units[h] += 1
                if g is not None:
                    groups[g] = unit[h, s]
        return cls(names, arity, attr_id, unit, n_units)


# ---------------------------------------------------------------------------
# rows and series


@dataclass(slots=True)
class Row:
    type_id: int
    values: list[FieldValue]


@dataclass
class TimeSeries:
    """The ordered rows of one entity, or a contiguous cut of them. `rows`
    hold raw `Row`s as read, or `EncodedRow`s once `prepare_series` has
    encoded them. `start` is the index the first row had in the series this
    one was cut from (0 for a whole series)."""
    entity_id: str
    rows: list
    label: float | int | None = None
    start: int = 0


@dataclass
class Violation:
    row: int
    field: str
    reason: str


def validate(series: TimeSeries, schema: Schema) -> list[Violation]:
    """Check a series against the schema; returns violations (never raises)."""
    out: list[Violation] = []
    if not series.rows:
        return [Violation(-1, "", "series has no rows")]
    last_ts = None
    for i, row in enumerate(series.rows):
        if not 1 <= row.type_id <= schema.n_row_types:
            out.append(Violation(i, "", f"unknown row type {row.type_id}"))
            continue
        rt = schema.row_types[row.type_id - 1]
        if len(row.values) != rt.arity:
            out.append(Violation(i, "", f"expected {rt.arity} values, got {len(row.values)}"))
            continue
        for name, v in zip(rt.attributes, row.values):
            spec = schema.attributes[name]
            if v is Missing:
                continue
            if spec.kind == CATEGORICAL:
                if not isinstance(v, Cat):
                    out.append(Violation(i, name, f"expected categorical value, got {type(v).__name__}"))
                elif spec.vocab is not None and not 0 <= v.index < len(spec.vocab):
                    out.append(Violation(i, name, f"category index {v.index} outside vocabulary of size {len(spec.vocab)}"))
            elif spec.kind == NUMERICAL:
                if not isinstance(v, Num):
                    out.append(Violation(i, name, f"expected numerical value, got {type(v).__name__}"))
                elif not np.isfinite(v.value):
                    out.append(Violation(i, name, "non-finite numerical value"))
            else:  # timestamp
                if not isinstance(v, Time):
                    out.append(Violation(i, name, f"expected timestamp value, got {type(v).__name__}"))
                elif not (1 <= v.month <= 12 and 1 <= v.day <= 31
                          and (v.hour is None or 0 <= v.hour <= 23)):
                    out.append(Violation(i, name, "timestamp component out of range"))
                else:
                    ts = (v.year, v.month, v.day, -1 if v.hour is None else v.hour)
                    if last_ts is not None and ts < last_ts:
                        out.append(Violation(i, name, "rows not ordered by timestamp"))
                    last_ts = ts
    return out


# ---------------------------------------------------------------------------
# fitting and quantization


def quantize_array(vals: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    """Bin index of each value under left-closed right-open bins with edge
    clamping."""
    if spec.kind != NUMERICAL or spec.bin_edges is None:
        raise SchemaError(f"quantize needs a fitted numerical attribute, got {spec.name!r} ({spec.kind})")
    edges = np.asarray(spec.bin_edges)
    idx = np.searchsorted(edges, vals, side="right") - 1
    return np.clip(idx, 0, spec.n_bins - 1)


def fit_bins(values, q: int) -> list[float]:
    """Empirical-quantile bin edges; duplicate quantiles are merged (the
    effective q shrinks). Raises DegenerateAttributeError when all values
    are identical."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise SchemaError("fit_bins needs a nonempty sample")
    if q < 2:
        raise SchemaError("fit_bins needs q >= 2")
    edges = np.quantile(vals, np.linspace(0.0, 1.0, q + 1))
    edges = np.unique(edges)
    if edges.size < 3:
        raise DegenerateAttributeError(
            "attribute has (nearly) constant values; make it categorical or drop it")
    return [float(e) for e in edges]


def fit_vocab(values) -> list[str]:
    """Vocabulary of every category seen, ordered by descending count then
    lexicographically, with an OOV slot appended."""
    counts = Counter(str(v) for v in values)
    return sorted(counts, key=lambda c: (-counts[c], c)) + [OOV]


def vocab_index(spec: AttributeSpec, value: str) -> int:
    """Index of a category; unseen values map to the OOV slot."""
    return spec.vocab_ids.get(value, len(spec.vocab) - 1)


def fit_schema(series_list: list[TimeSeries], schema: Schema, q: int = 100) -> Schema:
    """Refit numerical bins/value ranges and timestamp year vocabularies on
    a training split, keeping categorical vocabularies as declared."""
    num_vals: dict[str, list[float]] = {n: [] for n, a in schema.attributes.items() if a.kind == NUMERICAL}
    ts_years: dict[str, set[int]] = {n: set() for n, a in schema.attributes.items() if a.kind == TIMESTAMP}
    ts_hour: dict[str, bool] = {n: False for n in ts_years}
    for s in series_list:
        for row in s.rows:
            rt = schema.row_type(row.type_id)
            for name, v in zip(rt.attributes, row.values):
                if isinstance(v, Num) and name in num_vals:
                    num_vals[name].append(v.value)
                elif isinstance(v, Time) and name in ts_years:
                    ts_years[name].add(v.year)
                    if v.hour is not None:
                        ts_hour[name] = True
    attrs: dict[str, AttributeSpec] = {}
    for name, spec in schema.attributes.items():
        if spec.kind == NUMERICAL:
            vals = num_vals[name]
            attrs[name] = AttributeSpec(
                name, NUMERICAL,
                bin_edges=fit_bins(vals, q),
                value_range=(float(min(vals)), float(max(vals))))
        elif spec.kind == TIMESTAMP:
            attrs[name] = AttributeSpec(
                name, TIMESTAMP, years=sorted(ts_years[name]), with_hour=ts_hour[name])
        else:
            attrs[name] = spec
    return Schema(attrs, schema.row_types, version=schema.version)


# ---------------------------------------------------------------------------
# JSON serialization (canonical: sorted attribute names, stable hash)


def schema_to_dict(schema: Schema) -> dict:
    attrs = {}
    for name in sorted(schema.attributes):
        a = schema.attributes[name]
        entry: dict = {"kind": a.kind}
        if a.vocab is not None:
            entry["vocab"] = a.vocab
        if a.bin_edges is not None:
            entry["bin_edges"] = a.bin_edges
        if a.value_range is not None:
            entry["value_range"] = list(a.value_range)
        if a.years is not None:
            entry["years"] = a.years
        if a.with_hour:
            entry["with_hour"] = True
        if a.group is not None:
            entry["group"] = a.group
        attrs[name] = entry
    return {
        "version": schema.version,
        "attributes": attrs,
        "row_types": [{"type_id": rt.type_id, "attributes": rt.attributes} for rt in schema.row_types],
    }


def schema_from_dict(d: dict) -> Schema:
    """The Schema `schema_to_dict` gives as `d`; SchemaError when `d` is not
    an object with an attribute object and a row type list of that form."""
    if not (isinstance(d, dict) and isinstance(d.get("attributes"), dict)
            and isinstance(d.get("row_types"), list)):
        raise SchemaError('a schema is an object with an "attributes" object and a '
                          '"row_types" list')
    if not all(isinstance(rt, dict) and {"type_id", "attributes"} <= rt.keys()
               for rt in d["row_types"]):
        raise SchemaError('each row type is an object with "type_id" and "attributes"')
    attrs = {}
    for name, e in d["attributes"].items():
        if not (isinstance(e, dict) and "kind" in e):
            raise SchemaError(f'attribute {name!r} is not an object with a "kind"')
        attrs[name] = AttributeSpec(
            name=name,
            kind=e["kind"],
            vocab=e.get("vocab"),
            bin_edges=e.get("bin_edges"),
            value_range=tuple(e["value_range"]) if "value_range" in e else None,
            years=e.get("years"),
            with_hour=e.get("with_hour", False),
            group=e.get("group"),
        )
    return Schema(
        attributes=attrs,
        row_types=[RowTypeSpec(rt["type_id"], list(rt["attributes"])) for rt in d["row_types"]],
        version=d.get("version", 1),
    )


def schema_to_json(schema: Schema) -> str:
    return json.dumps(schema_to_dict(schema), sort_keys=True, indent=2)


def schema_from_json(text: str) -> Schema:
    return schema_from_dict(json.loads(text))


def schema_hash(schema: Schema) -> str:
    canon = json.dumps(schema_to_dict(schema), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
