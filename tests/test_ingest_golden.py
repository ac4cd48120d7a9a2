"""Column-planned CSV ingest against the original per-row reader and encoder.

`_ref_read_csv`, `_ref_expand_series` and `_ref_encode_row` below are the
original per-row implementations of `read_csv`, the timestamp expansion and
the row encoder behind `prepare_series`: a `DictReader` walk, a `list.index`
vocabulary scan and one expanded `Row` per input row. The planned reader and
the per-row-type encoder must give the same values, report counters, errors
and array bytes. Inputs here carry no non-finite numeric cells; the original
reader kept those as `Num(nan)`/`Num(inf)`, the planned one counts them as
unparseable (see tests/test_data.py).
"""

import csv
import io
from collections import Counter
from datetime import datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unittab.data import (
    ENTITY_COLUMN, TYPE_COLUMN, FormatError, MultitypeConfig, ParseReport, PollutionConfig,
    gen_multitype_transactions, gen_pollution_like, read_csv, write_csv,
)
from unittab.embedding import expand_schema, prepare_series, split_timestamp
from unittab.schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP,
    AttributeSpec, Cat, Missing, Num, Row, RowTypeSpec, Schema, SchemaError, Time,
    TimeSeries,
)


# ---------------------------------------------------------------------------
# reference: the original per-row implementations


def _ref_parse_iso_time(text):
    dt = datetime.fromisoformat(text)
    hour = dt.hour if ("T" in text or " " in text) else None
    return Time(dt.year, dt.month, dt.day, hour)


def _ref_vocab_index(spec, value):
    try:
        return spec.vocab.index(value)
    except ValueError:
        return len(spec.vocab) - 1


def _ref_read_csv(path, schema):
    report = ParseReport()
    applicable = Counter()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if ENTITY_COLUMN not in header:
            raise FormatError(f"missing entity column {ENTITY_COLUMN!r}")
        for name in schema.attributes:
            if name not in header:
                raise FormatError(f"schema attribute {name!r} not found in CSV header")
        multi_type = schema.n_row_types > 1
        if multi_type and TYPE_COLUMN not in header:
            raise FormatError(f"missing row type column {TYPE_COLUMN!r}")
        by_entity = {}
        for rec in reader:
            report.rows += 1
            entity = rec[ENTITY_COLUMN]
            if TYPE_COLUMN in rec:
                try:
                    type_id = int(rec[TYPE_COLUMN])
                except (TypeError, ValueError):
                    raise FormatError(f"bad row type value {rec.get(TYPE_COLUMN)!r}")
            else:
                type_id = 1
            rt = schema.row_type(type_id)
            values = []
            for name in rt.attributes:
                spec = schema.attributes[name]
                cell = (rec.get(name) or "").strip()
                applicable[name] += 1
                if cell == "":
                    report.missing[name] += 1
                    values.append(Missing)
                    continue
                if spec.kind == CATEGORICAL:
                    values.append(Cat(_ref_vocab_index(spec, cell)))
                elif spec.kind == NUMERICAL:
                    try:
                        values.append(Num(float(cell)))
                    except ValueError:
                        report.unparseable[name] += 1
                        values.append(Missing)
                else:
                    try:
                        values.append(_ref_parse_iso_time(cell))
                    except ValueError:
                        report.unparseable[name] += 1
                        values.append(Missing)
            by_entity.setdefault(entity, []).append(Row(type_id, values))
    for name, bad in report.unparseable.items():
        if bad > 0.5 * applicable[name]:
            raise FormatError(f"column {name!r}: {bad}/{applicable[name]} cells unparseable")
    ts_attrs = {n for n, a in schema.attributes.items() if a.kind == TIMESTAMP}
    out = []
    for entity, rows in by_entity.items():
        keys = []
        for row in rows:
            rt = schema.row_type(row.type_id)
            key = None
            for name, v in zip(rt.attributes, row.values):
                if name in ts_attrs and isinstance(v, Time):
                    key = (v.year, v.month, v.day, -1 if v.hour is None else v.hour)
            keys.append(key)
        if ts_attrs and all(k is not None for k in keys):
            order = sorted(range(len(rows)), key=lambda i: keys[i])
            rows = [rows[i] for i in order]
        out.append(TimeSeries(entity, rows))
    return out, report


def _ref_expand_series(series, schema):
    rows = []
    for row in series.rows:
        rt = schema.row_type(row.type_id)
        values = []
        for name, v in zip(rt.attributes, row.values):
            spec = schema.attributes[name]
            if spec.kind == TIMESTAMP:
                n_sub = 4 if spec.with_hour else 3
                if v is Missing:
                    values.extend([Missing] * n_sub)
                else:
                    values.extend(split_timestamp(v, spec.years, spec.with_hour))
            else:
                values.append(v)
        rows.append(Row(row.type_id, values))
    return TimeSeries(series.entity_id, rows, series.label)


def _ref_encode_row(row, schema):
    rt = schema.row_type(row.type_id)
    k = rt.arity
    ids = np.full(k, -1, dtype=np.int64)
    vals = np.full(k, np.nan, dtype=np.float64)
    miss = np.zeros(k, dtype=bool)
    for s, (name, v) in enumerate(zip(rt.attributes, row.values)):
        if v is Missing:
            miss[s] = True
        elif isinstance(v, Cat):
            ids[s] = v.index
        elif isinstance(v, Num):
            vals[s] = v.value
        else:
            raise SchemaError(f"row contains unexpanded timestamp at field {name!r}")
    return ids, vals, miss


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (FormatError, SchemaError) as exc:
        return None, (type(exc), str(exc))


def assert_same_ingest(path, schema):
    """read_csv and prepare_series equal the reference: values, report
    counters in first-seen order, errors, and every array byte."""
    got, got_err = _outcome(read_csv, path, schema)
    want, want_err = _outcome(_ref_read_csv, path, schema)
    assert got_err == want_err
    if want_err is not None:
        return
    (series, report), (ref_series, ref_report) = got, want
    assert report.rows == ref_report.rows
    assert list(report.missing.items()) == list(ref_report.missing.items())
    assert list(report.unparseable.items()) == list(ref_report.unparseable.items())
    assert [s.entity_id for s in series] == [s.entity_id for s in ref_series]
    for s, ref in zip(series, ref_series):
        assert [r.type_id for r in s.rows] == [r.type_id for r in ref.rows]
        for row, ref_row in zip(s.rows, ref.rows):
            assert row.values == ref_row.values
            assert [v is Missing for v in row.values] == [v is Missing for v in ref_row.values]
    assert_same_encoding(series, schema)


def assert_same_encoding(series, schema):
    """prepare_series gives the reference arrays byte for byte."""
    expanded, encoded = prepare_series(series, schema)
    assert expanded == expand_schema(schema)
    assert len(encoded) == len(series)
    for enc, ref in zip(encoded, series):
        ref = _ref_expand_series(ref, schema)
        assert (enc.entity_id, enc.label, len(enc.rows)) == (ref.entity_id, ref.label, len(ref.rows))
        for er, rr in zip(enc.rows, ref.rows):
            assert er.type_id == rr.type_id
            for got_arr, ref_arr in zip((er.cat_ids, er.num_vals, er.is_missing),
                                        _ref_encode_row(rr, expanded)):
                assert got_arr.dtype == ref_arr.dtype and got_arr.shape == ref_arr.shape
                assert got_arr.tobytes() == ref_arr.tobytes()


@pytest.mark.parametrize("kind", ["pollution", "multitype"])
def test_generated_dataset_ingest_matches_reference(kind, tmp_path):
    if kind == "pollution":
        ds = gen_pollution_like(PollutionConfig(n_entities=6, rows_per_entity=30, q_bins=16), 5)
    else:
        ds = gen_multitype_transactions(MultitypeConfig(n_entities=10, mean_len=40, q_bins=16), 5)
    assert_same_encoding(ds.series, ds.schema)  # labeled, one Time object per row
    path = tmp_path / "data.csv"
    write_csv(path, ds.series, ds.schema)
    assert_same_ingest(path, ds.schema)


# ---------------------------------------------------------------------------
# a hand-written table


def mixed_schema() -> Schema:
    attrs = {
        "ts": AttributeSpec("ts", TIMESTAMP, years=[2021, 2022], with_hour=True),
        "color": AttributeSpec("color", CATEGORICAL, vocab=["red", "green", "blue", "OOV"]),
        "shop": AttributeSpec("shop", CATEGORICAL, vocab=["s1", "s2", "OOV"]),
        "amount": AttributeSpec("amount", NUMERICAL, bin_edges=[0.0, 1.0, 2.0, 3.0],
                                value_range=(0.0, 3.0)),
        "fee": AttributeSpec("fee", NUMERICAL, bin_edges=[0.0, 0.5, 1.0], value_range=(0.0, 1.0)),
    }
    row_types = [RowTypeSpec(1, ["ts", "color", "amount"]),
                 RowTypeSpec(2, ["ts", "color", "amount", "shop", "fee"]),
                 RowTypeSpec(3, ["fee", "shop"])]
    return Schema(attrs, row_types)


HEADER = "entity_id,row_type,amount,color,fee,shop,ts"

HAND_WRITTEN = [
    HEADER,
    "a,1,1.5,red,,,2021-03-02T05:00:00",     # out of order within a
    "b,2,2.5,green,0.5,s1,2021-03-01",       # date-only stamp
    "",                                      # blank line
    "a,1,,blue,,,2021-03-01",                # missing amount
    "a,1,xyz,purple,,,2021-03-01T05:00:00",  # unparseable amount, OOV color
    "b,2, 3.0 , green ,x,s9,2022-02-28 12:00:00",  # padded cells, OOV shop, bad fee
    "c,3,,,1.0,s2,",                         # untimed row type: c keeps file order
    "a,1,0.5,red,,,2021-03-01",              # tied with an earlier row of a
    "c,1,4.0,red,,,2020-01-01",              # year outside the fitted vocabulary
    "d,1,2.0,blue,,",                        # short row: ts missing, d keeps file order
    "d,1,1.0,green,,,2021-01-01T23:00:00",
    "b,2,1.25,blue,0.25,s2,2021-02-30",      # impossible date: unparseable ts
    "e,2,0.75,,1.0,,2021-05-05T01:00:00",    # missing color and shop
    "e,3,,,0.5,s1,2021-01-01",
    "b,3,,,0.75,s1",                         # short row of an untimed type
    "b,2,2.0,red,0.5,s2,2021-03-01T00:00:00",
    "a,1,3.0,blue,,,2021-01-15,extra",       # long row: the extra cell is ignored
    "f,1,1.0,red,,,2021-04-01T00:00:00",     # hour 0 sorts after the same date
    "f,1,2.0,red,,,2021-04-01",              # without an hour
]


def test_hand_written_csv_matches_reference(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(HAND_WRITTEN) + "\n")
    assert_same_ingest(path, mixed_schema())
    series, report = read_csv(path, mixed_schema())
    assert report.rows == len(HAND_WRITTEN) - 2
    assert report.unparseable == Counter({"amount": 1, "fee": 1, "ts": 1})
    by_id = {s.entity_id: s for s in series}
    assert [r.values[2] for r in by_id["a"].rows] == [Num(3.0), Missing, Num(0.5), Missing,
                                                      Num(1.5)]
    assert [r.type_id for r in by_id["c"].rows] == [3, 1]
    assert [r.values[2] for r in by_id["f"].rows] == [Num(2.0), Num(1.0)]


@pytest.mark.parametrize("bad_line, error", [
    ("a,7,1.0,red,,,2021-01-01", SchemaError),   # unknown row type
    ("a,x,1.0,red,,,2021-01-01", FormatError),   # bad row type value
    ("a", FormatError),                          # short row with no type cell
])
def test_hand_written_csv_errors_match_reference(bad_line, error, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(HAND_WRITTEN[:4] + [bad_line] + HAND_WRITTEN[4:]) + "\n")
    assert_same_ingest(path, mixed_schema())
    with pytest.raises(error):
        read_csv(path, mixed_schema())


def test_last_timestamp_of_a_row_is_its_sort_key(tmp_path):
    attrs = {
        "opened": AttributeSpec("opened", TIMESTAMP, years=[2021], with_hour=False),
        "closed": AttributeSpec("closed", TIMESTAMP, years=[2021], with_hour=False),
        "amount": AttributeSpec("amount", NUMERICAL, bin_edges=[0.0, 1.0, 2.0],
                                value_range=(0.0, 2.0)),
    }
    schema = Schema(attrs, [RowTypeSpec(1, ["opened", "amount", "closed"])])
    path = tmp_path / "data.csv"
    path.write_text("entity_id,amount,closed,opened\n"  # no row type column
                    "a,1.0,2021-01-05,2021-01-01\n"
                    "a,2.0,2021-01-03,2021-01-02\n"
                    "a,3.0,,2021-01-04\n")             # falls back to `opened`
    assert_same_ingest(path, schema)
    series, _ = read_csv(path, schema)
    assert [r.values[1] for r in series[0].rows] == [Num(2.0), Num(3.0), Num(1.0)]


# ---------------------------------------------------------------------------
# random small tables


_TS = st.one_of(
    st.dates(min_value=datetime(2019, 1, 1).date(), max_value=datetime(2023, 12, 31).date())
    .map(lambda d: d.isoformat()),
    st.datetimes(min_value=datetime(2019, 1, 1), max_value=datetime(2023, 12, 31))
    .map(lambda t: t.replace(minute=0, second=0, microsecond=0).isoformat()),
    st.sampled_from(["", "2021-02-30", "later", " 2021-01-02 "]),
)
_NUM = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", " ", "abc", " 2.5 ", "1e3", "--1"]),
)
_CAT = st.sampled_from(["", "red", "green", "blue", "OOV", " red", "purple", "s1", "s2"])
_CELLS = {"amount": _NUM, "fee": _NUM, "color": _CAT, "shop": _CAT, "ts": _TS}


@st.composite
def small_tables(draw):
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = [draw(st.sampled_from("abc")), draw(st.sampled_from(["1", "2", "3"]))]
        cells += [draw(_CELLS[name]) for name in HEADER.split(",")[2:]]
        keep = draw(st.integers(2, len(cells))) if draw(st.integers(0, 5)) == 0 else len(cells)
        buf = io.StringIO()
        csv.writer(buf).writerow(cells[:keep])
        lines.append(buf.getvalue().rstrip("\r\n"))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=small_tables())
def test_random_tables_match_reference(text, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert_same_ingest(path, mixed_schema())
