import numpy as np
import pytest
from scipy.stats import chisquare

from unittab.data import (
    BalanceError, FormatError, MultitypeConfig, PollutionConfig,
    balance_upsample, gen_multitype_transactions,
    gen_pollution_like, labeled_windows, last_crop, pollution_oracle,
    random_crop, read_csv, split_by_entity, window, write_csv,
)
from unittab.schema import Missing, Num, Row, TimeSeries, validate
from conftest import make_tiny_schema, make_tiny_series


def series_of_length(n):
    s = make_tiny_series(n_rows=1)
    row = s.rows[0]
    s.rows = [Row(row.type_id, list(row.values)) for _ in range(n)]
    return s


def test_window_stride_5():
    out = window(series_of_length(35), 10, 5)
    assert [w.start for w in out] == [0, 5, 10, 15, 20, 25]


def test_window_stride_10():
    out = window(series_of_length(35), 10, 10)
    assert [w.start for w in out] == [0, 10, 20]


def test_window_short_series():
    assert window(series_of_length(9), 10, 5) == []


def test_window_nonoverlapping_when_stride_equals_t():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, t = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        wins = window(series_of_length(n), t, t)
        covered = [i for w in wins for i in range(w.start, w.start + t)]
        assert len(covered) == len(set(covered)) <= n


def test_random_crop_short_series_returns_all():
    s = series_of_length(30)
    out = random_crop(s, 50, np.random.default_rng(0))
    assert len(out.rows) == 30 and out.start == 0


def test_random_crop_single_row():
    out = random_crop(series_of_length(1), 5, np.random.default_rng(0))
    assert len(out.rows) == 1


def test_random_crop_uniform_starts():
    s = series_of_length(200)
    rng = np.random.default_rng(7)
    starts = [random_crop(s, 150, rng).start for _ in range(10000)]
    assert min(starts) >= 0 and max(starts) <= 50
    counts = np.bincount(starts, minlength=51)
    assert chisquare(counts).pvalue > 0.01
    assert all(len(random_crop(s, 150, rng).rows) == 150 for _ in range(5))


def test_last_crop():
    s = series_of_length(5)
    for i, r in enumerate(s.rows):
        r.values[2] = Num(float(i))
    assert [r.values[2].value for r in last_crop(s, 3).rows] == [2.0, 3.0, 4.0]
    assert len(last_crop(series_of_length(2), 3).rows) == 2
    assert [r.values[2].value for r in last_crop(s, 1).rows] == [4.0]


def _samples(n_pos, n_neg):
    out = []
    for i in range(n_pos):
        out.append(TimeSeries(f"p{i}", [], label=1))
    for i in range(n_neg):
        out.append(TimeSeries(f"n{i}", [], label=0))
    return out


def test_balance_upsample_counts():
    out = balance_upsample(_samples(2, 6), np.random.default_rng(0))
    assert len(out) == 12
    assert sum(1 for s in out if s.label) == 6


def test_balance_upsample_already_balanced():
    src = _samples(3, 3)
    out = balance_upsample(src, np.random.default_rng(0))
    assert sorted(s.entity_id for s in out) == sorted(s.entity_id for s in src)


def test_balance_upsample_preserves_negatives_exactly():
    src = _samples(1, 5)
    out = balance_upsample(src, np.random.default_rng(0))
    assert sorted(s.entity_id for s in out if not s.label) == \
        sorted(s.entity_id for s in src if not s.label)


def test_balance_upsample_single_class_errors():
    with pytest.raises(BalanceError):
        balance_upsample(_samples(0, 4), np.random.default_rng(0))


def test_split_by_entity_disjoint():
    series = [series_of_length(3) for _ in range(20)]
    for i, s in enumerate(series):
        s.entity_id = f"e{i}"
    split = split_by_entity(series, 0.25, seed=3)
    train_ids = {s.entity_id for s in split.train}
    test_ids = {s.entity_id for s in split.test}
    assert not train_ids & test_ids
    assert len(test_ids) == 5


def test_pollution_generator_shape_and_validity():
    ds = gen_pollution_like(PollutionConfig(n_entities=3, rows_per_entity=40, q_bins=8), 7)
    assert len(ds.series) == 3
    assert all(len(s.rows) == 40 for s in ds.series)
    assert all(len(r.values) == 12 for s in ds.series for r in s.rows)  # 11 attrs + timestamp
    for s in ds.series:
        assert validate(s, ds.schema) == []


def test_pollution_noise0_oracle_is_exact():
    ds = gen_pollution_like(PollutionConfig(n_entities=2, rows_per_entity=30, noise=0.0, q_bins=8), 3)
    wins = labeled_windows(ds.series, ds.row_targets, t=10, stride=10)
    preds = [pollution_oracle(w.rows, ds.schema) for w in wins]
    labels = [w.label for w in wins]
    assert np.allclose(preds, labels, atol=1e-12)


def test_pollution_generator_deterministic():
    a = gen_pollution_like(PollutionConfig(n_entities=2, rows_per_entity=20, q_bins=8), 11)
    b = gen_pollution_like(PollutionConfig(n_entities=2, rows_per_entity=20, q_bins=8), 11)
    for sa, sb in zip(a.series, b.series):
        for ra, rb in zip(sa.rows, sb.rows):
            assert ra.values == rb.values


def test_multitype_generator_types_and_validity():
    ds = gen_multitype_transactions(MultitypeConfig(n_entities=12, mean_len=100, q_bins=8), 5)
    arities = {1: 5, 2: 8, 3: 7}
    for s in ds.series:
        assert validate(s, ds.schema) == []
        kinds = {r.type_id for r in s.rows}
        assert kinds <= {1, 2, 3} and len(kinds) >= 2
        for r in s.rows:
            assert len(r.values) == arities[r.type_id]


def test_multitype_churn_rate_zero_all_negative():
    ds = gen_multitype_transactions(MultitypeConfig(n_entities=6, mean_len=40, churn_rate=0.0, q_bins=8), 2)
    assert all(s.label == 0 for s in ds.series)


def test_multitype_deterministic():
    a = gen_multitype_transactions(MultitypeConfig(n_entities=4, mean_len=40, q_bins=8), 9)
    b = gen_multitype_transactions(MultitypeConfig(n_entities=4, mean_len=40, q_bins=8), 9)
    assert [s.label for s in a.series] == [s.label for s in b.series]
    for sa, sb in zip(a.series, b.series):
        assert [r.values for r in sa.rows] == [r.values for r in sb.rows]


def test_csv_round_trip(tmp_path):
    schema = make_tiny_schema()
    series = [make_tiny_series("a", 3), make_tiny_series("b", 2)]
    path = tmp_path / "data.csv"
    write_csv(path, series, schema)
    back, report = read_csv(path, schema)
    assert len(back) == 2
    assert {s.entity_id: len(s.rows) for s in back} == {"a": 3, "b": 2}
    assert report.rows == 5
    for orig, loaded in zip(series, back):
        for ro, rl in zip(orig.rows, loaded.rows):
            assert ro.values == rl.values


def test_csv_empty_numeric_cell_becomes_missing(tmp_path):
    schema = make_tiny_schema()
    series = [make_tiny_series("a", 3)]
    series[0].rows[1].values[2] = Missing
    path = tmp_path / "data.csv"
    write_csv(path, series, schema)
    back, report = read_csv(path, schema)
    assert back[0].rows[1].values[2] is Missing
    assert report.count("amount") == 1


def test_csv_header_mismatch_names_column(tmp_path):
    schema = make_tiny_schema()
    path = tmp_path / "data.csv"
    path.write_text("entity_id,row_type,color,timestamp\n" "a,1,red,2021-01-01\n")
    with pytest.raises(FormatError) as exc:
        read_csv(path, schema)
    assert "amount" in str(exc.value)


def test_csv_mostly_unparseable_column_rejected(tmp_path):
    schema = make_tiny_schema()
    path = tmp_path / "data.csv"
    lines = ["entity_id,row_type,amount,color,timestamp"]
    for i in range(4):
        lines.append(f"a,1,not_a_number,red,2021-01-0{i + 1}")
    lines.append("a,1,1.0,red,2021-01-05")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        read_csv(path, schema)
    assert "amount" in str(exc.value)


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf"])
def test_csv_non_finite_numeric_cell_is_unparseable(spelling, tmp_path):
    schema = make_tiny_schema()
    path = tmp_path / "data.csv"
    path.write_text(
        "entity_id,row_type,amount,color,timestamp\n"
        f"a,1,{spelling},red,2021-01-01\n"
        "a,1,1.0,red,2021-01-02\n"
        "a,1,2.0,red,2021-01-03\n")
    back, report = read_csv(path, schema)
    assert back[0].rows[0].values[2] is Missing
    assert report.unparseable["amount"] == 1 and report.missing["amount"] == 0
    assert validate(back[0], schema) == []


def test_csv_mostly_nan_column_rejected(tmp_path):
    schema = make_tiny_schema()
    path = tmp_path / "data.csv"
    lines = ["entity_id,row_type,amount,color,timestamp"]
    lines += [f"a,1,nan,red,2021-01-0{i + 1}" for i in range(3)]
    lines.append("a,1,1.0,red,2021-01-05")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="amount.*3/4"):
        read_csv(path, schema)


@pytest.mark.parametrize("header, bad_row", [
    ("entity_id,row_type,amount,color,timestamp", ",1,2.0,red,2021-01-02"),  # empty cell
    ("row_type,amount,color,timestamp,entity_id", "1,2.0,red,2021-01-02"),   # short row
])
def test_csv_row_without_entity_id_rejected(header, bad_row, tmp_path):
    schema = make_tiny_schema()
    cells = {"entity_id": "a", "row_type": "1", "amount": "1.0", "color": "red",
             "timestamp": "2021-01-01"}
    good = ",".join(cells[c] for c in header.split(","))
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, good, "", bad_row, good]) + "\n")
    with pytest.raises(FormatError, match=r"data row 2 \(line 4\) has no 'entity_id' value"):
        read_csv(path, schema)


def test_csv_groups_sorted_by_timestamp(tmp_path):
    schema = make_tiny_schema()
    path = tmp_path / "data.csv"
    path.write_text(
        "entity_id,row_type,amount,color,timestamp\n"
        "a,1,1.0,red,2021-01-03\n"
        "a,1,2.0,red,2021-01-01\n"
        "b,1,3.0,red,2021-01-02\n")
    back, _ = read_csv(path, schema)
    by_id = {s.entity_id: s for s in back}
    assert [r.values[2].value for r in by_id["a"].rows] == [2.0, 1.0]


def test_valid_series_accepted_by_downstream_pipeline():
    # zero violations implies expansion, encoding, and a model forward all work
    from unittab.embedding import prepare_series
    from unittab.model import Model, ModelConfig
    from unittab.training import TrainConfig, apply_masking

    ds = gen_multitype_transactions(MultitypeConfig(n_entities=4, mean_len=40, q_bins=8), 13)
    assert all(validate(s, ds.schema) == [] for s in ds.series)
    expanded, encoded = prepare_series(ds.series, ds.schema)
    model = Model(ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1,
                              seq_heads=2, freq_count=2, t_max=12, n_row_types=3,
                              dropout=0.0), expanded, seed=0)
    rng = np.random.default_rng(0)
    batch = [apply_masking(last_crop(s, 12), expanded, TrainConfig(p_f=0.3, seed=0), rng)
             for s in encoded]
    out = model.pretrain_forward(batch, rng=None, training=False)
    assert out.n_masked > 0


def test_csv_round_trip_multitype(tmp_path):
    ds = gen_multitype_transactions(MultitypeConfig(n_entities=3, mean_len=40, q_bins=8), 21)
    path = tmp_path / "data.csv"
    write_csv(path, ds.series, ds.schema)
    back, report = read_csv(path, ds.schema)
    assert {s.entity_id for s in back} == {s.entity_id for s in ds.series}
    by_id = {s.entity_id: s for s in back}
    for orig in ds.series:
        loaded = by_id[orig.entity_id]
        assert [r.type_id for r in loaded.rows] == [r.type_id for r in orig.rows]
        for ro, rl in zip(orig.rows, loaded.rows):
            assert ro.values == rl.values
    assert report.unparseable.total() == 0
