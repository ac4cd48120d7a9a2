"""Dataset ingestion: CSV reading/writing, windowing, cropping, splitting,
class balancing, and synthetic generators for desk-scale experiments.

Generators are pure functions of (config, seed); per-entity streams are
derived with numpy SeedSequence([seed, entity_index]) so entities can be
generated independently or in parallel with identical results.

`read_csv` plans its columns once: the header is mapped to column indices,
and each row type gets a plan of (cell reader, column) pairs, found by the
raw row-type cell. Categorical and timestamp cells are parsed once per
distinct cell string: a per-attribute cache shares one frozen `Cat`/`Time`
per string, and `vocab_index` looks categories up in the vocabulary dict
kept on the spec (`AttributeSpec.vocab_ids`). Numeric cells, mostly distinct,
are parsed every time. The caches live for one call.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP,
    AttributeSpec, Cat, Missing, Num, Row, RowTypeSpec, Schema, Time, TimeSeries,
    fit_bins, schema_to_json, vocab_index,
)


class FormatError(Exception):
    pass


class BalanceError(Exception):
    pass


@dataclass
class DatasetSplit:
    train: list[TimeSeries]
    test: list[TimeSeries]


def split_by_entity(series_list: list[TimeSeries], test_fraction: float,
                    seed: int) -> DatasetSplit:
    """Seeded random split of items: round(test_fraction * n) of them go to
    the test part. Entity ids come out disjoint across the parts when each
    item is one entity's series."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    order = rng.permutation(len(series_list))
    n_test = int(round(test_fraction * len(series_list)))
    return DatasetSplit(train=[series_list[i] for i in order[n_test:]],
                        test=[series_list[i] for i in order[:n_test]])


def window(series: TimeSeries, t: int, stride: int) -> list[TimeSeries]:
    """Fixed-length sliding windows starting at 0, stride, 2*stride, ...
    while start + t <= len(rows). Short series yield no windows."""
    if t < 1 or stride < 1:
        raise ValueError("t and stride must be >= 1")
    return [TimeSeries(series.entity_id, series.rows[start:start + t], series.label, start)
            for start in range(0, len(series.rows) - t + 1, stride)]


def random_crop(series: TimeSeries, t_max: int, rng: np.random.Generator) -> TimeSeries:
    """The whole series when it fits, else a uniformly random contiguous
    span of exactly t_max rows."""
    t_all = len(series.rows)
    if t_all == 0:
        raise ValueError("cannot crop an empty series")
    if t_all <= t_max:
        return TimeSeries(series.entity_id, list(series.rows), series.label)
    start = int(rng.integers(0, t_all - t_max + 1))
    return TimeSeries(series.entity_id, series.rows[start:start + t_max], series.label, start)


def last_crop(series: TimeSeries, t_max: int) -> TimeSeries:
    """The last min(len(rows), t_max) rows, order preserved."""
    t_all = len(series.rows)
    if t_all == 0:
        raise ValueError("cannot crop an empty series")
    start = max(0, t_all - t_max)
    return TimeSeries(series.entity_id, series.rows[start:], series.label, start)


def balance_upsample(samples: list[TimeSeries], rng: np.random.Generator) -> list[TimeSeries]:
    """Duplicate positives (with replacement) until they are as many as the
    negatives, then shuffle. Negatives pass through exactly."""
    pos = [s for s in samples if s.label]
    neg = [s for s in samples if not s.label]
    for s in samples:
        if s.label is None:
            raise BalanceError("balance_upsample needs binary labels on every sample")
    if not pos or not neg:
        raise BalanceError("balance_upsample needs both classes present")
    target = len(neg)
    out = list(samples)
    if len(pos) < target:
        extra = rng.integers(0, len(pos), size=target - len(pos))
        out.extend(pos[i] for i in extra)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


# ---------------------------------------------------------------------------
# CSV interface


ENTITY_COLUMN = "entity_id"
TYPE_COLUMN = "row_type"  # optional when the schema has one row type


@dataclass
class ParseReport:
    rows: int = 0
    missing: Counter = field(default_factory=Counter)
    unparseable: Counter = field(default_factory=Counter)

    def count(self, column: str) -> int:
        return self.missing[column] + self.unparseable[column]


def _parse_iso_time(text: str) -> Time:
    dt = datetime.fromisoformat(text)
    hour = dt.hour if ("T" in text or " " in text) else None
    return Time(dt.year, dt.month, dt.day, hour)


def _format_time(ts: Time) -> str:
    if ts.hour is None:
        return f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
    return f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T{ts.hour:02d}:00:00"


class _CellCache(dict):
    """Parsed value per distinct raw cell of one categorical or timestamp
    attribute. A cell that reads as Missing is counted in the report on
    every occurrence and never stored, so the counts stay per cell."""

    def __init__(self, name: str, parse, report: ParseReport):
        super().__init__()
        self.name, self.parse, self.report = name, parse, report

    def __missing__(self, cell):
        text = (cell or "").strip()
        if not text:
            self.report.missing[self.name] += 1
            return Missing
        try:
            value = self.parse(text)
        except ValueError:
            self.report.unparseable[self.name] += 1
            return Missing
        self[cell] = value
        return value


def _numeric_reader(name: str, report: ParseReport):
    """Parse one numeric cell; empty, unparseable and non-finite cells read
    as Missing and are counted. Numeric cells are mostly distinct, so they
    are not cached."""
    missing, unparseable = report.missing, report.unparseable

    def read(cell):
        try:
            x = float(cell)
        except (TypeError, ValueError):
            if (cell or "").strip():
                unparseable[name] += 1
            else:
                missing[name] += 1
            return Missing
        if math.isfinite(x):
            return Num(x)
        unparseable[name] += 1
        return Missing

    return read


def _cell_reader(spec: AttributeSpec, report: ParseReport):
    """A callable raw cell -> field value for one attribute of one call."""
    if spec.kind == NUMERICAL:
        return _numeric_reader(spec.name, report)
    if spec.kind == CATEGORICAL:
        return _CellCache(spec.name, lambda text: Cat(vocab_index(spec, text)), report).__getitem__
    return _CellCache(spec.name, _parse_iso_time, report).__getitem__


def _time_key(values: list, ts_slots: list[int]) -> tuple[int, int, int, int] | None:
    """Sort key of a row's last timestamp value (`ts_slots` runs last to
    first); None when the row has none."""
    for i in ts_slots:
        v = values[i]
        if v is not Missing:
            return (v.year, v.month, v.day, -1 if v.hour is None else v.hour)
    return None


def read_csv(path, schema: Schema) -> tuple[list[TimeSeries], ParseReport]:
    """Parse a header CSV into per-entity series sorted by timestamp.

    Entities come out in order of first appearance. A series is sorted
    (stably) on each row's last timestamp value when every row has one and
    keeps file order otherwise. Blank lines are skipped and short rows read
    as empty cells. A row without an entity id is a format error. Empty,
    unparseable and non-finite attribute cells become Missing and are
    counted in the report; a column whose applicable cells are >50%
    unparseable is a format error.
    """
    report = ParseReport()
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}  # last wins, as in DictReader
        if ENTITY_COLUMN not in column:
            raise FormatError(f"missing entity column {ENTITY_COLUMN!r}")
        for name in schema.attributes:
            if name not in column:
                raise FormatError(f"schema attribute {name!r} not found in CSV header")
        multi_type = schema.n_row_types > 1
        if multi_type and TYPE_COLUMN not in column:
            raise FormatError(f"missing row type column {TYPE_COLUMN!r}")
        entity_col = column[ENTITY_COLUMN]
        type_col = column.get(TYPE_COLUMN)
        width = len(header)
        readers = {name: _cell_reader(spec, report) for name, spec in schema.attributes.items()}
        plans: dict = {}  # type cell -> (type id, cell readers, column indices)
        type_rows = [0] * (schema.n_row_types + 1)
        by_entity: dict[str, list[Row]] = defaultdict(list)
        for rec in reader:
            if len(rec) < width:
                if not rec:
                    continue
                rec += [None] * (width - len(rec))
            report.rows += 1
            type_cell = None if type_col is None else rec[type_col]
            plan = plans.get(type_cell)
            if plan is None:
                if type_col is None:
                    type_id = 1
                else:
                    try:
                        type_id = int(type_cell)
                    except (TypeError, ValueError):
                        raise FormatError(f"bad row type value {type_cell!r}")
                rt = schema.row_type(type_id)
                plan = plans[type_cell] = (type_id, [readers[a] for a in rt.attributes],
                                           [column[a] for a in rt.attributes])
            type_id, cell_readers, cols = plan
            if not rec[entity_col]:
                raise FormatError(f"data row {report.rows} (line {reader.line_num}) has no "
                                  f"{ENTITY_COLUMN!r} value")
            type_rows[type_id] += 1
            by_entity[rec[entity_col]].append(
                Row(type_id, [read(rec[c]) for read, c in zip(cell_readers, cols)]))
    applicable: Counter = Counter()
    for rt in schema.row_types:
        for name in rt.attributes:
            applicable[name] += type_rows[rt.type_id]
    for name, bad in report.unparseable.items():
        if bad > 0.5 * applicable[name]:
            raise FormatError(f"column {name!r}: {bad}/{applicable[name]} cells unparseable")
    ts_slots = {rt.type_id: [i for i, a in enumerate(rt.attributes)
                             if schema.attributes[a].kind == TIMESTAMP][::-1]
                for rt in schema.row_types}
    out = []
    for entity, rows in by_entity.items():
        keys = [_time_key(row.values, ts_slots[row.type_id]) for row in rows]
        if None not in keys:
            order = sorted(range(len(rows)), key=keys.__getitem__)
            rows = [rows[i] for i in order]
        out.append(TimeSeries(entity, rows))
    return out, report


def write_csv(path, series_list: list[TimeSeries], schema: Schema) -> None:
    columns = [ENTITY_COLUMN, TYPE_COLUMN]
    attr_names = sorted(schema.attributes)
    columns += attr_names
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for s in series_list:
            for row in s.rows:
                rt = schema.row_type(row.type_id)
                cells = {name: "" for name in attr_names}
                for name, v in zip(rt.attributes, row.values):
                    if v is Missing:
                        cells[name] = ""
                    elif isinstance(v, Cat):
                        cells[name] = schema.attributes[name].vocab[v.index]
                    elif isinstance(v, Num):
                        cells[name] = repr(v.value)
                    else:
                        cells[name] = _format_time(v)
                rec = [s.entity_id, str(row.type_id)] + [cells[n] for n in attr_names]
                writer.writerow(rec)


def write_manifest(path, series_list: list[TimeSeries], schema: Schema,
                   extra: dict | None = None) -> None:
    """Dataset statistics written as JSON next to the exported files."""
    stats: dict = {}
    for name, spec in schema.attributes.items():
        vals = []
        for s in series_list:
            for row in s.rows:
                rt = schema.row_type(row.type_id)
                for n, v in zip(rt.attributes, row.values):
                    if n == name and isinstance(v, Num):
                        vals.append(v.value)
        if spec.kind == NUMERICAL and vals:
            arr = np.asarray(vals)
            stats[name] = {"min": float(arr.min()), "max": float(arr.max()),
                           "mean": float(arr.mean()), "std": float(arr.std())}
    labels = [s.label for s in series_list if s.label is not None]
    manifest = {
        "n_series": len(series_list),
        "n_rows": sum(len(s.rows) for s in series_list),
        "n_row_types": schema.n_row_types,
        "numerical_stats": stats,
        "n_labeled": len(labels),
        "positive_labels": int(sum(1 for x in labels if x)) if labels else 0,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# pollution-like generator: one row type, 10 numerical fields driven by
# AR(1) latents with daily/annual seasonality, one site id, hourly stamps


POLLUTION_NUMERIC = ["temperature", "humidity", "wind_speed", "pressure", "radiation",
                     "gas_a", "gas_b", "gas_c", "particulate_a", "particulate_b"]


@dataclass
class PollutionConfig:
    n_entities: int = 12
    rows_per_entity: int = 1000
    noise: float = 0.1
    q_bins: int = 100
    start_year: int = 2021
    coupling: float = 0.6  # weight of the shared regional latent in every field


@dataclass
class PollutionDataset:
    series: list[TimeSeries]
    schema: Schema
    row_targets: dict[str, np.ndarray]
    config: PollutionConfig


def pollution_oracle(rows: list[Row], schema: Schema) -> float:
    """The noise-free target: a sinusoid of the last temperature plus a
    smooth function of the recent gas_a history."""
    rt = schema.row_type(rows[-1].type_id)
    temp_pos = rt.attributes.index("temperature")
    gas_pos = rt.attributes.index("gas_a")
    temp = rows[-1].values[temp_pos].value
    gas3 = [r.values[gas_pos].value for r in rows[-3:]]
    return _pollution_target(temp, float(np.mean(gas3)))


def _pollution_target(temp: float, mean_gas3: float) -> float:
    return 10.0 + 12.0 * math.sin(1.5 * math.pi * temp) + 6.0 * math.cos(math.pi * mean_gas3)


def _entity_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), index]))


def gen_pollution_like(config: PollutionConfig, seed: int) -> PollutionDataset:
    param_rng = _entity_rng(seed, 1_000_000)
    n_attr = len(POLLUTION_NUMERIC)
    day_amp = param_rng.uniform(0.2, 0.8, size=n_attr)
    day_phase = param_rng.uniform(0, 2 * np.pi, size=n_attr)
    year_amp = param_rng.uniform(0.1, 0.5, size=n_attr)
    year_phase = param_rng.uniform(0, 2 * np.pi, size=n_attr)

    start = datetime(config.start_year, 1, 1)
    series = []
    row_targets: dict[str, np.ndarray] = {}
    all_vals: dict[str, list[float]] = {n: [] for n in POLLUTION_NUMERIC}
    site_names = [f"site_{i:02d}" for i in range(config.n_entities)]
    for e in range(config.n_entities):
        erng = _entity_rng(seed, e)
        t_all = config.rows_per_entity
        latent = np.zeros((t_all, n_attr))
        eps = erng.normal(0.0, 0.3, size=(t_all, n_attr))
        latent[0] = erng.normal(0.0, 0.5, size=n_attr)
        common = np.zeros(t_all)  # shared regional driver behind every field
        ceps = erng.normal(0.0, 0.3, size=t_all)
        common[0] = erng.normal(0.0, 0.5)
        for i in range(1, t_all):
            latent[i] = 0.9 * latent[i - 1] + eps[i]
            common[i] = 0.9 * common[i - 1] + ceps[i]
        hours = np.arange(t_all)
        stamps = [start + timedelta(hours=int(h)) for h in hours]
        doy = np.array([s.timetuple().tm_yday for s in stamps])
        c = config.coupling
        values = ((1.0 - c) * latent + c * common[:, None]
                  + day_amp * np.sin(2 * np.pi * (hours[:, None] % 24) / 24.0 + day_phase)
                  + year_amp * np.sin(2 * np.pi * doy[:, None] / 365.0 + year_phase))
        temps = values[:, 0]
        gas = values[:, POLLUTION_NUMERIC.index("gas_a")]
        targets = np.empty(t_all)
        for i in range(t_all):
            g3 = float(np.mean(gas[max(0, i - 2):i + 1]))
            targets[i] = _pollution_target(float(temps[i]), g3) + config.noise * erng.normal()
        rows = []
        for i in range(t_all):
            vals: list = [Cat(e)]
            vals += [Num(float(values[i, j])) for j in range(n_attr)]
            st = stamps[i]
            vals.append(Time(st.year, st.month, st.day, st.hour))
            rows.append(Row(1, vals))
        for j, name in enumerate(POLLUTION_NUMERIC):
            all_vals[name].extend(values[:, j].tolist())
        series.append(TimeSeries(f"entity_{e:03d}", rows))
        row_targets[f"entity_{e:03d}"] = targets

    # vocabulary in entity order so Cat(e) always points at site_names[e]
    attrs = {"site": AttributeSpec("site", CATEGORICAL, vocab=site_names + ["OOV"])}
    for name in POLLUTION_NUMERIC:
        arr = all_vals[name]
        attrs[name] = AttributeSpec(name, NUMERICAL, bin_edges=fit_bins(arr, config.q_bins),
                                    value_range=(float(min(arr)), float(max(arr))))
    years = sorted({config.start_year + y for y in range(2)})
    attrs["timestamp"] = AttributeSpec("timestamp", TIMESTAMP, years=years, with_hour=True)
    row_type = RowTypeSpec(1, ["site"] + POLLUTION_NUMERIC + ["timestamp"])
    schema = Schema(attrs, [row_type])
    return PollutionDataset(series, schema, row_targets, config)


def labeled_windows(series_list: list[TimeSeries], row_targets, t: int,
                    stride: int) -> list[TimeSeries]:
    """Sliding windows of every series, each labelled with the regression
    target of its last row; row_targets maps entity id -> per-row targets."""
    out = []
    for s in series_list:
        for w in window(s, t, stride):
            w.label = float(row_targets[s.entity_id][w.start + t - 1])
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# multi-type transaction generator: three row types sharing five generic
# fields, entity-level churn labels from a recorded logistic rule


@dataclass
class MultitypeConfig:
    n_entities: int = 100
    mean_len: int = 100
    churn_rate: float = 0.15
    q_bins: int = 100
    start_year: int = 2021
    rule_sharpness: float = 4.0


CHURN_RULE = {
    "window": 30,
    "weights": {"atm_fraction": 3.0, "pos_fraction": -2.0,
                "balance_slope_tanh": -1.5, "log_amount_mean": 0.8},
    "note": "z-score weighted sum, sigmoid(sharpness * (z - z0)), z0 calibrated to churn_rate",
}


@dataclass
class MultitypeDataset:
    series: list[TimeSeries]
    schema: Schema
    oracle_scores: dict[str, float]
    config: MultitypeConfig
    rule: dict = field(default_factory=lambda: dict(CHURN_RULE))


def _churn_score(rows: list[Row], amount_pos: int = 1, balance_pos: int = 2) -> float:
    recent = rows[-CHURN_RULE["window"]:]
    types = np.array([r.type_id for r in recent])
    atm_frac = float(np.mean(types == 3))
    pos_frac = float(np.mean(types == 2))
    amounts = np.array([r.values[amount_pos].value for r in recent])
    balances = np.array([r.values[balance_pos].value for r in recent])
    slope = (balances[-1] - balances[0]) / len(recent)
    w = CHURN_RULE["weights"]
    return (w["atm_fraction"] * atm_frac + w["pos_fraction"] * pos_frac
            + w["balance_slope_tanh"] * math.tanh(slope / 50.0)
            + w["log_amount_mean"] * (float(np.mean(np.log1p(amounts))) - 3.0))


def gen_multitype_transactions(config: MultitypeConfig, seed: int) -> MultitypeDataset:
    merchants = [f"merchant_{i:02d}" for i in range(24)]
    localities = [f"loc_{i:02d}" for i in range(12)]
    operators = [f"bank_{i}" for i in range(8)]
    categories = ["groceries", "rent", "salary", "utilities", "transport", "leisure", "health", "other"]
    terminals = ["chip", "swipe", "online"]
    directions = ["debit", "credit"]
    start = datetime(config.start_year, 1, 1)

    series = []
    num_vals: dict[str, list[float]] = {"amount": [], "balance": [], "fee": []}
    scores = []
    for e in range(config.n_entities):
        erng = _entity_rng(seed, e)
        t_all = max(35, int(erng.poisson(config.mean_len)))
        type_probs = erng.dirichlet([5.0, 3.0, 2.0])
        drift = erng.normal(0.0, 25.0)
        balance = 1000.0 + erng.normal(0.0, 200.0)
        stamp = start + timedelta(days=int(erng.integers(0, 60)))
        rows = []
        for _ in range(t_all):
            type_id = int(erng.choice([1, 2, 3], p=type_probs))
            amount = float(erng.lognormal(3.0, 1.0))
            direction = int(erng.random() < 0.2)
            balance += (amount if direction else -amount) + drift + erng.normal(0.0, 10.0)
            stamp += timedelta(hours=int(erng.integers(4, 72)))
            generic: list = [Time(stamp.year, stamp.month, stamp.day), Num(amount),
                             Num(balance), Cat(direction), Cat(int(erng.integers(0, len(categories))))]
            num_vals["amount"].append(amount)
            num_vals["balance"].append(balance)
            if type_id == 2:
                extra = [Cat(int(erng.integers(0, len(merchants)))),
                         Cat(int(erng.integers(0, len(localities)))),
                         Cat(int(erng.integers(0, len(terminals))))]
            elif type_id == 3:
                fee = float(erng.exponential(2.0))
                extra = [Cat(int(erng.integers(0, len(operators)))), Num(fee)]
                num_vals["fee"].append(fee)
            else:
                extra = []
            rows.append(Row(type_id, generic + extra))
        series.append(TimeSeries(f"account_{e:04d}", rows))
        scores.append(_churn_score(rows))

    scores_arr = np.asarray(scores)
    oracle = {s.entity_id: float(z) for s, z in zip(series, scores_arr)}
    if config.churn_rate <= 0.0:
        for s in series:
            s.label = 0
    else:
        lo, hi = float(scores_arr.min()) - 10.0, float(scores_arr.max()) + 10.0
        for _ in range(80):  # bisect the intercept so mean(p) matches churn_rate
            z0 = 0.5 * (lo + hi)
            p = 1.0 / (1.0 + np.exp(-config.rule_sharpness * (scores_arr - z0)))
            if p.mean() > config.churn_rate:
                lo = z0
            else:
                hi = z0
        z0 = 0.5 * (lo + hi)
        p = 1.0 / (1.0 + np.exp(-config.rule_sharpness * (scores_arr - z0)))
        lrng = _entity_rng(seed, 2_000_000)
        draws = lrng.random(len(series))
        for s, pi, u in zip(series, p, draws):
            s.label = int(u < pi)

    def vocab_of(names):
        return list(names) + ["OOV"]

    attrs = {
        "timestamp": AttributeSpec("timestamp", TIMESTAMP,
                                   years=[config.start_year, config.start_year + 1], with_hour=False),
        "amount": AttributeSpec("amount", NUMERICAL, bin_edges=fit_bins(num_vals["amount"], config.q_bins),
                                value_range=(min(num_vals["amount"]), max(num_vals["amount"]))),
        "balance": AttributeSpec("balance", NUMERICAL, bin_edges=fit_bins(num_vals["balance"], config.q_bins),
                                 value_range=(min(num_vals["balance"]), max(num_vals["balance"]))),
        "direction": AttributeSpec("direction", CATEGORICAL, vocab=vocab_of(directions)),
        "category": AttributeSpec("category", CATEGORICAL, vocab=vocab_of(categories)),
        "merchant": AttributeSpec("merchant", CATEGORICAL, vocab=vocab_of(merchants)),
        "locality": AttributeSpec("locality", CATEGORICAL, vocab=vocab_of(localities)),
        "terminal": AttributeSpec("terminal", CATEGORICAL, vocab=vocab_of(terminals)),
        "operator": AttributeSpec("operator", CATEGORICAL, vocab=vocab_of(operators)),
        "fee": AttributeSpec("fee", NUMERICAL, bin_edges=fit_bins(num_vals["fee"], config.q_bins),
                             value_range=(min(num_vals["fee"]), max(num_vals["fee"]))),
    }
    generic = ["timestamp", "amount", "balance", "direction", "category"]
    row_types = [
        RowTypeSpec(1, list(generic)),
        RowTypeSpec(2, generic + ["merchant", "locality", "terminal"]),
        RowTypeSpec(3, generic + ["operator", "fee"]),
    ]
    schema = Schema(attrs, row_types)
    return MultitypeDataset(series, schema, oracle, config)


def flatten_to_single_type(series_list: list[TimeSeries], schema: Schema) -> tuple[list[TimeSeries], Schema]:
    """Baseline transform: one row type over the union of all attributes,
    with fields absent from a row's original type set to Missing."""
    union: list[str] = []
    for rt in schema.row_types:
        for a in rt.attributes:
            if a not in union:
                union.append(a)
    pos = {a: i for i, a in enumerate(union)}
    out = []
    for s in series_list:
        rows = []
        for row in s.rows:
            rt = schema.row_type(row.type_id)
            values: list = [Missing] * len(union)
            for name, v in zip(rt.attributes, row.values):
                values[pos[name]] = v
            rows.append(Row(1, values))
        out.append(TimeSeries(s.entity_id, rows, s.label))
    flat = Schema(dict(schema.attributes), [RowTypeSpec(1, union)], version=schema.version)
    return out, flat


def export_dataset(out_dir, series_list: list[TimeSeries], schema: Schema,
                   labels: dict[str, float] | None = None,
                   row_targets: dict[str, np.ndarray] | None = None,
                   extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "data.csv", series_list, schema)
    (out / "schema.json").write_text(schema_to_json(schema))
    if labels is not None:
        (out / "labels.json").write_text(json.dumps(labels, sort_keys=True, indent=2))
    if row_targets is not None:
        payload = {k: [float(x) for x in v] for k, v in sorted(row_targets.items())}
        (out / "targets.json").write_text(json.dumps(payload, sort_keys=True))
    write_manifest(out / "manifest.json", series_list, schema, extra)
