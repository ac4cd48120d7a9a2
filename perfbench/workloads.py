"""The three benchmark workloads.

Each workload has a set-up step (generate the seeded dataset, write it to
CSV, build the starting model) and a round: ingest the CSV, run the
training call, then score held-out windows forward only. A round is a fixed
amount of work from a fixed starting state, so its loss curve and evaluation
repeat exactly from round to round; the benchmark repeats rounds for the
requested time and reports medians. With a ``Tracer`` the round runs the
traced mirror of the training call instead of the library's own.
"""

from __future__ import annotations

import copy
import gc
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from unittab import (
    Model, ModelConfig, MultitypeConfig, PollutionConfig, TrainConfig,
    gen_multitype_transactions, gen_pollution_like, last_crop, load_checkpoint,
    prepare_series, pretrain, read_csv, save_checkpoint, split_by_entity, window,
    write_csv,
)
from unittab.embedding import clamp_count, expand_schema, reset_clamp_count
from unittab.training import apply_masking, finetune, predict, pretrain_loss

from tracing import NullTracer, instrument, traced_finetune, traced_pretrain

INFER_BATCH = 64
_NO_TRACE = NullTracer()


@dataclass
class RoundResult:
    rows: int = 0
    ingest_s: float = 0.0
    train_samples: int = 0
    train_s: float = 0.0
    infer_samples: int = 0
    infer_batches: int = 0
    infer_s: float = 0.0
    losses: list[float] = field(default_factory=list)
    eval_score: float = float("nan")
    scores: np.ndarray | None = None
    labels: np.ndarray | None = None
    report: dict | None = None
    wall_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def clock() -> float:
    """Collect garbage, then read the clock: every timed phase starts from
    the same heap state, which steadies the Python-heavy phases."""
    gc.collect()
    return time.perf_counter()


def _ingest(tr, csv_path, raw_schema, res: RoundResult):
    t0 = clock()
    with tr.span("data.read_csv"):
        series, report = read_csv(csv_path, raw_schema)
    with tr.span("embedding.prepare"):
        schema, encoded = prepare_series(series, raw_schema)
    res.ingest_s = time.perf_counter() - t0
    res.rows = report.rows
    res.counts["csv_rows"] = report.rows
    res.counts["unparseable_cells"] = sum(report.unparseable.values())
    return schema, encoded


def _samples_fed(n: int, batch_size: int, steps: int) -> int:
    """Samples in the first `steps` batches of back-to-back epochs over n."""
    per_epoch = [min(batch_size, n - lo) for lo in range(0, n, batch_size)]
    full, rest = divmod(steps, len(per_epoch))
    return full * n + sum(per_epoch[:rest])


def _checkpoint_roundtrip(path: Path, schema, training_state: bool) -> bool:
    """save -> load -> save must reproduce the file byte for byte.
    `training_state`: the file holds optimizer, config and PRNG state."""
    state = load_checkpoint(path, schema)
    again = path.with_suffix(".again")
    if training_state:
        save_checkpoint(again, state.model, state.optimizer, state.train_config,
                        state.rng, state.step)
    else:
        save_checkpoint(again, state.model, None, None, None, state.step)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return same


# ---------------------------------------------------------------------------
# masked-token pretraining workloads


@dataclass(frozen=True)
class PretrainWorkload:
    name: str
    make_data: object           # seed -> dataset with .series and .schema
    make_config: object         # n_row_types -> ModelConfig
    test_fraction: float
    batch_size: int
    steps: int
    checkpoint_every: int | None
    lr: float = 1e-3

    def train_config(self, seed: int, steps: int) -> TrainConfig:
        return TrainConfig(lr=self.lr, batch_size=self.batch_size, epochs=10_000,
                           max_steps=steps, seed=seed, checkpoint_every=self.checkpoint_every)

    def setup(self, seed: int, work: Path) -> dict:
        ds = self.make_data(seed)
        csv_path = work / "data.csv"
        write_csv(csv_path, ds.series, ds.schema)
        model = Model(self.make_config(ds.schema.n_row_types), expand_schema(ds.schema), seed=seed)
        return {"seed": seed, "csv": csv_path, "raw_schema": ds.schema, "model": model,
                "ckpt": work / "pretrain.ckpt"}

    def warm_up(self, st: dict) -> None:
        schema, encoded = _ingest(_NO_TRACE, st["csv"], st["raw_schema"], RoundResult())
        split = split_by_entity(encoded, self.test_fraction, st["seed"])
        model = copy.deepcopy(st["model"])
        pretrain(split.train, model, self.train_config(st["seed"], 2))
        self._score(model, split.test[:2], schema, st["seed"], RoundResult())

    def run_round(self, st: dict, tr) -> RoundResult:
        res = RoundResult()
        t_round = clock()
        reset_clamp_count()
        schema, encoded = _ingest(tr, st["csv"], st["raw_schema"], res)
        split = split_by_entity(encoded, self.test_fraction, st["seed"])
        model = copy.deepcopy(st["model"])
        cfg = self.train_config(st["seed"], self.steps)
        t0 = clock()
        if tr.enabled:
            instrument(model, tr)
            res.losses = traced_pretrain(split.train, model, cfg, tr, st["ckpt"])
        else:
            res.losses = pretrain(split.train, model, cfg, checkpoint_path=st["ckpt"]).losses
        res.train_s = time.perf_counter() - t0
        res.train_samples = _samples_fed(len(split.train), self.batch_size, len(res.losses))
        self._score(model, split.test, schema, st["seed"], res, tr)
        res.wall_s = time.perf_counter() - t_round
        res.counts.update(clamps=clamp_count(), skipped_steps=res.losses.count(0.0),
                          checkpoint_bytes=os.path.getsize(st["ckpt"]),
                          n_params=model.n_params())
        return res

    def _score(self, model, test, schema, seed, res: RoundResult, tr=None) -> None:
        """Held-out masked-token scoring over non-overlapping windows at the
        training batch size, dropout off, no backward. The score is
        exp(-cross entropy), the inverse perplexity of the smoothed targets."""
        tr = tr or _NO_TRACE
        t_max = model.config.t_max
        cfg = self.train_config(seed, self.steps)
        t0 = clock()
        with tr.span("training.predict"):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
            wins = [w for s in test for w in window(s, t_max, t_max)]
            total, n_masked = 0.0, 0
            for lo in range(0, len(wins), self.batch_size):
                batch = [apply_masking(w, schema, cfg, rng) for w in wins[lo:lo + self.batch_size]]
                out = model.pretrain_forward(batch, rng=None, training=False)
                if out.n_masked:
                    total += pretrain_loss(out, cfg).item() * out.n_masked
                    n_masked += out.n_masked
                res.infer_batches += 1
        res.infer_s = time.perf_counter() - t0
        res.infer_samples = len(wins)
        res.eval_score = math.exp(-total / n_masked) if n_masked else float("nan")

    def checks(self, st: dict) -> dict[str, bool]:
        schema = expand_schema(st["raw_schema"])
        return {"checkpoint_roundtrip": _checkpoint_roundtrip(st["ckpt"], schema, True)}


# ---------------------------------------------------------------------------
# fine-tuning and scoring workload


@dataclass(frozen=True)
class FinetuneWorkload:
    name: str
    data: MultitypeConfig
    test_fraction: float
    t_max: int
    batch_size: int
    steps: int
    lr: float = 1e-3

    def train_config(self, seed: int, steps: int) -> TrainConfig:
        return TrainConfig(lr=self.lr, batch_size=self.batch_size, epochs=10_000,
                           max_steps=steps, seed=seed)

    def setup(self, seed: int, work: Path) -> dict:
        ds = gen_multitype_transactions(self.data, seed)
        csv_path = work / "data.csv"
        write_csv(csv_path, ds.series, ds.schema)
        schema = expand_schema(ds.schema)
        backbone = Model(ModelConfig.desk_preset(t_max=self.t_max, n_row_types=schema.n_row_types),
                         schema, seed=seed)
        ckpt = work / "backbone.ckpt"
        save_checkpoint(ckpt, backbone, None, None, None, 0)
        return {"seed": seed, "csv": csv_path, "raw_schema": ds.schema, "ckpt": ckpt,
                "labels": {s.entity_id: int(s.label) for s in ds.series},
                "tuned": work / "finetuned.ckpt"}

    def _samples_split(self, st, encoded):
        for s in encoded:
            s.label = st["labels"][s.entity_id]
        split = split_by_entity(encoded, self.test_fraction, st["seed"])
        return ([last_crop(s, self.t_max) for s in split.train],
                [last_crop(s, self.t_max) for s in split.test])

    def warm_up(self, st: dict) -> None:
        schema, encoded = _ingest(_NO_TRACE, st["csv"], st["raw_schema"], RoundResult())
        train, test = self._samples_split(st, encoded)
        # a small test set that still holds both classes, so the closing
        # evaluate can score it
        small = [s for s in test if s.label][:8] + [s for s in test if not s.label][:8]
        model = load_checkpoint(st["ckpt"], schema).model
        finetune(train, small, model, "binary", self.train_config(st["seed"], 2))
        predict(model, test[:INFER_BATCH], "binary", INFER_BATCH)

    def run_round(self, st: dict, tr) -> RoundResult:
        res = RoundResult()
        t_round = clock()
        reset_clamp_count()
        schema, encoded = _ingest(tr, st["csv"], st["raw_schema"], res)
        train, test = self._samples_split(st, encoded)
        cfg = self.train_config(st["seed"], self.steps)
        t0 = clock()
        with tr.span("checkpoint.load"):
            model = load_checkpoint(st["ckpt"], schema).model
        if tr.enabled:
            instrument(model, tr)
            res.losses, report = traced_finetune(train, test, model, cfg, tr)
        else:
            out = finetune(train, test, model, "binary", cfg)
            res.losses, report = out.losses, out.report
        res.train_s = time.perf_counter() - t0
        # finetune() upsamples positives until they match the negatives
        pos = sum(1 for s in train if s.label)
        n = len(train) + max(0, len(train) - 2 * pos)
        res.train_samples = _samples_fed(n, self.batch_size, len(res.losses))
        res.report = {"metrics": report.metrics, "confusion": report.confusion}

        t0 = clock()
        with tr.span("training.predict"):
            res.scores = predict(model, test, "binary", INFER_BATCH)
        res.infer_s = time.perf_counter() - t0
        res.infer_samples = len(test)
        res.infer_batches = -(-len(test) // INFER_BATCH)
        res.labels = np.asarray([s.label for s in test], dtype=np.float64)
        res.eval_score = report.metrics["roc_auc"]
        res.wall_s = time.perf_counter() - t_round

        save_checkpoint(st["tuned"], model, None, None, None, 0)
        res.counts.update(clamps=clamp_count(),
                          checkpoint_bytes=os.path.getsize(st["ckpt"]),
                          n_params=model.n_params())
        return res

    def checks(self, st: dict) -> dict[str, bool]:
        schema = expand_schema(st["raw_schema"])
        return {
            "backbone_checkpoint_roundtrip": _checkpoint_roundtrip(st["ckpt"], schema, False),
            "finetuned_checkpoint_roundtrip": _checkpoint_roundtrip(st["tuned"], schema, False),
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    PretrainWorkload(
        name="desk-pollution-pretrain",
        make_data=lambda seed: gen_pollution_like(
            PollutionConfig(n_entities=256, rows_per_entity=40, q_bins=100), seed),
        make_config=lambda n_types: ModelConfig.desk_preset(t_max=10),
        test_fraction=0.25, batch_size=64, steps=8, checkpoint_every=None),
    PretrainWorkload(
        name="full-multitype-pretrain",
        make_data=lambda seed: gen_multitype_transactions(
            MultitypeConfig(n_entities=96, mean_len=60), seed),
        make_config=lambda n_types: ModelConfig.full_preset(t_max=30, n_row_types=n_types),
        test_fraction=1 / 3, batch_size=16, steps=6, checkpoint_every=3),
    FinetuneWorkload(
        name="churn-finetune-predict",
        data=MultitypeConfig(n_entities=700, mean_len=60, churn_rate=0.3),
        test_fraction=0.5, t_max=30, batch_size=16, steps=20),
)}
