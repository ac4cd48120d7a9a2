"""Pinned fine-tuning curves and a pinned pretraining run log.

The values below are `float.hex` losses and metrics, and exact
`metrics.ndjson` lines, recorded from the separate `pretrain` and `finetune`
loops that preceded the shared training loop. The shared loop must draw from
the RNG in the same order (epoch permutation, then per batch: crops and
masks or the batch itself, then dropout), so every value must match bit for
bit. The models are small enough that every matmul stays single-threaded in
BLAS. Dropout stays on so its draws are part of the pinned order. The values
were re-recorded once under the OpenBLAS kernel `conftest.py` pins (Haswell);
only the kernel moved.
"""

import hashlib
import json

import pytest

from unittab.checkpoint import load_checkpoint
from unittab.data import (
    MultitypeConfig, PollutionConfig, gen_multitype_transactions, gen_pollution_like,
    last_crop, split_by_entity, window,
)
from unittab.embedding import prepare_series
from unittab.model import Model, ModelConfig
from unittab.training import TrainConfig, finetune, pretrain


def _small_model(schema, seed=2):
    config = ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                         freq_count=3, t_max=10, n_row_types=schema.n_row_types)
    return Model(config, schema, seed=seed)


def _binary_split():
    """Churn labels, 3 positives of 12 in training (upsampled to 9 of 18)."""
    ds = gen_multitype_transactions(
        MultitypeConfig(n_entities=16, mean_len=20, q_bins=16, churn_rate=0.3), 4)
    schema, encoded = prepare_series(ds.series, ds.schema)
    split = split_by_entity(encoded, 0.25, 4)
    return (schema, [last_crop(s, 10) for s in split.train],
            [last_crop(s, 10) for s in split.test])


def _regression_split():
    """Pollution windows of 6 rows labelled with the target at their last row."""
    ds = gen_pollution_like(PollutionConfig(n_entities=4, rows_per_entity=40, q_bins=16), 3)
    schema, encoded = prepare_series(ds.series, ds.schema)
    wins = []
    for s in encoded:
        for w in window(s, 6, 6):
            w.label = float(ds.row_targets[s.entity_id][w.start + 5])
            wins.append(w)
    return schema, wins[:18], wins[18:]


FINETUNE_SETUPS = {
    "binary_upsampled": ("binary", {}),
    "regression_max_steps": ("regression", {"max_steps": 7}),
}


def run_finetune(name, metrics_path):
    task, train_kw = FINETUNE_SETUPS[name]
    schema, train, test = _binary_split() if task == "binary" else _regression_split()
    model = _small_model(schema)
    cfg = TrainConfig(lr=3e-3, batch_size=4, epochs=2, seed=9, **train_kw)
    return finetune(train, test, model, task, cfg, metrics_path=metrics_path)


FINETUNE_GOLDEN = {
    "binary_upsampled": (
        ["0x1.944508b44fec0p-1", "0x1.4df2232337746p-1", "0x1.b668be27f9b0ap-1",
         "0x1.db58c5ceeacd2p-1", "0x1.e28e79ae96b94p-1", "0x1.5b47be9747cebp-1",
         "0x1.5c3b440da1baap-1", "0x1.efd67dd7b920ap-1", "0x1.5f6af0647f7e2p-1",
         "0x1.e399711255e93p-2"],
        {"accuracy": "0x1.9000000000000p+4", "average_precision": "0x1.0000000000000p-1",
         "f1": "0x1.999999999999ap-2", "roc_auc": "0x1.5555555555555p-1"},
        {"tp": 1, "fp": 3, "tn": 0, "fn": 0},
    ),
    "regression_max_steps": (
        ["0x1.911c173355b88p-1", "0x1.ce8e50817f91dp+1", "0x1.a6a703e0a1c7dp-1",
         "0x1.5dccbeb95c9ebp-1", "0x1.0c391db90e08ap+2", "0x1.4a8dcb0bf95d3p+0",
         "0x1.8f04bbaafa8fdp-1"],
        {"rmse": "0x1.faff29bb0de7fp+2"},
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(FINETUNE_SETUPS))
def test_finetune_curve_and_report_pinned(name, tmp_path):
    log = tmp_path / "metrics.ndjson"
    result = run_finetune(name, log)
    losses, metrics, confusion = FINETUNE_GOLDEN[name]
    assert [float.hex(x) for x in result.losses] == losses
    assert {k: float.hex(v) for k, v in result.report.metrics.items()} == metrics
    assert result.report.confusion == confusion
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records == [{"step": i, "split": "finetune", "metric": "loss", "value": x}
                       for i, x in enumerate(result.losses)]


PRETRAIN_SETUPS = {
    # 3 steps an epoch: the run stops after the second step of epoch 2
    "dense": dict(p_f=0.3, p_r=0.1, batch_size=4, epochs=3, max_steps=5),
    # one sample a step, so some steps mask nothing: they log 0.0 and skip AdamW
    "sparse": dict(p_f=0.005, p_r=0.0, batch_size=1, epochs=2, max_steps=15),
}


def run_pretrain(name, tmp_path):
    ds = gen_pollution_like(PollutionConfig(n_entities=12, rows_per_entity=24, q_bins=16), 3)
    schema, encoded = prepare_series(ds.series, ds.schema)
    model = _small_model(schema)
    cfg = TrainConfig(lr=1e-3, seed=7, checkpoint_every=2, **PRETRAIN_SETUPS[name])
    log, ckpt = tmp_path / "metrics.ndjson", tmp_path / "model.ckpt"
    return pretrain(encoded, model, cfg, metrics_path=log, checkpoint_path=ckpt), model, log, ckpt


PRETRAIN_GOLDEN = {
    "dense": (
        [
            '{"step": 0, "split": "pretrain", "metric": "loss", "value": 2.7236164965001066}',
            '{"step": 1, "split": "pretrain", "metric": "loss", "value": 2.72342206958153}',
            '{"step": 2, "split": "pretrain", "metric": "loss", "value": 2.7190022296158363}',
            '{"step": 3, "split": "pretrain", "metric": "loss", "value": 2.683852815208254}',
            '{"step": 4, "split": "pretrain", "metric": "loss", "value": 2.651346595828651}',
        ],
        5,
        "35d1e81c999061d7304d8993a4ef7f2966f6f0f5a69dffb90faa3ea4e9e87ef2",
    ),
    "sparse": (
        [
            '{"step": 0, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 1, "split": "pretrain", "metric": "loss", "value": 2.681779986529293}',
            '{"step": 2, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 3, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 4, "split": "pretrain", "metric": "loss", "value": 2.702578832123419}',
            '{"step": 5, "split": "pretrain", "metric": "loss", "value": 2.5825249100949694}',
            '{"step": 6, "split": "pretrain", "metric": "loss", "value": 2.653806138602961}',
            '{"step": 7, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 8, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 9, "split": "pretrain", "metric": "loss", "value": 2.8258181371920794}',
            '{"step": 10, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 11, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 12, "split": "pretrain", "metric": "loss", "value": 2.8119132652434673}',
            '{"step": 13, "split": "pretrain", "metric": "loss", "value": 0.0}',
            '{"step": 14, "split": "pretrain", "metric": "loss", "value": 2.718551098742689}',
        ],
        7,
        "083eb3dac8ad422b6eaefaad70d55faf1fe1ce07948cf4cd4e3fcb0094fe1071",
    ),
}


@pytest.mark.parametrize("name", sorted(PRETRAIN_SETUPS))
def test_pretrain_log_steps_and_checkpoint_pinned(name, tmp_path):
    result, model, log, ckpt = run_pretrain(name, tmp_path)
    lines, n_updates, payload_sha256 = PRETRAIN_GOLDEN[name]
    assert result.steps == PRETRAIN_SETUPS[name]["max_steps"]
    assert log.read_text().splitlines() == lines
    state = load_checkpoint(ckpt, model.schema)
    assert state.step == result.steps and state.optimizer.t == n_updates
    blob = ckpt.read_bytes()
    payload = blob[20 + int.from_bytes(blob[12:20], "little"):]
    assert hashlib.sha256(payload).hexdigest() == payload_sha256
