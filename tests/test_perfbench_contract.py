"""The benchmark under perfbench/ drives the library through its public
names and times embedding by swapping the `embed_slot_batch` reference that
`unittab.model` calls. Its traced rounds run `traced_pretrain` and
`traced_finetune`, mirrors of the library's training loops that must give
the same bits. These tests fail when a library change breaks the
benchmark's imports, its workload list, that embedding hook, or the
mirrors' agreement with `pretrain` and `finetune`."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from unittab.data import MultitypeConfig, gen_multitype_transactions, last_crop, split_by_entity
from unittab.embedding import prepare_series
from unittab.model import Model, ModelConfig
from unittab.training import TrainConfig, finetune, pretrain
from unittab.verify import toy_setup

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    return tracing


def test_perfbench_workloads_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_perfbench_spans_one_pretrain_forward(tracing):
    model, batch, _ = toy_setup(0)
    tr = tracing.Tracer()
    tracing.instrument(model, tr)
    with tracing.embedding_spans(tr):
        out = model.pretrain_forward(batch, rng=None, training=False)
    assert out.n_masked > 0
    names = {span["name"] for span in tr.dump()}
    assert {"embedding.embed", "model.field", "model.project", "model.sequence"} <= names


def tiny_multitype():
    """Churn-labelled three-row-type series, 12 entities of ~20 rows, and a
    fresh config for a tiny model that crops them to t_max=8 (dropout on)."""
    ds = gen_multitype_transactions(
        MultitypeConfig(n_entities=12, mean_len=20, churn_rate=0.4, q_bins=8), 3)
    schema, encoded = prepare_series(ds.series, ds.schema)
    config = ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                         freq_count=2, t_max=8, n_row_types=schema.n_row_types)
    return schema, encoded, config


def traced_run(tracing, model, run):
    tr = tracing.Tracer()
    tracing.instrument(model, tr)
    with tracing.embedding_spans(tr):
        return run(tr)


@pytest.mark.parametrize("loop", [
    {"epochs": 3, "max_steps": 5},         # 3 steps an epoch: cut mid-epoch
    {"epochs": 2, "checkpoint_every": 2},
    {"epochs": 2},
])
def test_traced_pretrain_matches_pretrain_bitwise(loop, tracing, tmp_path):
    schema, encoded, config = tiny_multitype()
    cfg = TrainConfig(p_f=0.3, lr=1e-3, batch_size=4, seed=4, **loop)
    plain, traced = Model(config, schema, seed=4), Model(config, schema, seed=4)
    losses = pretrain(encoded, plain, cfg, checkpoint_path=tmp_path / "plain.ckpt").losses
    traced_losses = traced_run(tracing, traced, lambda tr: tracing.traced_pretrain(
        encoded, traced, cfg, tr, tmp_path / "traced.ckpt"))
    assert len(losses) == min(3 * cfg.epochs, cfg.max_steps or 3 * cfg.epochs)
    assert traced_losses == losses
    assert (tmp_path / "traced.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()


@pytest.mark.parametrize("loop", [{"epochs": 2}, {"epochs": 3, "max_steps": 4}])
def test_traced_finetune_matches_finetune(loop, tracing):
    schema, encoded, config = tiny_multitype()
    split = split_by_entity([last_crop(s, 8) for s in encoded], 0.5, 0)
    assert {s.label for s in split.test} == {0, 1}
    cfg = TrainConfig(lr=1e-3, batch_size=4, seed=5, **loop)
    # finetune sets config.task_head, so each model gets its own config
    plain, traced = (Model(replace(config), schema, seed=5) for _ in range(2))
    result = finetune(split.train, split.test, plain, "binary", cfg)
    losses, report = traced_run(tracing, traced, lambda tr: tracing.traced_finetune(
        split.train, split.test, traced, cfg, tr))
    assert result.losses and losses == result.losses
    assert report.to_json() == result.report.to_json()
