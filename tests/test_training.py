import hashlib
import json
import math
import os
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unittab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from unittab.data import PollutionConfig, gen_pollution_like
from unittab.embedding import clamp_count, prepare_series, reset_clamp_count
from unittab.metrics import UndefinedMetricError
from unittab.model import (
    LengthError, Model, ModelConfig, smoothed_bin_targets, smoothed_class_targets,
)
from unittab import tensor, training
from unittab.schema import Cat, Num, Row, Time, TimeSeries
from unittab.tensor import NumericError, Tensor, softmax
from unittab.training import (
    AdamW, ConfigError, LabelError, TrainConfig, _train_loop, apply_masking, evaluate,
    finetune, masked_token_loss, predict, pretrain, pretrain_loss, regression_loss,
)
from conftest import make_tiny_schema, make_tiny_series


def entropy(p):
    p = np.asarray(p)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


# -- smoothing


def smooth_categorical(v: int, q_j: int, eps: float) -> np.ndarray:
    """One-target reference for `smoothed_class_targets`: 1 - eps at the
    true class, eps spread evenly over the others."""
    if not 0 <= v < q_j:
        raise ValueError(f"class {v} out of range for vocabulary size {q_j}")
    if q_j == 1:
        return np.ones(1)
    p = np.full(q_j, eps / (q_j - 1))
    p[v] = 1.0 - eps
    return p


def smooth_neighborhood(b: int, q: int, eps: float, radius: int) -> np.ndarray:
    """One-target reference for `smoothed_bin_targets`: 1 - eps at bin b,
    eps shared by the in-range bins within `radius` of b, zero elsewhere.
    Boundary bins renormalize eps over the surviving neighbors so the
    target stays a distribution; with no neighbors (radius 0 or q == 1)
    all mass goes to b."""
    if not 0 <= b < q:
        raise ValueError(f"bin {b} out of range for {q} bins")
    if q == 1:
        return np.ones(1)
    lo, hi = max(0, b - radius), min(q - 1, b + radius)
    neighbors = [l for l in range(lo, hi + 1) if l != b]
    p = np.zeros(q)
    if not neighbors:
        p[b] = 1.0
        return p
    p[b] = 1.0 - eps
    p[neighbors] = eps / len(neighbors)
    return p


def class_row(v, q, eps):
    return smoothed_class_targets(np.array([v]), q, eps)[0]


def bin_row(b, q, eps, radius):
    return smoothed_bin_targets(np.array([b]), q, eps, radius)[0]


def test_smooth_categorical_example():
    assert np.allclose(class_row(2, 5, 0.1), [0.025, 0.025, 0.9, 0.025, 0.025])


def test_smooth_categorical_eps0_one_hot():
    assert class_row(1, 4, 0.0).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_smooth_categorical_degenerate_vocab():
    assert class_row(0, 1, 0.1).tolist() == [1.0]


def test_smooth_categorical_out_of_range():
    with pytest.raises(ValueError):
        class_row(5, 5, 0.1)


def test_smooth_neighborhood_interior():
    p = bin_row(50, 100, 0.1, 5)
    assert p[50] == 0.9
    for l in range(45, 56):
        if l != 50:
            assert abs(p[l] - 0.01) < 1e-15
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.count_nonzero(p) == 11


def test_smooth_neighborhood_boundary_renormalizes():
    p = bin_row(2, 100, 0.1, 5)
    neighbors = [0, 1, 3, 4, 5, 6, 7]
    for l in neighbors:
        assert abs(p[l] - 0.1 / 7) < 1e-15
    assert p[2] == 0.9
    assert abs(p.sum() - 1.0) < 1e-12


def test_smooth_neighborhood_eps0():
    p = bin_row(3, 10, 0.0, 5)
    assert p[3] == 1.0 and p.sum() == 1.0


def test_smooth_neighborhood_radius0_all_mass_at_bin():
    p = bin_row(3, 10, 0.1, 0)
    assert p[3] == 1.0 and p.sum() == 1.0


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 120), eps=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       radius=st.one_of(st.just(0), st.integers(0, 130)),
       raw=st.lists(st.integers(0, 2**31), max_size=16))
@example(q=1, eps=0.1, radius=5, raw=[0])
@example(q=9, eps=0.0, radius=0, raw=[4])
@example(q=100, eps=0.1, radius=5, raw=[2, 97, 50])
def test_batch_smoothing_matches_scalar_reference_bitwise(q, eps, radius, raw):
    labels = [r % q for r in raw] + [0, q - 1]  # boundary bins always present
    arr = np.asarray(labels, dtype=np.int64)
    want_cat = np.stack([smooth_categorical(v, q, eps) for v in labels])
    want_bin = np.stack([smooth_neighborhood(v, q, eps, radius) for v in labels])
    got_cat = smoothed_class_targets(arr, q, eps)
    got_bin = smoothed_bin_targets(arr, q, eps, radius)
    assert got_cat.shape == want_cat.shape and got_cat.tobytes() == want_cat.tobytes()
    assert got_bin.shape == want_bin.shape and got_bin.tobytes() == want_bin.tobytes()


def test_batch_smoothing_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        smoothed_class_targets(np.array([0, 5]), 5, 0.1)
    with pytest.raises(ValueError):
        smoothed_bin_targets(np.array([-1]), 10, 0.1, 2)


# -- masking


def encoded_fixture(n_rows=6):
    schema = make_tiny_schema()
    expanded, encoded = prepare_series([make_tiny_series(n_rows=n_rows)], schema)
    return expanded, encoded[0]


def test_apply_masking_all_fields():
    expanded, enc = encoded_fixture()
    cfg = TrainConfig(p_f=1.0, p_r=0.0)
    out = apply_masking(enc, expanded, cfg, np.random.default_rng(0))
    assert all(m.all() for m in out.mask)


def test_apply_masking_none():
    expanded, enc = encoded_fixture()
    cfg = TrainConfig(p_f=0.0, p_r=0.0)
    out = apply_masking(enc, expanded, cfg, np.random.default_rng(0))
    assert not any(m.any() for m in out.mask)
    assert out.targets.shape == (0, 2)


def test_apply_masking_timestamp_atomicity():
    expanded, enc = encoded_fixture()
    cfg = TrainConfig(p_f=0.5, p_r=0.1)
    rng = np.random.default_rng(1)
    ts_slots = [s for s, name in enumerate(expanded.row_types[0].attributes)
                if expanded.attributes[name].group == "timestamp"]
    for _ in range(200):
        out = apply_masking(enc, expanded, cfg, rng)
        for m in out.mask:
            flags = m[ts_slots]
            assert flags.all() or not flags.any()


def test_apply_masking_rate():
    expanded, enc = encoded_fixture(n_rows=6)
    cfg = TrainConfig(p_f=0.15, p_r=0.1)
    rng = np.random.default_rng(2)
    non_ts = [s for s, name in enumerate(expanded.row_types[0].attributes)
              if expanded.attributes[name].group is None]
    hits = total = 0
    for _ in range(2500):
        out = apply_masking(enc, expanded, cfg, rng)
        for m in out.mask:
            hits += int(m[non_ts].sum())
            total += len(non_ts)
    rate = hits / total
    assert abs(rate - 0.235) < 0.01


def test_apply_masking_targets_are_distributions():
    expanded, enc = encoded_fixture()
    cfg = TrainConfig(p_f=0.7, p_r=0.2)
    out = apply_masking(enc, expanded, cfg, np.random.default_rng(3))
    assert len(out.targets)
    # the batch forward turns target positions into smoothed distributions
    config = ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                         freq_count=2, t_max=6, dropout=0.0)
    groups = Model(config, expanded, seed=0).pretrain_forward([out], training=False).cat_groups
    assert sum(len(d) for _, _, d in groups) == len(out.targets)
    for attr, _, dists in groups:
        assert np.all(np.abs(dists.sum(axis=1) - 1.0) < 1e-9)
        if expanded.attributes[attr].kind == "numerical":
            assert np.all(np.count_nonzero(dists, axis=1) <= 2 * cfg.neighborhood_radius + 1)
    # regression mode: scalar targets in [0, 1] for every numerical target
    scalar = Model(ModelConfig(**{**config.to_dict(), "numeric_target": "scalar"}), expanded, seed=0)
    reg = scalar.pretrain_forward([out], training=False).reg_groups
    assert reg and all(np.all((0.0 <= s) & (s <= 1.0)) for _, _, s in reg)


def test_apply_masking_does_not_mutate_source():
    expanded, enc = encoded_fixture()
    before = [r.cat_ids.copy() for r in enc.rows]
    cfg = TrainConfig(p_f=1.0, p_r=0.0)
    apply_masking(enc, expanded, cfg, np.random.default_rng(5))
    for r, b in zip(enc.rows, before):
        assert np.array_equal(r.cat_ids, b)


# -- losses


def test_masked_token_loss_uniform():
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    dists = np.array([[0.25, 0.25, 0.25, 0.25]])
    loss = masked_token_loss([("x", logits, dists)])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_masked_token_loss_achievable_distribution_gives_entropy():
    target = smooth_categorical(2, 5, 0.1)
    logits = Tensor(np.log(target)[None, :], requires_grad=True)
    loss = masked_token_loss([("x", logits, target[None, :])])
    assert abs(loss.item() - entropy(target)) < 1e-12
    assert abs(entropy(target) - 0.4637124) < 1e-6


def test_masked_token_loss_empty():
    assert masked_token_loss([]).item() == 0.0


def test_masked_token_loss_mixes_groups_by_count():
    l1 = Tensor(np.zeros((3, 4)))
    l2 = Tensor(np.zeros((1, 2)))
    d1 = np.full((3, 4), 0.25)
    d2 = np.full((1, 2), 0.5)
    loss = masked_token_loss([("a", l1, d1), ("b", l2, d2)])
    expected = (3 * math.log(4) + 1 * math.log(2)) / 4
    assert abs(loss.item() - expected) < 1e-12


def test_regression_loss_exact_predictions():
    preds = Tensor(np.array([0.2, 0.8]))
    ce = Tensor(0.3)
    loss = regression_loss(preds, np.array([0.2, 0.8]), ce, 50.0)
    assert abs(loss.item() - 0.3) < 1e-15


def test_regression_loss_constant_offset():
    preds = Tensor(np.array([0.3, 0.5, 0.9]))
    targets = np.array([0.2, 0.4, 0.8])
    loss = regression_loss(preds, targets, Tensor(0.0), 50.0)
    assert abs(loss.item() - 0.5) < 1e-12


def test_regression_loss_mixed_recomputation():
    rng = np.random.default_rng(6)
    preds = rng.random(7)
    targets = rng.random(7)
    ce_val = 1.234
    loss = regression_loss(Tensor(preds), targets, Tensor(ce_val), 50.0)
    manual = ce_val + 50.0 * np.mean((preds - targets) ** 2)
    assert abs(loss.item() - manual) < 1e-12


# -- optimizer


def test_adamw_pure_decay():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW({"w": p}, lr=1e-3, betas=(0.9, 0.999), weight_decay=1e-2, no_decay=set())
    opt.step()
    assert abs(p.data[0] - 0.99999) < 1e-12


def test_adamw_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    opt = AdamW({"w": p}, lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0, no_decay=set())
    opt.step()
    # one-step hand simulation: m-hat/sqrt(v-hat) = sign(g) up to eps
    assert np.allclose(p.data, [1.0 - 1e-3, -2.0 + 1e-3], atol=1e-8)


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2, betas=(0.9, 0.999), weight_decay=0.01, no_decay=set())
        for _ in range(10):
            p.grad = rng.normal(size=(4, 3))
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_adamw_nonfinite_grad_aborts_before_mutation():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.1])
    q.grad = np.array([np.inf])
    opt = AdamW({"a": p, "b": q}, lr=1e-3, betas=(0.9, 0.999), weight_decay=0.01,
                no_decay=set())
    with pytest.raises(NumericError):
        opt.step()
    assert p.data[0] == 1.0 and q.data[0] == 2.0


def test_adamw_skips_gradless_params():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"w": p}, lr=1e-3, betas=(0.9, 0.999), weight_decay=1e-2, no_decay=set())
    opt.step()
    assert p.data[0] == 1.0


def test_adamw_excludes_no_decay_names():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW({"ln.gamma": p}, lr=1e-3, betas=(0.9, 0.999), weight_decay=1e-2,
                no_decay={"ln.gamma"})
    opt.step()
    assert p.data[0] == 1.0


# -- loops


def small_pretrain_setup(seed=0, n_series=4, **model_overrides):
    schema = make_tiny_schema()
    series = [make_tiny_series(f"e{i}", n_rows=5) for i in range(n_series)]
    expanded, encoded = prepare_series(series, schema)
    defaults = dict(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                    freq_count=2, t_max=6, n_row_types=1, dropout=0.0)
    defaults.update(model_overrides)
    model = Model(ModelConfig(**defaults), expanded, seed=seed)
    return model, encoded


def test_pretrain_no_masking_warns_and_stays_zero():
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.0, p_r=0.0, epochs=2, batch_size=2, seed=0)
    with pytest.warns(UserWarning):
        result = pretrain(encoded, model, cfg)
    assert all(l == 0.0 for l in result.losses)


def test_pretrain_loss_curve_deterministic():
    def run():
        model, encoded = small_pretrain_setup()
        cfg = TrainConfig(p_f=0.3, p_r=0.1, lr=1e-3, epochs=3, batch_size=2, seed=5)
        return pretrain(encoded, model, cfg).losses

    assert run() == run()


def test_pretrain_decreases_loss_on_tiny_data():
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.3, p_r=0.1, lr=3e-3, epochs=30, batch_size=4, seed=1)
    result = pretrain(encoded, model, cfg)
    first = np.mean(result.losses[:5])
    last = np.mean(result.losses[-5:])
    assert last < first


def test_pretrain_regression_mode_runs():
    model, encoded = small_pretrain_setup(numeric_target="scalar")
    cfg = TrainConfig(p_f=0.5, lr=1e-3, epochs=2, batch_size=2, seed=2)
    result = pretrain(encoded, model, cfg)
    assert all(np.isfinite(l) for l in result.losses)


def test_pretrain_metrics_file_holds_only_the_last_run(tmp_path):
    log = tmp_path / "metrics.ndjson"
    model, encoded = small_pretrain_setup()
    pretrain(encoded, model, TrainConfig(p_f=0.3, epochs=3, batch_size=2, seed=0),
             metrics_path=log)
    model, encoded = small_pretrain_setup()
    second = pretrain(encoded, model, TrainConfig(p_f=0.3, epochs=1, batch_size=2, seed=1),
                      metrics_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(second.steps))
    assert [r["value"] for r in records] == second.losses


@pytest.mark.parametrize("setting, message", [
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"max_steps": -1}, "max_steps must be >= 0"),
    ({"checkpoint_every": 0}, "checkpoint_every must be >= 1"),
])
def test_bad_loop_setting_fails_before_any_work(setting, message, tmp_path):
    cfg = TrainConfig(**{"p_f": 0.3, "epochs": 1, "batch_size": 2, **setting})
    log, ckpt = tmp_path / "metrics.ndjson", tmp_path / "m.ckpt"
    model, encoded = small_pretrain_setup()
    with pytest.raises(ConfigError, match=message):
        pretrain(encoded, model, cfg, metrics_path=log, checkpoint_path=ckpt)
    assert not log.exists() and not ckpt.exists()
    expanded, labeled = labeled_encoded()
    model = tiny_finetune_model(expanded)
    names = set(model.params)
    with pytest.raises(ConfigError, match=message):
        finetune(labeled[:6], labeled[6:], model, "binary", cfg, metrics_path=log)
    assert not log.exists() and set(model.params) == names  # no task head was added


def test_pretrain_max_steps_zero_takes_no_step():
    model, encoded = small_pretrain_setup()
    before = {k: p.data.copy() for k, p in model.params.items()}
    result = pretrain(encoded, model, TrainConfig(p_f=0.3, lr=1e-3, batch_size=2, max_steps=0))
    assert result.losses == [] and result.steps == 0 and result.optimizer.t == 0
    assert all(np.array_equal(model.params[k].data, v) for k, v in before.items())


def test_train_loop_frees_each_step_graph_before_the_next():
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.5, lr=1e-3, epochs=2, batch_size=2, seed=0)
    rng = np.random.default_rng(0)
    refs, alive_at_start = [], []

    def step(chunk):
        alive_at_start.append(sum(r() is not None for r in refs))
        batch = [apply_masking(encoded[i], model.schema, cfg, rng) for i in chunk]
        loss = pretrain_loss(model.pretrain_forward(batch, rng, training=True), cfg)
        refs.append(weakref.ref(loss))
        return loss

    opt = AdamW(model.params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay,
                no_decay=model.no_decay)
    losses = _train_loop(step, len(encoded), model, opt, cfg, rng, "pretrain")
    assert len(losses) == 4 and all(x > 0.0 for x in losses)
    assert alive_at_start == [0, 0, 0, 0]


def labeled_encoded(n=8, seed=0):
    schema = make_tiny_schema()
    rng = np.random.default_rng(seed)
    series = []
    for i in range(n):
        s = make_tiny_series(f"e{i}", n_rows=4)
        series.append(s)
    expanded, encoded = prepare_series(series, schema)
    for i, s in enumerate(encoded):
        s.label = i % 2
    return expanded, encoded


def test_finetune_requires_labels():
    model, encoded = small_pretrain_setup()
    for s in encoded:
        s.label = None
    with pytest.raises(LabelError):
        finetune(encoded, encoded, model, "binary", TrainConfig(epochs=1))


def test_finetune_binary_smoke():
    expanded, encoded = labeled_encoded()
    model = Model(ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1,
                              seq_heads=2, freq_count=2, t_max=6, dropout=0.0),
                  expanded, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, seed=3)
    result = finetune(encoded[:6], encoded[6:], model, "binary", cfg)
    assert set(result.report.metrics) == {"f1", "average_precision", "roc_auc", "accuracy"}
    assert result.report.confusion is not None


def tiny_finetune_model(expanded):
    return Model(ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1,
                             seq_heads=2, freq_count=2, t_max=6, dropout=0.0),
                 expanded, seed=0)


def assert_finetune_fails_early(model, train, test, task, error, message, tmp_path):
    """finetune raises `error` before it adds a task head or takes a step."""
    before = {k: p.data.copy() for k, p in model.params.items()}
    log = tmp_path / "metrics.ndjson"
    with pytest.raises(error, match=message):
        finetune(train, test, model, task, TrainConfig(epochs=2, batch_size=4),
                 metrics_path=log)
    assert not log.exists()  # no step ran, so nothing was logged
    assert model.params.keys() == before.keys()  # no task head was added
    assert all(np.array_equal(model.params[k].data, v) for k, v in before.items())


@pytest.mark.parametrize("test_labels", [[], [1, 1, 1], [0, 0]])
def test_finetune_binary_bad_test_split_fails_before_training(test_labels, tmp_path):
    expanded, encoded = labeled_encoded()
    test = encoded[6:6 + len(test_labels)]
    for s, y in zip(test, test_labels):
        s.label = y
    assert_finetune_fails_early(tiny_finetune_model(expanded), encoded[:6], test, "binary",
                                UndefinedMetricError, "both classes", tmp_path)


@pytest.mark.parametrize("label", [0, 1])
def test_finetune_binary_one_class_training_split_fails_before_training(label, tmp_path):
    expanded, encoded = labeled_encoded()
    train, test = encoded[:6], encoded[6:]
    for s in train:
        s.label = label
    model = tiny_finetune_model(expanded)
    assert_finetune_fails_early(model, train, test, "binary", LabelError,
                                "both classes in the training split", tmp_path)
    assert not any(k.startswith("finetune.") for k in model.params)


@pytest.mark.parametrize("task, n_train, n_test, error, message", [
    ("binary", 0, 2, LabelError, "nonempty training split"),
    ("regression", 0, 2, LabelError, "nonempty training split"),
    ("regression", 6, 0, UndefinedMetricError, "nonempty test split"),
])
def test_finetune_empty_split_fails_before_training(task, n_train, n_test, error, message,
                                                     tmp_path):
    expanded, encoded = labeled_encoded()
    assert_finetune_fails_early(tiny_finetune_model(expanded), encoded[:n_train],
                                encoded[6:6 + n_test], task, error, message, tmp_path)


@pytest.mark.parametrize("split, label", [("training", 2), ("training", 0.5), ("test", 2)])
def test_finetune_binary_label_outside_0_1_fails_before_training(split, label, tmp_path):
    expanded, encoded = labeled_encoded()
    train, test = encoded[:6], encoded[6:]
    (train if split == "training" else test)[0].label = label
    assert_finetune_fails_early(tiny_finetune_model(expanded), train, test, "binary",
                                LabelError, f"labels 0 or 1; the {split} split", tmp_path)


def test_evaluate_binary_label_outside_0_1_fails_before_predicting():
    expanded, encoded = labeled_encoded()
    model = tiny_finetune_model(expanded)
    model.ensure_task_head("binary")
    samples = encoded[:6]
    for s, y in zip(samples, [0, 1, 2, 0, 1, 0]):
        s.label = y
    calls = []
    model.finetune_forward = lambda *args, **kwargs: calls.append(args)
    with pytest.raises(LabelError, match="labels 0 or 1; the test split has 1 other"):
        evaluate(model, samples, "binary")
    assert calls == []  # rejected before any forward pass


@pytest.mark.parametrize("task, message", [("binary", "both classes"),
                                           ("regression", "nonempty test split")])
def test_evaluate_empty_split_fails_before_predicting(task, message):
    expanded, _ = labeled_encoded()
    model = tiny_finetune_model(expanded)
    model.ensure_task_head(task)
    calls = []
    model.finetune_forward = lambda *args, **kwargs: calls.append(args)
    with pytest.raises(UndefinedMetricError, match=message):
        evaluate(model, [], task)
    assert calls == []


@pytest.mark.parametrize("split", ["training", "test"])
def test_finetune_over_long_sample_fails_before_training(split, tmp_path):
    expanded, encoded = labeled_encoded()
    train, test = encoded[:6], encoded[6:]
    sample = (train if split == "training" else test)[1]
    sample.rows = sample.rows * 2  # 8 rows; the model's t_max is 6
    assert_finetune_fails_early(tiny_finetune_model(expanded), train, test, "binary",
                                LengthError, f"{split} sample 1 has 8 rows", tmp_path)


def test_predict_records_no_tape_and_restores_requires_grad():
    expanded, encoded = labeled_encoded()
    model = tiny_finetune_model(expanded)
    model.ensure_task_head("binary")
    model.params["seq.pos.table"].requires_grad = False
    flags = {k: p.requires_grad for k, p in model.params.items()}
    seen, forward = [], model.finetune_forward

    def recorded(*args, **kwargs):
        alive = sum(ref() is not None for ref, _ in seen)  # earlier batches' outputs
        out = forward(*args, **kwargs)
        seen.append((weakref.ref(out), (alive, out._backward_fn, out._parents, out.requires_grad)))
        return out

    model.finetune_forward = recorded
    scores = predict(model, encoded, "binary", batch_size=3)
    assert scores.shape == (8,)
    assert [state for _, state in seen] == [(0, None, (), False)] * 3
    assert {k: p.requires_grad for k, p in model.params.items()} == flags
    # the scores equal forward passes that record the tape, batch for batch
    with_tape = [forward(encoded[lo:lo + 3], rng=None, training=False)
                 for lo in (0, 3, 6)]
    assert all(out._backward_fn is not None for out in with_tape)
    assert scores.tolist() == [p for out in with_tape
                               for p in softmax(out, axis=-1).data[:, 1].tolist()]


def test_frozen_forward_has_no_backward():
    expanded, encoded = labeled_encoded()
    model = tiny_finetune_model(expanded)
    model.ensure_task_head("binary")
    with model.frozen():
        out = model.finetune_forward(encoded, rng=np.random.default_rng(0), training=True)
        assert not any(p.requires_grad for p in model.params.values())
    assert out._backward_fn is None and out._parents == ()
    assert all(p.requires_grad for p in model.params.values())


def mixed_length_samples(task, n, out_of_range=False):
    """`n` labelled tiny samples of 1 to 6 rows (the tiny model's t_max is
    6); with `out_of_range`, every amount lies above the schema's [0, 3]."""
    series = [TimeSeries(f"e{i}", [Row(1, [Time(2021, 1, r + 1), Cat((i + r) % 3),
                                           Num((4.0 if out_of_range else 0.5) + 0.4 * r)])
                                   for r in range(1 + i % 6)])
              for i in range(n)]
    expanded, encoded = prepare_series(series, make_tiny_schema())
    for i, s in enumerate(encoded):
        s.label = i % 2 if task == "binary" else 0.25 * i
    model = tiny_finetune_model(expanded)
    model.ensure_task_head(task)
    return model, encoded


def sequential_predict(model, samples, task, batch_size):
    """The one-lane reference: finetune_forward over the same slices, in
    order, under one frozen block."""
    scores = []
    with model.frozen():
        for lo in range(0, len(samples), batch_size):
            out = model.finetune_forward(samples[lo:lo + batch_size], rng=None, training=False)
            scores.append(out.data if task == "regression"
                          else softmax(out, axis=-1).data[:, 1])
    return np.concatenate(scores)


def cpus(monkeypatch, n):
    """Let predict see `n` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def lanes_used(model):
    """Record the thread each finetune_forward runs on, and how many run at
    once (`active` must be back to 0 once predict returns or raises)."""
    seen = {"threads": [], "active": 0}
    forward = model.finetune_forward

    def spied(batch, *args, **kwargs):
        seen["threads"].append(threading.current_thread())
        seen["active"] += 1
        try:
            return forward(batch, *args, **kwargs)
        finally:
            seen["active"] -= 1

    model.finetune_forward = spied
    return seen


@pytest.mark.parametrize("task", ["binary", "regression"])
@pytest.mark.parametrize("batch_size", [1, 3, 7, 64])
def test_two_lane_predict_matches_sequential_reference_bitwise(task, batch_size, monkeypatch):
    # 141 samples: odd batch counts at every size (141, 47, 21, 3) and a
    # short last batch at 7 and 64
    model, samples = mixed_length_samples(task, 141)
    reference = sequential_predict(model, samples, task, batch_size)
    cpus(monkeypatch, 2)
    seen = lanes_used(model)
    scores = predict(model, samples, task, batch_size)
    assert scores.dtype == np.float64 and scores.shape == (141,)
    assert np.array_equal(scores, reference)
    n_batches = -(-141 // batch_size)
    on_worker = [t for t in seen["threads"] if t is not threading.current_thread()]
    assert len(on_worker) == n_batches // 2  # every second batch ran on the worker lane
    assert seen["active"] == 0


@pytest.mark.parametrize("n_cpus, n_samples, batch_size", [(1, 141, 7), (2, 20, 64)],
                         ids=["one_cpu", "one_batch"])
def test_predict_without_a_second_lane_submits_nothing(n_cpus, n_samples, batch_size,
                                                        monkeypatch):
    """On one CPU nothing at all goes to the lane, fused ops included. A
    lone batch runs on the calling thread; its fused ops may split."""
    model, samples = mixed_length_samples("binary", n_samples)
    reference = sequential_predict(model, samples, "binary", batch_size)
    if n_cpus == 1:
        monkeypatch.setattr(tensor._LANE, "submit", lambda *args: pytest.fail("submitted"))
    cpus(monkeypatch, n_cpus)
    seen = lanes_used(model)
    scores = predict(model, samples, "binary", batch_size)
    assert np.array_equal(scores, reference)
    assert all(t is threading.current_thread() for t in seen["threads"])


def test_predict_restores_requires_grad_when_the_forward_raises(monkeypatch):
    model, samples = mixed_length_samples("binary", 12)
    samples[5].rows = samples[5].rows * 3  # over t_max, in batch 1: the worker lane's
    model.params["seq.pos.table"].requires_grad = False
    flags = {k: p.requires_grad for k, p in model.params.items()}
    cpus(monkeypatch, 1)
    with pytest.raises(LengthError) as one_lane:
        predict(model, samples, "binary", batch_size=4)
    cpus(monkeypatch, 2)
    seen = lanes_used(model)
    with pytest.raises(LengthError) as two_lanes:
        predict(model, samples, "binary", batch_size=4)
    assert str(two_lanes.value) == str(one_lane.value)
    assert seen["threads"][1] is not threading.current_thread()
    assert seen["active"] == 0
    assert {k: p.requires_grad for k, p in model.params.items()} == flags


def test_two_lane_predict_waits_for_the_worker_and_raises_the_earliest_error(monkeypatch):
    model, samples = mixed_length_samples("binary", 12)
    samples[1].rows = samples[1].rows * 4  # batch 0, on the calling thread
    samples[9].rows = samples[9].rows * 3  # batch 2, never started
    cpus(monkeypatch, 2)
    seen = lanes_used(model)
    forward, finished = model.finetune_forward, []

    def slow_on_worker(batch, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.3)  # batch 1 is still running when batch 0 fails
        out = forward(batch, *args, **kwargs)
        finished.append(len(batch))
        return out

    model.finetune_forward = slow_on_worker
    with pytest.raises(LengthError, match=f"sequence length {len(samples[1].rows)} exceeds"):
        predict(model, samples, "binary", batch_size=4)
    assert finished == [4]  # the worker's batch ended before predict raised
    assert seen["active"] == 0 and len(seen["threads"]) == 2
    assert all(p.requires_grad for p in model.params.values())


@pytest.mark.filterwarnings("ignore:.*clamped before frequency encoding")
def test_two_lane_predict_counts_every_clamp(monkeypatch):
    model, samples = mixed_length_samples("binary", 141, out_of_range=True)
    cpus(monkeypatch, 1)
    reset_clamp_count()
    one_lane = predict(model, samples, "binary", 3)
    clamps = clamp_count()
    assert clamps == sum(len(s.rows) for s in samples)  # every amount is out of range
    cpus(monkeypatch, 2)
    reset_clamp_count()
    two_lanes = predict(model, samples, "binary", 3)
    assert clamp_count() == clamps
    assert np.array_equal(two_lanes, one_lane)
    reset_clamp_count()


# -- checkpointing


def test_checkpoint_round_trip_bitwise(tmp_path):
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.3, lr=1e-3, epochs=2, batch_size=2, seed=4)
    result = pretrain(encoded, model, cfg)
    rng = np.random.default_rng(0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, result.optimizer, cfg, rng, result.steps)
    state = load_checkpoint(path, model.schema)
    for name, p in model.params.items():
        assert np.array_equal(state.model.params[name].data, p.data)
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, state.model, state.optimizer, state.train_config,
                    state.rng, state.step)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_forward_identical_after_reload(tmp_path):
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(seed=0)
    batch_rng = np.random.default_rng(9)
    masked = [apply_masking(encoded[0], model.schema, TrainConfig(p_f=0.5, seed=0),
                            batch_rng)]
    before = model.pretrain_forward(masked, rng=None, training=False)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, None, cfg, None, 0)
    state = load_checkpoint(path, model.schema)
    after = state.model.pretrain_forward(masked, rng=None, training=False)
    for (_, la, _), (_, lb, _) in zip(before.cat_groups, after.cat_groups):
        assert np.array_equal(la.data, lb.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    model, _ = small_pretrain_setup()
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, model.schema)


def test_checkpoint_truncated(tmp_path):
    model, _ = small_pretrain_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, None, TrainConfig(), None, 0)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path, model.schema)


def test_checkpoint_schema_hash_mismatch(tmp_path):
    model, _ = small_pretrain_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, None, TrainConfig(), None, 0)
    other_schema, _ = prepare_series([make_tiny_series(n_rows=9)],
                                     make_tiny_schema())
    other_schema.attributes["amount"].bin_edges = [0.0, 0.5, 3.0]
    with pytest.raises(CheckpointError, match="schema hash"):
        load_checkpoint(path, other_schema)


def test_pretrain_abort_preserves_last_checkpoint(tmp_path):
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.3, lr=1e-3, batch_size=2, epochs=50, seed=6,
                      checkpoint_every=2)
    path = tmp_path / "m.ckpt"
    original_forward = model.pretrain_forward
    calls = {"n": 0}

    def failing_forward(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 5:
            raise RuntimeError("injected failure")
        return original_forward(*args, **kwargs)

    model.pretrain_forward = failing_forward
    with pytest.raises(RuntimeError):
        pretrain(encoded, model, cfg, checkpoint_path=path)
    state = load_checkpoint(path, model.schema)
    assert state.step == 4  # last periodic checkpoint before the failure


# sha256 of the whole file, recorded when pretrain still wrote the last step
# a second time after the loop, re-recorded once under the OpenBLAS kernel
# conftest.py pins, once more when the train config lost `mask_variant`
# and `timestamp_joint`, and once more when `ff_multiplier` and
# `regression_weight` left the model and train configs (each time the
# earlier files with those manifest keys popped; the tensor payloads kept
# their bytes)
PRETRAIN_CHECKPOINT_SHA256 = {
    4: "f1b8a08203440868e70b6f3dbfc9405fad1cacd1110646f88fe067942ed3a23c",
    5: "af3aa66dc19de075950c3f05228a5861c3edec3429ee6bd75fb56cfb4f364464",
}


@pytest.mark.parametrize("max_steps, saved_steps", [
    (4, [2, 4]), (5, [2, 4, 5]), (None, list(range(2, 101, 2))), (0, [0]),
])
def test_pretrain_writes_each_checkpoint_step_once(max_steps, saved_steps, tmp_path,
                                                   monkeypatch):
    model, encoded = small_pretrain_setup()
    cfg = TrainConfig(p_f=0.3, lr=1e-3, batch_size=2, epochs=50, seed=6, checkpoint_every=2,
                      max_steps=max_steps)
    steps = []

    def spy(path, model, optimizer, train_cfg, rng, step):
        steps.append(step)
        save_checkpoint(path, model, optimizer, train_cfg, rng, step)

    monkeypatch.setattr(training, "save_checkpoint", spy)
    path = tmp_path / "m.ckpt"
    pretrain(encoded, model, cfg, checkpoint_path=path)
    assert steps == saved_steps
    assert load_checkpoint(path, model.schema).step == saved_steps[-1]
    if max_steps in PRETRAIN_CHECKPOINT_SHA256:
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == PRETRAIN_CHECKPOINT_SHA256[max_steps])


@pytest.mark.parametrize("which, key, value", [
    ("model", "norm_placement", "post"),
    ("train", "optimizer", "adamw"),
    ("train", "loss_mode", "unified_ce"),
    ("train", "mask_variant", "pure"),
    ("train", "timestamp_joint", True),
    ("model", "ff_multiplier", 4),
    ("train", "regression_weight", 50.0),
])
def test_checkpoint_unknown_config_key_is_named(which, key, value, tmp_path, monkeypatch):
    model, _ = small_pretrain_setup()
    cfg = TrainConfig()
    config = model.config if which == "model" else cfg
    saved = {**config.to_dict(), key: value}
    monkeypatch.setattr(config, "to_dict", lambda: saved)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, None, cfg, None, 0)
    with pytest.raises(CheckpointError, match=rf"{which} config has unknown key\(s\) '{key}'"):
        load_checkpoint(path, model.schema)
