import numpy as np
import pytest

from unittab.embedding import prepare_series
from unittab.model import LengthError, Model, ModelConfig, expected_param_count
from unittab.schema import (
    AttributeSpec, RowTypeSpec, Schema, default_special_tokens, NUMERICAL,
)
from unittab.tensor import Tensor, grad_check, sum_
from unittab.training import TrainConfig, apply_masking, pretrain_loss
from unittab.verify import toy_setup
from conftest import make_tiny_schema, make_tiny_series


def tiny_model(seed=0, **overrides):
    schema = make_tiny_schema()
    expanded, encoded = prepare_series([make_tiny_series()], schema)
    defaults = dict(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                    freq_count=2, t_max=6, n_row_types=1, dropout=0.0)
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    return Model(config, expanded, seed=seed), encoded


def numeric_pair_model(d=1, m=1):
    # two numerical fields, no timestamp: the smallest useful geometry
    attrs = {
        "a": AttributeSpec("a", NUMERICAL, bin_edges=[0.0, 0.5, 1.0], value_range=(0.0, 1.0)),
        "b": AttributeSpec("b", NUMERICAL, bin_edges=[0.0, 0.5, 1.0], value_range=(0.0, 1.0)),
    }
    schema = Schema(attrs, [RowTypeSpec(1, ["a", "b"])], default_special_tokens(attrs))
    config = ModelConfig(d=d, m=m, field_layers=1, field_heads=1, seq_layers=1, seq_heads=1,
                         freq_count=1, t_max=4, n_row_types=1, dropout=0.0)
    return Model(config, schema, seed=0)


def test_field_forward_permutation_equivariant():
    model, _ = tiny_model()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, model.config.d))
    perm = rng.permutation(5)
    out = model.field_forward(Tensor(x[None]))[0].data
    out_perm = model.field_forward(Tensor(x[None, perm]))[0].data
    assert np.max(np.abs(out_perm - out[perm])) <= 1e-12


def test_field_forward_single_field():
    model, _ = tiny_model()
    x = np.random.default_rng(1).normal(size=(1, model.config.d))
    out = model.field_forward(Tensor(x[None]))[0]
    assert out.shape == (1, model.config.d)
    assert np.all(np.isfinite(out.data))


def test_field_forward_gradcheck():
    model, _ = tiny_model()
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, model.config.d))
    x = Tensor(rng.normal(size=(1, 3, model.config.d)), requires_grad=True)
    err = grad_check(lambda t: sum_(model.field_forward(t) * w), x)
    assert err < 1e-5


def test_project_row_zero_matrix():
    model, _ = tiny_model()
    model.params["proj.W.1"].data[:] = 0.0
    out = model.project_row(Tensor(np.ones((1, 5, model.config.d))), 1)[0]
    assert out.shape == (model.config.m,) and np.all(out.data == 0.0)


def test_project_row_hand_arithmetic():
    model = numeric_pair_model(d=1, m=1)
    model.params["proj.W.1"].data = np.array([[1.0, 1.0]])
    out = model.project_row(Tensor([[[2.0], [3.0]]]), 1)[0]
    assert out.data.tolist() == [5.0]


def test_project_row_type_isolation():
    model, batch, cfg = toy_setup(0)
    k1 = model.schema.row_type(1).arity
    x1 = Tensor(np.random.default_rng(0).normal(size=(1, k1, model.config.d)))
    before = model.project_row(x1, 1).data.copy()
    model.params["proj.W.2"].data += 10.0
    after = model.project_row(x1, 1).data
    assert np.array_equal(before, after)


def test_unproject_zero_matrix():
    model, _ = tiny_model()
    model.params["proj.S.1"].data[:] = 0.0
    out = model.unproject_row(Tensor(np.ones((1, model.config.m))), 1)[0]
    assert out.shape == (5, model.config.d) and np.all(out.data == 0.0)


def test_unproject_hand_arithmetic():
    model = numeric_pair_model(d=1, m=1)
    model.params["proj.S.1"].data = np.array([[2.0], [3.0]])
    out = model.unproject_row(Tensor([[1.0]]), 1)[0]
    assert out.data.tolist() == [[2.0], [3.0]]


def test_unproject_pseudo_inverse_round_trip():
    # d * k me== m: S_h = pinv(W_h) reconstructs the flattened row vector
    model = numeric_pair_model(d=2, m=4)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    model.params["proj.W.1"].data = w
    model.params["proj.S.1"].data = np.linalg.pinv(w)
    g = rng.normal(size=(1, 2, 2))
    projected = model.project_row(Tensor(g), 1)
    back = model.unproject_row(projected, 1)
    assert np.max(np.abs(back.data - g)) < 1e-8


def test_sequence_forward_padding_invariance():
    model, _ = tiny_model(t_max=8)
    rng = np.random.default_rng(4)
    x3 = rng.normal(size=(1, 3, model.config.m))
    x8 = np.zeros((1, 8, model.config.m))
    x8[:, :3] = x3
    mask = np.zeros((1, 8), dtype=bool)
    mask[:, :3] = True
    out3 = model.sequence_forward(Tensor(x3)).data
    out8 = model.sequence_forward(Tensor(x8), mask).data
    assert np.max(np.abs(out8[:, :3] - out3)) <= 1e-9
    assert np.all(out8[:, 3:] == 0.0)


def test_sequence_forward_all_pad_rejected():
    model, _ = tiny_model()
    x = np.zeros((1, 3, model.config.m))
    with pytest.raises(LengthError):
        model.sequence_forward(Tensor(x), np.zeros((1, 3), dtype=bool))


def test_sequence_forward_too_long():
    model, _ = tiny_model(t_max=4)
    x = np.zeros((1, 5, model.config.m))
    with pytest.raises(LengthError):
        model.sequence_forward(Tensor(x))


def test_sequence_forward_gradcheck():
    model, _ = tiny_model(m=8, seq_heads=2)
    rng = np.random.default_rng(5)
    w = rng.normal(size=(2, 3, 8))
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    err = grad_check(lambda t: sum_(model.sequence_forward(t) * w), x)
    assert err < 1e-5


def test_pretrain_forward_shapes_mixed_types():
    model, batch, cfg = toy_setup(0)
    out = model.pretrain_forward(batch, rng=None, training=False)
    emitted = sum(logits.shape[0] for _, logits, _ in out.cat_groups)
    expected = sum(len(s.targets) for s in batch)
    assert emitted == expected == out.n_masked
    for attr, logits, dists in out.cat_groups:
        assert logits.shape == dists.shape
        assert logits.shape[1] == model.schema.attributes[attr].target_size()


def test_pretrain_forward_zero_masked_short_circuits():
    model, batch, cfg0 = toy_setup(0)
    cfg = TrainConfig(p_f=0.0, p_r=0.0)
    from unittab.embedding import EncodedSeries
    rng = np.random.default_rng(0)
    plain = [apply_masking(EncodedSeries("x", s.rows, None), model.schema, cfg, rng)
             for s in batch]
    out = model.pretrain_forward(plain, rng=None, training=False)
    assert out.n_masked == 0 and out.cat_groups == []
    assert pretrain_loss(out, cfg).item() == 0.0


def test_finetune_forward_zeroed_head_returns_bias():
    model, encoded = tiny_model()
    model.ensure_task_head("regression", seed=0)
    model.params["finetune.w2"].data[:] = 0.0
    model.params["finetune.b2"].data[:] = 0.7
    out = model.finetune_forward(encoded)
    assert np.allclose(out.data, 0.7)


def test_finetune_forward_binary_probs_sum_to_one():
    from unittab.tensor import softmax
    model, encoded = tiny_model()
    model.ensure_task_head("binary", seed=0)
    out = model.finetune_forward(encoded)
    assert out.shape == (1, 2)
    probs = softmax(out, axis=-1).data
    assert np.allclose(probs.sum(axis=-1), 1.0)


def test_finetune_head_gradcheck():
    model, encoded = tiny_model()
    model.ensure_task_head("regression", seed=0)
    pooled = Tensor(np.random.default_rng(6).normal(size=(2, model.config.m)), requires_grad=True)

    def f(t):
        from unittab.tensor import gelu, matmul, mean
        h = gelu(matmul(t, model.params["finetune.w1"]) + model.params["finetune.b1"])
        out = matmul(h, model.params["finetune.w2"]) + model.params["finetune.b2"]
        return mean(out * out)

    assert grad_check(f, pooled) < 1e-6


def test_param_count_matches_closed_form_both_presets():
    schema = make_tiny_schema()
    expanded, _ = prepare_series([make_tiny_series()], schema)
    for preset in (ModelConfig.desk_preset(t_max=12), ModelConfig.full_preset(t_max=12)):
        model = Model(preset, expanded, seed=0)
        assert model.n_params() == expected_param_count(preset, expanded)


def test_param_count_matches_for_binned_and_scalar_variants():
    schema = make_tiny_schema()
    expanded, _ = prepare_series([make_tiny_series()], schema)
    for kwargs in ({"numeric_input": "binned"}, {"numeric_target": "scalar"},
                   {"task_head": "binary"}):
        cfg = ModelConfig.desk_preset(t_max=6, **kwargs)
        model = Model(cfg, expanded, seed=0)
        assert model.n_params() == expected_param_count(cfg, expanded)


def test_forward_deterministic_without_dropout():
    model, batch, cfg = toy_setup(0)
    a = model.pretrain_forward(batch, rng=None, training=False)
    b = model.pretrain_forward(batch, rng=None, training=False)
    for (_, la, _), (_, lb, _) in zip(a.cat_groups, b.cat_groups):
        assert np.array_equal(la.data, lb.data)


def test_single_type_binned_baseline_builds_and_runs():
    model, encoded = tiny_model(numeric_input="binned")
    cfg = TrainConfig(p_f=0.5, p_r=0.0, epsilon=0.0, seed=0)
    rng = np.random.default_rng(0)
    batch = [apply_masking(encoded[0], model.schema, cfg, rng)]
    out = model.pretrain_forward(batch, rng=None, training=False)
    loss = pretrain_loss(out, cfg)
    assert np.isfinite(loss.item()) and loss.item() > 0


def test_head_count_tracks_expanded_arity():
    model, _ = tiny_model()
    head_names = {k[len("heads."):].rsplit(".", 1)[0] for k in model.params
                  if k.startswith("heads.")}
    # one head per expanded attribute (timestamp became year/month/day)
    assert head_names == {"color", "amount", "timestamp.year", "timestamp.month",
                          "timestamp.day"}
    assert model.schema.row_types[0].arity == 5


def test_config_rejects_bad_heads():
    with pytest.raises(Exception):
        ModelConfig(d=10, field_heads=3).validate()
