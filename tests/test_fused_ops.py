"""The fused encoder primitives against the composed ops they replace.

`attention`, `feed_forward` and `residual_layer_norm` must give the same
bits as the chain of small tape ops the encoder used before: outputs and
every leaf grad are compared with `array_equal`. The composed chain, with
the `layer_norm` and `dropout` ops that the library no longer has, is kept
here as the reference.
"""

import tracemalloc

import numpy as np
import pytest

from unittab.data import PollutionConfig, gen_pollution_like, random_crop
from unittab.embedding import prepare_series
from unittab.model import Model, ModelConfig
from unittab.tensor import (
    GradTape, Tensor, _accum, _make, attention, feed_forward, gelu, matmul, reshape,
    residual_layer_norm, softmax, transpose,
)
from unittab.training import TrainConfig, apply_masking, pretrain_loss


# -- the composed reference


def ref_layer_norm(a, gamma, beta):
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a.data - mu) * inv

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead))
        _accum(beta, g.sum(axis=lead))
        if a.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, (dxhat - m1 - xhat * m2) * inv)

    return _make(xhat * gamma.data + beta.data, (a, gamma, beta), bw)


def ref_dropout(a, p, rng, training):
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return _make(a.data * keep, (a,), lambda g: _accum(a, g * keep))


def ref_attention(x, wq, bq, wk, wv, bv, wo, bo, heads, add_mask, p, rng, training):
    b, t, w = x.shape
    hd = w // heads
    q = matmul(x, wq) + bq
    k = matmul(x, wk)
    v = matmul(x, wv) + bv
    q = transpose(reshape(q, (b, t, heads, hd)), (0, 2, 1, 3))
    k = transpose(reshape(k, (b, t, heads, hd)), (0, 2, 1, 3))
    v = transpose(reshape(v, (b, t, heads, hd)), (0, 2, 1, 3))
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    if add_mask is not None:
        scores = scores + Tensor(add_mask)
    probs = ref_dropout(softmax(scores, axis=-1), p, rng, training)
    ctx = transpose(matmul(probs, v), (0, 2, 1, 3))
    return matmul(reshape(ctx, (b, t, w)), wo) + bo


def ref_feed_forward(x, w1, b1, w2, b2):
    return matmul(gelu(matmul(x, w1) + b1), w2) + b2


def ref_residual_layer_norm(x, a, gamma, beta, p, rng, training):
    return ref_layer_norm(x + ref_dropout(a, p, rng, training), gamma, beta)


REFERENCE = {attention: ref_attention, feed_forward: ref_feed_forward,
             residual_layer_norm: ref_residual_layer_norm}


def block(ops, x, w, heads, add_mask, p, rng, training):
    """One post-norm encoder layer built from `ops` (fused or reference)."""
    a = ops[attention](x, w["wq"], w["bq"], w["wk"], w["wv"], w["bv"], w["wo"], w["bo"],
                       heads, add_mask, p, rng, training)
    x = ops[residual_layer_norm](x, a, w["g1"], w["beta1"], p, rng, training)
    f = ops[feed_forward](x, w["w1"], w["b1"], w["w2"], w["b2"])
    return ops[residual_layer_norm](x, f, w["g2"], w["beta2"], p, rng, training)


FUSED = {op: op for op in REFERENCE}


def leaves(b, t, width, heads, seed):
    rng = np.random.default_rng(seed)
    ff = 4 * width
    shapes = dict(x=(b, t, width), wq=(width, width), bq=(width,), wk=(width, width),
                  wv=(width, width), bv=(width,), wo=(width, width), bo=(width,),
                  g1=(width,), beta1=(width,), w1=(width, ff), b1=(ff,), w2=(ff, width),
                  b2=(width,), g2=(width,), beta2=(width,))
    return {k: Tensor(rng.normal(0.0, 0.5, size=s) + (1.0 if k.startswith("g") else 0.0),
                      requires_grad=True)
            for k, s in shapes.items()}


def run(ops, frozen, masked, training, seed=0):
    """Forward and backward of one layer; returns the output and the grad
    of every leaf (None where the leaf is frozen)."""
    w = leaves(3, 5, 8, 2, seed)
    for k in frozen:
        w[k].requires_grad = False
    add_mask = None
    if masked:
        real = np.random.default_rng(seed + 1).random((3, 5)) < 0.7
        real[:, 0] = True
        add_mask = np.where(real, 0.0, -1e9)[:, None, None, :]
    out = block(ops, w["x"], w, 2, add_mask, 0.1, np.random.default_rng(seed + 2), training)
    if out.requires_grad:
        out.backward(np.random.default_rng(seed + 3).normal(size=out.shape))
    return out.data, {k: t.grad for k, t in w.items()}


FROZEN = {
    "none": (),
    "input": ("x",),
    "some_of_each_op": ("wq", "bq", "wk", "g1", "w1", "beta2"),
    "all_but_outputs": ("x", "wq", "bq", "wk", "wv", "g1", "beta1", "w1", "b1", "g2"),
    "all": ("x", "wq", "bq", "wk", "wv", "bv", "wo", "bo", "g1", "beta1", "w1", "b1", "w2",
            "b2", "g2", "beta2"),
}


@pytest.mark.parametrize("frozen", sorted(FROZEN))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("training", [False, True])
def test_fused_layer_matches_composed_ops_bitwise(frozen, masked, training):
    out, grads = run(FUSED, FROZEN[frozen], masked, training)
    ref_out, ref_grads = run(REFERENCE, FROZEN[frozen], masked, training)
    assert np.array_equal(out, ref_out)
    for k, g in ref_grads.items():
        if k in FROZEN[frozen]:
            assert g is None and grads[k] is None, k
        else:
            assert g is not None and np.array_equal(grads[k], g), k


@pytest.mark.parametrize("op", list(REFERENCE), ids=lambda op: op.__name__)
def test_fused_op_alone_matches_composed_op_bitwise(op):
    w = leaves(2, 4, 6, 3, seed=5)
    args = {
        attention: lambda w: (w["x"], w["wq"], w["bq"], w["wk"], w["wv"], w["bv"], w["wo"],
                              w["bo"], 3, None, 0.2, np.random.default_rng(1), True),
        feed_forward: lambda w: (w["x"], w["w1"], w["b1"], w["w2"], w["b2"]),
        residual_layer_norm: lambda w: (w["x"], w["bo"] * w["x"], w["g1"], w["beta1"], 0.2,
                                        np.random.default_rng(1), True),
    }[op]
    seed_grad = np.random.default_rng(2).normal(size=w["x"].shape)
    out = op(*args(w))
    out.backward(seed_grad)
    grads = {k: t.grad for k, t in w.items()}
    ref_w = leaves(2, 4, 6, 3, seed=5)
    ref_out = REFERENCE[op](*args(ref_w))
    ref_out.backward(seed_grad)
    assert np.array_equal(out.data, ref_out.data)
    assert len(GradTape.trace(out).ops) == 1 + (op is residual_layer_norm)  # + the mul
    for k, t in ref_w.items():
        assert (t.grad is None) == (grads[k] is None), k
        if t.grad is not None:
            assert np.array_equal(grads[k], t.grad), k


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("op", list(REFERENCE), ids=lambda op: op.__name__)
def test_fused_op_with_every_input_frozen_gives_the_same_output(op, training):
    """With no input requiring a grad, each op frees or overwrites its
    intermediates in place; the output keeps its bits."""
    args = {
        attention: lambda w: (w["x"], w["wq"], w["bq"], w["wk"], w["wv"], w["bv"], w["wo"],
                              w["bo"], 3, None, 0.2, np.random.default_rng(1), training),
        feed_forward: lambda w: (w["x"], w["w1"], w["b1"], w["w2"], w["b2"]),
        residual_layer_norm: lambda w: (w["x"], w["bo"] * w["x"], w["g1"], w["beta1"], 0.2,
                                        np.random.default_rng(1), training),
    }[op]
    recording = op(*args(leaves(2, 4, 6, 3, seed=5)))
    frozen_leaves = leaves(2, 4, 6, 3, seed=5)
    for t in frozen_leaves.values():
        t.requires_grad = False
    frozen = op(*args(frozen_leaves))
    assert recording._backward_fn is not None and frozen._backward_fn is None
    assert np.array_equal(frozen.data, recording.data)


def test_frozen_layer_peaks_below_a_recording_one():
    """tracemalloc peak of one inference layer at the full preset's sequence
    shape: with every input frozen, no op keeps a backward buffer."""

    def peak(frozen):
        w = leaves(16, 30, 144, 12, seed=0)
        for t in w.values():
            t.requires_grad = not frozen
        add_mask = np.zeros((16, 1, 1, 30))
        tracemalloc.start()
        try:
            out = block(FUSED, w["x"], w, 12, add_mask, 0.1, None, False)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        return top

    frozen, recording = peak(True), peak(False)
    assert frozen < 0.5 * recording, (frozen, recording)


def test_fused_layer_holds_less_memory_than_composed_ops():
    """The graph of one training layer, at the full preset's sequence
    shape, measured by tracemalloc while its output is alive."""

    def held(ops):
        w = leaves(16, 30, 144, 12, seed=0)
        add_mask = np.zeros((16, 1, 1, 30))
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            out = block(ops, w["x"], w, 12, add_mask, 0.1, rng, True)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        return size

    fused, composed = held(FUSED), held(REFERENCE)
    assert fused < 0.7 * composed, (fused, composed)


def test_desk_pretrain_step_tape_op_count_pinned():
    """One desk-preset pretraining step (one field and two sequence layers,
    4 ops each) records 280 tape ops; the composed encoder recorded 366."""
    ds = gen_pollution_like(PollutionConfig(n_entities=8, rows_per_entity=12, q_bins=16), 0)
    schema, encoded = prepare_series(ds.series, ds.schema)
    model = Model(ModelConfig.desk_preset(t_max=10), schema, seed=0)
    cfg = TrainConfig(p_f=0.3, seed=0)
    rng = np.random.default_rng(0)
    batch = [apply_masking(random_crop(s, 10, rng), schema, cfg, rng) for s in encoded]
    loss = pretrain_loss(model.pretrain_forward(batch, rng, training=True), cfg)
    assert len(GradTape.trace(loss).ops) == 280
