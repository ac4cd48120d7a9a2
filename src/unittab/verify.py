"""Finite-difference verification of every autodiff primitive and of the
full pretraining loss on a toy two-series batch. Used by the test suite and
the grad-check command; an injected-bug mode flips one analytic gradient
sign as a negative control for the harness itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import tensor as T
from .embedding import prepare_series
from .model import Model, ModelConfig
from .schema import (
    CATEGORICAL, NUMERICAL, TIMESTAMP,
    AttributeSpec, Cat, Missing, Num, Row, RowTypeSpec, Schema, Time, TimeSeries,
)
from .tensor import Tensor, grad_check
from .training import TrainConfig, apply_masking, pretrain_loss

PRIMITIVE_TOL = 1e-5
MODEL_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def _rand(rng, *shape):
    return rng.normal(0.0, 1.0, size=shape)


def _buggy_gelu(a: Tensor) -> Tensor:
    # deliberately sign-flipped backward; must be caught by the harness
    x = a.data
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return T._make(x * phi, (a,), lambda g: T._accum(a, -g * (phi + x * pdf)))


def _primitive_cases(rng: np.random.Generator, inject_bug: bool):
    def dims(n):
        return tuple(int(rng.integers(1, 5)) for _ in range(n))

    cases = {}

    def matmul_case(i):
        m, k, n = dims(3)
        b = Tensor(_rand(rng, k, n))
        w = _rand(rng, m, n)
        x = Tensor(_rand(rng, m, k), requires_grad=True)
        if i % 2:  # alternate which operand carries the gradient
            a = Tensor(_rand(rng, m, k))
            x = Tensor(_rand(rng, k, n), requires_grad=True)
            return lambda t: T.sum_(T.matmul(a, t) * w), x
        return lambda t: T.sum_(T.matmul(t, b) * w), x

    cases["matmul"] = matmul_case

    def batched_matmul_case(i):
        b, m, k, n = dims(4)
        other = Tensor(_rand(rng, b, k, n))
        w = _rand(rng, b, m, n)
        x = Tensor(_rand(rng, b, m, k), requires_grad=True)
        return lambda t: T.sum_(T.matmul(t, other) * w), x

    cases["batched_matmul"] = batched_matmul_case

    def softmax_case(i):
        s = dims(2)
        w = _rand(rng, *s)
        x = Tensor(_rand(rng, *s) * 3.0, requires_grad=True)
        return lambda t: T.sum_(T.softmax(t, axis=-1) * w), x

    cases["softmax"] = softmax_case

    def gelu_case(i):
        s = dims(2)
        w = _rand(rng, *s)
        x = Tensor(_rand(rng, *s), requires_grad=True)
        op = _buggy_gelu if inject_bug else T.gelu
        return lambda t: T.sum_(op(t) * w), x

    cases["gelu"] = gelu_case

    def add_mul_case(i):
        b, d = dims(2)
        c = Tensor(_rand(rng, d))  # broadcast over the leading axis
        w = _rand(rng, b, d)
        x = Tensor(_rand(rng, b, d), requires_grad=True)
        if i % 2:
            return lambda t: T.sum_((t * c) * w), x
        return lambda t: T.sum_((t + c) * w), x

    cases["add_mul_broadcast"] = add_mul_case

    def reshape_slice_case(i):
        a, b = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        other = Tensor(_rand(rng, a, b))
        w = _rand(rng, 2 * a, b)
        x = Tensor(_rand(rng, a * b), requires_grad=True)

        def f(t):
            stacked = T.concat([T.reshape(t, (a, b)), other], axis=0)
            return T.sum_(T.transpose(T.slice_(T.concat([stacked, stacked], axis=0),
                                               (slice(0, 2 * a),))) * w.T)

        return f, x

    cases["reshape_concat_slice_transpose"] = reshape_slice_case

    def gather_case(i):
        v, d, n = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
        ids = rng.integers(0, v, size=n)
        w = _rand(rng, n, d)
        x = Tensor(_rand(rng, v, d), requires_grad=True)
        return lambda t: T.sum_(T.embedding_gather(t, ids) * w), x

    cases["embedding_gather"] = gather_case

    def fused_case(op, shapes, i):
        # input i % len(shapes) carries the gradient, the others are constants;
        # half-scale inputs keep softmax and GELU off saturation, where
        # gradients shrink below what central differences resolve
        ins = [Tensor(0.5 * _rand(rng, *s)) for s in shapes]
        which = i % len(ins)
        x = Tensor(ins[which].data, requires_grad=True)
        w = _rand(rng, *op(ins).shape)
        return lambda t: T.sum_(op(ins[:which] + [t] + ins[which + 1:]) * w), x

    def attention_case(i):
        b, t, heads, hd = (int(rng.integers(1, 3)), int(rng.integers(2, 4)),
                           int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        wd = heads * hd
        mask = None
        if i % 2:  # mask some keys out, never the first
            mask = np.where(rng.random((b, 1, 1, t)) < 0.4, -1e9, 0.0)
            mask[..., 0] = 0.0
        seed = int(rng.integers(0, 2**31))
        # a fresh generator per evaluation keeps the dropout mask identical
        # across the perturbed forward passes
        op = lambda ins: T.attention(*ins, heads, mask, 0.3, np.random.default_rng(seed),
                                     i % 3 > 0)
        return fused_case(op, [(b, t, wd), (wd, wd), (wd,), (wd, wd), (wd, wd), (wd,),
                               (wd, wd), (wd,)], i)

    cases["attention"] = attention_case

    def feed_forward_case(i):
        b, t, d, ff = dims(4)
        return fused_case(lambda ins: T.feed_forward(*ins),
                          [(b, t, d), (d, ff), (ff,), (ff, d), (d,)], i)

    cases["feed_forward"] = feed_forward_case

    def residual_layer_norm_case(i):
        # d >= 3: at d == 2 the normalized values are +-1 up to the 1e-5
        # variance floor and the input gradient is about that small
        b, d = int(rng.integers(1, 5)), int(rng.integers(3, 6))
        seed = int(rng.integers(0, 2**31))
        op = lambda ins: T.residual_layer_norm(*ins, 0.3, np.random.default_rng(seed),
                                               i % 3 > 0)
        return fused_case(op, [(b, d), (b, d), (d,), (d,)], i)

    cases["residual_layer_norm"] = residual_layer_norm_case

    def ce_case(i):
        b, q = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        t_rows = rng.random((b, q)) + 0.05
        t_rows /= t_rows.sum(axis=1, keepdims=True)
        x = Tensor(_rand(rng, b, q), requires_grad=True)
        return lambda t: T.cross_entropy_soft(t, t_rows), x

    cases["cross_entropy_soft"] = ce_case

    def sum_mean_case(i):
        s = dims(2)
        x = Tensor(_rand(rng, *s), requires_grad=True)
        if i % 2:
            return lambda t: T.mean(t * t), x
        w = _rand(rng, s[1])
        return lambda t: T.sum_(T.sum_(t, axis=0) * w), x

    cases["sum_mean"] = sum_mean_case

    return cases


def check_primitives(ops=None, inject_bug: bool = False, seed: int = 0,
                     trials: int = 10) -> list[CheckResult]:
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    results = []
    for name, build in _primitive_cases(rng, inject_bug).items():
        if ops and name not in ops:
            continue
        worst = 0.0
        for i in range(trials):
            f, x = build(i)
            worst = max(worst, grad_check(f, x))
        results.append(CheckResult(name, worst, PRIMITIVE_TOL))
    return results


# ---------------------------------------------------------------------------
# whole-model check on a toy two-series batch


def toy_setup(seed: int = 0):
    attrs = {
        "color": AttributeSpec("color", CATEGORICAL, vocab=["red", "green", "blue", "OOV"]),
        "amount": AttributeSpec("amount", NUMERICAL, bin_edges=[0.0, 1.0, 2.0, 3.0],
                                value_range=(0.0, 3.0)),
        "extra": AttributeSpec("extra", CATEGORICAL, vocab=["a", "b", "OOV"]),
        "timestamp": AttributeSpec("timestamp", TIMESTAMP, years=[2021], with_hour=False),
    }
    row_types = [
        RowTypeSpec(1, ["timestamp", "color", "amount"]),
        RowTypeSpec(2, ["timestamp", "color", "amount", "extra"]),
    ]
    schema = Schema(attrs, row_types)

    def row(type_id, day, color, amount, extra=None):
        values = [Time(2021, 1, day), Cat(color), Num(amount)]
        if type_id == 2:
            values.append(Cat(extra) if extra is not None else Missing)
        return Row(type_id, values)

    series = [
        TimeSeries("e0", [row(1, 1, 0, 0.4), row(2, 2, 1, 1.7, 0), row(1, 3, 2, 2.9)]),
        TimeSeries("e1", [row(2, 1, 1, 0.1, 1), row(1, 2, 0, 2.2), row(2, 3, 2, 1.0, None),
                          row(1, 4, 1, 0.8)]),
    ]
    expanded, encoded = prepare_series(series, schema)
    config = ModelConfig(d=4, m=8, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                         freq_count=2, t_max=4, n_row_types=2, dropout=0.0)
    model = Model(config, expanded, seed=seed)
    # re-draw the parameters at a larger scale: the default 0.02 init leaves
    # many gradients below what central differences can resolve in float64
    prng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    for name in sorted(model.params):
        p = model.params[name]
        if name.endswith(".gamma"):
            p.data = 1.0 + 0.3 * prng.normal(size=p.data.shape)
        else:
            p.data = 0.5 * prng.normal(size=p.data.shape)
    cfg = TrainConfig(p_f=0.5, p_r=0.2, epsilon=0.1, neighborhood_radius=1, seed=seed)
    mask_rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    batch = [apply_masking(s, expanded, cfg, mask_rng) for s in encoded]
    assert sum(len(b.targets) for b in batch) > 0
    return model, batch, cfg


def check_model(seed: int = 0) -> CheckResult:
    """Max relative error over every parameter coordinate of the full
    pretraining loss on the toy batch (dropout off), one grad_check each."""
    model, batch, cfg = toy_setup(seed)

    def loss(_) -> Tensor:
        return pretrain_loss(model.pretrain_forward(batch, rng=None, training=False), cfg)

    worst = max(grad_check(loss, model.params[name], h=1e-4) for name in sorted(model.params))
    return CheckResult("full_model_loss", worst, MODEL_TOL)
