"""Dense-tensor reverse-mode autodiff engine.

Tensors wrap float64 numpy arrays (row-major) and record the
operations that produced them. Calling ``backward()`` on a scalar replays
the recorded operations in exact reverse execution order and accumulates
gradients into every leaf tensor with ``requires_grad=True``: a tensor
created directly, such as a parameter, rather than by an operation. Backward
keeps grads on leaves only; an interior tensor's grad is released as soon as
its own backward has run, so two ``backward()`` calls on one root give the
leaves twice the gradient of one. An operation none of whose inputs requires
a gradient records nothing, so a forward pass over constants builds no tape.

The graph is rebuilt on every forward pass (define-by-run); there is no
caching. All operations are deterministic given identical inputs and PRNG
state. A gradient graph is single-threaded; tensors that do not require
gradients are immutable after creation and safe to share across threads,
and concurrent evaluation is fine as long as the graphs stay disjoint.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import erf


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NumericError(TensorError):
    """Raised when NaN/Inf is detected at a checked boundary."""


_OP_IDS = itertools.count()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense n-d array participating in a reverse-mode gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op_id",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values in tensor data")
        self.data = np.array(arr)  # own the buffer
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._op_id = next(_OP_IDS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.size != 1:
                raise ShapeError("backward() without a seed requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")
        self.grad = grad if self.grad is None else self.grad + grad
        GradTape.trace(self).replay_backward()

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return slice_(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Execution-ordered record of the operations reachable from a root.

    Every recorded operation appears after all producers of its inputs
    (execution order is a topological order), and backward replays the
    record in exact reverse order.
    """

    def __init__(self, ops: list[Tensor]):
        self.ops = ops

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        seen: set[int] = set()
        ops: list[Tensor] = []
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._backward_fn is not None:
                ops.append(t)
            stack.extend(t._parents)
        ops.sort(key=lambda t: t._op_id)
        return cls(ops)

    def replay_backward(self) -> None:
        for t in reversed(self.ops):
            g, t.grad = t.grad, None
            if g is not None:
                t._backward_fn(g)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._op_id = next(_OP_IDS)
    if out.requires_grad:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: _accum(a, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2d @ 2d, nd @ 2d, and nd @ nd with equal
    leading (batch) dimensions. Backward accumulates dA = dC.Bt, dB = At.dC."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul requires >=2d operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} @ {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {ad.shape} @ {bd.shape}")
    data = ad @ bd

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(bd, -1, -2))
        if b.requires_grad:
            if bd.ndim == 2 and ad.ndim > 2:
                k, n = bd.shape
                _accum(b, ad.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accum(b, np.swapaxes(ad, -1, -2) @ g)

    return _make(data, (a, b), bw)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)
    return _make(np.transpose(a.data, axes), (a,), lambda g: _accum(a, np.transpose(g, inv)))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: _accum(a, g.reshape(old)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(data, tuple(tensors), bw)


def slice_(a: Tensor, key) -> Tensor:
    """Basic slicing (ints and slices only); backward scatters into zeros."""
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, (int, np.integer, slice)):
            raise TypeError("slice_ supports basic slicing only; use embedding_gather for index arrays")
    data = a.data[key].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] += g
        _accum(a, full)

    return _make(data, (a,), bw)


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Row lookup into a 2d table; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding_gather expects a 2d table, got shape {table.shape}")
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"gather id out of range [0, {n})")
    data = table.data[ids]

    def bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        _accum(table, dt)

    return _make(data, (table,), bw)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bw)


def mean(a: Tensor) -> Tensor:
    n = a.size
    data = np.asarray(a.data.mean())
    return _make(data, (a,), lambda g: _accum(a, np.broadcast_to(g / n, a.shape).copy()))


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = x * phi

    def bw(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        _accum(a, g * (phi + x * pdf))

    return _make(data, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; raises NumericError on non-finite input."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("non-finite input to softmax")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(a, s * (g - dot))

    return _make(s, (a,), bw)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (1e-5 added to
    the variance), then affine."""
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead))
        _accum(beta, g.sum(axis=lead))
        if a.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, (dxhat - m1 - xhat * m2) * inv)

    return _make(data, (a, gamma, beta), bw)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: kept units are scaled by 1/(1-p); identity when
    training is False or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return _make(a.data * keep, (a,), lambda g: _accum(a, g * keep))


def cross_entropy_soft(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -sum(targets * log_softmax(logits)).

    `targets` is a constant (ndarray or Tensor); every row must be a
    probability distribution (sum 1 within 1e-9, entries >= 0).
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    x = logits.data
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError(f"cross_entropy_soft expects (B, q>=2) logits, got {x.shape}")
    if t.shape != x.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite logits in cross_entropy_soft")
    sums = t.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(t < -1e-12):
        raise ValueError("each target row must be a probability distribution")
    b = x.shape[0]
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + x.max(axis=1, keepdims=True)
    loss = float(((lse[:, 0] - (t * x).sum(axis=1))).mean())
    sm = np.exp(x - lse)

    def bw(g):
        _accum(logits, (sm - t) * (g / b))

    return _make(np.asarray(loss), (logits,), bw)


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must map `x` to a scalar Tensor. Error per coordinate is
    |a - n| / max(1e-8, |a| + |n|); the max over coordinates is returned.
    """
    x.zero_grad()
    y = f(x)
    if y.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    y.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    x.zero_grad()
    return float(np.max(np.abs(analytic - numeric) / denom))
