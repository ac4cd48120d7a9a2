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

Each encoder sublayer is one fused op with a hand-written backward:
``attention``, ``feed_forward`` and ``residual_layer_norm`` (the post-norm
``layer_norm(x + dropout(a))``). Each evaluates the numpy expressions of the
chain of small ops it stands for in the same order and draws the same
dropout shapes, so outputs and grads are bit-identical to that chain; its
graph keeps only the arrays its backward reads, and it computes a grad only
for an input that requires one.

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
            _accum(b, _matmul_rhs_grad(ad, bd, g))

    return _make(data, (a, b), bw)


def _matmul_rhs_grad(ad: np.ndarray, bd: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dB of C = A @ B for upstream g; a 2d B shared by a batch of A takes
    one flattened product."""
    if bd.ndim == 2 and ad.ndim > 2:
        k, n = bd.shape
        return ad.reshape(-1, k).T @ g.reshape(-1, n)
    return np.swapaxes(ad, -1, -2) @ g


def _linear_grads(xd, w: Tensor, b: Tensor | None, g: np.ndarray, need_x: bool):
    """Backward of the composed `matmul(x, w) + b` for upstream g: accumulates
    the grads of w and b (when they require one) and returns dx when
    `need_x`, else None. `xd` (x's data) is read only for w's grad."""
    if b is not None and b.requires_grad:
        _accum(b, _unbroadcast(g, b.shape))
    if w.requires_grad:
        _accum(w, _matmul_rhs_grad(xd, w.data, g))
    return g @ np.swapaxes(w.data, -1, -2) if need_x else None


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


def _dropout_keep(shape, p: float, rng: np.random.Generator, training: bool):
    """The kept units of inverted dropout at rate p as a bool array (one
    `rng.random(shape)` draw), or None when nothing is dropped: not training,
    or p == 0. Kept units scale by 1/(1-p); `keep / (1.0 - p)` rebuilds that
    scale bit for bit wherever it is needed."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    return rng.random(shape) >= p


def attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
              wo: Tensor, bo: Tensor, heads: int, add_mask, p: float,
              rng: np.random.Generator, training: bool) -> Tensor:
    """Multi-head self-attention over x (B, T, W) as one op: the q, k and v
    projections (k has no bias: it would shift all scores of a query
    equally), the split into `heads` heads, scores scaled by 1/sqrt(W/heads)
    plus `add_mask` (None, or an array broadcast against the (B, heads, T, T)
    scores: 0 where a key may be attended, -1e9 where not), a softmax that
    raises NumericError on non-finite scores, dropout at rate p on the
    probabilities, the context and the output projection.

    Forward and backward evaluate the same numpy expressions in the same
    order as the composed ops (matmul, add, reshape, transpose, mul, softmax,
    dropout), so outputs and grads match them bit for bit; x receives the
    v, k and q input grads in that order. Backward keeps only q, k, v, the
    probabilities, the dropout mask and the context."""
    if x.ndim != 3 or x.shape[-1] % heads:
        raise ShapeError(f"attention expects (B, T, W) input with W divisible by {heads} "
                         f"heads, got shape {x.shape}")
    b, t, w = x.shape
    hd = w // heads
    split = (b, t, heads, hd)
    xd = x.data
    q = xd @ wq.data
    q += bq.data
    k = xd @ wk.data
    v = xd @ wv.data
    v += bv.data
    qh = np.transpose(q.reshape(split), (0, 2, 1, 3))
    kt = np.transpose(np.transpose(k.reshape(split), (0, 2, 1, 3)), (0, 1, 3, 2))
    vh = np.transpose(v.reshape(split), (0, 2, 1, 3))
    scale = 1.0 / np.sqrt(hd)
    probs = qh @ kt
    probs *= scale
    if add_mask is not None:
        probs += add_mask
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite input to softmax")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _dropout_keep(probs.shape, p, rng, training)
    dropped = probs if keep is None else probs * (keep / (1.0 - p))
    ctx = np.transpose(dropped @ vh, (0, 2, 1, 3)).reshape((b, t, w))
    del dropped
    out = ctx @ wo.data
    out += bo.data

    # which paths the composed ops would have recorded in this forward
    need_q = x.requires_grad or wq.requires_grad or bq.requires_grad
    need_k = x.requires_grad or wk.requires_grad
    need_v = x.requires_grad or wv.requires_grad or bv.requires_grad

    def merge(gh):  # (B, heads, T, hd) grads back to (B, T, W)
        return np.transpose(gh, (0, 2, 1, 3)).reshape((b, t, w))

    def bw(g):
        dctx = _linear_grads(ctx, wo, bo, g, need_q or need_k or need_v)
        if dctx is None:
            return
        dc = np.transpose(dctx.reshape(split), (0, 2, 1, 3))
        scale_keep = None if keep is None else keep / (1.0 - p)
        dvh = dqh = dkt = None
        if need_v:
            dropped = probs if scale_keep is None else probs * scale_keep
            dvh = np.swapaxes(dropped, -1, -2) @ dc
        if need_q or need_k:
            ds = dc @ np.swapaxes(vh, -1, -2)
            if scale_keep is not None:
                ds *= scale_keep
            dot = (ds * probs).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= probs
            ds *= scale
            if need_q:
                dqh = ds @ np.swapaxes(kt, -1, -2)
            if need_k:
                dkt = np.swapaxes(qh, -1, -2) @ ds
        if need_v:
            _accum(x, _linear_grads(xd, wv, bv, merge(dvh), x.requires_grad))
        if need_k:
            _accum(x, _linear_grads(xd, wk, None, merge(np.transpose(dkt, (0, 1, 3, 2))),
                                    x.requires_grad))
        if need_q:
            _accum(x, _linear_grads(xd, wq, bq, merge(dqh), x.requires_grad))

    return _make(out, (x, wq, bq, wk, wv, bv, wo, bo), bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise `gelu(x @ w1 + b1) @ w2 + b2` with the exact (erf-based)
    GELU, as one op. Bit for bit the composed matmul, add, gelu, matmul,
    add; backward keeps the pre-activation u and the normal CDF phi, and
    rebuilds the activation u * phi."""
    xd = x.data
    u = xd @ w1.data
    u += b1.data
    phi = u * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = (u * phi) @ w2.data
    out += b2.data
    need_u = x.requires_grad or w1.requires_grad or b1.requires_grad

    def bw(g):
        dact = _linear_grads(u * phi if w2.requires_grad else None, w2, b2, g, need_u)
        if dact is None:
            return
        pdf = np.exp(-0.5 * u * u) * _INV_SQRT2PI
        du = dact * (phi + u * pdf)
        _accum(x, _linear_grads(xd, w1, b1, du, x.requires_grad))

    return _make(out, (x, w1, b1, w2, b2), bw)


def residual_layer_norm(x: Tensor, a: Tensor, gamma: Tensor, beta: Tensor, p: float,
                        rng: np.random.Generator, training: bool) -> Tensor:
    """Post-norm residual `layer_norm(x + dropout(a))` as one op: inverted
    dropout at rate p on the branch a (none unless training), then the last
    axis normalized to zero mean and unit variance (1e-5 added to the
    variance) and the affine gamma, beta. Bit for bit the composed dropout,
    add and layer norm; x receives its grad before a. Backward keeps the
    normalized values, the inverse deviation and the dropout mask."""
    d = x.shape[-1]
    if a.shape != x.shape:
        raise ShapeError(f"residual branch shape {a.shape} != input shape {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer norm affine params must have shape ({d},)")
    keep = _dropout_keep(a.shape, p, rng, training)
    xhat = x.data + (a.data if keep is None else a.data * (keep / (1.0 - p)))
    mu = xhat.mean(axis=-1, keepdims=True)
    var = xhat.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat -= mu
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    need_r = x.requires_grad or a.requires_grad

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=lead))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=lead))
        if need_r:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dr = (dxhat - m1 - xhat * m2) * inv
            _accum(x, dr)
            if a.requires_grad:
                _accum(a, dr if keep is None else dr * (keep / (1.0 - p)))

    return _make(out, (x, a, gamma, beta), bw)


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
