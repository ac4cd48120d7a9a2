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
graph keeps only the arrays its backward reads. A fused op records all its
grads or none: training passes inputs that all require a grad, inference
(`Model.frozen`) inputs that need none, so each backward has one path for
a grad check to cover; `_accum` drops a grad its input does not need. With
no input requiring a grad, a fused op keeps no backward buffers:
``attention`` frees q, k, v and the probabilities before its output
projection, and ``feed_forward`` and ``residual_layer_norm`` overwrite
their intermediates in place (the same IEEE operations on the same
operands, so the same bits). An inference forward peaks lower.

The graph is rebuilt on every forward pass (define-by-run); there is no
caching. All operations are deterministic given identical inputs and PRNG
state. Tensors that do not require gradients are immutable after creation
and safe to share across threads, and concurrent evaluation is fine as long
as the graphs stay disjoint.

Two lanes. The library owns one worker thread, `_LANE`, started by the
first submit (importing starts none). A caller takes its lock without
waiting (`lane`) and, while it holds it, runs one piece of work on the lane
and another on its own thread (`pair`); a caller that finds the lock taken,
or a process allowed only one CPU, runs everything on its own thread and
submits nothing. `attention` and `feed_forward` take the lane for an
input of SPLIT_MIN elements or more with two or more rows on the leading
(batch) axis of a >= 3-d array, and then:

- the forward runs the lower half of the rows on the calling thread and
  the upper half on the lane;
- the backward runs the per-row part the same way: the attention
  probabilities' backward, and the GELU derivative in `feed_forward`;
- the whole-batch reductions run unsplit on one thread: the weight-grad
  products of `_matmul_rhs_grad`, whose inner dimension is B*T, and the
  bias sums. The input grads `g @ w.T` run on the other.

`residual_layer_norm` always runs whole: its elementwise work is small next
to the products, splitting it gained nothing at any shape measured, and
its two hand-offs a call were about 30% of a training step's.

Dropout masks are drawn on the calling thread for the full shape, at the
same point in the PRNG stream as on one lane. Every grad is accumulated on
the calling thread in the one-lane order. An error from either half is
raised after both halves have finished, the lower half's first.

Why the bits hold: numpy evaluates a product of >= 3-d operands as one BLAS
call per matrix of the leading axes, ufuncs act element by element, and the
reductions here run along the last axis, so a row of output depends only on
the same row of input, computed by the same calls on the same operands
whichever half it falls in. A 2-d product is never split by rows and no
product is flattened, since either would change the BLAS calls; the
weight-grad products and the parameter sums, which mix all rows, always
run whole. Every operand also keeps its one-lane layout: a strided operand
can take another BLAS routine than a contiguous one with the same values,
so halves write into full arrays shaped as the one-lane products, and
attention merges its heads from those full arrays (`_merge_heads`).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


def _reductions(xd, w: Tensor, b: Tensor | None, g: np.ndarray) -> list:
    """The whole-batch part of the backward of the composed `matmul(x, w) + b`
    (b may be None) for upstream g: [(tensor, grad)] for b, then w. w's grad
    is one product with inner dimension B*T; `xd` (x's data) is read only
    for it."""
    grads = [] if b is None else [(b, _unbroadcast(g, b.shape))]
    return grads + [(w, _matmul_rhs_grad(xd, w.data, g))]


def _input_grad(w: Tensor, g: np.ndarray) -> np.ndarray:
    """x's grad of the composed `matmul(x, w) + b` for upstream g."""
    return g @ np.swapaxes(w.data, -1, -2)


def _accum_all(grads) -> None:
    for t, g in grads:
        _accum(t, g)


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


def sum_(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
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


# ---------------------------------------------------------------------------
# the worker lane

# One worker thread for the whole library, started by the first submit.
# Only the holder of _LANE_LOCK submits to it, and the holder waits for its
# work before it lets the lock go, so the lane never queues two callers.
_LANE = ThreadPoolExecutor(max_workers=1, thread_name_prefix="unittab-lane")
_LANE_LOCK = threading.Lock()

# Ops over fewer elements than this run whole. On a 2-vCPU Xeon VM (one
# BLAS thread), an encoder layer of width 16 or 64 ran slower split below
# about 13k input elements and faster from 16k up; a layer's hand-offs to
# the lane cost about 0.1 ms each.
SPLIT_MIN = 16_000


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def lane(parts: int, size: int | None = None):
    """Hold the worker lane for the body: yields True when the work has two
    or more independent `parts`, its `size` in elements is None or at least
    SPLIT_MIN, the process may use two or more CPUs and no other caller
    holds the lane; the body may then hand work to it through `pair`.
    Yields False otherwise. Never waits for the lock."""
    held = (parts > 1 and (size is None or size >= SPLIT_MIN) and _usable_cpus() > 1
            and _LANE_LOCK.acquire(blocking=False))
    try:
        yield held
    finally:
        if held:
            _LANE_LOCK.release()


def pair(here, there, held: bool):
    """(here(), there()). With the lane `held`, `there()` runs on the lane
    while this thread runs `here()`; an error is raised only after both have
    finished, `here`'s before `there`'s. Otherwise both run on this thread,
    `here` first."""
    if not held:
        return here(), there()
    ahead = _LANE.submit(there)
    try:
        first = here()
    except BaseException:
        wait([ahead])
        raise
    return first, ahead.result()


def _rows(a: np.ndarray) -> int:
    """The rows an op over `a` may split: those of the leading (batch) axis
    of a >= 3-d array; a smaller array is one piece."""
    return a.shape[0] if a.ndim >= 3 else 1


def _halves(n: int, held: bool) -> list[tuple[int, int]]:
    """The row ranges of an op over n leading rows: two halves when the lane
    is held, else all n rows."""
    return [(0, n // 2), (n // 2, n)] if held else [(0, n)]


def _each(fn, spans, held: bool) -> list:
    """[fn(i) for each row range i of `spans`], the second on the lane when
    it is held."""
    if len(spans) == 1:
        return [fn(0)]
    return list(pair(lambda: fn(0), lambda: fn(1), held))


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
    v, k and q input grads in that order. Backward computes every grad from
    q, k, v, the probabilities, the dropout mask and the context alone."""
    if x.ndim != 3 or x.shape[-1] % heads:
        raise ShapeError(f"attention expects (B, T, W) input with W divisible by {heads} "
                         f"heads, got shape {x.shape}")
    b, t, w = x.shape
    hd = w // heads
    scale = 1.0 / np.sqrt(hd)
    xd = x.data
    per_row_mask = add_mask is not None and np.ndim(add_mask) == 4 and len(add_mask) == b
    record = any(inp.requires_grad for inp in (x, wq, bq, wk, wv, bv, wo, bo))

    def probabilities(i):
        lo, hi = spans[i]
        xh = xd[lo:hi]
        split = (hi - lo, t, heads, hd)
        q = xh @ wq.data
        q += bq.data
        k = xh @ wk.data
        v = xh @ wv.data
        v += bv.data
        qh = np.transpose(q.reshape(split), (0, 2, 1, 3))
        kt = np.transpose(np.transpose(k.reshape(split), (0, 2, 1, 3)), (0, 1, 3, 2))
        vh = np.transpose(v.reshape(split), (0, 2, 1, 3))
        probs = qh @ kt
        probs *= scale
        if add_mask is not None:
            probs += add_mask[lo:hi] if per_row_mask else add_mask
        if not np.all(np.isfinite(probs)):
            raise NumericError("non-finite input to softmax")
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return [qh, kt, vh, probs]

    out = np.empty((b, t, w))
    with lane(_rows(xd), xd.size) as held:
        spans = _halves(b, held)
        parts = _each(probabilities, spans, held)
        keep = _dropout_keep((b, heads, t, t), p, rng, training)
        context = np.empty((b, heads, t, hd))

        def attend(i):
            lo, hi = spans[i]
            vh, probs = parts[i][2:]
            if not record:
                parts[i] = None  # no backward will read q, k, v or the probabilities
            dropped = probs if keep is None else probs * (keep[lo:hi] / (1.0 - p))
            np.matmul(dropped, vh, out=context[lo:hi])

        _each(attend, spans, held)
        ctx = _merge_heads(context)
        del context

        def project(i):
            lo, hi = spans[i]
            np.matmul(ctx[lo:hi], wo.data, out=out[lo:hi])
            out[lo:hi] += bo.data

        _each(project, spans, held)

    def bw(g):
        with lane(_rows(g), g.size) as held:
            reduced, dctx = pair(lambda: _reductions(ctx, wo, bo, g),
                                 lambda: _input_grad(wo, g), held)
            _accum_all(reduced)
            dvh = np.empty((b, heads, t, hd))
            dqh = np.empty((b, heads, t, hd))
            dkt = np.empty((b, heads, hd, t))

            def rows(i):
                lo, hi = spans[i]
                qh, kt, vh, probs = parts[i]
                dc = np.transpose(dctx[lo:hi].reshape((hi - lo, t, heads, hd)), (0, 2, 1, 3))
                scale_keep = None if keep is None else keep[lo:hi] / (1.0 - p)
                dropped = probs if scale_keep is None else probs * scale_keep
                np.matmul(np.swapaxes(dropped, -1, -2), dc, out=dvh[lo:hi])
                ds = dc @ np.swapaxes(vh, -1, -2)
                if scale_keep is not None:
                    ds *= scale_keep
                dot = (ds * probs).sum(axis=-1, keepdims=True)
                ds -= dot
                ds *= probs
                ds *= scale
                np.matmul(ds, np.swapaxes(kt, -1, -2), out=dqh[lo:hi])
                np.matmul(np.swapaxes(qh, -1, -2), ds, out=dkt[lo:hi])

            _each(rows, spans, held)
            linears = [(wv, bv, _merge_heads(dvh)),
                       (wk, None, _merge_heads(np.transpose(dkt, (0, 1, 3, 2)))),
                       (wq, bq, _merge_heads(dqh))]
            del dvh, dqh, dkt
            reduced, dxs = pair(
                lambda: [_reductions(xd, wl, bl, gl) for wl, bl, gl in linears],
                lambda: [_input_grad(wl, gl) for wl, _, gl in linears], held)
            for grads, dx in zip(reduced, dxs):
                _accum_all(grads)
                _accum(x, dx)

    return _make(out, (x, wq, bq, wk, wv, bv, wo, bo), bw)


def _merge_heads(gh: np.ndarray) -> np.ndarray:
    """Per-head values (B, heads, T, hd) side by side as (B, T, W): a view
    where numpy's reshape allows one (T, heads or hd of 1, or a transposed
    gh), else a copy. The layout decides which BLAS routine a later product
    calls, so the full array is always merged as a whole."""
    b, heads, t, hd = gh.shape
    return np.transpose(gh, (0, 2, 1, 3)).reshape((b, t, heads * hd))


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise `gelu(x @ w1 + b1) @ w2 + b2` with the exact (erf-based)
    GELU, as one op. Bit for bit the composed matmul, add, gelu, matmul,
    add; backward computes every grad from the pre-activation u and the
    normal CDF phi, rebuilding the activation u * phi. Unrecorded, the
    activation overwrites phi and u is freed before the second product."""
    xd = x.data
    record = any(inp.requires_grad for inp in (x, w1, b1, w2, b2))

    def rows(i):
        lo, hi = spans[i]
        u = xd[lo:hi] @ w1.data
        u += b1.data
        phi = u * _INV_SQRT2
        erf(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        if record:
            out = (u * phi) @ w2.data
        else:  # no backward will read u or phi
            phi *= u
            del u
            out = phi @ w2.data
            u = phi = None
        out += b2.data
        return [u, phi, out]

    with lane(_rows(xd), xd.size) as held:
        spans = _halves(len(xd), held)
        parts = _each(rows, spans, held)
    outs = [part.pop() for part in parts]  # the graph keeps u and phi only
    out = outs[0] if len(outs) == 1 else np.concatenate(outs)

    def bw(g):
        with lane(_rows(g), g.size) as held:
            def reductions():
                act = np.empty(g.shape[:-1] + w2.shape[:1])
                for (lo, hi), (u, phi) in zip(spans, parts):
                    np.multiply(u, phi, out=act[lo:hi])
                return _reductions(act, w2, b2, g)

            reduced, dact = pair(reductions, lambda: _input_grad(w2, g), held)
            _accum_all(reduced)

            def rows(i):  # dact becomes du in place
                lo, hi = spans[i]
                u, phi = parts[i]
                pdf = np.exp(-0.5 * u * u) * _INV_SQRT2PI
                dact[lo:hi] *= phi + u * pdf

            _each(rows, spans, held)
            reduced, dx = pair(lambda: _reductions(xd, w1, b1, dact),
                               lambda: _input_grad(w1, dact), held)
            _accum_all(reduced)
            _accum(x, dx)

    return _make(out, (x, w1, b1, w2, b2), bw)


def residual_layer_norm(x: Tensor, a: Tensor, gamma: Tensor, beta: Tensor, p: float,
                        rng: np.random.Generator, training: bool) -> Tensor:
    """Post-norm residual `layer_norm(x + dropout(a))` as one op: inverted
    dropout at rate p on the branch a (none unless training), then the last
    axis normalized to zero mean and unit variance (1e-5 added to the
    variance) and the affine gamma, beta. Bit for bit the composed dropout,
    add and layer norm; x receives its grad before a. Backward computes
    every grad from the normalized values, the inverse deviation and the
    dropout mask; unrecorded, the affine overwrites the normalized values."""
    d = x.shape[-1]
    if a.shape != x.shape:
        raise ShapeError(f"residual branch shape {a.shape} != input shape {x.shape}")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer norm affine params must have shape ({d},)")
    keep = _dropout_keep(a.shape, p, rng, training)
    xd, ad = x.data, a.data
    record = any(inp.requires_grad for inp in (x, a, gamma, beta))
    xhat = np.empty(xd.shape)
    np.add(xd, ad if keep is None else ad * (keep / (1.0 - p)), out=xhat)
    mu = xhat.mean(axis=-1, keepdims=True)
    var = xhat.var(axis=-1, keepdims=True)
    inv = np.divide(1.0, np.sqrt(var + 1e-5))
    xhat -= mu
    xhat *= inv
    out = np.empty(xd.shape) if record else xhat
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead))
        _accum(beta, g.sum(axis=lead))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dr = (dxhat - m1 - xhat * m2) * inv
        _accum(x, dr)
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
