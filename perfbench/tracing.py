"""Spans recorded from the benchmark's side of each layer boundary.

Nothing here edits the library. A traced round wraps the calls the benchmark
makes into each layer's public functions, wraps four model methods and the
``finetune_forward``/``pretrain_forward`` passes on the traced model instance
only, and swaps the ``embed_slot_batch`` reference that ``unittab.model``
calls while the round runs. ``traced_pretrain`` and ``traced_finetune``
repeat ``unittab.training.pretrain``/``finetune`` call for call (same RNG
draws in the same order), so their loss curves must equal the library's
bit for bit; the benchmark fails the run when they do not.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

import unittab.model as model_module
from unittab.checkpoint import save_checkpoint
from unittab.data import balance_upsample, random_crop
from unittab.metrics import EvalReport, accuracy, average_precision, f1, roc_auc
from unittab.tensor import GradTape, cross_entropy_soft
from unittab.training import AdamW, apply_masking, predict, pretrain_loss

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL


class Tracer:
    """In-memory spans: [name, start, end, parent index, step id]. A span
    opened while ``step`` is set belongs to that training step."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.step: int | None = None
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.step]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def self_times(self) -> list[tuple[str, float, float, int | None]]:
        """(name, inclusive s, self s, step id) per span; self time is the
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[2] - s[1], s[2] - s[1] - c, s[4]) for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [{"name": n, "start": a, "end": b, "parent": p, "step": s}
                for n, a, b, p, s in self.spans]


def _wrapped(fn, name: str, tr: Tracer):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return inner


def instrument(model, tr: Tracer) -> None:
    """Span the model's own layer calls on this instance only."""
    for attr, name in (("field_forward", "model.field"), ("project_row", "model.project"),
                       ("unproject_row", "model.project"),
                       ("pretrain_forward", "model.pretrain_forward"),
                       ("finetune_forward", "model.finetune_forward")):
        setattr(model, attr, _wrapped(getattr(model, attr), name, tr))
    seq = model.sequence_forward

    def sequence_forward(row_vectors, pad_mask=None, *args, **kwargs):
        if tr.step is not None and pad_mask is not None:
            real = np.asarray(pad_mask, dtype=bool)
            tr.add("real_slots", int(real.sum()))
            tr.add("slots", real.size)
        with tr.span("model.sequence"):
            return seq(row_vectors, pad_mask, *args, **kwargs)
    model.sequence_forward = sequence_forward


@contextlib.contextmanager
def embedding_spans(tr: Tracer):
    """Span the embed_slot_batch calls the model module makes, for the
    duration of one traced round in this process."""
    orig = model_module.embed_slot_batch
    model_module.embed_slot_batch = _wrapped(orig, "embedding.embed", tr)
    try:
        yield
    finally:
        model_module.embed_slot_batch = orig


def _after_step(tr: Tracer, model, loss) -> None:
    """Exact per-step counts, taken outside every span."""
    tr.add("steps", 1)
    if loss is not None:
        tr.add("tape_ops", len(GradTape.trace(loss).ops))
        tr.add("adamw_params", sum(p.size for p in model.params.values() if p.grad is not None))


def traced_pretrain(data, model, cfg, tr: Tracer, checkpoint_path=None) -> list[float]:
    """``unittab.training.pretrain`` with spans; returns the loss curve."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    opt = AdamW(model.params, lr=cfg.lr, betas=cfg.betas,
                weight_decay=cfg.weight_decay, no_decay=model.no_decay)
    losses: list[float] = []
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for lo in range(0, len(order), cfg.batch_size):
            tr.step = steps
            loss = None
            with tr.span("step"):
                batch = []
                for i in order[lo:lo + cfg.batch_size]:
                    with tr.span("data.crop"):
                        crop = random_crop(data[i], model.config.t_max, rng)
                    with tr.span("training.masking"):
                        batch.append(apply_masking(crop, model.schema, cfg, rng))
                out = model.pretrain_forward(batch, rng, training=True)
                if out.n_masked == 0:
                    losses.append(0.0)
                    tr.add("skipped_steps", 1)
                else:
                    with tr.span("training.loss"):
                        loss = pretrain_loss(out, cfg)
                    model.zero_grad()
                    with tr.span("tensor.backward"):
                        loss.backward()
                    with tr.span("training.adamw"):
                        opt.step()
                    losses.append(loss.item())
                steps += 1
                if checkpoint_path and cfg.checkpoint_every and steps % cfg.checkpoint_every == 0:
                    with tr.span("checkpoint.save"):
                        save_checkpoint(checkpoint_path, model, opt, cfg, rng, steps)
            tr.step = None
            tr.add("masked_targets", sum(len(s.targets) for s in batch))
            tr.add("masked_fields", sum(int(m.sum()) for s in batch for m in s.mask))
            _after_step(tr, model, loss)
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                break
        else:
            continue
        break
    if checkpoint_path:
        with tr.span("checkpoint.save"):
            save_checkpoint(checkpoint_path, model, opt, cfg, rng, steps)
    return losses


def traced_evaluate(model, samples, tr: Tracer, batch_size: int = 64) -> EvalReport:
    """``unittab.training.evaluate`` for the binary task, with spans."""
    labels = np.asarray([s.label for s in samples], dtype=np.float64)
    with tr.span("training.predict"):
        scores = predict(model, samples, "binary", batch_size)
    with tr.span("metrics.score"):
        pred_labels = (scores > 0.5).astype(int)
        truth = labels.astype(int)
        tp = int(np.sum((pred_labels == 1) & (truth == 1)))
        fp = int(np.sum((pred_labels == 1) & (truth == 0)))
        tn = int(np.sum((pred_labels == 0) & (truth == 0)))
        fn = int(np.sum((pred_labels == 0) & (truth == 1)))
        return EvalReport(
            task="binary",
            metrics={
                "f1": f1(pred_labels, truth),
                "average_precision": average_precision(scores, truth),
                "roc_auc": roc_auc(scores, truth),
                "accuracy": accuracy(pred_labels, truth),
            },
            n_samples=len(samples),
            confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
            threshold=0.5,
        )


def traced_finetune(train_samples, test_samples, model, cfg, tr: Tracer):
    """``unittab.training.finetune`` for the binary task with default
    upsampling, with spans; returns (loss curve, closing EvalReport)."""
    cfg.validate()
    model.ensure_task_head("binary", seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    with tr.span("data.upsample"):
        train_samples = balance_upsample(list(train_samples), rng)
    opt = AdamW(dict(model.params), lr=cfg.lr, betas=cfg.betas,
                weight_decay=cfg.weight_decay, no_decay=model.no_decay)
    losses: list[float] = []
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_samples))
        for lo in range(0, len(order), cfg.batch_size):
            tr.step = steps
            with tr.span("step"):
                batch = [train_samples[i] for i in order[lo:lo + cfg.batch_size]]
                out = model.finetune_forward(batch, rng, training=True)
                with tr.span("training.loss"):
                    onehot = np.zeros((len(batch), 2))
                    for j, s in enumerate(batch):
                        onehot[j, int(s.label)] = 1.0
                    loss = cross_entropy_soft(out, onehot)
                model.zero_grad()
                with tr.span("tensor.backward"):
                    loss.backward()
                with tr.span("training.adamw"):
                    opt.step()
                losses.append(loss.item())
                steps += 1
            tr.step = None
            _after_step(tr, model, loss)
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                break
        else:
            continue
        break
    return losses, traced_evaluate(model, test_samples, tr)
