"""Pretraining and fine-tuning.

Masking plan: every row is row-masked with probability p_r (all fields);
independently every field unit is masked with probability p_f, where the
subfields of one timestamp form a single unit (jointly masked or jointly
unmasked). `apply_masking` decides a whole sample from one draw of
t + (number of units) doubles: t row draws, then the units of each row in
row order, using the per-row-type unit tables cached on the schema
(`Schema.slots`). Masked inputs are replaced by the [MASK] embedding.

Target format: a `MaskedSample` lists its predicted positions as an (n, 2)
array of (row, field) indices in row-major order; missing values are never
targets. `Model.pretrain_forward` groups the targets of a batch by
attribute and builds the smoothed distributions over the attribute's
vocabulary or quantization bins once per attribute (quantized values are
targets only, never inputs), with `model.smoothed_class_targets` and
`model.smoothed_bin_targets`.
Optimization is AdamW with decoupled weight decay; the loss averages cross
entropy over masked positions so the learning rate is batch-size stable.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .checkpoint import save_checkpoint
from .data import balance_upsample, random_crop
from .embedding import EncodedRow
from .metrics import (
    EvalReport, UndefinedMetricError, accuracy, average_precision, confusion, f1, rmse,
    roc_auc,
)
from .model import LengthError, Model, PretrainOutput
from .schema import Schema, TimeSeries
from .tensor import (
    NumericError, Tensor, concat, cross_entropy_soft, lane, mean, pair, softmax,
)


REGRESSION_WEIGHT = 50.0  # MSE weight of scalar targets (numeric_target="scalar")


class ConfigError(Exception):
    pass


class LabelError(Exception):
    pass


@dataclass
class TrainConfig:
    p_f: float = 0.15                 # field masking probability
    p_r: float = 0.1                  # row masking probability
    epsilon: float = 0.1              # label smoothing mass
    neighborhood_radius: int = 5
    lr: float = 5e-5
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    batch_size: int = 8               # 120 at full scale
    epochs: int = 1
    seed: int = 0
    max_steps: int | None = None
    checkpoint_every: int | None = None

    def validate(self) -> None:
        if not (0.0 <= self.p_f <= 1.0 and 0.0 <= self.p_r <= 1.0):
            raise ConfigError("masking probabilities must be in [0, 1]")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("label smoothing epsilon must be in [0, 1)")
        if self.neighborhood_radius < 0:
            raise ConfigError("neighborhood radius must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0 or None")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1 or None")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["betas"] = tuple(d.get("betas", (0.9, 0.999)))
        return cls(**d)


# ---------------------------------------------------------------------------
# masking


@dataclass
class MaskedSample:
    rows: list[EncodedRow]          # model inputs: the sample's rows, unchanged
    mask: list[np.ndarray]          # input-replacement flags, one bool array per row
    targets: np.ndarray             # (n, 2) int64 (row, field) predicted positions, row-major
    epsilon: float                  # label smoothing mass for the targets
    neighborhood_radius: int


def apply_masking(sample, schema: Schema, cfg: TrainConfig,
                  rng: np.random.Generator) -> MaskedSample:
    """Build the masking plan for one (encoded) sample.

    One draw of t + (masking units) doubles decides every row mask, then
    every unit mask, row by row. Fields whose value is missing can be
    input-masked (row masking masks everything) but contribute no target,
    since there is nothing to quantize.
    """
    rows = list(sample.rows)
    t = len(rows)
    tables = schema.slots
    types = np.fromiter((r.type_id for r in rows), dtype=np.int64, count=t)
    k = tables.arity[types]
    row_of = np.repeat(np.arange(t), k)
    starts = np.cumsum(k) - k
    field = np.arange(row_of.size) - starts[row_of]
    n_units = tables.n_units[types]
    unit = tables.unit[types[row_of], field]
    u = rng.random(t + int(n_units.sum()))
    unit_base = t + np.cumsum(n_units) - n_units
    mask = (u[unit_base[row_of] + unit] < cfg.p_f) | (u[:t] < cfg.p_r)[row_of]
    missing = np.concatenate([r.is_missing for r in rows]) if t else np.zeros(0, dtype=bool)
    pos = np.flatnonzero(mask & ~missing)
    targets = np.stack([row_of[pos], field[pos]], axis=1)
    ends = (starts + k).tolist()
    masks = [mask[a:b] for a, b in zip(starts.tolist(), ends)]
    return MaskedSample(rows, masks, targets, cfg.epsilon, cfg.neighborhood_radius)


# ---------------------------------------------------------------------------
# losses


def masked_token_loss(groups) -> Tensor:
    """Mean over masked positions of soft-target cross entropy. `groups`
    is a list of (attr, logits Tensor (N, q), target dists (N, q))."""
    n = sum(len(d) for _, _, d in groups)
    if n == 0:
        return Tensor(0.0)
    total: Tensor | None = None
    for _, logits, dists in groups:
        if logits.shape[0] != len(dists):
            raise ValueError(f"{logits.shape[0]} logits rows vs {len(dists)} targets")
        term = cross_entropy_soft(logits, dists) * (len(dists) / n)
        total = term if total is None else total + term
    return total


def regression_loss(preds: Tensor, targets: np.ndarray, ce_loss: Tensor,
                    weight: float) -> Tensor:
    """weight * MSE over masked numerical positions + cross entropy over
    masked categorical positions."""
    if preds.size == 0:
        return ce_loss
    diff = preds - Tensor(targets)
    return ce_loss + mean(diff * diff) * weight


def pretrain_loss(out: PretrainOutput, cfg: TrainConfig) -> Tensor:
    """The masked-token objective the model's numeric head implies: cross
    entropy over class and bin targets, plus REGRESSION_WEIGHT times the MSE
    over scalar targets, which only a numeric_target="scalar" model emits.
    `cfg` is unread; perfbench still passes it."""
    ce = masked_token_loss(out.cat_groups)
    if not out.reg_groups:
        return ce
    return regression_loss(concat([p for _, p, _ in out.reg_groups], axis=0),
                           np.concatenate([t for _, _, t in out.reg_groups]), ce,
                           REGRESSION_WEIGHT)


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Decoupled-weight-decay Adam with bias correction and eps 1e-8.
    Decay skips the names in `no_decay` (layer-norm gains/biases).
    Parameters without a gradient are left untouched, moments included; a
    non-finite gradient aborts the step before any parameter is mutated.

    A step updates the moments and the parameters in place, through two
    scratch buffers per lane, with the same IEEE operations in the same
    order as `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g`,
    `p -= lr * (m/bc1) / (sqrt(v/bc2) + 1e-8)` after the decay. The live
    parameters, in name order, form two contiguous groups of about equal
    size; when the worker lane is free (see `tensor.lane`), the second group
    is updated there."""

    def __init__(self, params: dict[str, Tensor], lr: float, betas: tuple[float, float],
                 weight_decay: float, no_decay: set[str]):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.no_decay = set(no_decay)
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0
        biggest = max((p.size for p in params.values()), default=0)
        self._scratch = np.empty((2, 2, biggest))  # per lane: two buffers

    def step(self) -> None:
        live = [(k, p) for k, p in sorted(self.params.items()) if p.grad is not None]
        for k, p in live:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for {k!r}; step aborted")
        self.t += 1
        sizes = np.cumsum([p.size for _, p in live])
        total = int(sizes[-1]) if live else 0
        cut = int(np.searchsorted(sizes, total / 2))
        with lane(len(live), total) as held:
            pair(lambda: self._update(live[:cut], self._scratch[0]),
                 lambda: self._update(live[cut:], self._scratch[1]), held)

    def _update(self, group, scratch: np.ndarray) -> None:
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in group:
            g, m, v = p.grad, self.m[k], self.v[k]
            s, update = (buf[:p.size].reshape(p.shape) for buf in scratch)
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += 1e-8
            np.divide(m, bc1, out=update)
            update /= s
            if self.weight_decay and k not in self.no_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            update *= self.lr
            p.data -= update


# ---------------------------------------------------------------------------
# metrics log (newline-delimited JSON)


class MetricsLog:
    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w") if path else None

    def write(self, step: int, split: str, metric: str, value: float) -> None:
        if self._fh:
            self._fh.write(json.dumps({"step": step, "split": split,
                                       "metric": metric, "value": float(value)}) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()


# ---------------------------------------------------------------------------
# loops


def _batched(items, size):
    for lo in range(0, len(items), size):
        yield items[lo:lo + size]


def _train_loop(step, n_items: int, model: Model, opt: AdamW, cfg: TrainConfig,
                rng: np.random.Generator, split: str, metrics_path=None,
                checkpoint_path=None) -> list[float]:
    """The optimisation loop both phases share. Each epoch draws one
    permutation of the n_items training items and hands `step` one batch
    of indices at a time; `step` returns the loss Tensor, or None when the
    batch has nothing to learn from (logged as 0.0, no optimizer step).
    Stops after cfg.max_steps steps; with a checkpoint path, saves every
    cfg.checkpoint_every steps and the last step, each step once."""
    chunks = (chunk for _ in range(cfg.epochs)
              for chunk in _batched(rng.permutation(n_items), cfg.batch_size))
    losses: list[float] = []
    saved = False
    log = MetricsLog(metrics_path)
    try:
        for chunk in itertools.islice(chunks, cfg.max_steps):
            loss = step(chunk)
            value = 0.0
            if loss is not None:
                model.zero_grad()
                loss.backward()
                opt.step()
                value = loss.item()
                loss = None  # this step's graph dies before the next batch is built
            log.write(len(losses), split, "loss", value)
            losses.append(value)
            saved = bool(checkpoint_path and cfg.checkpoint_every
                         and len(losses) % cfg.checkpoint_every == 0)
            if saved:
                save_checkpoint(checkpoint_path, model, opt, cfg, rng, len(losses))
    finally:
        log.close()
    if checkpoint_path and not saved:
        save_checkpoint(checkpoint_path, model, opt, cfg, rng, len(losses))
    return losses


@dataclass
class PretrainResult:
    losses: list[float]
    steps: int
    optimizer: AdamW


def pretrain(data: list[TimeSeries], model: Model, cfg: TrainConfig,
             metrics_path=None, checkpoint_path=None) -> PretrainResult:
    """Masked-token pretraining on encoded series (whole series or windows
    cut from them). Each epoch reshuffles the series and takes a fresh
    random crop of every over-long one; steps with zero masked positions
    are skipped (loss 0). Periodic checkpoints survive aborts; the last
    step is always saved, and only once."""
    cfg.validate()
    if cfg.p_f == 0.0 and cfg.p_r == 0.0:
        warnings.warn("p_f and p_r are both 0: nothing will be masked and the loss stays 0")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    opt = AdamW(model.params, lr=cfg.lr, betas=cfg.betas,
                weight_decay=cfg.weight_decay, no_decay=model.no_decay)

    def step(chunk):
        batch = [apply_masking(random_crop(data[i], model.config.t_max, rng),
                               model.schema, cfg, rng)
                 for i in chunk]
        out = model.pretrain_forward(batch, rng, training=True)
        return pretrain_loss(out, cfg) if out.n_masked else None

    losses = _train_loop(step, len(data), model, opt, cfg, rng, "pretrain",
                         metrics_path, checkpoint_path)
    return PretrainResult(losses, len(losses), opt)


def _score_batch(model: Model, batch, task: str) -> np.ndarray:
    out = model.finetune_forward(batch, rng=None, training=False)
    return out.data if task == "regression" else softmax(out, axis=-1).data[:, 1]


def predict(model: Model, samples, task: str, batch_size: int = 64):
    """Deterministic forward (dropout off) with every parameter frozen, so
    no batch records a tape. Returns one value per sample: the prediction
    for regression, P(class 1) for binary.

    The batches are the `batch_size` slices of `samples` in order, taken
    in pairs. When the library's worker lane is free (`tensor.lane`: the
    process may run on two or more CPUs and no other caller holds it), the
    calling thread scores the first batch of a pair while the lane scores
    the second; numpy's products and ufuncs release the GIL, so the two
    overlap. The lane is held only while a batch runs on it, and inside a
    paired batch every fused op runs whole on its own thread. A batch
    scored alone (the only batch, the odd last one, or a pair whose lane
    was busy) may split its fused ops across the lane itself. Each score is
    computed from the same batch by the same operations either way, so it
    has the same bits; results join in batch order. At most two batches are
    in flight, so inference holds at most two batches' intermediates at
    once. Both lanes run inside one `model.frozen` block, which exits only
    after the lane's batch has finished, also on error; the error of the
    earliest failing batch is raised."""
    batches = list(_batched(samples, batch_size))
    scores = []
    with model.frozen():
        for lo in range(0, len(batches), 2):
            first, *rest = batches[lo:lo + 2]
            with lane(1 + len(rest)) as held:
                here, there = pair(lambda: _score_batch(model, first, task),
                                   lambda: [_score_batch(model, b, task) for b in rest], held)
            scores += [here, *there]
    return np.concatenate(scores) if scores else np.zeros(0)


def _check_binary_labels(samples, split: str, use: str, error) -> None:
    """Raise LabelError unless every label of `samples` is 0 or 1, and
    `error` unless both classes occur; `split` names the samples and `use`
    what they are for in the messages."""
    bad = [s.label for s in samples if s.label not in (0, 1)]
    if bad:
        raise LabelError(f"binary tasks need labels 0 or 1; the {split} split has "
                         f"{len(bad)} other label(s), first {bad[0]!r}")
    n_pos = sum(1 for s in samples if s.label == 1)
    if n_pos in (0, len(samples)):
        raise error(f"binary {use} needs both classes in the {split} split; it has "
                    f"{n_pos} positive and {len(samples) - n_pos} negative samples")


def _check_test_split(samples, task: str) -> None:
    """Raise unless `task`'s metrics are defined on the test `samples`."""
    if task == "binary":
        _check_binary_labels(samples, "test", "evaluation", UndefinedMetricError)
    elif not samples:
        raise UndefinedMetricError("regression evaluation needs a nonempty test split")


def evaluate(model: Model, samples, task: str, batch_size: int = 64) -> EvalReport:
    _check_test_split(samples, task)
    labels = np.asarray([s.label for s in samples], dtype=np.float64)
    scores = predict(model, samples, task, batch_size)
    if task == "regression":
        return EvalReport(task="regression", metrics={"rmse": rmse(scores, labels)},
                          n_samples=len(samples))
    pred_labels = (scores > 0.5).astype(int)
    truth = labels.astype(int)
    tp, fp, fn, tn = confusion(pred_labels, truth)
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


@dataclass
class FinetuneResult:
    report: EvalReport
    losses: list[float]


def finetune(train_samples, test_samples, model: Model, task: str, cfg: TrainConfig,
             metrics_path=None) -> FinetuneResult:
    """Supervised fine-tuning through a [CLS] head: MSE for regression,
    cross entropy for binary classification with the positives upsampled
    to balance. Every parameter trains, the backbone's included. Both
    splits are checked before the task head is added or any step is
    taken."""
    cfg.validate()
    if task not in ("regression", "binary"):
        raise ConfigError(f"unknown task {task!r}")
    if any(s.label is None for s in train_samples) or any(s.label is None for s in test_samples):
        raise LabelError(f"{task} fine-tuning needs a label on every sample")
    if not train_samples:
        raise LabelError(f"{task} fine-tuning needs a nonempty training split")
    if task == "binary":
        _check_binary_labels(train_samples, "training", "fine-tuning", LabelError)
    _check_test_split(test_samples, task)
    t_max = model.config.t_max
    for split, samples in (("training", train_samples), ("test", test_samples)):
        i = max(range(len(samples)), key=lambda j: len(samples[j].rows))
        if len(samples[i].rows) > t_max:
            raise LengthError(f"{split} sample {i} has {len(samples[i].rows)} rows, more than "
                              f"the model's t_max={t_max}")
    model.ensure_task_head(task, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    if task == "binary":
        train_samples = balance_upsample(list(train_samples), rng)
    labels = np.asarray([s.label for s in train_samples], dtype=np.float64)
    label_mu, label_sd = 0.0, 1.0
    if task == "regression":
        # train on standardized labels; the affine folds back into the head
        # afterwards so the checkpointed model predicts raw scale
        label_mu = float(labels.mean())
        label_sd = float(labels.std()) or 1.0
    opt = AdamW(model.params, lr=cfg.lr, betas=cfg.betas,
                weight_decay=cfg.weight_decay, no_decay=model.no_decay)

    def step(chunk):
        out = model.finetune_forward([train_samples[i] for i in chunk], rng, training=True)
        if task == "regression":
            diff = out - Tensor((labels[chunk] - label_mu) / label_sd)
            return mean(diff * diff)
        return cross_entropy_soft(out, np.eye(2)[labels[chunk].astype(np.int64)])

    losses = _train_loop(step, len(train_samples), model, opt, cfg, rng, "finetune",
                         metrics_path)
    if task == "regression" and (label_mu != 0.0 or label_sd != 1.0):
        model.params["finetune.w2"].data *= label_sd
        model.params["finetune.b2"].data = model.params["finetune.b2"].data * label_sd + label_mu
    return FinetuneResult(evaluate(model, test_samples, task), losses)
