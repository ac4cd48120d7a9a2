"""Two-level transformer over tabular time series.

A Field Transformer attends across the embedded fields of one row (no
positional encoding; fields are order-free). Each row's field outputs are
flattened and mapped to the fixed sequence width m by a row-type-specific
matrix W_h; the Sequence Transformer (learned positional embeddings, padding
masked out of attention) attends across the per-row vectors, optionally with
a [CLS] slot at position 0 for fine-tuning. For pretraining, each row output
is mapped back to width d * k_h by S_h, split into per-field slices, and fed
to per-attribute prediction heads at masked positions.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from .embedding import build_bank, embed_slot_batch, normalize_numeric
from .schema import CATEGORICAL, NUMERICAL, Schema, quantize_array
from .tensor import (
    Tensor, attention, concat, embedding_gather, feed_forward, gelu, matmul, reshape,
    residual_layer_norm, slice_, transpose,
)


class ModelError(Exception):
    pass


class LengthError(ModelError):
    pass


@dataclass
class ModelConfig:
    d: int = 16                    # field embedding width
    m: int = 64                    # sequence width
    field_layers: int = 1
    field_heads: int = 4
    seq_layers: int = 2
    seq_heads: int = 4
    ff_multiplier: int = 4
    dropout: float = 0.1
    freq_count: int = 8            # L sin/cos frequency pairs
    t_max: int = 10
    numeric_input: str = "frequency"   # "frequency" | "binned"
    numeric_target: str = "bins"       # "bins" | "scalar" (regression ablation)
    n_row_types: int = 1
    task_head: str | None = None       # "regression" | "binary", set at fine-tune time

    def validate(self) -> None:
        if self.d % self.field_heads or self.m % self.seq_heads:
            raise ModelError("head count must divide the corresponding width")
        if self.numeric_input not in ("frequency", "binned"):
            raise ModelError(f"unknown numeric_input {self.numeric_input!r}")
        if self.numeric_target not in ("bins", "scalar"):
            raise ModelError(f"unknown numeric_target {self.numeric_target!r}")
        if self.task_head not in (None, "regression", "binary"):
            raise ModelError(f"unknown task_head {self.task_head!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must be in [0, 1)")

    @classmethod
    def desk_preset(cls, **overrides) -> "ModelConfig":
        return cls(d=16, m=64, field_layers=1, field_heads=4, seq_layers=2, seq_heads=4,
                   **overrides)

    @classmethod
    def full_preset(cls, **overrides) -> "ModelConfig":
        # full-scale layer/head counts; widths kept desk-friendly because
        # hundred-million-parameter training is out of scope
        return cls(d=64, m=144, field_layers=1, field_heads=8, seq_layers=12, seq_heads=12,
                   **overrides)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class PretrainOutput:
    """Per-attribute groupings of masked-position predictions."""
    cat_groups: list  # (attr, logits Tensor (N, q), target dists ndarray (N, q))
    reg_groups: list  # (attr, preds Tensor (N,), scalar targets ndarray (N,))
    n_masked: int = 0


@dataclass
class _RowLayout:
    """Where the rows of a batch sit once grouped by row type: types in
    ascending id, rows of one type in (sample, row) order, and the fields of
    the grouped rows numbered consecutively as slots."""
    shape: tuple[int, int]                    # (B, T)
    type_order: list[int]
    groups: dict[int, list[tuple[int, int]]]  # type id -> (sample, row) members
    row_flat: np.ndarray                      # sample * T + row, per grouped row
    slot_base: np.ndarray                     # (B, T) slot of each row's first field
    values: dict                              # type id -> stacked (cat ids, values, missing)

    @classmethod
    def build(cls, rows_by_sample, schema: Schema) -> "_RowLayout":
        b, t = len(rows_by_sample), max(len(r) for r in rows_by_sample)
        groups: dict[int, list[tuple[int, int]]] = {}
        for bb, rows in enumerate(rows_by_sample):
            for i, row in enumerate(rows):
                groups.setdefault(row.type_id, []).append((bb, i))
        type_order = sorted(groups)
        row_flat = []
        slot_base = np.full((b, t), -1, dtype=np.int64)
        values = {}
        n_slots = 0
        for h in type_order:
            members = np.array(groups[h], dtype=np.int64)
            k = schema.row_type(h).arity
            row_flat.append(members[:, 0] * t + members[:, 1])
            slot_base[members[:, 0], members[:, 1]] = n_slots + np.arange(len(members)) * k
            n_slots += len(members) * k
            rows = [rows_by_sample[bb][i] for bb, i in groups[h]]
            values[h] = (np.stack([r.cat_ids for r in rows]), np.stack([r.num_vals for r in rows]),
                         np.stack([r.is_missing for r in rows]))
        return cls((b, t), type_order, groups, np.concatenate(row_flat), slot_base, values)

    def flatten(self, schema: Schema):
        """Slot-order category ids, numerical values and attribute ids."""
        tables = schema.slots
        parts = [(self.values[h][0].reshape(-1), self.values[h][1].reshape(-1),
                  np.tile(tables.attr_id[h, :tables.arity[h]], len(self.groups[h])))
                 for h in self.type_order]
        return tuple(np.concatenate(p) for p in zip(*parts))


def smoothed_class_targets(labels: np.ndarray, q: int, eps: float) -> np.ndarray:
    """One target row per label: 1 - eps at the label, eps spread evenly
    over the other q - 1 classes. This is bin smoothing with a radius that
    spans the vocabulary."""
    return smoothed_bin_targets(labels, q, eps, q)


def smoothed_bin_targets(bins: np.ndarray, q: int, eps: float, radius: int) -> np.ndarray:
    """One target row per bin: 1 - eps at the bin, eps shared by the
    in-range bins within `radius`, and all mass at the bin when it has no
    such neighbor."""
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size and not (0 <= bins.min() and bins.max() < q):
        raise ValueError(f"bins out of range for {q} bins")
    near = np.abs(np.arange(q) - bins[:, None]) <= radius
    n_near = near.sum(axis=1) - 1
    p = np.where(near, (eps / np.maximum(n_near, 1))[:, None], 0.0)
    p[np.arange(bins.size), bins] = np.where(n_near > 0, 1.0 - eps, 1.0)
    return p


class Model:
    def __init__(self, config: ModelConfig, schema: Schema, seed: int = 0):
        config.validate()
        if config.n_row_types != schema.n_row_types:
            raise ModelError(
                f"config.n_row_types={config.n_row_types} but schema has {schema.n_row_types}")
        self.config = config
        self.schema = schema
        self.params: dict[str, Tensor] = {}
        self.no_decay: set[str] = set()
        rng = np.random.default_rng(np.random.SeedSequence([seed]))

        self.params.update(build_bank(schema, config.d, config.m, config.freq_count,
                                      config.numeric_input, rng))

        self._init_encoder("field", config.d, config.field_layers, rng)
        for rt in schema.row_types:
            dk = config.d * rt.arity
            self._param(f"proj.W.{rt.type_id}", (config.m, dk), rng)
            self._param(f"proj.S.{rt.type_id}", (dk, config.m), rng)
        self._param("seq.pos.table", (config.t_max + 1, config.m), rng)
        self._init_encoder("seq", config.m, config.seq_layers, rng)

        for name in sorted(schema.attributes):
            spec = schema.attributes[name]
            scalar = spec.kind == NUMERICAL and config.numeric_target == "scalar"
            self._init_head(f"heads.{name}", config.d, 1 if scalar else spec.target_size(), rng)

        if config.task_head:
            self._init_task_head(rng)

    # -- parameter plumbing

    def _param(self, name: str, shape, rng, zero: bool = False, one: bool = False) -> Tensor:
        if zero:
            data = np.zeros(shape)
        elif one:
            data = np.ones(shape)
        else:  # Xavier for dense maps, small-normal for tables
            std = (np.sqrt(2.0 / (shape[0] + shape[1]))
                   if len(shape) == 2 and "table" not in name else 0.02)
            data = rng.normal(0.0, std, size=shape)
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        return t

    def _init_encoder(self, prefix: str, width: int, layers: int, rng) -> None:
        ff = self.config.ff_multiplier * width
        for i in range(layers):
            p = f"{prefix}.{i}"
            for part in ("wq", "wk", "wv", "wo"):
                self._param(f"{p}.attn.{part}.weight", (width, width), rng)
                if part != "wk":  # a key bias shifts all scores equally; softmax ignores it
                    self._param(f"{p}.attn.{part}.bias", (width,), rng, zero=True)
            for ln in ("ln1", "ln2"):
                self._param(f"{p}.{ln}.gamma", (width,), rng, one=True)
                self._param(f"{p}.{ln}.beta", (width,), rng, zero=True)
                self.no_decay.update({f"{p}.{ln}.gamma", f"{p}.{ln}.beta"})
            self._param(f"{p}.ffn.w1.weight", (width, ff), rng)
            self._param(f"{p}.ffn.w1.bias", (ff,), rng, zero=True)
            self._param(f"{p}.ffn.w2.weight", (ff, width), rng)
            self._param(f"{p}.ffn.w2.bias", (width,), rng, zero=True)

    def _init_head(self, prefix: str, width: int, out: int, rng) -> None:
        self._param(f"{prefix}.w1", (width, width), rng)
        self._param(f"{prefix}.b1", (width,), rng, zero=True)
        self._param(f"{prefix}.w2", (width, out), rng)
        self._param(f"{prefix}.b2", (out,), rng, zero=True)

    def _init_task_head(self, rng) -> None:
        self._init_head("finetune", self.config.m,
                        1 if self.config.task_head == "regression" else 2, rng)

    def ensure_task_head(self, task: str, seed: int = 0) -> None:
        if task not in ("regression", "binary"):
            raise ModelError(f"unknown task {task!r}")
        if self.config.task_head == task and "finetune.w1" in self.params:
            return
        if self.config.task_head not in (None, task):
            raise ModelError(f"model already carries a {self.config.task_head} head")
        self.config.task_head = task
        self._init_task_head(np.random.default_rng(np.random.SeedSequence([seed, 0xF1])))

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    @contextlib.contextmanager
    def frozen(self, names):
        """Clear `requires_grad` on the named parameters for the body and
        restore each flag on exit, also when the body raises. An op none of
        whose inputs needs a gradient keeps no backward closure, so a forward
        pass under `frozen(self.params)` builds no tape at all."""
        saved = [(p, p.requires_grad) for p in (self.params[k] for k in names)]
        for p, _ in saved:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in saved:
                p.requires_grad = flag

    # -- encoder blocks

    def _encoder(self, prefix: str, layers: int, heads: int, x: Tensor,
                 add_mask, rng, training) -> Tensor:
        """Post-norm blocks: each layer norm follows its residual add. Every
        sublayer is one fused tape op: `attention`, `feed_forward` and
        `residual_layer_norm` from `tensor`."""
        pdrop, P = self.config.dropout, self.params
        for i in range(layers):
            n = f"{prefix}.{i}"
            a = attention(x, *(P[f"{n}.attn.{k}"] for k in (
                "wq.weight", "wq.bias", "wk.weight", "wv.weight", "wv.bias", "wo.weight",
                "wo.bias")), heads, add_mask, pdrop, rng, training)
            x = residual_layer_norm(x, a, P[f"{n}.ln1.gamma"], P[f"{n}.ln1.beta"],
                                    pdrop, rng, training)
            f = feed_forward(x, *(P[f"{n}.ffn.{k}"] for k in (
                "w1.weight", "w1.bias", "w2.weight", "w2.bias")))
            x = residual_layer_norm(x, f, P[f"{n}.ln2.gamma"], P[f"{n}.ln2.beta"],
                                    pdrop, rng, training)
        return x

    # -- the four architectural operations

    def field_forward(self, x: Tensor, rng=None, training: bool = False) -> Tensor:
        """Encode a batch of rows' field embeddings (R, k, d). No positional
        encoding: the stack is permutation-equivariant."""
        return self._encoder("field", self.config.field_layers, self.config.field_heads,
                             x, None, rng, training)

    def project_row(self, field_out: Tensor, h: int) -> Tensor:
        """Flatten (R, k_h, d) in attribute order and apply W_h: -> (R, m)."""
        rt = self.schema.row_type(h)
        if field_out.shape[-2] != rt.arity:
            raise ModelError(f"row type {h} expects {rt.arity} fields, got {field_out.shape[-2]}")
        flat = reshape(field_out, (field_out.shape[0], -1))
        return matmul(flat, transpose(self.params[f"proj.W.{h}"]))

    def unproject_row(self, z: Tensor, h: int) -> Tensor:
        """Apply S_h to (R, m) and reshape to (R, k_h, d) per-field slices."""
        rt = self.schema.row_type(h)
        out = matmul(z, transpose(self.params[f"proj.S.{h}"]))
        return reshape(out, (z.shape[0], rt.arity, self.config.d))

    def sequence_forward(self, row_vectors: Tensor, pad_mask=None, rng=None,
                         training: bool = False, with_cls: bool = False) -> Tensor:
        """Sequence encoder with learned positions. Row i always sits at
        position i+1; position 0 is reserved for [CLS] (present iff
        with_cls). Padded slots are excluded from attention and zeroed.
        `row_vectors` is (B, T, m)."""
        b, t, m = row_vectors.shape
        n_rows = t - 1 if with_cls else t
        if n_rows > self.config.t_max:
            raise LengthError(f"sequence length {n_rows} exceeds t_max={self.config.t_max}")
        if pad_mask is None:
            real = np.ones((b, t), dtype=bool)
        else:
            real = np.asarray(pad_mask, dtype=bool).reshape(b, t)
        if not real.any(axis=1).all():
            raise LengthError("all-pad sequence rejected")
        positions = np.arange(t) if with_cls else np.arange(1, t + 1)
        pos = embedding_gather(self.params["seq.pos.table"], positions)
        x = row_vectors + pos
        add_mask = np.where(real, 0.0, -1e9)[:, None, None, :]
        out = self._encoder("seq", self.config.seq_layers, self.config.seq_heads,
                            x, add_mask, rng, training)
        return out * Tensor(real[:, :, None].astype(np.float64))

    def _head(self, prefix: str, x: Tensor) -> Tensor:
        """Two-layer GELU MLP: `heads.<attr>` or the task head `finetune`."""
        P = self.params
        h = gelu(matmul(x, P[f"{prefix}.w1"]) + P[f"{prefix}.b1"])
        return matmul(h, P[f"{prefix}.w2"]) + P[f"{prefix}.b2"]

    # -- batch encoding shared by the two end-to-end passes

    def _project_rows(self, rows_by_sample, masks_by_sample, rng, training):
        """Group all rows by type, embed fields, run the Field Transformer,
        and project to width m. Returns the type-grouped projection tensor
        and the batch's _RowLayout."""
        layout = _RowLayout.build(rows_by_sample, self.schema)
        projected = []
        for h in layout.type_order:
            members = layout.groups[h]
            rt = self.schema.row_type(h)
            r = len(members)
            ids, vals, miss = layout.values[h]
            if masks_by_sample is None:
                maskf = np.zeros((r, rt.arity), dtype=bool)
            else:
                maskf = np.stack([masks_by_sample[b][i] for b, i in members])
            slots = []
            for s, name in enumerate(rt.attributes):
                e = embed_slot_batch(self.params, self.schema.attributes[name],
                                     ids[:, s], vals[:, s], miss[:, s], maskf[:, s])
                slots.append(reshape(e, (r, 1, self.config.d)))
            x = self.field_forward(concat(slots, axis=1), rng, training)
            projected.append(self.project_row(x, h))
        return concat(projected, axis=0), layout

    def _encode(self, rows_by_sample, masks_by_sample, rng, training: bool,
                with_cls: bool) -> tuple[Tensor, _RowLayout]:
        """`_project_rows`, then the row vectors at their sequence positions
        (zero rows pad), behind a [CLS] slot when `with_cls`, through the
        Sequence Transformer. Returns its output and the _RowLayout."""
        proj, layout = self._project_rows(rows_by_sample, masks_by_sample, rng, training)
        (b, t), m, n = layout.shape, self.config.m, proj.shape[0]
        gather_ids = np.full(b * t, n, dtype=np.int64)
        gather_ids[layout.row_flat] = np.arange(layout.row_flat.size)
        seq = reshape(embedding_gather(concat([proj, Tensor(np.zeros((1, m)))], axis=0),
                                       gather_ids), (b, t, m))
        real = gather_ids.reshape(b, t) < n
        if with_cls:
            cls = embedding_gather(self.params["embed.cls"], np.zeros(b, dtype=np.int64))
            seq = concat([reshape(cls, (b, 1, m)), seq], axis=1)
            real = np.concatenate([np.ones((b, 1), dtype=bool), real], axis=1)
        return self.sequence_forward(seq, real, rng, training, with_cls=with_cls), layout

    def pretrain_forward(self, batch, rng=None, training: bool = True) -> PretrainOutput:
        """Masked-token pass: logits (or scalar predictions in regression
        mode) are emitted only at masked positions, grouped per attribute in
        attribute-name order; within an attribute, targets keep (sample, row,
        field) order. Class and bin labels come from the rows' values, which
        masking leaves in place (a masked input only swaps its embedding for
        [MASK]), and are smoothed once per attribute for the whole batch."""
        rows_by_sample = [s.rows for s in batch]
        t = max(len(r) for r in rows_by_sample)
        if t > self.config.t_max:  # sequence_forward's check, ahead of the zero-target return
            raise LengthError(f"sequence length {t} exceeds t_max={self.config.t_max}")
        n_masked = sum(len(s.targets) for s in batch)
        out = PretrainOutput(cat_groups=[], reg_groups=[], n_masked=n_masked)
        if n_masked == 0:
            return out
        smoothing = {(s.epsilon, s.neighborhood_radius) for s in batch}
        if len(smoothing) != 1:
            raise ModelError("all samples of a batch must share one label smoothing setting")
        (eps, radius), = smoothing
        z, layout = self._encode(rows_by_sample, [s.mask for s in batch], rng, training,
                                 with_cls=False)
        zrows = embedding_gather(reshape(z, (-1, self.config.m)), layout.row_flat)
        pieces = []
        off = 0
        for h in layout.type_order:
            r = len(layout.groups[h])
            k = self.schema.row_type(h).arity
            zh = self.unproject_row(slice_(zrows, (slice(off, off + r),)), h)
            pieces.append(reshape(zh, (r * k, self.config.d)))
            off += r
        slices = concat(pieces, axis=0)

        cat_ids, num_vals, slot_attr = layout.flatten(self.schema)
        sample_of = np.repeat(np.arange(len(batch)), [len(s.targets) for s in batch])
        pos = np.concatenate([s.targets for s in batch])
        slot = layout.slot_base[sample_of, pos[:, 0]] + pos[:, 1]
        slot = slot[np.argsort(slot_attr[slot], kind="stable")]
        attr_ids, first = np.unique(slot_attr[slot], return_index=True)
        bounds = np.append(first, slot.size).tolist()
        for a, lo, hi in zip(attr_ids.tolist(), bounds, bounds[1:]):
            attr = self.schema.slots.names[a]
            idx = slot[lo:hi]
            pred = self._head(f"heads.{attr}", embedding_gather(slices, idx))
            spec = self.schema.attributes[attr]
            if spec.kind == CATEGORICAL:
                dists = smoothed_class_targets(cat_ids[idx], len(spec.vocab), eps)
                out.cat_groups.append((attr, pred, dists))
            elif self.config.numeric_target == "scalar":
                scalars = np.clip(normalize_numeric(num_vals[idx], spec), 0.0, 1.0)
                out.reg_groups.append((attr, reshape(pred, (idx.size,)), scalars))
            else:
                dists = smoothed_bin_targets(quantize_array(num_vals[idx], spec),
                                             spec.n_bins, eps, radius)
                out.cat_groups.append((attr, pred, dists))
        return out

    def finetune_forward(self, batch, rng=None, training: bool = False) -> Tensor:
        """[CLS]-pooled task output: (B,) for regression, (B, 2) for binary."""
        if self.config.task_head is None:
            raise ModelError("model has no task head; call ensure_task_head first")
        z, _ = self._encode([s.rows for s in batch], None, rng, training, with_cls=True)
        out = self._head("finetune", slice_(z, (slice(None), 0)))
        if self.config.task_head == "regression":
            return reshape(out, (len(batch),))
        return out


# ---------------------------------------------------------------------------
# parameter accounting


def _encoder_param_count(width: int, layers: int, ff_mult: int) -> int:
    ff = ff_mult * width
    per = 4 * width * width + 3 * width        # q, k, v, o (no key bias)
    per += 2 * 2 * width                       # two layer norms
    per += width * ff + ff + ff * width + width  # feed-forward
    return layers * per


def expected_param_count(config: ModelConfig, schema: Schema) -> int:
    """Closed-form parameter count; must match runtime enumeration exactly."""
    d, m, L = config.d, config.m, config.freq_count
    total = 0
    for name in sorted(schema.attributes):
        spec = schema.attributes[name]
        if spec.kind == CATEGORICAL:
            total += len(spec.vocab) * d
        elif config.numeric_input == "frequency":
            total += 2 * L * d + d
        else:
            total += spec.n_bins * d
    total += d + d + m                          # [MASK], [MISSING], sequence [CLS]
    total += _encoder_param_count(d, config.field_layers, config.ff_multiplier)
    for rt in schema.row_types:
        total += 2 * m * d * rt.arity           # W_h and S_h
    total += (config.t_max + 1) * m
    total += _encoder_param_count(m, config.seq_layers, config.ff_multiplier)
    for name in sorted(schema.attributes):
        spec = schema.attributes[name]
        out = 1 if (spec.kind == NUMERICAL and config.numeric_target == "scalar") \
            else spec.target_size()
        total += d * d + d + d * out + out
    if config.task_head:
        out = 1 if config.task_head == "regression" else 2
        total += m * m + m + m * out + out
    return total
