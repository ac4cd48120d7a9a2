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

from dataclasses import asdict, dataclass, field

import numpy as np

from .embedding import build_bank, embed_slot_batch, normalize_numeric
from .schema import CATEGORICAL, NUMERICAL, Schema, quantize_array
from .tensor import (
    Tensor, concat, dropout, embedding_gather, gelu, layer_norm, matmul,
    reshape, slice_, softmax, transpose,
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
    values: dict = field(default_factory=dict)  # type id -> stacked (cat ids, values, missing)

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
        n_slots = 0
        for h in type_order:
            members = np.array(groups[h], dtype=np.int64)
            k = schema.row_type(h).arity
            row_flat.append(members[:, 0] * t + members[:, 1])
            slot_base[members[:, 0], members[:, 1]] = n_slots + np.arange(len(members)) * k
            n_slots += len(members) * k
        layout = cls((b, t), type_order, groups, np.concatenate(row_flat), slot_base)
        layout.values = layout.stack(rows_by_sample)
        return layout

    def stack(self, rows_by_sample) -> dict:
        """Per row type, the members' (cat ids, values, missing flags) as
        (r, k) arrays; `rows_by_sample` must have this layout's row types."""
        out = {}
        for h in self.type_order:
            rows = [rows_by_sample[b][i] for b, i in self.groups[h]]
            out[h] = (np.stack([r.cat_ids for r in rows]), np.stack([r.num_vals for r in rows]),
                      np.stack([r.is_missing for r in rows]))
        return out

    def flatten(self, values: dict, schema: Schema):
        """Slot-order category ids, numerical values and attribute ids."""
        tables = schema.slots
        parts = [(values[h][0].reshape(-1), values[h][1].reshape(-1),
                  np.tile(tables.attr_id[h, :tables.arity[h]], len(self.groups[h])))
                 for h in self.type_order]
        return tuple(np.concatenate(p) for p in zip(*parts))


def smoothed_class_targets(labels: np.ndarray, q: int, eps: float) -> np.ndarray:
    """Rows of `training.smooth_categorical`, bit for bit: 1 - eps at the
    label, eps spread evenly over the other q - 1 classes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and not (0 <= labels.min() and labels.max() < q):
        raise ValueError(f"class labels out of range for vocabulary size {q}")
    if q == 1:
        return np.ones((labels.size, 1))
    p = np.full((labels.size, q), eps / (q - 1))
    p[np.arange(labels.size), labels] = 1.0 - eps
    return p


def smoothed_bin_targets(bins: np.ndarray, q: int, eps: float, radius: int) -> np.ndarray:
    """Rows of `training.smooth_neighborhood`, bit for bit: 1 - eps at the
    bin, eps shared by the in-range bins within `radius`, and all mass at
    the bin when it has no such neighbor."""
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

        self.bank, bank_params = build_bank(
            schema, config.d, config.m, config.freq_count,
            config.numeric_input, rng)
        self.params.update(bank_params)

        self._init_encoder("field", config.d, config.field_layers, rng)
        for rt in schema.row_types:
            dk = config.d * rt.arity
            self._param(f"proj.W.{rt.type_id}", (config.m, dk), rng)
            self._param(f"proj.S.{rt.type_id}", (dk, config.m), rng)
        self._param("seq.pos.table", (config.t_max + 1, config.m), rng)
        self._init_encoder("seq", config.m, config.seq_layers, rng)

        for name in sorted(schema.attributes):
            spec = schema.attributes[name]
            out = self._head_out_size(spec)
            self._param(f"heads.{name}.w1", (config.d, config.d), rng)
            self._param(f"heads.{name}.b1", (config.d,), rng, zero=True)
            self._param(f"heads.{name}.w2", (config.d, out), rng)
            self._param(f"heads.{name}.b2", (out,), rng, zero=True)

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

    def _head_out_size(self, spec) -> int:
        if spec.kind == NUMERICAL and self.config.numeric_target == "scalar":
            return 1
        return spec.target_size()

    def _init_task_head(self, rng) -> None:
        m = self.config.m
        out = 1 if self.config.task_head == "regression" else 2
        self._param("finetune.w1", (m, m), rng)
        self._param("finetune.b1", (m,), rng, zero=True)
        self._param("finetune.w2", (m, out), rng)
        self._param("finetune.b2", (out,), rng, zero=True)

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

    # -- encoder blocks

    def _linear(self, x: Tensor, name: str) -> Tensor:
        return matmul(x, self.params[f"{name}.weight"]) + self.params[f"{name}.bias"]

    def _attention(self, x: Tensor, p: str, heads: int, add_mask, rng, training) -> Tensor:
        b, t, w = x.shape
        hd = w // heads
        q = self._linear(x, f"{p}.attn.wq")
        k = matmul(x, self.params[f"{p}.attn.wk.weight"])
        v = self._linear(x, f"{p}.attn.wv")
        q = transpose(reshape(q, (b, t, heads, hd)), (0, 2, 1, 3))
        k = transpose(reshape(k, (b, t, heads, hd)), (0, 2, 1, 3))
        v = transpose(reshape(v, (b, t, heads, hd)), (0, 2, 1, 3))
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
        if add_mask is not None:
            scores = scores + add_mask
        probs = dropout(softmax(scores, axis=-1), self.config.dropout, rng, training)
        ctx = transpose(matmul(probs, v), (0, 2, 1, 3))
        return self._linear(reshape(ctx, (b, t, w)), f"{p}.attn.wo")

    def _ffn(self, x: Tensor, p: str) -> Tensor:
        return self._linear(gelu(self._linear(x, f"{p}.ffn.w1")), f"{p}.ffn.w2")

    def _ln(self, x: Tensor, p: str, which: str) -> Tensor:
        return layer_norm(x, self.params[f"{p}.{which}.gamma"], self.params[f"{p}.{which}.beta"])

    def _encoder(self, prefix: str, layers: int, heads: int, x: Tensor,
                 add_mask, rng, training) -> Tensor:
        """Post-norm blocks: each layer norm follows its residual add."""
        pdrop = self.config.dropout
        for i in range(layers):
            p = f"{prefix}.{i}"
            a = self._attention(x, p, heads, add_mask, rng, training)
            x = self._ln(x + dropout(a, pdrop, rng, training), p, "ln1")
            f = self._ffn(x, p)
            x = self._ln(x + dropout(f, pdrop, rng, training), p, "ln2")
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
        add_mask = Tensor(np.where(real, 0.0, -1e9)[:, None, None, :])
        out = self._encoder("seq", self.config.seq_layers, self.config.seq_heads,
                            x, add_mask, rng, training)
        return out * Tensor(real[:, :, None].astype(np.float64))

    def _head(self, attr: str, x: Tensor) -> Tensor:
        h = gelu(matmul(x, self.params[f"heads.{attr}.w1"]) + self.params[f"heads.{attr}.b1"])
        return matmul(h, self.params[f"heads.{attr}.w2"]) + self.params[f"heads.{attr}.b2"]

    # -- batch assembly shared by the two end-to-end passes

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
                e = embed_slot_batch(self.bank, self.schema.attributes[name],
                                     ids[:, s], vals[:, s], miss[:, s], maskf[:, s])
                slots.append(reshape(e, (r, 1, self.config.d)))
            x = self.field_forward(concat(slots, axis=1), rng, training)
            projected.append(self.project_row(x, h))
        return concat(projected, axis=0), layout

    def _assemble_sequence(self, proj: Tensor, layout: _RowLayout) -> tuple[Tensor, np.ndarray]:
        table = concat([proj, Tensor(np.zeros((1, self.config.m)))], axis=0)
        b, t = layout.shape
        gather_ids = np.full(b * t, proj.shape[0], dtype=np.int64)
        gather_ids[layout.row_flat] = np.arange(layout.row_flat.size)
        seq = reshape(embedding_gather(table, gather_ids), (b, t, self.config.m))
        return seq, gather_ids.reshape(b, t) < proj.shape[0]

    def pretrain_forward(self, batch, rng=None, training: bool = True) -> PretrainOutput:
        """Masked-token pass: logits (or scalar predictions in regression
        mode) are emitted only at masked positions, grouped per attribute in
        attribute-name order; within an attribute, targets keep (sample, row,
        field) order. Class and bin labels come from the untouched source
        values and are smoothed once per attribute for the whole batch."""
        rows_by_sample = [s.rows for s in batch]
        masks_by_sample = [s.mask for s in batch]
        b = len(batch)
        t = max(len(r) for r in rows_by_sample)
        if t > self.config.t_max:
            raise LengthError(f"sequence length {t} exceeds t_max={self.config.t_max}")
        n_masked = sum(len(s.targets) for s in batch)
        out = PretrainOutput(cat_groups=[], reg_groups=[], n_masked=n_masked)
        if n_masked == 0:
            return out
        smoothing = {(s.epsilon, s.neighborhood_radius) for s in batch}
        if len(smoothing) != 1:
            raise ModelError("all samples of a batch must share one label smoothing setting")
        (eps, radius), = smoothing
        proj, layout = self._project_rows(rows_by_sample, masks_by_sample, rng, training)
        seq, real = self._assemble_sequence(proj, layout)
        z = self.sequence_forward(seq, real, rng, training, with_cls=False)
        zflat = reshape(z, (b * t, self.config.m))
        zrows = embedding_gather(zflat, layout.row_flat)
        pieces = []
        off = 0
        for h in layout.type_order:
            r = len(layout.groups[h])
            k = self.schema.row_type(h).arity
            zh = self.unproject_row(slice_(zrows, (slice(off, off + r),)), h)
            pieces.append(reshape(zh, (r * k, self.config.d)))
            off += r
        slices = concat(pieces, axis=0)

        values = layout.values
        if any(s.source is not None for s in batch):
            values = layout.stack([s.rows if s.source is None else s.source for s in batch])
        cat_ids, num_vals, slot_attr = layout.flatten(values, self.schema)
        sample_of = np.repeat(np.arange(b), [len(s.targets) for s in batch])
        pos = np.concatenate([s.targets for s in batch])
        slot = layout.slot_base[sample_of, pos[:, 0]] + pos[:, 1]
        slot = slot[np.argsort(slot_attr[slot], kind="stable")]
        attr_ids, first = np.unique(slot_attr[slot], return_index=True)
        bounds = np.append(first, slot.size).tolist()
        for a, lo, hi in zip(attr_ids.tolist(), bounds, bounds[1:]):
            attr = self.schema.slots.names[a]
            idx = slot[lo:hi]
            pred = self._head(attr, embedding_gather(slices, idx))
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
        rows_by_sample = [s.rows for s in batch]
        b = len(batch)
        t = max(len(r) for r in rows_by_sample)
        if t > self.config.t_max:
            raise LengthError(f"sequence length {t} exceeds t_max={self.config.t_max}")
        proj, layout = self._project_rows(rows_by_sample, None, rng, training)
        seq, real = self._assemble_sequence(proj, layout)
        cls = reshape(embedding_gather(self.bank.cls_vec, np.zeros(b, dtype=np.int64)),
                      (b, 1, self.config.m))
        seq = concat([cls, seq], axis=1)
        real = np.concatenate([np.ones((b, 1), dtype=bool), real], axis=1)
        z = self.sequence_forward(seq, real, rng, training, with_cls=True)
        pooled = slice_(z, (slice(None), 0))
        h = gelu(matmul(pooled, self.params["finetune.w1"]) + self.params["finetune.b1"])
        outp = matmul(h, self.params["finetune.w2"]) + self.params["finetune.b2"]
        if self.config.task_head == "regression":
            return reshape(outp, (b,))
        return outp


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
