"""Versioned, bit-exact checkpoint files.

Layout: 8-byte magic "UNITTABC", u32 format version (little endian), u64
JSON manifest length, the manifest (configs, schema hash, step, PRNG state,
and a name/shape/offset table), then raw little-endian float64 tensor
payloads. Tensors are written in sorted name order; optimizer moments are
stored as "opt.m.<param>" / "opt.v.<param>". Save -> load -> save is
byte-identical, and loading under a mismatched schema hash is refused.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .model import Model, ModelConfig
from .schema import Schema, schema_hash

MAGIC = b"UNITTABC"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class CheckpointState:
    model: Model
    optimizer: "AdamW"
    train_config: "TrainConfig"
    rng: np.random.Generator
    step: int


def _collect_tensors(model: Model, optimizer) -> dict[str, np.ndarray]:
    tensors = {name: p.data for name, p in model.params.items()}
    if optimizer is not None:
        for name in model.params:
            tensors[f"opt.m.{name}"] = optimizer.m[name]
            tensors[f"opt.v.{name}"] = optimizer.v[name]
    return tensors


def _config_from(cls, d: dict, what: str):
    """cls.from_dict(d), refusing by name any key that cls has no field
    for, such as an option removed since the checkpoint was written."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(f"checkpoint {what} has unknown key(s) "
                              f"{', '.join(map(repr, unknown))}; refusing to load")
    return cls.from_dict(d)


def save_checkpoint(path, model: Model, optimizer, train_cfg, rng, step: int) -> None:
    tensors = _collect_tensors(model, optimizer)
    table = []
    offset = 0
    for name in sorted(tensors):
        arr = tensors[name]
        table.append({"name": name, "shape": list(arr.shape),
                      "offset": offset, "numel": int(arr.size)})
        offset += arr.size * 8
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "train_config": train_cfg.to_dict() if train_cfg is not None else None,
        "schema_hash": schema_hash(model.schema),
        "step": int(step),
        "optimizer_t": int(optimizer.t) if optimizer is not None else None,
        "rng_state": rng.bit_generator.state if rng is not None else None,
        "tensors": table,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in sorted(tensors):
            f.write(memoryview(np.ascontiguousarray(tensors[name], dtype="<f8")).cast("B"))
    os.replace(tmp, path)


def load_checkpoint(path, schema: Schema) -> CheckpointState:
    from .training import AdamW, TrainConfig  # imported here to avoid a cycle

    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}: not a {MAGIC.decode()} checkpoint")
        head = f.read(12)
        if len(head) != 12:
            raise CheckpointError("truncated checkpoint header")
        version, = struct.unpack("<I", head[:4])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        mlen, = struct.unpack("<Q", head[4:])
        blob = f.read(mlen)
        if len(blob) != mlen:
            raise CheckpointError("truncated checkpoint manifest")
        manifest = json.loads(blob)
        payload = f.read()

    want = schema_hash(schema)
    got = manifest["schema_hash"]
    if got != want:
        raise CheckpointError(
            f"schema hash mismatch: checkpoint was written for {got[:12]}..., "
            f"the supplied schema hashes to {want[:12]}...; refusing to load")

    expected = sum(e["numel"] for e in manifest["tensors"]) * 8
    if len(payload) != expected:
        raise CheckpointError(f"truncated payload: {len(payload)} bytes, expected {expected}")

    arrays: dict[str, np.ndarray] = {}
    for e in manifest["tensors"]:
        raw = payload[e["offset"]:e["offset"] + e["numel"] * 8]
        arrays[e["name"]] = np.frombuffer(raw, dtype="<f8").reshape(e["shape"]).copy()

    config = _config_from(ModelConfig, manifest["model_config"], "model config")
    model = Model(config, schema, seed=0)
    for name, p in model.params.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(f"tensor {name!r} shape mismatch")
        p.data = arrays[name]

    train_cfg = (_config_from(TrainConfig, manifest["train_config"], "train config")
                 if manifest["train_config"] is not None else TrainConfig())
    opt = AdamW(model.params, lr=train_cfg.lr, betas=train_cfg.betas,
                weight_decay=train_cfg.weight_decay, no_decay=model.no_decay)
    if manifest["optimizer_t"] is not None:
        opt.t = manifest["optimizer_t"]
        for name in model.params:
            opt.m[name] = arrays[f"opt.m.{name}"]
            opt.v[name] = arrays[f"opt.v.{name}"]

    rng = np.random.default_rng()
    if manifest["rng_state"] is not None:
        rng.bit_generator.state = manifest["rng_state"]
    return CheckpointState(model, opt, train_cfg, rng, manifest["step"])
