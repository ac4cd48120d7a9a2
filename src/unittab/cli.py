"""Command-line surface: gen-data, pretrain, finetune, eval, grad-check.

Runs are pure functions of (config file, flags, referenced input files);
flag overrides beat the UNITTAB_SEED environment variable, which beats the
config file. The one exception is gen-data, which has no config file:
UNITTAB_SEED overrides its required --seed flag. Unknown config keys and
invalid train settings are errors, found before anything is written or
read; pretrain and finetune create their run directory only after every
input has passed its checks. Exit codes: 0 success, 1 verification
failure, 2 usage, config or input error (a bad dataset, labels file or
checkpoint: among them a JSON file that does not parse or is not a
schema, a labels or targets file with no entry for some entity, a label
other than 0 or 1, and a targets list that is short or holds a
non-number), reported as one line on stderr that names the file (and the
entity where there is one).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    FormatError, MultitypeConfig, PollutionConfig, export_dataset,
    gen_multitype_transactions, gen_pollution_like, labeled_windows, last_crop,
    read_csv, split_by_entity,
)
from .embedding import prepare_series
from .metrics import UndefinedMetricError, format_report_table
from .model import Model, ModelConfig, ModelError
from .schema import SchemaError, schema_from_dict
from .training import (
    ConfigError, LabelError, TrainConfig, check_finetune, evaluate, finetune, pretrain,
)
from .verify import check_model, check_primitives


class UsageError(Exception):
    pass


_DATA_KEYS = {"dir", "checkpoint", "test_fraction"}
_WINDOW = 10  # pollution-like fine-tuning: windows of this many rows, at this stride


def _env_seed(default: int | None) -> int | None:
    """The UNITTAB_SEED environment variable as an int; `default` when unset."""
    raw = os.environ.get("UNITTAB_SEED")
    try:
        return default if raw is None else int(raw)
    except ValueError:
        raise UsageError(f"UNITTAB_SEED must be an integer, got {raw!r}") from None


def _read_json(path, what: str):
    """The parsed JSON file at `path`; `what` names it in the UsageError
    raised when it cannot be read or is not valid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise UsageError(f"cannot read {what} {path}: {e}") from None
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"{what} {path} is not valid JSON: {e}") from None


def load_run_config(path, overrides: dict) -> dict:
    raw = _read_json(path, "config")
    problems = []
    known_top = {"model", "train", "data", "out_dir"}
    for key in raw:
        if key not in known_top:
            problems.append(f"unknown config key {key!r}")
    model_fields = set(ModelConfig().to_dict())
    for key in raw.get("model", {}):
        if key not in model_fields:
            problems.append(f"unknown model config key {key!r}")
    train_fields = set(TrainConfig().to_dict())
    for key in raw.get("train", {}):
        if key not in train_fields:
            problems.append(f"unknown train config key {key!r}")
    for key in raw.get("data", {}):
        if key not in _DATA_KEYS:
            problems.append(f"unknown data config key {key!r}")
    if problems:
        raise UsageError("; ".join(problems))
    cfg = {"model": dict(raw.get("model", {})), "train": dict(raw.get("train", {})),
           "data": dict(raw.get("data", {})), "out_dir": raw.get("out_dir", "run")}
    seed = _env_seed(None)
    if seed is not None:
        cfg["train"]["seed"] = seed
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "out_dir":
            cfg["out_dir"] = value
        elif key in ("dir", "checkpoint"):
            cfg["data"][key] = value
        else:
            cfg["train"][key] = value
    return cfg


def _write_resolved(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.json").write_text(json.dumps(cfg, sort_keys=True, indent=2))


def _train_config(cfg: dict) -> TrainConfig:
    """The run's validated TrainConfig: defaults, then the config file's
    `train` block with its overrides."""
    train_cfg = TrainConfig.from_dict({**TrainConfig().to_dict(), **cfg["train"]})
    train_cfg.validate()
    return train_cfg


def _load_dataset(data_dir):
    if data_dir is None:
        raise UsageError("no data directory: set data.dir in the config or pass --data")
    d = Path(data_dir)
    if not d.is_dir():
        raise UsageError(f"data directory {d} does not exist")
    try:
        schema = schema_from_dict(_read_json(d / "schema.json", "schema"))
    except SchemaError as e:
        raise UsageError(f"schema {d / 'schema.json'}: {e}") from None
    series, _ = read_csv(d / "data.csv", schema)
    manifest = _read_json(d / "manifest.json", "manifest") if (d / "manifest.json").exists() else {}
    labels = _read_json(d / "labels.json", "labels") if (d / "labels.json").exists() else None
    targets = _read_json(d / "targets.json", "targets") if (d / "targets.json").exists() else None
    return schema, series, manifest, labels, targets


def _check_entities(table: dict, path: Path, series) -> None:
    """Raise a UsageError naming `path` and the first entity of `series`
    that has no entry in `table`."""
    lacking = [s.entity_id for s in series if s.entity_id not in table]
    if lacking:
        raise UsageError(f"{path} has no entry for entity {lacking[0]!r} "
                         f"({len(lacking)} of {len(series)} entities lack one)")


def _check_labels(labels: dict, path: Path, series) -> None:
    """Raise a UsageError naming `path` and the first entity of `series`
    whose label is not 0 or 1."""
    bad = [s.entity_id for s in series if labels[s.entity_id] not in (0, 1)]
    if bad:
        raise UsageError(f"{path} must hold labels 0 or 1; {len(bad)} of {len(series)} "
                         f"entities have another, first {labels[bad[0]]!r} for entity "
                         f"{bad[0]!r}")


def _check_targets(targets: dict, path: Path, series) -> None:
    """Raise a UsageError naming `path` and the first entity of `series`
    whose targets are not a finite number for each of its rows."""
    for s in series:
        row = targets[s.entity_id]
        if not (isinstance(row, list) and len(row) >= len(s.rows)
                and all(type(v) in (int, float) and math.isfinite(v) for v in row)):
            raise UsageError(f"{path} must give entity {s.entity_id!r} a finite number "
                             f"for each of its {len(s.rows)} rows")


def _load_task(cfg: dict):
    """Load the run's dataset and checkpoint, encode the dataset once and
    split it by the fine-tuning protocol of its generator kind: randomly
    split sliding windows (non-overlapping by stride) with a regression
    target for pollution-like data, by-entity splits of last-t_max crops
    with the entity churn label for multitype transactions. The split seed
    is the train seed. Returns (model, train samples, test samples, task).
    The labels or targets file is checked before the checkpoint is read."""
    data_cfg = cfg["data"]
    ckpt_path = data_cfg.get("checkpoint")
    if not ckpt_path or not Path(ckpt_path).exists():
        raise UsageError(f"checkpoint {ckpt_path!r} not found")
    schema, series, manifest, labels, targets = _load_dataset(data_cfg.get("dir"))
    kind = manifest.get("kind", "multitype_transactions" if labels else "pollution_like")
    data_dir = Path(data_cfg.get("dir"))
    if kind == "pollution_like":
        if targets is None:
            raise UsageError("pollution-like fine-tuning needs targets.json next to data.csv")
        _check_entities(targets, data_dir / "targets.json", series)
        _check_targets(targets, data_dir / "targets.json", series)
    else:
        if labels is None:
            raise UsageError("binary fine-tuning needs labels.json next to data.csv")
        _check_entities(labels, data_dir / "labels.json", series)
        _check_labels(labels, data_dir / "labels.json", series)
    expanded, encoded = prepare_series(series, schema)
    model = load_checkpoint(ckpt_path, expanded).model
    t_max = model.config.t_max
    seed = int(cfg["train"].get("seed", 0))
    test_fraction = float(data_cfg.get("test_fraction", 0.25))
    if kind == "pollution_like":
        if t_max < _WINDOW:
            raise UsageError(f"pollution-like fine-tuning cuts {_WINDOW}-row windows; the "
                             f"model's t_max={t_max} is shorter")
        split = split_by_entity(labeled_windows(encoded, targets, _WINDOW, _WINDOW),
                                test_fraction, seed)
        return model, split.train, split.test, "regression"
    for s in encoded:
        s.label = int(labels[s.entity_id])
    split = split_by_entity(encoded, test_fraction, seed)
    train = [last_crop(s, t_max) for s in split.train]
    test = [last_crop(s, t_max) for s in split.test]
    return model, train, test, "binary"


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    seed = _env_seed(args.seed)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        print(f"error: output directory {out} is not writable: {e}", file=sys.stderr)
        return 2
    if args.kind == "pollution_like":
        cfg = PollutionConfig(n_entities=args.entities, rows_per_entity=args.rows,
                              noise=args.noise, q_bins=args.q_bins)
        ds = gen_pollution_like(cfg, seed)
        export_dataset(out, ds.series, ds.schema, row_targets=ds.row_targets,
                       extra={"kind": "pollution_like", "seed": seed, "noise": args.noise})
    else:
        cfg = MultitypeConfig(n_entities=args.entities, mean_len=args.mean_len,
                              churn_rate=args.churn_rate, q_bins=args.q_bins)
        ds = gen_multitype_transactions(cfg, seed)
        export_dataset(out, ds.series, ds.schema,
                       labels={s.entity_id: int(s.label) for s in ds.series},
                       extra={"kind": "multitype_transactions", "seed": seed,
                              "churn_rate": args.churn_rate, "rule": ds.rule})
    print(f"wrote {args.kind} dataset to {out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed, "epochs": args.epochs,
                                        "lr": args.lr, "batch_size": args.batch_size,
                                        "max_steps": args.max_steps, "out_dir": args.out,
                                        "dir": args.data})
    train_cfg = _train_config(cfg)
    schema, series, *_ = _load_dataset(cfg["data"].get("dir"))
    expanded, encoded = prepare_series(series, schema)
    model_cfg = ModelConfig.from_dict({**ModelConfig().to_dict(), **cfg["model"],
                                       "n_row_types": expanded.n_row_types})
    model = Model(model_cfg, expanded, seed=train_cfg.seed)
    out = Path(cfg["out_dir"])
    _write_resolved(cfg, out)
    result = pretrain(encoded, model, train_cfg,
                      metrics_path=out / "metrics.ndjson",
                      checkpoint_path=out / "model.ckpt")
    first = result.losses[0] if result.losses else float("nan")
    last = result.losses[-1] if result.losses else float("nan")
    print(f"pretrained {result.steps} steps: loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def cmd_finetune(args) -> int:
    cfg = load_run_config(args.config, {"seed": args.seed, "epochs": args.epochs,
                                        "lr": args.lr, "batch_size": args.batch_size,
                                        "max_steps": args.max_steps, "out_dir": args.out,
                                        "dir": args.data, "checkpoint": args.checkpoint})
    train_cfg = _train_config(cfg)
    model, train, test, task = _load_task(cfg)
    check_finetune(train, test, task, model.config.t_max)
    out = Path(cfg["out_dir"])
    _write_resolved(cfg, out)
    result = finetune(train, test, model, task, train_cfg,
                      metrics_path=out / "finetune_metrics.ndjson")
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed]))
    save_checkpoint(out / "finetuned.ckpt", model, None, train_cfg, rng, 0)
    (out / "eval_report.json").write_text(result.report.to_json())
    print(format_report_table({"finetuned": result.report}))
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, {"out_dir": args.out, "dir": args.data,
                                        "checkpoint": args.checkpoint})
    model, _, test, task = _load_task(cfg)
    try:  # evaluate checks the labels before it runs the model
        report = evaluate(model, test, task)
    except ModelError:
        if model.config.task_head is not None:
            raise
        raise UsageError(f"checkpoint {cfg['data']['checkpoint']} has no task head; run "
                         "`unittab finetune` first and evaluate the finetuned.ckpt it "
                         "writes") from None
    print(format_report_table({"checkpoint": report}))
    if args.out:
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_report.json").write_text(report.to_json())
    return 0


def cmd_grad_check(args) -> int:
    results = check_primitives(args.op, args.inject_bug, trials=args.trials)
    if not args.op:
        results.append(check_model())
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{r.name.ljust(width)}  max_rel_err={r.max_err:.3e}  tol={r.tol:.0e}  {status}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unittab")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--kind", required=True, choices=["pollution_like", "multitype_transactions"])
    g.add_argument("--entities", type=int, default=12)
    g.add_argument("--rows", type=int, default=1000, help="rows per entity (pollution_like)")
    g.add_argument("--mean-len", type=int, default=100, help="mean history length (multitype)")
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--churn-rate", type=float, default=0.15)
    g.add_argument("--q-bins", type=int, default=100)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    for name, fn in (("pretrain", cmd_pretrain), ("finetune", cmd_finetune)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--data", help="dataset directory (overrides config)")
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--max-steps", type=int)
        p.add_argument("--out")
        if name == "finetune":
            p.add_argument("--checkpoint")
        p.set_defaults(func=fn)

    e = sub.add_parser("eval")
    e.add_argument("--config", required=True)
    e.add_argument("--data")
    e.add_argument("--checkpoint")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("grad-check")
    c.add_argument("--op", action="append", help="check only the named primitive(s)")
    c.add_argument("--trials", type=int, default=10)
    c.add_argument("--inject-bug", action="store_true", help=argparse.SUPPRESS)
    c.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, ConfigError, SchemaError, FormatError,
            CheckpointError, ModelError, LabelError, UndefinedMetricError) as e:
        # bad input read from flags or files; exit 1 is kept for verification failures
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
