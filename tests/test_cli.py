import json
import shutil

import pytest

from unittab.cli import main


def run_cli(*args):
    return main(list(args))


def test_gen_data_writes_files_and_manifest(tmp_path):
    out = tmp_path / "ds"
    code = run_cli("gen-data", "--kind", "pollution_like", "--entities", "3",
                   "--rows", "40", "--q-bins", "8", "--seed", "7", "--out", str(out))
    assert code == 0
    for name in ("data.csv", "schema.json", "manifest.json", "targets.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_rows"] == 120
    assert manifest["kind"] == "pollution_like"


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("gen-data", "--kind", "multitype_transactions", "--entities", "4",
                "--mean-len", "40", "--q-bins", "8", "--seed", "3", "--out", str(out))
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "labels.json").read_bytes() == (b / "labels.json").read_bytes()


def test_gen_data_unknown_kind_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-data", "--kind", "nope", "--seed", "1", "--out", str(tmp_path / "x"))
    assert exc.value.code == 2


def test_gen_data_unwritable_dir_exits_2(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = run_cli("gen-data", "--kind", "pollution_like", "--entities", "2",
                   "--rows", "20", "--q-bins", "8", "--seed", "1",
                   "--out", str(blocker / "sub"))
    assert code == 2


def test_unittab_seed_env_overrides_config(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("UNITTAB_SEED", "99")
    run_cli("gen-data", "--kind", "pollution_like", "--entities", "2", "--rows", "20",
            "--q-bins", "8", "--seed", "1", "--out", str(a))
    monkeypatch.delenv("UNITTAB_SEED")
    run_cli("gen-data", "--kind", "pollution_like", "--entities", "2", "--rows", "20",
            "--q-bins", "8", "--seed", "99", "--out", str(b))
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


@pytest.mark.parametrize("command", ["gen-data", "pretrain"])
def test_non_integer_unittab_seed_exits_2(command, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    args = {"gen-data": ["--kind", "pollution_like", "--seed", "1", "--out", str(tmp_path / "ds")],
            "pretrain": ["--config", str(cfg_path), "--out", str(tmp_path / "run")]}[command]
    monkeypatch.setenv("UNITTAB_SEED", "abc")
    assert run_cli(command, *args) == 2
    _one_line_error(capsys, "UNITTAB_SEED", "'abc'")
    assert not (tmp_path / "ds").exists() and not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> pretrain -> finetune once, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert run_cli("gen-data", "--kind", "pollution_like", "--entities", "6",
                   "--rows", "60", "--q-bins", "8", "--seed", "5", "--out", str(data)) == 0
    cfg = {
        "model": {"d": 8, "m": 16, "field_layers": 1, "field_heads": 2, "seq_layers": 1,
                  "seq_heads": 2, "freq_count": 3, "t_max": 10, "dropout": 0.0},
        "train": {"seed": 5, "epochs": 50, "batch_size": 8, "lr": 1e-3, "max_steps": 20},
        "data": {"dir": str(data), "test_fraction": 0.34},
        "out_dir": str(root / "pre"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("pretrain", "--config", str(cfg_path)) == 0
    assert run_cli("finetune", "--config", str(cfg_path),
                   "--checkpoint", str(root / "pre" / "model.ckpt"),
                   "--out", str(root / "ft"), "--max-steps", "10") == 0
    return root, cfg_path, data


def test_pretrain_outputs(pipeline):
    root, _, _ = pipeline
    assert (root / "pre" / "model.ckpt").exists()
    assert (root / "pre" / "config.resolved.json").exists()
    lines = (root / "pre" / "metrics.ndjson").read_text().strip().splitlines()
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "split", "metric", "value"}


def test_finetune_outputs_report(pipeline):
    root, _, _ = pipeline
    report = json.loads((root / "ft" / "eval_report.json").read_text())
    assert report["task"] == "regression"
    assert "rmse" in report["metrics"]


def test_eval_reproduces_finetune_report_bitwise(pipeline, tmp_path):
    root, cfg_path, _ = pipeline
    out = tmp_path / "eval"
    code = run_cli("eval", "--config", str(cfg_path),
                   "--checkpoint", str(root / "ft" / "finetuned.ckpt"),
                   "--out", str(out))
    assert code == 0
    assert (out / "eval_report.json").read_bytes() == \
        (root / "ft" / "eval_report.json").read_bytes()


def test_finetune_missing_checkpoint_exits_2(pipeline):
    root, cfg_path, _ = pipeline
    code = run_cli("finetune", "--config", str(cfg_path),
                   "--checkpoint", str(root / "nope.ckpt"), "--out", str(root / "x"))
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"seed": 1}, "surprise": True}))
    assert run_cli("pretrain", "--config", str(cfg_path)) == 2
    cfg_path.write_text(json.dumps({"train": {"learning_rate": 1e-3}}))
    assert run_cli("pretrain", "--config", str(cfg_path)) == 2


@pytest.mark.parametrize("section, key, value", [
    ("train", "mask_variant", "bert_80_10_10"),
    ("train", "timestamp_joint", False),
    ("model", "ff_multiplier", 4),
    ("train", "regression_weight", 50.0),
    ("data", "split_seed", 1),
    ("data", "window_t", 10),
    ("data", "window_stride", 10),
])
def test_removed_key_in_run_config_exits_2(section, key, value, tmp_path, capsys):
    # options that became constants are unknown keys now
    cfg = {"train": {"seed": 1}, "out_dir": str(tmp_path / "run")}
    cfg.setdefault(section, {})[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("pretrain", "--config", str(cfg_path)) == 2
    _one_line_error(capsys, f"unknown {section} config key {key!r}")
    assert not (tmp_path / "run").exists()


def test_run_config_without_data_dir_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "run")}))
    capsys.readouterr()
    assert run_cli("pretrain", "--config", str(cfg_path)) == 2
    _one_line_error(capsys, "no data directory", "--data")


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_invalid_train_config_exits_2_before_anything_is_written(command, tmp_path, capsys):
    # neither the dataset nor the checkpoint exists: the config is checked first
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"batch_size": 0},
                                    "data": {"dir": str(tmp_path / "no_data"),
                                             "checkpoint": str(tmp_path / "no.ckpt")},
                                    "out_dir": str(tmp_path / "run")}))
    capsys.readouterr()
    assert run_cli(command, "--config", str(cfg_path)) == 2
    _one_line_error(capsys, "batch_size must be >= 1")
    assert not (tmp_path / "run").exists()


def test_grad_check_single_op():
    assert run_cli("grad-check", "--op", "softmax", "--trials", "3") == 0


def test_grad_check_fused_ops(capsys):
    assert run_cli("grad-check", "--op", "attention", "--op", "feed_forward",
                   "--op", "residual_layer_norm", "--trials", "8") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["attention", "feed_forward",
                                                    "residual_layer_norm"]
    assert all(line.endswith("PASS") for line in lines)


def test_grad_check_injected_bug_fails():
    assert run_cli("grad-check", "--op", "gelu", "--trials", "2", "--inject-bug") == 1


@pytest.fixture(scope="module")
def multitype_pretrained(tmp_path_factory):
    """gen-data -> pretrain on churn data once; returns (root, config path)."""
    root = tmp_path_factory.mktemp("multitype")
    data = root / "mt"
    assert run_cli("gen-data", "--kind", "multitype_transactions", "--entities", "10",
                   "--mean-len", "40", "--churn-rate", "0.4", "--q-bins", "8",
                   "--seed", "2", "--out", str(data)) == 0
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"d": 8, "m": 16, "field_layers": 1, "field_heads": 2, "seq_layers": 1,
                  "seq_heads": 2, "freq_count": 2, "t_max": 12, "dropout": 0.0},
        "train": {"seed": 2, "epochs": 20, "batch_size": 4, "lr": 1e-3, "max_steps": 8},
        "data": {"dir": str(data), "test_fraction": 0.3},
        "out_dir": str(root / "pre"),
    }))
    assert run_cli("pretrain", "--config", str(cfg_path)) == 0
    return root, cfg_path


def test_multitype_pipeline_binary_task(multitype_pretrained, tmp_path):
    root, cfg_path = multitype_pretrained
    assert run_cli("finetune", "--config", str(cfg_path),
                   "--checkpoint", str(root / "pre" / "model.ckpt"),
                   "--out", str(tmp_path / "ft"), "--max-steps", "6") == 0
    report = json.loads((tmp_path / "ft" / "eval_report.json").read_text())
    assert report["task"] == "binary"
    assert set(report["metrics"]) == {"f1", "average_precision", "roc_auc", "accuracy"}


def _one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(w in err for w in words), err


def test_eval_label_outside_0_1_exits_2(multitype_pretrained, tmp_path, capsys):
    root, cfg_path = multitype_pretrained
    data = tmp_path / "mt"
    shutil.copytree(root / "mt", data)
    labels = json.loads((data / "labels.json").read_text())
    (data / "labels.json").write_text(json.dumps({k: 2 for k in labels}))
    capsys.readouterr()
    assert run_cli("eval", "--config", str(cfg_path), "--data", str(data),
                   "--checkpoint", str(root / "pre" / "model.ckpt")) == 2
    _one_line_error(capsys, "labels 0 or 1", "first 2")


@pytest.mark.parametrize("fixture, checkpoint, message", [
    ("pipeline", "ft/finetuned.ckpt", "regression evaluation needs a nonempty test split"),
    ("multitype_pretrained", "pre/model.ckpt", "binary evaluation needs both classes"),
])
def test_eval_empty_test_split_exits_2(fixture, checkpoint, message, request, tmp_path, capsys):
    root, cfg_path = request.getfixturevalue(fixture)[:2]
    cfg = json.loads(cfg_path.read_text())
    cfg["data"]["test_fraction"] = 0
    empty = tmp_path / "cfg.json"
    empty.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli("eval", "--config", str(empty), "--checkpoint", str(root / checkpoint)) == 2
    _one_line_error(capsys, message)


@pytest.mark.parametrize("fixture, name, damage", [
    ("pipeline", "schema.json", "truncate"),
    ("pipeline", "manifest.json", "truncate"),
    ("pipeline", "targets.json", "truncate"),
    ("multitype_pretrained", "labels.json", "truncate"),
    ("pipeline", "targets.json", "drop_entity"),
    ("multitype_pretrained", "labels.json", "drop_entity"),
])
def test_bad_dataset_file_exits_2_naming_it(fixture, name, damage, request, tmp_path, capsys):
    """A dataset file that is not JSON, or a labels or targets file with no
    entry for an entity, is one error line naming the file (and entity)."""
    root, cfg_path = request.getfixturevalue(fixture)[:2]
    data = tmp_path / "data"
    shutil.copytree(json.loads(cfg_path.read_text())["data"]["dir"], data)
    path = data / name
    if damage == "truncate":
        path.write_text(path.read_text()[:-2])
        words = "not valid JSON"
    else:
        table = json.loads(path.read_text())
        entity = min(table)
        del table[entity]
        path.write_text(json.dumps(table))
        words = f"no entry for entity {entity!r}"
    capsys.readouterr()
    assert run_cli("finetune", "--config", str(cfg_path), "--data", str(data),
                   "--checkpoint", str(root / "pre" / "model.ckpt"),
                   "--out", str(tmp_path / "ft"), "--max-steps", "1") == 2
    _one_line_error(capsys, str(path), words)


def test_eval_pretrain_checkpoint_without_task_head_exits_2(multitype_pretrained, capsys):
    root, cfg_path = multitype_pretrained
    capsys.readouterr()
    assert run_cli("eval", "--config", str(cfg_path),
                   "--checkpoint", str(root / "pre" / "model.ckpt")) == 2
    _one_line_error(capsys, "no task head", "run `unittab finetune` first")
