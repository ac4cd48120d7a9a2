import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys, monkeypatch, tmp_path) -> str:
    """Run one demo as a script, with its temporary files under tmp_path."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_demo_01_autodiff_engine_runs(capsys, monkeypatch, tmp_path):
    out = run_demo("01_autodiff_engine.py", capsys, monkeypatch, tmp_path)
    assert "max relative error vs central differences" in out
    assert "ids strictly increasing: True" in out


def test_demo_02_synthetic_data_runs(capsys, monkeypatch, tmp_path):
    out = run_demo("02_synthetic_data.py", capsys, monkeypatch, tmp_path)
    assert "shared entities: 0" in out
    assert list(tmp_path.glob("unittab_demo_*/transactions.csv"))


def test_demo_03_embeddings_and_masking_runs(capsys, monkeypatch, tmp_path):
    out = run_demo("03_embeddings_and_masking.py", capsys, monkeypatch, tmp_path)
    assert "targets" in out and "support=" in out
    assert "jointly masked/unmasked in every row: True" in out


def test_demo_04_pretraining_runs(capsys, monkeypatch, tmp_path):
    out = run_demo("04_pretraining.py", capsys, monkeypatch, tmp_path)
    assert "closed form agrees: True" in out
    assert "restores every parameter bit-exactly: True" in out


@pytest.mark.slow
def test_demo_05_finetune_and_metrics_runs(capsys, monkeypatch, tmp_path):
    out = run_demo("05_finetune_and_metrics.py", capsys, monkeypatch, tmp_path)
    assert "churn confusion:" in out and "roc_auc" in out
