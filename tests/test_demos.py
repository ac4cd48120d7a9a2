import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_03_embeddings_and_masking_runs(capsys):
    runpy.run_path(str(DEMOS / "03_embeddings_and_masking.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "targets" in out and "support=" in out
    assert "jointly masked/unmasked in every row: True" in out
