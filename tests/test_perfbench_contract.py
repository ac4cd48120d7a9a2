"""The benchmark under perfbench/ drives the library through its public
names and times embedding by swapping the `embed_slot_batch` reference that
`unittab.model` calls. These tests fail when a library change breaks the
benchmark's imports, its workload list or that embedding hook."""

import json
from pathlib import Path

from unittab.verify import toy_setup

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_workloads_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_perfbench_spans_one_pretrain_forward(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    model, batch, _ = toy_setup(0)
    tr = tracing.Tracer()
    tracing.instrument(model, tr)
    with tracing.embedding_spans(tr):
        out = model.pretrain_forward(batch, rng=None, training=False)
    assert out.n_masked > 0
    names = {span["name"] for span in tr.dump()}
    assert {"embedding.embed", "model.field", "model.project", "model.sequence"} <= names
