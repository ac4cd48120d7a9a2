"""Evaluation metrics with exact, oracle-checkable semantics.

roc_auc is the Mann-Whitney statistic (ties count 0.5), so it depends only
on score order; average_precision is the mean of precision at each
positive's rank, descending score order with ties broken by stable original
order; accuracy is reported in [0, 100].
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(Exception):
    pass


def rmse(pred, target) -> float:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.size == 0 or p.shape != t.shape:
        raise ValueError(f"rmse needs equal nonzero lengths, got {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def confusion(pred_labels, true_labels) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of 0/1 predictions against 0/1 truth."""
    p = np.asarray(pred_labels).astype(int)
    t = np.asarray(true_labels).astype(int)
    if p.size == 0 or p.shape != t.shape:
        raise ValueError("labels must have equal nonzero lengths")
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    tn = int(np.sum((p == 0) & (t == 0)))
    return tp, fp, fn, tn


def f1(pred_labels, true_labels) -> float:
    tp, fp, fn, _ = confusion(pred_labels, true_labels)
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def accuracy(pred_labels, true_labels) -> float:
    p = np.asarray(pred_labels).astype(int)
    t = np.asarray(true_labels).astype(int)
    if p.size == 0 or p.shape != t.shape:
        raise ValueError("labels must have equal nonzero lengths")
    return float(np.mean(p == t) * 100.0)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(scores, true_labels) -> float:
    """P(random positive outscores random negative), ties counted 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(true_labels).astype(int)
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    ranks = _average_ranks(s)
    u = ranks[t == 1].sum() - 0.5 * n_pos * (n_pos + 1)
    return float(u / (n_pos * n_neg))


def average_precision(scores, true_labels) -> float:
    """Mean of precision at each positive's rank (descending scores)."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(true_labels).astype(int)
    n_pos = int(np.sum(t == 1))
    if n_pos == 0:
        raise UndefinedMetricError("average_precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    tp = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if t[idx] == 1:
            tp += 1
            total += tp / rank
    return float(total / n_pos)


@dataclass
class EvalReport:
    task: str
    metrics: dict[str, float]
    n_samples: int
    confusion: dict[str, int] | None = None
    threshold: float | None = None

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "metrics": {k: float(v) for k, v in sorted(self.metrics.items())},
            "n_samples": self.n_samples,
        }
        if self.confusion is not None:
            payload["confusion"] = {k: int(v) for k, v in sorted(self.confusion.items())}
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        d = json.loads(text)
        return cls(task=d["task"], metrics=d["metrics"], n_samples=d["n_samples"],
                   confusion=d.get("confusion"), threshold=d.get("threshold"))


_COLUMNS = ["f1", "average_precision", "roc_auc", "accuracy", "rmse"]


def format_report_table(reports: dict[str, EvalReport]) -> str:
    """Benchmark-table rows: one line per model, metric columns."""
    cols = [c for c in _COLUMNS if any(c in r.metrics for r in reports.values())]
    width = max(len(name) for name in reports) if reports else 5
    header = "Model".ljust(width) + "".join(f"  {c:>18}" for c in cols)
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        cells = []
        for c in cols:
            v = rep.metrics.get(c)
            cells.append(f"  {v:>18.4f}" if v is not None else f"  {'-':>18}")
        lines.append(name.ljust(width) + "".join(cells))
    return "\n".join(lines)
