import math

import numpy as np
import pytest

from unittab.metrics import (
    EvalReport, UndefinedMetricError, accuracy, average_precision, f1,
    format_report_table, rmse, roc_auc,
)


# brute-force oracles


def auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = 0
    acc = 0.0
    for rank, i in enumerate(order, 1):
        if labels[i] == 1:
            tp += 1
            acc += tp / rank
    return acc / sum(labels)


def f1_oracle(pred, true):
    tp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, true) if p == 0 and t == 1)
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(rmse([1.0, 2.0], [1.0, 4.0]) - math.sqrt(2.0)) < 1e-12


def test_rmse_matches_two_pass_recomputation():
    rng = np.random.default_rng(0)
    p, t = rng.normal(size=100), rng.normal(size=100)
    two_pass = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, t)) / 100)
    assert abs(rmse(p, t) - two_pass) < 1e-12


def test_rmse_empty_errors():
    with pytest.raises(ValueError):
        rmse([], [])


def test_f1_accuracy_example():
    pred, true = [1, 1, 0, 0], [1, 0, 1, 0]
    assert f1(pred, true) == 0.5
    assert accuracy(pred, true) == 50.0


def test_f1_perfect_and_degenerate():
    assert f1([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([1, 0, 1], [1, 0, 1]) == 100.0
    assert f1([0, 0, 0], [1, 0, 1]) == 0.0


def test_roc_auc_example():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_roc_auc_separated_and_ties():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_roc_auc_single_class_errors():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [1, 1])


def test_average_precision_example():
    got = average_precision([0.8, 0.4, 0.35, 0.1], [1, 0, 1, 0])
    assert abs(got - 5.0 / 6.0) < 1e-15


def test_average_precision_extremes():
    assert average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert average_precision([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == 0.25


def test_average_precision_no_positives():
    with pytest.raises(UndefinedMetricError):
        average_precision([0.5], [0])


def test_metrics_match_oracles_exactly():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        scores = np.round(rng.random(n), 2)  # induce ties
        pred = (scores > 0.5).astype(int)
        assert roc_auc(scores, labels) == auc_oracle(scores.tolist(), labels.tolist())
        assert average_precision(scores, labels) == ap_oracle(scores.tolist(), labels.tolist())
        assert f1(pred, labels) == f1_oracle(pred.tolist(), labels.tolist())
        assert accuracy(pred, labels) == 100.0 * np.mean(pred == labels)


def test_roc_auc_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(4, 15))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = rng.normal(size=n)
        assert roc_auc(scores, labels) == roc_auc(np.exp(scores), labels)
        assert roc_auc(scores, labels) == roc_auc(3.0 * scores + 7.0, labels)


def test_roc_auc_reversal_identity_without_ties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 15))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = rng.permutation(np.linspace(0, 1, n))  # distinct
        assert abs(roc_auc(scores, labels) - (1.0 - roc_auc(-scores, labels))) < 1e-15


def test_eval_report_json_round_trip():
    rep = EvalReport(task="binary", metrics={"f1": 0.5, "roc_auc": 0.75},
                     n_samples=4, confusion={"tp": 1, "fp": 1, "tn": 1, "fn": 1},
                     threshold=0.5)
    back = EvalReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()


def test_format_report_table():
    rep = EvalReport(task="binary",
                     metrics={"f1": 0.5, "average_precision": 0.6, "roc_auc": 0.7,
                              "accuracy": 80.0},
                     n_samples=10)
    text = format_report_table({"model_a": rep})
    assert "model_a" in text and "roc_auc" in text and "0.7000" in text
