"""unittab benchmark: one workload per call, one caller, closed loop.

    python3 perfbench/run.py --workload desk-pollution-pretrain --seed 1 \
        --seconds 35 --trace 0

Run from the repository root; the library is imported from ``src/``. The
run sets up the workload several times (``setup_s`` is the median), warms
up, then repeats fixed rounds while the next one still fits in
``--seconds``. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer split from spans (see ``tracing.py``) plus the tracing overhead
against untraced rounds of the same seed. Every output check counts toward
``failed``; a failed check makes the run exit 1. The last line of standard
output is the JSON result; the full record, with the environment and, when
traced, every span, goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# One BLAS thread (never above nproc): on a 2-core Xeon VM two threads were
# no faster for either preset, and the thread count changes the last bits
# of matmul results, so it is fixed rather than taken from nproc.
BLAS_THREADS = 1
SETUP_REPS = 3
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "ingest_rows_per_s": "1/s", "train_samples_per_s": "1/s",
    "infer_samples_per_s": "1/s", "eval_score": "ratio", "peak_rss_mb": "MB",
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "commit": _git_commit()}


def _run_rounds(wl, st, tracer_types, seconds: float, min_rounds: int):
    """Rounds until the next one would end past `seconds` (at least
    `min_rounds`); round i runs with tracer_types[i % len(tracer_types)]."""
    from tracing import embedding_spans
    rounds, tracers = [], []
    t0 = time.perf_counter()
    while (len(rounds) < min_rounds
           or time.perf_counter() - t0 + rounds[-1].wall_s <= seconds):
        tr = tracer_types[len(rounds) % len(tracer_types)]()
        if tr.enabled:
            with embedding_spans(tr):
                rounds.append(wl.run_round(st, tr))
        else:
            rounds.append(wl.run_round(st, tr))
        tracers.append(tr)
    return rounds, tracers


def _all_equal(values) -> bool:
    return all(v == values[0] for v in values)


def _round_checks(rounds) -> tuple[dict[str, bool], int, int]:
    """Output checks over every round; returns (checks, attempted, failed)
    where the counts also cover each step and each scoring batch."""
    import numpy as np
    attempted = failed = 0
    for r in rounds:
        attempted += len(r.losses) + r.infer_batches
        failed += sum(1 for x in r.losses if not math.isfinite(x))
        scores_ok = r.scores is None or bool(
            np.all(np.isfinite(r.scores)) and np.all((r.scores >= 0.0) & (r.scores <= 1.0)))
        if not (math.isfinite(r.eval_score) and scores_ok):
            failed += r.infer_batches
    checks = {
        "loss_curves_identical": _all_equal([r.losses for r in rounds]),
        "eval_identical": _all_equal([(r.eval_score, r.report) for r in rounds]),
        "counts_identical": _all_equal([r.counts for r in rounds]),
    }
    if rounds[0].scores is not None:
        from unittab.metrics import roc_auc
        checks["evaluate_matches_predict"] = all(
            r.report["metrics"]["roc_auc"] == roc_auc(r.scores, r.labels) for r in rounds)
    return checks, attempted, failed


def _median_rate(rounds, num: str, den: str) -> float:
    return statistics.median(getattr(r, num) / getattr(r, den) for r in rounds)


def _end_to_end(rounds, setup_times) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "ingest_rows_per_s": _median_rate(rounds, "rows", "ingest_s"),
        "train_samples_per_s": _median_rate(rounds, "train_samples", "train_s"),
        "infer_samples_per_s": _median_rate(rounds, "infer_samples", "infer_s"),
        "eval_score": rounds[0].eval_score,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


PER_STEP = {  # metric -> span name; self time inside training steps, per step
    "data.crop_ms": "data.crop", "embedding.embed_ms": "embedding.embed",
    "training.masking_ms": "training.masking", "training.loss_ms": "training.loss",
    "training.adamw_ms": "training.adamw", "model.field_ms": "model.field",
    "model.sequence_ms": "model.sequence", "model.project_ms": "model.project",
    "model.forward_self_ms": "model.pretrain_forward",
    "model.finetune_forward_ms": "model.finetune_forward",
    "tensor.backward_ms": "tensor.backward",
}
PER_CALL = {  # metric -> span name; inclusive time per call, wherever called
    "data.upsample_ms": "data.upsample", "data.read_csv_ms": "data.read_csv",
    "embedding.prepare_ms": "embedding.prepare", "training.predict_ms": "training.predict",
    "checkpoint.save_ms": "checkpoint.save", "checkpoint.load_ms": "checkpoint.load",
    "metrics.score_ms": "metrics.score",
}


def _per_layer(traced, tracers, untraced) -> tuple[dict[str, tuple[float, str]], dict]:
    def total(key):
        return sum(tr.counts.get(key, 0) for tr in tracers)

    def ratio(num, den):
        return total(num) / total(den) if total(den) else 0.0

    steps = total("steps")
    step_self: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    step_ms: list[float] = []
    for tr in tracers:
        for name, incl, own, step in tr.self_times():
            if name == "step":
                step_ms.append(incl * 1e3)
            if step is not None:
                step_self[name] = step_self.get(name, 0.0) + own
            calls.setdefault(name, []).append(incl)
    out: dict[str, tuple[float, str]] = {}
    for metric, span in PER_STEP.items():
        out[metric] = (step_self.get(span, 0.0) / steps * 1e3, "ms")
    for metric, span in PER_CALL.items():
        out[metric] = (statistics.fmean(calls[span]) * 1e3 if span in calls else 0.0, "ms")
    rc = traced[0].counts
    out.update({
        "data.csv_rows": (rc["csv_rows"], "count"),
        "data.unparseable_cells": (rc["unparseable_cells"], "count"),
        "embedding.clamps": (rc["clamps"], "count"),
        "training.masked_targets": (ratio("masked_targets", "steps"), "count"),
        "training.skipped_steps": (total("skipped_steps") / len(tracers), "count"),
        "training.mask_target_ratio": (ratio("masked_targets", "masked_fields"), "ratio"),
        "training.adamw_params": (ratio("adamw_params", "steps"), "count"),
        "training.step_ms_p50": (statistics.median(step_ms), "ms"),
        "training.step_ms_p90": (statistics.quantiles(step_ms, n=10, method="inclusive")[8], "ms"),
        "model.real_slot_ratio": (ratio("real_slots", "slots"), "ratio"),
        "tensor.tape_ops": (ratio("tape_ops", "steps"), "count"),
        "checkpoint.bytes": (rc["checkpoint_bytes"], "count"),
        "trace.overhead_frac": (statistics.median(r.wall_s for r in traced)
                                / statistics.median(r.wall_s for r in untraced) - 1.0, "ratio"),
    })
    per_round_counts = [dict(sorted(tr.counts.items())) for tr in tracers]
    return out, {"step_samples": len(step_ms), "per_round_counts": per_round_counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "unittab" / "__init__.py").is_file():
        print(f"error: no unittab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, clock

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = _environment()
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    work = WORK / tag
    work.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup_times = []
            for _ in range(SETUP_REPS if not args.trace else 1):
                t0 = clock()
                st = wl.setup(args.seed, work)
                setup_times.append(time.perf_counter() - t0)
            wl.warm_up(st)
            if args.trace:
                # untraced and traced rounds alternate, so host speed drifts
                # hit both alike; traced loss curves must match bit for bit
                rounds, tracers = _run_rounds(wl, st, (NullTracer, Tracer), args.seconds, 4)
                untraced = [r for r, tr in zip(rounds, tracers) if not tr.enabled]
                traced = [r for r, tr in zip(rounds, tracers) if tr.enabled]
                tracers = [tr for tr in tracers if tr.enabled]
            else:
                rounds, _ = _run_rounds(wl, st, (NullTracer,), args.seconds, MIN_ROUNDS)
            checks, attempted, failed = _round_checks(rounds)
            checks.update(wl.checks(st))
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "checks": checks,
                  "warnings": len(caught), "rounds": len(rounds),
                  "round_wall_s": [r.wall_s for r in rounds]}
        if args.trace:
            values, extra = _per_layer(traced, tracers, untraced)
            record.update(extra)
            checks["trace_counts_identical"] = _all_equal(extra["per_round_counts"])
            (WORK / f"trace-{tag}.json").write_text(json.dumps(
                [tr.dump() for tr in tracers]))
        else:
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in _end_to_end(rounds, setup_times).items()}
            record["setup_s_each"] = setup_times
        record["loss_curve"] = rounds[0].losses
        record["per_round"] = [{"ingest_rows_per_s": r.rows / r.ingest_s,
                                "train_samples_per_s": r.train_samples / r.train_s,
                                "infer_samples_per_s": r.infer_samples / r.infer_s}
                               for r in rounds]
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        attempted += len(checks)
        failed += sum(1 for ok in checks.values() if not ok)
        (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {len(rounds)}  warnings {len(caught)}  "
          + "  ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()))
    for name, (value, unit) in values.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'failed_fraction':28s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
