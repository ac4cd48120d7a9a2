"""The two synthetic dataset families and the windowing toolkit.

Pollution-like data: one row type, ten numerical sensors riding a shared
regional latent plus daily/annual seasonality, hourly timestamps, and a
recorded target function so an oracle RMSE floor is always computable.

Multitype transactions: three row types with shared generic fields, heavy
tailed amounts, and an entity churn label drawn from a recorded logistic
rule over the last thirty rows.
"""

import tempfile
from pathlib import Path

import numpy as np

from unittab.data import (
    MultitypeConfig, PollutionConfig, balance_upsample, gen_multitype_transactions,
    gen_pollution_like, labeled_windows, last_crop, pollution_oracle, random_crop,
    split_by_entity, window, write_csv,
)
from unittab.metrics import rmse, roc_auc
from unittab.schema import validate

print("== pollution-like ==")
ds = gen_pollution_like(PollutionConfig(n_entities=6, rows_per_entity=200, q_bins=16,
                                        noise=0.0), 7)
print(f"{len(ds.series)} series x {len(ds.series[0].rows)} rows, "
      f"{len(ds.schema.attributes)} attributes, "
      f"violations: {sum(len(validate(s, ds.schema)) for s in ds.series)}")

wins = labeled_windows(ds.series, ds.row_targets, t=10, stride=10)
preds = [pollution_oracle(w.rows, ds.schema) for w in wins]
print(f"{len(wins)} stride-10 windows; oracle RMSE at noise=0: "
      f"{rmse(preds, [w.label for w in wins]):.2e}")

starts = [w.start for w in window(ds.series[0], 10, 5)]
print("stride-5 window starts on one series:", starts[:8], "...")

crop = random_crop(ds.series[0], 50, np.random.default_rng(1))
print(f"random 50-row crop starts at {crop.start}; "
      f"last_crop keeps rows {last_crop(ds.series[0], 3).start}..end")

print("\n== multitype transactions ==")
mt = gen_multitype_transactions(MultitypeConfig(n_entities=40, mean_len=80,
                                                churn_rate=0.25, q_bins=16), 11)
lengths = [len(s.rows) for s in mt.series]
mix = {h: sum(r.type_id == h for s in mt.series for r in s.rows) for h in (1, 2, 3)}
print(f"{len(mt.series)} accounts, history lengths {min(lengths)}..{max(lengths)}, "
      f"row type counts {mix}")
print(f"churn rate: {np.mean([s.label for s in mt.series]):.2f}")

# The recorded rule doubles as an oracle for how learnable the label is.
scores = [mt.oracle_scores[s.entity_id] for s in mt.series]
labels = [s.label for s in mt.series]
print(f"oracle AUC of the recorded churn rule: {roc_auc(scores, labels):.3f}")

split = split_by_entity(mt.series, test_fraction=0.25, seed=3)
overlap = {s.entity_id for s in split.train} & {s.entity_id for s in split.test}
print(f"by-entity split: {len(split.train)} train / {len(split.test)} test, "
      f"shared entities: {len(overlap)}")

crops = [last_crop(s, 30) for s in split.train]
balanced = balance_upsample(crops, np.random.default_rng(5))
print(f"after upsampling: {sum(1 for c in balanced if c.label)} positives of {len(balanced)}")

csv_path = Path(tempfile.mkdtemp(prefix="unittab_demo_")) / "transactions.csv"
write_csv(csv_path, mt.series[:3], mt.schema)
print(f"wrote a 3-account CSV sample to {csv_path}")
