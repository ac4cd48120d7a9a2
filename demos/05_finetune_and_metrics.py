"""Fine-tuning the pretrained backbone through a [CLS] head, and the
evaluation metrics with a benchmark-style table.

Regression: pollution-like windows, label = target at the window's last
row. Classification: churn over multitype transactions, last-30 crops,
positives upsampled.
"""

import numpy as np

from unittab.data import (
    MultitypeConfig, PollutionConfig, gen_multitype_transactions,
    gen_pollution_like, last_crop, split_by_entity,
)
from unittab.embedding import prepare_series
from unittab.metrics import format_report_table
from unittab.model import Model, ModelConfig
from unittab.training import TrainConfig, finetune, pretrain

print("== regression on pollution-like windows ==")
ds = gen_pollution_like(PollutionConfig(n_entities=24, rows_per_entity=100,
                                        q_bins=16, noise=0.25, coupling=0.6), 100)
expanded, encoded = prepare_series(ds.series, ds.schema)
wins = []
for s in encoded:
    from unittab.data import window
    for w in window(s, 10, 10):
        w.label = float(ds.row_targets[s.entity_id][w.start + 9])
        wins.append(w)
rng = np.random.default_rng(0)
order = rng.permutation(len(wins))
test_w = [wins[i] for i in order[:len(wins) // 4]]
train_w = [wins[i] for i in order[len(wins) // 4:]]
print(f"{len(train_w)} train / {len(test_w)} test windows, "
      f"label std {np.std([w.label for w in train_w]):.2f}")

model = Model(ModelConfig.desk_preset(freq_count=6, t_max=10), expanded, seed=0)
pretrain(train_w, model,
         TrainConfig(p_f=0.3, lr=2e-3, batch_size=16, epochs=10_000, max_steps=150, seed=0))
reg = finetune(train_w, test_w, model, "regression",
               TrainConfig(lr=1e-3, batch_size=16, epochs=10_000, max_steps=400, seed=0))

print("\n== churn classification on multitype transactions ==")
mt = gen_multitype_transactions(MultitypeConfig(n_entities=120, mean_len=60,
                                                churn_rate=0.3, q_bins=16), 200)
mt_schema, mt_encoded = prepare_series(mt.series, mt.schema)
labels = {s.entity_id: s.label for s in mt.series}
for s in mt_encoded:
    s.label = labels[s.entity_id]
split = split_by_entity(mt_encoded, test_fraction=0.4, seed=0)
churn_model = Model(ModelConfig.desk_preset(freq_count=6, t_max=30, n_row_types=3),
                    mt_schema, seed=0)
pretrain(split.train, churn_model,
         TrainConfig(p_f=0.2, lr=2e-3, batch_size=8, epochs=10_000, max_steps=100, seed=0))
cls = finetune([last_crop(s, 30) for s in split.train],
               [last_crop(s, 30) for s in split.test],
               churn_model, "binary",
               TrainConfig(lr=1e-3, batch_size=16, epochs=10_000, max_steps=200, seed=0))

print()
print(format_report_table({
    "pollution regression": reg.report,
    "churn classification": cls.report,
}))
print(f"\nchurn confusion: {cls.report.confusion} at threshold {cls.report.threshold}")
