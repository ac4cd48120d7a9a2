"""How heterogeneous field values become vectors, and how masking builds
its smoothed prediction targets.
"""

import numpy as np

from unittab.data import PollutionConfig, gen_pollution_like
from unittab.embedding import freq_encode, prepare_series, split_timestamp
from unittab.model import smoothed_bin_targets, smoothed_class_targets
from unittab.schema import Time, quantize_array
from unittab.training import TrainConfig, apply_masking, smooth_categorical, smooth_neighborhood

# Frequency features: interleaved sin/cos at geometrically spaced frequencies.
# Nearby values share low-frequency components but differ at high frequency,
# which is what lets the network resolve fine structure in a scalar.
print("freq_encode(v, L=3) for a few v:")
for v in (0.0, 0.25, 0.26, 0.75):
    print(f"  v={v:4.2f} ->", np.round(freq_encode(v, 3), 3).tolist())

# Timestamps never stay scalar: they become categorical subfields.
ts = Time(2021, 3, 7, hour=13)
parts = split_timestamp(ts, years=[2020, 2021], with_hour=True)
print("\n2021-03-07T13 splits into zero-based (year, month, day, hour):",
      [p.index for p in parts])

# One masked sample, end to end.
ds = gen_pollution_like(PollutionConfig(n_entities=2, rows_per_entity=10, q_bins=20), 5)
expanded, encoded = prepare_series(ds.series, ds.schema)
cfg = TrainConfig(p_f=0.3, p_r=0.1, epsilon=0.1, neighborhood_radius=5, seed=0)
sample = apply_masking(encoded[0], expanded, cfg, np.random.default_rng(4))

n_slots = sum(len(m) for m in sample.mask)
n_masked = sum(int(m.sum()) for m in sample.mask)
print(f"\nmasked {n_masked} of {n_slots} input slots; {len(sample.targets)} targets")

# Targets are (row, field) positions; the model's batch forward turns the
# source values at those positions into smoothed distributions, once per
# attribute for the whole batch. Here the same functions run on one target each.
names = expanded.row_types[0].attributes
for row, field in sample.targets[:4].tolist():
    spec = expanded.attributes[names[field]]
    src = sample.rows[row]
    if spec.kind == "numerical":
        kind = "neighborhood"
        dist = smoothed_bin_targets(quantize_array(src.num_vals[field:field + 1], spec),
                                    spec.n_bins, cfg.epsilon, cfg.neighborhood_radius)[0]
    else:
        kind = "categorical"
        dist = smoothed_class_targets(src.cat_ids[field:field + 1], len(spec.vocab),
                                      cfg.epsilon)[0]
    print(f"  row {row:2d} field {names[field]:20s} {kind:12s} "
          f"support={int(np.count_nonzero(dist)):3d} sum={dist.sum():.12f}")

# The two smoothing rules side by side for a 12-bin vocabulary.
print("\ncategorical smoothing, v=4, eps=0.1:")
print(" ", np.round(smooth_categorical(4, 12, 0.1), 4).tolist())
print("neighborhood smoothing, b=4, eps=0.1, radius=2:")
print(" ", np.round(smooth_neighborhood(4, 12, 0.1, 2), 4).tolist())
print("boundary bin b=0 renormalizes eps over the surviving neighbors:")
print(" ", np.round(smooth_neighborhood(0, 12, 0.1, 2), 4).tolist())

# Timestamp subfields are one maskable unit: never split.
ts_slots = [i for i, n in enumerate(names) if expanded.attributes[n].group == "timestamp"]
joint = [bool(m[ts_slots].all()) or not bool(m[ts_slots].any()) for m in sample.mask]
print("\ntimestamp subfields jointly masked/unmasked in every row:", all(joint))
