"""Pinned pretraining loss curves and a per-row reference for the masking plan.

The curves below are `float.hex` values of `pretrain()` losses recorded with
the original per-row, per-target implementation of `apply_masking` and the
target half of `Model.pretrain_forward`. The array-form implementation must
reproduce them bit for bit: it draws the same doubles in the same order and
averages the cross entropy over the same targets in the same order. The
models are small enough that every matmul stays single-threaded in BLAS.
The curves were re-recorded once under the OpenBLAS kernel `conftest.py`
pins (Haswell); only the kernel moved.
"""

import numpy as np
import pytest

from unittab.data import (
    MultitypeConfig, PollutionConfig, gen_multitype_transactions, gen_pollution_like,
    random_crop,
)
from unittab.embedding import prepare_series
from unittab.model import Model, ModelConfig
from unittab.training import TrainConfig, apply_masking, pretrain


def _dataset(kind: str):
    if kind == "pollution":
        ds = gen_pollution_like(PollutionConfig(n_entities=12, rows_per_entity=24, q_bins=16), 3)
    else:
        ds = gen_multitype_transactions(MultitypeConfig(n_entities=12, mean_len=20, q_bins=16), 3)
    return prepare_series(ds.series, ds.schema)


SETUPS = {
    "pollution": ("pollution", {}, {}),
    "multitype": ("multitype", {}, {}),
    "multitype_regression": ("multitype", {"numeric_target": "scalar"}, {}),
}


def run_setup(name: str) -> list[float]:
    kind, model_kw, train_kw = SETUPS[name]
    schema, encoded = _dataset(kind)
    config = ModelConfig(d=8, m=16, field_layers=1, field_heads=2, seq_layers=1, seq_heads=2,
                         freq_count=3, t_max=10, n_row_types=schema.n_row_types, **model_kw)
    model = Model(config, schema, seed=2)
    cfg = TrainConfig(p_f=0.3, p_r=0.1, lr=1e-3, batch_size=4, epochs=2, seed=7, **train_kw)
    return pretrain(encoded, model, cfg).losses


GOLDEN = {
    "multitype": [
        "0x1.23de6240cf58cp+1", "0x1.2b41d57d627b8p+1", "0x1.256746b3aa1c4p+1",
        "0x1.28a92757dca8ep+1", "0x1.27c7fecbaac66p+1", "0x1.1e9a02914b124p+1",
    ],
    "multitype_regression": [
        "0x1.52fb30dd04333p+4", "0x1.b112c867ac308p+4", "0x1.1a2796dd17bbcp+4",
        "0x1.81f9a4ff396e8p+3", "0x1.15ada0fd2eb48p+4", "0x1.72a1022459f03p+3",
    ],
    "pollution": [
        "0x1.5c9f7721a8330p+1", "0x1.5c9918290755ep+1", "0x1.5c0843daf9bdap+1",
        "0x1.57887d324c69fp+1", "0x1.535f5343b8f55p+1", "0x1.56343c14f9104p+1",
    ],
}


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_pretrain_curve_matches_per_row_implementation(name):
    assert [float.hex(x) for x in run_setup(name)] == GOLDEN[name]


def _reference_masking(sample, schema, cfg, rng):
    """The original per-row masking loop, with the subfields of a timestamp
    as one unit: input masks and (row, field) target positions in row-major
    order."""
    t = len(sample.rows)
    row_masked = rng.random(t) < cfg.p_r
    masks, targets = [], []
    for i, row in enumerate(sample.rows):
        rt = schema.row_type(row.type_id)
        units: list[list[int]] = []
        seen: dict[str, list[int]] = {}
        for s, name in enumerate(rt.attributes):
            g = schema.attributes[name].group
            if g is None:
                units.append([s])
            elif g in seen:
                seen[g].append(s)
            else:
                seen[g] = [s]
                units.append(seen[g])
        hit = rng.random(len(units)) < cfg.p_f
        mask = np.zeros(rt.arity, dtype=bool)
        for unit, h in zip(units, hit):
            if h:
                mask[unit] = True
        if row_masked[i]:
            mask[:] = True
        targets += [(i, int(s)) for s in np.flatnonzero(mask) if not row.is_missing[s]]
        masks.append(mask)
    return masks, targets


@pytest.mark.parametrize("kind", ["pollution", "multitype"])
def test_masks_and_targets_match_per_row_reference(kind):
    schema, encoded = _dataset(kind)
    cfg = TrainConfig(p_f=0.3, p_r=0.1)
    rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    crop_rng = np.random.default_rng(12)
    for _ in range(5):
        for series in encoded:
            crop = random_crop(series, 10, crop_rng)
            out = apply_masking(crop, schema, cfg, rng_new)
            masks, targets = _reference_masking(crop, schema, cfg, rng_ref)
            assert len(out.mask) == len(masks)
            assert all(np.array_equal(a, b) for a, b in zip(out.mask, masks))
            assert [tuple(p) for p in np.asarray(out.targets).tolist()] == targets
    # both consumed exactly the same doubles
    assert rng_new.random() == rng_ref.random()


@pytest.mark.parametrize("kind", ["pollution", "multitype"])
def test_timestamp_subfields_are_masked_and_predicted_as_one_unit(kind):
    """A timestamp's subfields are always one masking unit, in every row
    type: a row masks all of them or none, and each masked subfield with a
    value is a target."""
    schema, encoded = _dataset(kind)
    cfg = TrainConfig(p_f=0.5, p_r=0.0)
    rng = np.random.default_rng(13)
    units = {0: 0, 1: 0}
    for series in encoded:
        out = apply_masking(series, schema, cfg, rng)
        targets = {tuple(p) for p in np.asarray(out.targets).tolist()}
        for i, (row, m) in enumerate(zip(out.rows, out.mask)):
            rt = schema.row_type(row.type_id)
            ts = [s for s, name in enumerate(rt.attributes)
                  if schema.attributes[name].group == "timestamp"]
            assert len(ts) > 1
            assert m[ts].all() or not m[ts].any()
            units[int(m[ts][0])] += 1
            for s in ts:
                assert ((i, s) in targets) == bool(m[s] and not row.is_missing[s])
    assert units[0] and units[1]
