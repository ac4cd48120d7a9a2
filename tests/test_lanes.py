"""The worker lane: fused ops and AdamW split across two threads, bit for bit.

With two usable CPUs (`os.sched_getaffinity`, monkeypatched here as in the
`predict` tests) and the lane free, `attention`, `feed_forward` and
`AdamW.step` hand half of their work to the library's one worker thread;
`residual_layer_norm` runs whole. Every numpy call sees the operands it
sees on one CPU, so outputs, grads, moments and the golden pins must keep
their bits. `tensor.SPLIT_MIN` is set to 0 so the small shapes here split.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_loop_golden as loop_golden
import test_masking_golden as masking_golden
import unittab
from unittab import tensor
from unittab.tensor import NumericError, Tensor, attention, feed_forward, residual_layer_norm
from unittab.training import AdamW, TrainConfig, predict, pretrain
from test_training import lanes_used, mixed_length_samples, small_pretrain_setup


def use_cpus(mp, n):
    """`n` usable CPUs, every op large enough to split, and a check that
    only the holder of the lane submits to it. Returns the list of
    submitted functions."""
    mp.setattr(tensor.os, "sched_getaffinity", lambda pid: set(range(n)))
    mp.setattr(tensor, "SPLIT_MIN", 0)
    submits = []
    submit = tensor._LANE.submit

    def checked(fn, *args):
        assert tensor._LANE_LOCK.locked()
        submits.append(fn)
        return submit(fn, *args)

    mp.setattr(tensor._LANE, "submit", checked)
    return submits


def op_inputs(op, b, t, heads, hd, mask, frozen, seed):
    """Leaves for one fused op, all but `frozen` requiring a grad, and its
    argument list (dropout 0.2, training, an rng seeded with `seed`)."""
    rng = np.random.default_rng(seed)
    w = heads * hd
    shapes = {
        attention: dict(x=(b, t, w), wq=(w, w), bq=(w,), wk=(w, w), wv=(w, w), bv=(w,),
                        wo=(w, w), bo=(w,)),
        feed_forward: dict(x=(b, t, w), w1=(w, 3 * w), b1=(3 * w,), w2=(3 * w, w), b2=(w,)),
        residual_layer_norm: dict(x=(b, t, w), a=(b, t, w), gamma=(w,), beta=(w,)),
    }[op]
    leaves = {k: Tensor(rng.normal(0.0, 0.7, size=s), requires_grad=k not in frozen)
              for k, s in shapes.items()}
    drop = np.random.default_rng(seed + 1)
    if op is attention:
        add_mask = None
        if mask != "none":
            real = rng.random((b if mask == "per_row" else 1, t)) < 0.7
            real[:, 0] = True
            add_mask = np.where(real, 0.0, -1e9)[:, None, None, :]
        return leaves, [*leaves.values(), heads, add_mask, 0.2, drop, True]
    if op is feed_forward:
        return leaves, list(leaves.values())
    return leaves, [*leaves.values(), 0.2, drop, True]


def run_op(op, b, t, heads, hd, mask, frozen, seed):
    leaves, args = op_inputs(op, b, t, heads, hd, mask, frozen, seed)
    out = op(*args)
    if out.requires_grad:
        out.backward(np.random.default_rng(seed + 2).normal(size=out.shape))
    return out.data, {k: leaf.grad for k, leaf in leaves.items()}


OPS = [attention, feed_forward, residual_layer_norm]
LEAF_NAMES = ["x", "wq", "bq", "wk", "wv", "bv", "wo", "bo", "w1", "b1", "w2", "b2", "a",
              "gamma", "beta"]


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(OPS),
       b=st.one_of(st.sampled_from([1, 2, 3]), st.integers(2, 5).map(lambda k: 2 * k + 1)),
       t=st.integers(1, 6), heads=st.integers(1, 3), hd=st.integers(1, 4),
       mask=st.sampled_from(["none", "per_row", "shared"]),
       frozen=st.sets(st.sampled_from(LEAF_NAMES), max_size=3), seed=st.integers(0, 2**16))
def test_fused_op_on_two_lanes_matches_one_bitwise(op, b, t, heads, hd, mask, frozen, seed):
    with pytest.MonkeyPatch.context() as mp:
        submits_one = use_cpus(mp, 1)
        out, grads = run_op(op, b, t, heads, hd, mask, frozen, seed)
    with pytest.MonkeyPatch.context() as mp:
        submits = use_cpus(mp, 2)
        out2, grads2 = run_op(op, b, t, heads, hd, mask, frozen, seed)
    assert not submits_one
    assert np.array_equal(out, out2)
    for k, g in grads.items():
        assert (g is None) == (grads2[k] is None), k
        assert g is None or np.array_equal(g, grads2[k]), k
    assert bool(submits) == (b > 1 and op is not residual_layer_norm)


def adamw_reference(params, m, v, t, lr, betas, weight_decay, no_decay):
    """One AdamW step as the optimizer wrote it with whole-array temporaries."""
    b1, b2 = betas
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for k, p in sorted(params.items()):
        if p.grad is None:
            continue
        g = p.grad
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * g * g
        update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
        if weight_decay and k not in no_decay:
            p.data *= 1.0 - lr * weight_decay
        p.data -= lr * update


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1,
                       max_size=7),
       gradless=st.sets(st.integers(0, 6)), steps=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_adamw_on_two_lanes_matches_the_whole_array_update_bitwise(shapes, gradless, steps,
                                                                   seed):
    def run(n_cpus):
        rng = np.random.default_rng(seed)
        params = {f"p{i}": Tensor(rng.normal(size=s), requires_grad=True)
                  for i, s in enumerate(shapes)}
        opt = AdamW(params, lr=1e-2, betas=(0.9, 0.999), weight_decay=0.1, no_decay={"p1"})
        ref = {k: Tensor(p.data) for k, p in params.items()}
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        with pytest.MonkeyPatch.context() as mp:
            submits = use_cpus(mp, n_cpus)
            for step in range(1, steps + 1):
                for i, k in enumerate(params):
                    g = None if i in gradless else rng.normal(size=params[k].shape)
                    params[k].grad, ref[k].grad = g, g
                opt.step()
                adamw_reference(ref, m, v, step, 1e-2, (0.9, 0.999), 0.1, {"p1"})
        assert n_cpus > 1 or not submits
        for k in params:
            assert np.array_equal(params[k].data, ref[k].data), k
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), k
        return params, opt

    one, opt_one = run(1)
    two, opt_two = run(2)
    for k in one:
        assert np.array_equal(one[k].data, two[k].data), k
        assert np.array_equal(opt_one.m[k], opt_two.m[k]), k
        assert np.array_equal(opt_one.v[k], opt_two.v[k]), k


def test_adamw_nonfinite_grad_leaves_parameters_and_moments_untouched(monkeypatch):
    use_cpus(monkeypatch, 2)
    rng = np.random.default_rng(3)
    params = {f"p{i}": Tensor(rng.normal(size=(4, 3)), requires_grad=True) for i in range(4)}
    opt = AdamW(params, lr=1e-2, betas=(0.9, 0.999), weight_decay=0.01, no_decay=set())
    for p in params.values():
        p.grad = rng.normal(size=(4, 3))
    opt.step()
    before = {k: (p.data.copy(), opt.m[k].copy(), opt.v[k].copy()) for k, p in params.items()}
    params["p3"].grad = np.full((4, 3), np.nan)  # in the second group
    with pytest.raises(NumericError, match="'p3'"):
        opt.step()
    for k, (data, m, v) in before.items():
        assert np.array_equal(params[k].data, data) and np.array_equal(opt.m[k], m), k
        assert np.array_equal(opt.v[k], v), k
    assert opt.t == 1


GOLDEN = ([(loop_golden.test_finetune_curve_and_report_pinned, name)
           for name in sorted(loop_golden.FINETUNE_SETUPS)]
          + [(loop_golden.test_pretrain_log_steps_and_checkpoint_pinned, name)
             for name in sorted(loop_golden.PRETRAIN_SETUPS)]
          + [(masking_golden.test_pretrain_curve_matches_per_row_implementation, name)
             for name in sorted(masking_golden.SETUPS)])


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("pinned, name", GOLDEN,
                         ids=[f"{test.__name__.removeprefix('test_')}-{name}"
                              for test, name in GOLDEN])
def test_golden_pins_hold_on_one_and_two_lanes(pinned, name, n_cpus, tmp_path, monkeypatch):
    submits = use_cpus(monkeypatch, n_cpus)
    if pinned is masking_golden.test_pretrain_curve_matches_per_row_implementation:
        pinned(name)
    else:
        pinned(name, tmp_path)
    assert bool(submits) == (n_cpus == 2)


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("where", ["lower", "upper", "both"])
def test_non_finite_scores_in_either_half_raise_after_both_halves(where, monkeypatch):
    leaves, args = op_inputs(attention, 4, 3, 2, 2, "none", (), seed=0)
    rows = {"lower": [0], "upper": [3], "both": [1, 2]}[where]
    leaves["x"].data[rows] *= 1e200  # q . k overflows to inf in these rows
    with pytest.MonkeyPatch.context() as mp:
        use_cpus(mp, 1)
        with pytest.raises(NumericError) as one_lane:
            attention(*args)
    submits = use_cpus(monkeypatch, 2)
    with pytest.raises(NumericError) as two_lanes:
        attention(*args)
    assert str(two_lanes.value) == str(one_lane.value)
    assert len(submits) == 1 and tensor._LANE_LOCK.acquire(blocking=False)
    tensor._LANE_LOCK.release()


@pytest.mark.parametrize("fails", [{"here"}, {"there"}, {"here", "there"}],
                         ids=["here", "there", "both"])
def test_pair_raises_only_after_both_sides_finish_here_first(fails, monkeypatch):
    use_cpus(monkeypatch, 2)
    finished = []

    def side(name, delay):
        def run():
            time.sleep(delay)
            finished.append(name)
            if name in fails:
                raise RuntimeError(name)
        return run

    with tensor.lane(2) as held:
        with pytest.raises(RuntimeError) as err:
            tensor.pair(side("here", 0.0), side("there", 0.2), held)
    assert held and sorted(finished) == ["here", "there"]
    assert str(err.value) == ("here" if "here" in fails else "there")


def test_lane_is_never_waited_for(monkeypatch):
    use_cpus(monkeypatch, 2)
    with tensor.lane(2) as outer:
        with tensor.lane(2) as inner:  # held by the caller itself: not taken
            assert outer and not inner


HOST_KERNEL_CHECK = """
import numpy as np
import test_fused_ops as F
from unittab import tensor
tensor.SPLIT_MIN = 0
for b, t, w, heads in [(3, 4, 64, 8), (10, 5, 12, 12), (1, 21, 4, 4), (7, 9, 48, 4)]:
    res = []
    for ops in (F.FUSED, F.REFERENCE):
        leaves = F.leaves(b, t, w, heads, seed=1)
        real = np.random.default_rng(2).random((b, t)) < 0.7
        real[:, 0] = True
        out = F.block(ops, leaves["x"], leaves, heads, np.where(real, 0.0, -1e9)[:, None, None, :],
                      0.1, np.random.default_rng(3), True)
        out.backward(np.random.default_rng(4).normal(size=out.shape))
        res.append([out.data] + [leaf.grad for leaf in leaves.values()])
    assert all(np.array_equal(a, c) for a, c in zip(*res)), (b, t, w, heads)
print("equal")
"""


HOST_KERNEL_PRETRAIN = """
import tempfile
from pathlib import Path
import test_masking_golden as G
from unittab import tensor
from unittab.model import Model, ModelConfig
from unittab.training import TrainConfig, pretrain
tensor.SPLIT_MIN = 0
submits = []
submit = tensor._LANE.submit
tensor._LANE.submit = lambda fn: submits.append(fn) or submit(fn)
schema, encoded = G._dataset("multitype")
for d, m in [(8, 16), (16, 64)]:
    runs = []
    for n_cpus in (1, 2):
        tensor.os.sched_getaffinity = lambda pid, n=n_cpus: set(range(n))
        submits.clear()
        config = ModelConfig(d=d, m=m, field_layers=1, field_heads=2, seq_layers=1,
                             seq_heads=2, freq_count=3, t_max=10, n_row_types=schema.n_row_types)
        cfg = TrainConfig(p_f=0.3, p_r=0.1, lr=1e-3, batch_size=4, epochs=2, seed=7,
                          max_steps=4, checkpoint_every=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            losses = pretrain(encoded, Model(config, schema, seed=2), cfg,
                              checkpoint_path=path).losses
            runs.append((losses, path.read_bytes()))
        assert bool(submits) == (n_cpus == 2), (d, m, n_cpus)
    assert len(runs[0][0]) == 4 and runs[0] == runs[1], (d, m)
print("equal")
"""


def run_on_the_hosts_own_blas_kernel(code: str) -> None:
    """Run `code` in a process without the kernel pin, so OpenBLAS picks
    the kernel for this CPU, and require that it prints "equal"."""
    src = str(Path(unittab.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.strip() == "equal", out.stderr


def test_split_layer_matches_composed_ops_on_the_hosts_own_blas_kernel():
    """The pinned kernel rounds a strided and a contiguous operand alike in
    some products where others do not, so the layout of every operand must
    match the composed ops too: check on the kernel OpenBLAS picks for this
    CPU, in a process without the pin, with every op split."""
    run_on_the_hosts_own_blas_kernel(HOST_KERNEL_CHECK)


def test_pretrain_on_two_lanes_matches_one_on_the_hosts_own_blas_kernel():
    """The golden pins hold under the pinned kernel only, so compare a
    4-step pretrain (two checkpoints) on one usable CPU with the same run
    on two, both on the host's own kernel with `SPLIT_MIN` at 0: equal loss
    curves and equal checkpoint bytes, at two model widths. The two runs
    are compared with each other only; no value is pinned."""
    run_on_the_hosts_own_blas_kernel(HOST_KERNEL_PRETRAIN)


def test_importing_unittab_starts_no_thread():
    code = ("import threading, unittab, unittab.training; "
            "print(sorted(t.name for t in threading.enumerate()))")
    src = str(Path(unittab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "['MainThread']"


def test_pretrain_and_predict_share_one_worker_thread(monkeypatch):
    use_cpus(monkeypatch, 2)
    model, encoded = small_pretrain_setup()
    pretrain(encoded, model, TrainConfig(p_f=0.3, batch_size=2, max_steps=3, seed=1))
    model, samples = mixed_length_samples("binary", 20)
    seen = lanes_used(model)
    predict(model, samples, "binary", batch_size=4)
    assert any(t is not threading.current_thread() for t in seen["threads"])
    workers = [t for t in threading.enumerate() if t.name.startswith("unittab-")]
    assert len(workers) == 1


@pytest.mark.parametrize("op, rounds", [(attention, 1), (feed_forward, 1),
                                        (residual_layer_norm, 0)],
                         ids=["attention", "feed_forward", "residual_layer_norm"])
def test_split_forward_takes_the_lane_once_per_fused_op(op, rounds, monkeypatch):
    """A split forward hands each half its whole work in one round: one
    submit for `attention` and `feed_forward`, none for the unsplit
    `residual_layer_norm`."""
    submits = use_cpus(monkeypatch, 2)
    op(*op_inputs(op, 4, 3, 2, 2, "per_row", (), seed=0)[1])
    assert len(submits) == rounds
