import math

import numpy as np
import pytest

from unittab.tensor import (
    GradTape, NumericError, ShapeError, Tensor, concat, cross_entropy_soft,
    dropout, embedding_gather, gelu, grad_check, layer_norm, matmul, mean,
    reshape, slice_, softmax, sum_, transpose,
)
from unittab.verify import check_primitives


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_hand_arithmetic():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=(4, 2)))
    w = rng.normal(size=(3, 2))
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    assert grad_check(lambda t: sum_(matmul(t, b) * w), x) < 1e-6


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_softmax_symmetry():
    assert softmax(Tensor([0.0, 0.0])).data.tolist() == [0.5, 0.5]


def test_softmax_exact_exponentials():
    out = softmax(Tensor([math.log(1.0), math.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = Tensor(rng.normal(scale=30.0, size=(3, 7)))
        s = softmax(x, axis=-1).data.sum(axis=-1)
        assert np.all(np.abs(s - 1.0) <= 1e-12)


def test_softmax_gradcheck_length7():
    rng = np.random.default_rng(2)
    w = rng.normal(size=7)
    x = Tensor(rng.normal(size=7), requires_grad=True)
    assert grad_check(lambda t: sum_(softmax(t) * w), x) < 1e-6


def test_softmax_nonfinite_rejected():
    x = Tensor([0.0, 1.0])
    x.data[0] = np.inf
    with pytest.raises(NumericError):
        softmax(x)


def test_tensor_rejects_nonfinite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])


def test_layer_norm_constant_vector():
    x = Tensor([3.0, 3.0, 3.0])
    out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(3)
    g = Tensor(rng.normal(size=5))
    b = Tensor(rng.normal(size=5))
    w = rng.normal(size=(2, 5))
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    assert grad_check(lambda t: sum_(layer_norm(t, g, b) * w), x) < 1e-6


def test_gelu_zero():
    assert gelu(Tensor([0.0])).data[0] == 0.0


def test_dropout_p0_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = dropout(x, 0.0, np.random.default_rng(0), True)
    assert out is x


def test_dropout_eval_is_identity():
    x = Tensor(np.arange(6.0))
    assert dropout(x, 0.5, np.random.default_rng(0), False) is x


def test_dropout_scales_kept_units():
    x = Tensor(np.ones(10000))
    out = dropout(x, 0.25, np.random.default_rng(0), True)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / 0.75)


def test_embedding_gather_rows():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    out = embedding_gather(table, np.array([2, 0]))
    assert out.data.tolist() == [[4.0, 5.0], [0.0, 1.0]]


def test_embedding_gather_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        embedding_gather(table, np.array([3]))


def test_embedding_gather_backward_scatter_adds():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    out = embedding_gather(table, np.array([1, 1, 0]))
    sum_(out).backward()
    assert table.grad.tolist() == [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    target = np.array([[0.7, 0.1, 0.1, 0.1]])
    assert abs(cross_entropy_soft(logits, target).item() - math.log(4.0)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = Tensor([[10.0, -10.0]])
    # direct evaluation: -log softmax at the true class
    expected = math.log(1.0 + math.exp(-20.0))
    got = cross_entropy_soft(logits, np.array([[1.0, 0.0]])).item()
    assert abs(got - expected) < 1e-15
    assert got < 1e-8


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(4)
    t = rng.random((5, 6)) + 0.1
    t /= t.sum(axis=1, keepdims=True)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    assert grad_check(lambda z: cross_entropy_soft(z, t), x) < 1e-6


def test_cross_entropy_rejects_non_distribution():
    with pytest.raises(ValueError):
        cross_entropy_soft(Tensor(np.zeros((1, 3))), np.array([[0.5, 0.4, 0.2]]))


def test_grad_check_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda t: sum_(t * t), x)
    assert err < 1e-9
    y = sum_(x * x)
    x.zero_grad()
    y.backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_concat_slice_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = Tensor(rng.normal(size=(rng.integers(1, 5), 3)))
        b = Tensor(rng.normal(size=(rng.integers(1, 5), 3)))
        joined = concat([a, b], axis=0)
        back_a = slice_(joined, (slice(0, a.shape[0]),))
        back_b = slice_(joined, (slice(a.shape[0], joined.shape[0]),))
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)


def test_forward_backward_deterministic():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4))

    def run():
        x = Tensor(data, requires_grad=True)
        y = mean(softmax(matmul(gelu(x), Tensor(w)), axis=-1) * Tensor(w))
        y.backward()
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def test_grad_tape_is_topologically_ordered():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = matmul(x, x) + x * x
    z = mean(gelu(y))
    tape = GradTape.trace(z)
    ids = [t._op_id for t in tape.ops]
    assert ids == sorted(ids)
    for op in tape.ops:
        for parent in op._parents:
            assert parent._op_id < op._op_id


def test_reshape_transpose_round_trip():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    y = transpose(reshape(x, (6, 4)))
    assert y.shape == (4, 6)
    sum_(y).backward()
    assert np.allclose(x.grad, 1.0)


def test_every_primitive_matches_finite_differences():
    results = check_primitives(trials=10)
    for r in results:
        assert r.passed, f"{r.name}: {r.max_err:.3e} >= {r.tol}"
