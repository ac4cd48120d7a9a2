"""A tour of the reverse-mode tensor engine.

Everything the model computes runs through these primitives: numpy arrays
wrapped in Tensors, an execution-ordered gradient tape, and closed-form
backward rules checked against central finite differences.
"""

import numpy as np

from unittab.tensor import (
    GradTape, Tensor, cross_entropy_soft, gelu, grad_check, matmul, mean,
    residual_layer_norm, softmax, sum_,
)

rng = np.random.default_rng(0)

# A tiny computation: two linear maps, a GELU, a softmax readout.
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w1 = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
w2 = Tensor(rng.normal(size=(8, 5)), requires_grad=True)

hidden = gelu(matmul(x, w1))
logits = matmul(hidden, w2)
probs = softmax(logits, axis=-1)
print("probs row sums:", probs.data.sum(axis=-1))

# Losses against soft targets. Targets must be genuine distributions.
targets = rng.random((3, 5))
targets /= targets.sum(axis=1, keepdims=True)
loss = cross_entropy_soft(logits, targets)
print(f"loss = {loss.item():.4f}")

# backward() replays the recorded operations in reverse execution order.
loss.backward()
print("dL/dx has shape", x.grad.shape, "and norm", f"{np.linalg.norm(x.grad):.4f}")

tape = GradTape.trace(loss)
print(f"the tape recorded {len(tape.ops)} operations, ids strictly increasing:",
      all(a._op_id < b._op_id for a, b in zip(tape.ops, tape.ops[1:])))

# Finite differences are the engine's independent referee.
err = grad_check(lambda t: cross_entropy_soft(matmul(gelu(matmul(t, w1)), w2), targets), x)
print(f"max relative error vs central differences: {err:.2e}")

# The encoder's post-norm residual, layer_norm(x + dropout(a)), is one op; the
# layer norm handles a degenerate constant row through its epsilon.
const = Tensor(np.full((1, 6), 3.0))
ln = residual_layer_norm(const, Tensor(np.zeros((1, 6))), Tensor(np.ones(6)),
                         Tensor(np.zeros(6)), p=0.0, rng=None, training=False)
print("layer norm of a constant row:", ln.data.round(12).tolist())

# Scalar reductions close the graph.
reg = mean(x * x) + sum_(w1 * w1) * 1e-3
print(f"a composite regularizer evaluates to {reg.item():.4f}")
