"""The reverse-mode core in four small scenes.

No frameworks anywhere in this package: gradients come from a tape of
numpy operations. This script builds a tiny graph by hand, checks its
gradient against central finite differences, then lets AdamW pull a
quadratic to its minimum. Every op here is one the training step runs.
"""

import numpy as np

from difex.autodiff import (
    AdamW,
    Tensor,
    backward,
    dense,
    finite_difference_grad,
    softmax_cross_entropy,
    sum_all,
)
from difex.losses import mse_distill

# scene 1: a scalar through a few ops (an affine layer with a zero bias)
x = Tensor(np.array([[1.0, -1.5], [0.5, 3.0]]))
w = Tensor(np.array([[2.0], [1.0]]))
b = Tensor(np.zeros(1))
out = sum_all(dense(x, w, b).relu())
out.backward()
print("f(x) = sum(relu(x @ w + b)), b = 0")
print("value:", float(out.data))
print("df/dx:\n", x.grad)
print("df/dw:\n", w.grad)

# scene 2: the same gradient from finite differences (both rows are away
# from relu's kink at 0, where a central difference would read half a slope)
def f(flat):
    return float(sum_all(dense(Tensor(flat.reshape(2, 2)), w, b).relu()).data)

fd = finite_difference_grad(f, x.data.ravel().copy()).reshape(2, 2)
print("\nfinite-difference check, max abs gap:",
      float(np.abs(fd - x.grad).max()))

# scene 3: cross-entropy on logits, the loss the classifiers use
logits = Tensor(np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0]]))
loss = softmax_cross_entropy(logits, np.array([0, 2]))
backward(loss, [logits])
print("\ncross-entropy:", round(float(loss.data), 6))
print("gradient rows sum to zero:", np.allclose(logits.grad.sum(axis=1), 0.0))

# scene 4: AdamW walks a quadratic, the mean squared gap to a target, downhill
p = Tensor(np.array([[5.0, -4.0]]))
opt = AdamW([p], lr=0.1, weight_decay=0.0)
for step in range(300):
    loss = mse_distill(p, np.array([[1.0, 2.0]]))
    opt.zero_grad()
    loss.backward()
    opt.step()
    if step % 100 == 0:
        print(f"step {step:3d}  loss {float(loss.data):.6f}  p {p.data[0].round(4)}")
print("final parameters:", p.data[0].round(6), "(target [1, 2])")
