"""The reverse-mode core in four small scenes.

No frameworks anywhere in this package: gradients come from a tape of
numpy operations. A net's whole forward pass is one node of that tape.
This script builds a training step's graph by hand, checks its gradient
against central finite differences, then lets AdamW pull a quadratic to
its minimum.
"""

import numpy as np

from difex.autodiff import (
    AdamW,
    Tensor,
    backward,
    finite_difference_grad,
    softmax_cross_entropy,
)
from difex.losses import mse_distill
from difex.model import TeacherModel

# scene 1: a teacher step's graph is the parameters, the net's node (its
# logits) and the loss node; backward fills every parameter's gradient
net = TeacherModel(3, 4, 2, 2, np.random.default_rng(0))
x = np.array([[1.0, -1.5, 0.5], [0.5, 3.0, -2.0]])
labels = np.array([0, 1])
_, logits = net.forward(Tensor(x))
loss = softmax_cross_entropy(logits, labels)
loss.backward()
print("loss = cross-entropy(teacher(x)), one node for the whole net")
print("value:", round(float(loss.data), 6))
print("parents of the net's node:", len(logits._parents), "parameters")
print("dloss/dw1:\n", net.w1.grad.round(6))
print("every parameter and its gradient are views of two vectors of",
      net.vector.size, "floats:",
      all(np.shares_memory(p.data, net.vector) and np.shares_memory(p.grad, net.grad)
          for p in net.params()))


# scene 2: the same gradient from finite differences of the loss
def f(flat):
    keep = net.w1.data
    net.w1.data = flat.reshape(keep.shape)
    value = float(softmax_cross_entropy(net.forward(Tensor(x))[1], labels).data)
    net.w1.data = keep
    return value


fd = finite_difference_grad(f, net.w1.data.ravel().copy()).reshape(net.w1.data.shape)
print("\nfinite-difference check, max abs gap:",
      float(np.abs(fd - net.w1.grad).max()))

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
