"""Each term of the training objective on inputs small enough to
check by eye.

total = cross-entropy
      + lambda1 * distance to the frozen teacher      (internal)
      + lambda2 * covariance gap across domains        (mutual)
      + lambda3 * negative gap between the two heads   (exploration)
"""

import numpy as np

from difex.autodiff import Tensor
from difex.losses import (
    DomainBatch,
    LossWeights,
    coral_loss,
    covariance,
    exploration_l2,
    exploration_norm_l1,
    mse_distill,
    total_objective,
)
from difex.model import StudentModel

# distillation: plain mean squared gap, teacher held constant
student = Tensor(np.array([[1.0, 2.0]]))
teacher = Tensor(np.array([[3.0, 4.0]]))
print("mse_distill([[1,2]], [[3,4]]) =", float(mse_distill(student, teacher).data))
print("  ((3-1)^2 + (4-2)^2) / 2 = 4.0\n")

# covariance, the building block of the alignment term
X = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
print("covariance([[1,2],[3,4]]) =")
print(covariance(X).data, "\n")

# alignment: same feature distribution in every domain -> zero
rng = np.random.Generator(np.random.PCG64(0))
block = rng.normal(size=(4, 3))
same = np.tile(block, (2, 1))
ids = np.repeat([0, 1], 4)
labels = np.zeros(8, dtype=int)
print("coral on identical per-domain features:",
      float(coral_loss(DomainBatch(Tensor(same), labels, ids)).data))
shifted = np.concatenate([block, block * 3.0])
print("coral after scaling one domain by 3:  ",
      round(float(coral_loss(DomainBatch(Tensor(shifted), labels, ids)).data), 4),
      "\n")

# exploration: reward the two embedding halves for disagreeing
z1 = Tensor(np.array([[1.0, 0.0]]))
z2 = Tensor(np.array([[0.0, 1.0]]))
print("exploration_l2([[1,0]], [[0,1]]) =", float(exploration_l2(z1, z2).data))
print("exploration_l2(z, z)            =",
      float(exploration_l2(z1, z1).data), "(no reward for a copy)")

a = Tensor(np.array([[2.0, 0.0]]))
b = Tensor(np.array([[0.0, 3.0]]))
print("normalized variant on [[2,0]] vs [[0,3]]:",
      float(exploration_norm_l1(a, b).data))
print("  scale-invariant and bounded below by -2*sqrt(dim) =",
      -2.0 * np.sqrt(2))

w = LossWeights()
print(f"\ndefault weights: lambda1={w.lambda1} lambda2={w.lambda2} "
      f"lambda3={w.lambda3} variant={w.variant!r}")

# the whole objective over a student's forward pass: one graph node, whose
# only parent is the net's node
student = StudentModel(3, 6, 4, 2, rng)
out = student.forward(Tensor(rng.normal(size=(8, 3))))
batch = DomainBatch(out.z2, np.arange(8) % 2, ids)
total, parts = total_objective(batch, rng.normal(size=(8, 2)) * 0.1, out, w)
print("\nobjective parts:", {k: round(v, 4) for k, v in parts.items()})
print("parents of the objective node:", len(total._parents),
      "| of the net's node:", len(out.logits._parents), "parameters")
