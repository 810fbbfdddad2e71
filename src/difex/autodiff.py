"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation allocates a fresh output tensor
holding a closure that knows how to push gradients to its parents. Calling
``Tensor.backward()`` on a scalar loss topologically sorts the recorded
graph and runs the closures once each, newest first, passing each the
gradient of its own output.

No closure refers to the tensor that holds it (one that needs the output
values captures the output array instead), so graphs are acyclic: a step's
graph is freed by reference counting as soon as its loss is dropped,
without a pass of the cyclic garbage collector.

Everything is 64-bit and single-threaded; tensors are treated as immutable
once created (the optimizer is the only mutator, between graphs).

A training step's graph holds the parameters, one node for the net's
forward pass (``model``) and one for its loss: ``softmax_cross_entropy``
for the teacher, ``losses.total_objective`` for the student, with a
``sum_all`` root over arms trained in lockstep. The layer ops those nodes
replace (``+``, ``scale``, ``relu``, ``tanh``, ``dense``, ``squash_rows``,
``concat_cols``, matrix product, ...) live with the tests, as the op
chain the nodes must match bit for bit. With a leading arm axis, every
arm's slice of a result and of a gradient has the bits the same op gives
on that arm's 2-D operands.

Finiteness is checked at the edges of a step, not at every node: a
``Tensor`` built from outside data rejects NaN/Inf, ``backward`` rejects a
non-finite loss before it runs, and ``AdamW.step`` rejects a non-finite
update before writing it back. Op outputs skip the check, since a
non-finite intermediate either reaches the loss or poisons a gradient
and so the parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteError",
    "quiet_overflow",
    "Tensor",
    "softmax_cross_entropy",
    "sum_all",
    "backward",
    "AdamW",
    "finite_difference_grad",
]


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared in a tensor; the computation is invalid."""


def _check_finite(arr, context):
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")


def quiet_overflow():
    """numpy's floating-point warnings off, as a context manager: an
    overflow is caught where a result is checked (a loss, an update, the
    logits) and ends in one ``NonFiniteError`` with no warnings first."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``_parents`` and ``_backprop`` link the tensor into the computation
    graph of the forward pass that produced it; leaves have neither.
    """

    __slots__ = ("data", "grad", "_parents", "_backprop")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad = None
        self._parents = ()
        self._backprop = None

    @classmethod
    def _op(cls, data, parents):
        """Output of an op: no finite check, ``_backprop`` set by the caller."""
        out = cls.__new__(cls)
        out.data = np.asarray(data)  # numpy reductions return scalars
        out.grad = None
        out._parents = parents
        out._backprop = None
        return out

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every tensor reachable from this scalar."""
        if self.data.size != 1:
            raise ValueError("backward root must be a scalar")
        _check_finite(self.data, "loss")
        topo = _topo_order(self)
        for node in topo:  # all tape data is float64
            node.grad = np.zeros(node.data.shape)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backprop is not None:
                node._backprop(node.grad)


def _topo_order(root):
    """Iterative post-order DFS; each node appears once, parents first."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in seen:
                stack.append((parent, False))
    return order


# -- operations ----------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._op(a.data.sum(), (a,))

    def backprop(g):
        a.grad += g

    out._backprop = backprop
    return out


def _cross_entropy(logits, labels):
    """Cross-entropy of the ``logits`` array and its backward, on arrays."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim not in (2, 3):
        raise ValueError("softmax_cross_entropy expects B-by-C logits")
    n, c = logits.shape[-2:]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    losses = np.log(total) - shifted[..., rows, labels]

    def grad(g):
        p = e / total[..., None]  # the softmax
        p[..., rows, labels] -= 1.0
        return g[..., None, None] * p / n

    return losses.mean(axis=-1), grad


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class, max-shifted for stability.

    With an arm axis, logits are (A, B, C), every arm is scored on the
    same B labels, and the result holds one mean per arm."""
    value, grad = _cross_entropy(logits.data, labels)
    out = Tensor._op(value, (logits,))

    def backprop(g):
        logits.grad += grad(g)

    out._backprop = backprop
    return out


def backward(loss: Tensor, params=None):
    """Run the backward pass; parameters unreachable from loss get zero grads."""
    loss.backward()
    for p in params or ():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


# -- optimization --------------------------------------------------------


class AdamW:
    """Adaptive-moment update with decoupled weight decay.

    Defaults follow the common recipe: lr 1e-3, decay 5e-4, betas
    (0.9, 0.999), eps 1e-8, with bias-corrected moments.
    """

    def __init__(self, params, lr=1e-3, weight_decay=5e-4, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        size = sum(p.data.size for p in self.params)
        self.m = np.zeros(size)  # first moments, parameters laid end to end
        self.v = np.zeros(size)
        # the gathered gradient, two work vectors and the next moments
        self._g, self._a, self._b, self._m, self._v = np.empty((5, size))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter as a single flat vector.

        Parameters and gradients are gathered afresh each step, so a
        caller may reassign ``p.data`` between steps. Every intermediate
        lands in a buffer kept between steps, in the order of operations
        of ``x -= lr·(m/bc1) / (sqrt(v/bc2) + eps)``. A non-finite result
        raises before anything is written back: parameters, moments and
        step count stay as they were.
        """
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError("gradient/parameter shape mismatch")
            grads.append(g.ravel())
        g, a, b, m, v = self._g, self._a, self._b, self._m, self._v
        np.concatenate(grads, out=g)
        x = np.concatenate([p.data.ravel() for p in self.params])
        t = self.t + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        if self.weight_decay:
            x -= np.multiply(x, self.lr * self.weight_decay, out=a)
        np.subtract(g, self.m, out=a)
        a *= 1.0 - self.beta1
        np.add(self.m, a, out=m)
        np.multiply(g, g, out=a)
        a -= self.v
        a *= 1.0 - self.beta2
        np.add(self.v, a, out=v)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        x -= a
        _check_finite(x, "parameter after optimizer step")
        self.t = t
        self.m, self._m = m, self.m
        self.v, self._v = v, self.v
        offset = 0
        for p in self.params:
            n = p.data.size
            p.data = x[offset : offset + n].reshape(p.data.shape)
            offset += n


# -- the gradient oracle -------------------------------------------------


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array.

    Deliberately independent of the Tensor machinery above so it can
    serve as the oracle the backward pass is checked against.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        hi = f(x)
        xf[i] = orig - h
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad
