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
    "Tensor",
    "concat_cols",
    "dense",
    "matmul",
    "rowwise_div",
    "softmax_cross_entropy",
    "squash_rows",
    "sum_all",
    "sum_rows",
    "backward",
    "AdamW",
    "finite_difference_grad",
]


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared in a tensor; the computation is invalid."""


def _check_finite(arr, context):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {context}")


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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

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

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        _same_shape(self, other, "add")
        out = Tensor._op(self.data + other.data, (self, other))

        def backprop(g):
            self.grad += g
            other.grad += g

        out._backprop = backprop
        return out

    def __sub__(self, other):
        other = _as_tensor(other)
        _same_shape(self, other, "sub")
        out = Tensor._op(self.data - other.data, (self, other))

        def backprop(g):
            self.grad += g
            other.grad -= g

        out._backprop = backprop
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        _same_shape(self, other, "mul")
        out = Tensor._op(self.data * other.data, (self, other))

        def backprop(g):
            self.grad += g * other.data
            other.grad += g * self.data

        out._backprop = backprop
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.scale(-1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def scale(self, s: float):
        out = Tensor._op(self.data * s, (self,))

        def backprop(g):
            self.grad += g * s

        out._backprop = backprop
        return out

    def relu(self):
        # subgradient at 0 is taken as 0
        out = Tensor._op(np.maximum(self.data, 0.0), (self,))

        def backprop(g):
            self.grad += g * (self.data > 0.0)

        out._backprop = backprop
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor._op(y, (self,))

        def backprop(g):
            self.grad += g * (1.0 - y * y)

        out._backprop = backprop
        return out

    def sqrt(self):
        y = np.sqrt(self.data)
        out = Tensor._op(y, (self,))

        def backprop(g):
            self.grad += g / (2.0 * y)

        out._backprop = backprop
        return out

    def abs(self):
        out = Tensor._op(np.abs(self.data), (self,))

        def backprop(g):
            self.grad += g * np.sign(self.data)

        out._backprop = backprop
        return out

    @property
    def T(self):
        out = Tensor._op(self.data.T.copy(), (self,))

        def backprop(g):
            self.grad += g.T

        out._backprop = backprop
        return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


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


# -- operations beyond the dunders ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul: inner dims disagree {a.data.shape} x {b.data.shape}"
        )
    out = Tensor._op(a.data @ b.data, (a, b))

    def backprop(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out._backprop = backprop
    return out


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` as one node; same bits as ``matmul``
    followed by a separate bias-add node."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.data.shape[1] != w.data.shape[0]
            or w.data.shape[1] != b.data.shape[0]):
        raise ValueError(f"dense: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = Tensor._op(x.data @ w.data + b.data, (x, w, b))

    def backprop(g):
        b.grad += g.sum(axis=0)
        x.grad += g @ w.data.T
        w.grad += x.data.T @ g

    out._backprop = backprop
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._op(a.data.sum(), (a,))

    def backprop(g):
        a.grad += g

    out._backprop = backprop
    return out


def sum_rows(x: Tensor) -> Tensor:
    """Row sums of a B-by-d matrix, as a length-B vector."""
    if x.data.ndim != 2:
        raise ValueError("sum_rows expects a matrix")
    out = Tensor._op(x.data.sum(axis=1), (x,))

    def backprop(g):
        x.grad += g[:, None]

    out._backprop = backprop
    return out


def rowwise_div(x: Tensor, s: Tensor) -> Tensor:
    """Divide row b of x by scalar s[b]."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.data.shape[0] != s.data.shape[0]:
        raise ValueError(f"rowwise_div: {x.data.shape} / {s.data.shape}")
    out = Tensor._op(x.data / s.data[:, None], (x, s))

    def backprop(g):
        x.grad += g / s.data[:, None]
        s.grad -= (g * x.data).sum(axis=1) / (s.data * s.data)

    out._backprop = backprop
    return out


def squash_rows(x: Tensor, radius: float = 1.0) -> Tensor:
    """Scale each row of x by 1/(1 + |row|/radius).

    Row norms land strictly inside `radius` while directions pass
    through untouched, and the Jacobian never vanishes: rows can always
    be rotated or shrunk back no matter how hard something pushed them
    outward. That makes it the right cap for features that face a
    maximized divergence term, where a saturating elementwise squash
    would leave dead, unrecoverable coordinates.
    """
    if x.data.ndim != 2:
        raise ValueError("squash_rows expects a matrix")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = np.sqrt((x.data * x.data).sum(axis=1) + 1e-300)
    g = 1.0 / (1.0 + r / radius)
    out = Tensor._op(x.data * g[:, None], (x,))

    def backprop(g_out):
        # d/dx [g(r)·x] = g·I + (dg/dr)·x xᵀ/r, with dg/dr = −g²/radius
        xu = (g_out * x.data).sum(axis=1)
        coef = xu * g * g / (radius * r)
        x.grad += g_out * g[:, None] - x.data * coef[:, None]

    out._backprop = backprop
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two B-by-* matrices along columns."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols: {a.data.shape} | {b.data.shape}")
    p = a.data.shape[1]
    out = Tensor._op(np.concatenate([a.data, b.data], axis=1), (a, b))

    def backprop(g):
        a.grad += g[:, :p]
        b.grad += g[:, p:]

    out._backprop = backprop
    return out


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class, max-shifted for stability."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ValueError("softmax_cross_entropy expects B-by-C logits")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(n), labels]
    out = Tensor._op(losses.mean(), (logits,))

    def backprop(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        logits.grad += g * p / n

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

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter as a single flat vector.

        Parameters and gradients are gathered afresh each step, so a
        caller may reassign ``p.data`` between steps. A non-finite result
        raises before anything is written back: parameters, moments and
        step count stay as they were.
        """
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError("gradient/parameter shape mismatch")
            grads.append(g.ravel())
        g = np.concatenate(grads)
        x = np.concatenate([p.data.ravel() for p in self.params])
        t = self.t + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        if self.weight_decay:
            x -= self.lr * self.weight_decay * x
        m = self.m + (1.0 - self.beta1) * (g - self.m)
        v = self.v + (1.0 - self.beta2) * (g * g - self.v)
        x -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        _check_finite(x, "parameter after optimizer step")
        self.t, self.m, self.v = t, m, v
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
