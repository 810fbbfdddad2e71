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

The tape holds only the ops that the models and the objective build. The
general ops that the fused ones replace (matrix product, transpose,
elementwise product) live with the tests, as their bit-for-bit oracles.

The layer ops (``dense``, ``relu``, ``squash_rows``, ``concat_cols``,
``softmax_cross_entropy``) take an optional leading arm axis: A models of
one shape trained in lockstep hold their weights as (A, ...) stacks and
their activations as (A, rows, width). Every arm's slice of a result and
of a gradient has the bits the same op gives on that arm's 2-D operands,
because each op runs the same BLAS call, elementwise formula or
last-axis reduction per slice.

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
    "concat_cols",
    "dense",
    "softmax_cross_entropy",
    "squash_rows",
    "sum_all",
    "backward",
    "AdamW",
    "finite_difference_grad",
]


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared in a tensor; the computation is invalid."""


def _check_finite(arr, context):
    if not np.all(np.isfinite(arr)):
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

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        if self.data.shape != other.data.shape:
            raise ValueError(f"add: shape mismatch {self.data.shape} vs {other.data.shape}")
        out = Tensor._op(self.data + other.data, (self, other))

        def backprop(g):
            self.grad += g
            other.grad += g

        out._backprop = backprop
        return out

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


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` as one node; same bits as a matrix-product
    node followed by a separate bias-add node.

    With an arm axis, x is (A, B, in), w (A, in, out) and b (A, out)."""
    xs, ws, bs = x.data.shape, w.data.shape, b.data.shape
    if (x.data.ndim not in (2, 3) or w.data.ndim != x.data.ndim
            or b.data.ndim != w.data.ndim - 1 or xs[:-2] != ws[:-2]
            or bs[:-1] != ws[:-2] or xs[-1] != ws[-2] or ws[-1] != bs[-1]):
        raise ValueError(f"dense: {xs} @ {ws} + {bs}")
    out = Tensor._op(x.data @ w.data + b.data[..., None, :], (x, w, b))

    def backprop(g):
        b.grad += g.sum(axis=-2)
        x.grad += g @ w.data.swapaxes(-1, -2)
        w.grad += x.data.swapaxes(-1, -2) @ g

    out._backprop = backprop
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._op(a.data.sum(), (a,))

    def backprop(g):
        a.grad += g

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
    if x.data.ndim not in (2, 3):
        raise ValueError("squash_rows expects a matrix or a stack of them")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = np.sqrt((x.data * x.data).sum(axis=-1) + 1e-300)
    g = 1.0 / (1.0 + r / radius)
    out = Tensor._op(x.data * g[..., None], (x,))

    def backprop(g_out):
        # d/dx [g(r)·x] = g·I + (dg/dr)·x xᵀ/r, with dg/dr = −g²/radius
        xu = (g_out * x.data).sum(axis=-1)
        coef = xu * g * g / (radius * r)
        x.grad += g_out * g[..., None] - x.data * coef[..., None]

    out._backprop = backprop
    return out


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two B-by-* matrices (or two stacks of them) along columns."""
    if (a.data.ndim not in (2, 3) or a.data.ndim != b.data.ndim
            or a.data.shape[:-1] != b.data.shape[:-1]):
        raise ValueError(f"concat_cols: {a.data.shape} | {b.data.shape}")
    p = a.data.shape[-1]
    out = Tensor._op(np.concatenate([a.data, b.data], axis=-1), (a, b))

    def backprop(g):
        a.grad += g[..., :p]
        b.grad += g[..., p:]

    out._backprop = backprop
    return out


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class, max-shifted for stability.

    With an arm axis, logits are (A, B, C), every arm is scored on the
    same B labels, and the result holds one mean per arm."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim not in (2, 3):
        raise ValueError("softmax_cross_entropy expects B-by-C logits")
    n, c = logits.data.shape[-2:]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    losses = lse - shifted[..., rows, labels]
    out = Tensor._op(losses.mean(axis=-1), (logits,))

    def backprop(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[..., rows, labels] -= 1.0
        logits.grad += g[..., None, None] * p / n

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
