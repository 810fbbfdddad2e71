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
once created (the optimizer is the only mutator, between graphs). A
gradient buffer a tensor already has is zeroed in place by ``backward``:
a net's parameters keep theirs as views of one gradient vector, and
``AdamW`` updates the parameter vector in place.

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
``Tensor`` built from outside data rejects NaN/Inf (a training run checks
its pooled rows once and builds each batch with ``Tensor._op``),
``backward`` rejects a non-finite loss before it runs, and ``AdamW.step``
rejects a non-finite update before writing it in. Op outputs skip the
check, since a non-finite intermediate either reaches the loss or poisons
a gradient and so the parameters.
"""

from __future__ import annotations

import math

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


_sum = np.add.reduce  # ndarray.sum without its Python-level wrapper


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
    def _op(cls, data, parents, backprop=None):
        """Output of an op, or rows of checked data: no finite check.
        ``backprop(g)`` adds the gradient ``g`` of the output into the
        parents' gradients; a constant or a leaf has none."""
        out = cls.__new__(cls)
        out.data = np.asarray(data)  # numpy reductions return scalars
        out.grad = None
        out._parents = parents
        out._backprop = backprop
        return out

    # -- graph traversal -------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every tensor reachable from this scalar."""
        if self.data.size != 1:
            raise ValueError("backward root must be a scalar")
        if not math.isfinite(self.data.item()):
            raise NonFiniteError("non-finite values in loss")
        topo = _topo_order(self)
        for node in topo:  # all tape data is float64
            g = node.grad
            if g is not None and g.shape == node.data.shape:
                g.fill(0.0)
            else:
                node.grad = np.zeros(node.data.shape)
        self.grad = np.ones(self.data.shape)
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
    def backprop(g):
        a.grad += g

    return Tensor._op(a.data.sum(), (a,), backprop)


def _check_labels(labels, n, c):
    """``labels`` as intp: ``n`` of them, each a class below ``c``."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    return labels


def _cross_entropy(logits, labels, rows):
    """Cross-entropy of the ``logits`` array and its backward, on arrays:
    ``labels`` are checked, ``rows`` is ``np.arange`` of the batch."""
    n = logits.shape[-2]
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = _sum(e, axis=-1)
    losses = np.log(total) - shifted[..., rows, labels]

    def grad(g):
        p = e / total[..., None]  # the softmax
        p[..., rows, labels] -= 1.0
        return g[..., None, None] * p / n

    return _sum(losses, axis=-1) / n, grad  # the bits of losses.mean()


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class, max-shifted for stability.

    With an arm axis, logits are (A, B, C), every arm is scored on the
    same B labels, and the result holds one mean per arm."""
    if logits.data.ndim not in (2, 3):
        raise ValueError("softmax_cross_entropy expects B-by-C logits")
    n, c = logits.data.shape[-2:]
    labels = _check_labels(labels, n, c)
    value, grad = _cross_entropy(logits.data, labels, np.arange(n))

    def backprop(g):
        logits.grad += grad(g)

    return Tensor._op(value, (logits,), backprop)


def backward(loss: Tensor, params=None):
    """Run the backward pass; parameters unreachable from loss get zero grads."""
    loss.backward()
    for p in params or ():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


# -- optimization --------------------------------------------------------


def _lay_out(tensors):
    """The two vectors that the tensors' data and gradients are views of,
    in one order: a net's own, when every tensor is one of its parameters,
    else new ones the values are moved into (a missing gradient is zero)."""
    size = sum(t.data.size for t in tensors)
    x, g = tensors[0].data.base, getattr(tensors[0].grad, "base", None)
    if (isinstance(x, np.ndarray) and isinstance(g, np.ndarray)
            and x.size == g.size == size
            and all(t.data.base is x and getattr(t.grad, "base", None) is g
                    for t in tensors)):
        return x, g
    x, g, at = np.zeros(size), np.zeros(size), 0
    for t in tensors:
        xv, gv = (v[at:at + t.data.size].reshape(t.data.shape) for v in (x, g))
        xv[...] = t.data
        if t.grad is not None:
            gv[...] = t.grad
        t.data, t.grad, at = xv, gv, at + t.data.size
    return x, g


_BETA1, _BETA2 = 0.9, 0.999  # AdamW's moment decay rates
_EPS = 1e-8  # added to AdamW's denominator


class AdamW:
    """Adaptive-moment update with decoupled weight decay.

    ``lr`` and ``weight_decay`` default to 1e-3 and 5e-4; betas
    (0.9, 0.999) and eps 1e-8 are fixed, with bias-corrected moments.

    The parameters and their gradients are updated as two flat vectors
    (``_lay_out``): a net's own, or new ones the parameters are moved into.
    """

    def __init__(self, params, lr=1e-3, weight_decay=5e-4):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._x, self._g = _lay_out(self.params)
        self._xs = [p.data for p in self.params]
        self._gs = [p.grad for p in self.params]
        self.m = np.zeros(self._x.size)  # first moments, parameters laid end to end
        self.v = np.zeros(self._x.size)
        # the next parameters, a work vector, the denominator, the next moments
        self._next, self._a, self._b, self._m, self._v = np.empty((5, self._x.size))

    def _sync(self):
        """Copy a parameter that a caller rebound, or a gradient that is not
        its view (None steps on zero), into its place in the vectors."""
        for p, x, g in zip(self.params, self._xs, self._gs):
            if p.data is not x:
                if p.data.shape != x.shape:
                    raise ValueError("parameter shape changed")
                x[...], p.data = p.data, x
            if p.grad is not g:
                if p.grad is not None and p.grad.shape != g.shape:
                    raise ValueError("gradient/parameter shape mismatch")
                g[...], p.grad = 0.0 if p.grad is None else p.grad, g

    def zero_grad(self):
        self._g.fill(0.0)
        for p, g in zip(self.params, self._gs):
            p.grad = g

    def step(self):
        """One update of the parameter vector, in place.

        A parameter that a caller rebound between steps, or a gradient set
        by hand, is first copied into its place. Every intermediate lands
        in a buffer kept between steps, in the order of operations of
        ``x -= lr·(m/bc1) / (sqrt(v/bc2) + eps)``. The new parameters are
        computed into a second vector and copied in only once they are all
        finite: a non-finite result raises with parameters, moments and
        step count as they were.
        """
        self._sync()
        x, g, a, b, new = self._x, self._g, self._a, self._b, self._next
        m, v = self._m, self._v
        t = self.t + 1
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        decayed = x
        if self.weight_decay:
            np.multiply(x, self.lr * self.weight_decay, out=a)
            decayed = np.subtract(x, a, out=new)
        np.subtract(g, self.m, out=a)
        a *= 1.0 - _BETA1
        np.add(self.m, a, out=m)
        np.multiply(g, g, out=a)
        a -= self.v
        a *= 1.0 - _BETA2
        np.add(self.v, a, out=v)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        np.subtract(decayed, a, out=new)
        _check_finite(new, "parameter after optimizer step")
        x[...] = new
        self.t = t
        self.m, self._m = m, self.m
        self.v, self._v = v, self.v


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
