"""Tape ops that only tests use: unfused references that the fused
library ops must match bit for bit. The layer ops here (``add``,
``scale``, ``relu``, ``tanh``, ``dense``, ``squash_rows``,
``concat_cols``) build each net and the objective layer by layer, as
``teacher_chain``, ``student_chain`` and ``objective_chain``: the graph
that the one-node nets and the objective node must match."""

from types import SimpleNamespace

import numpy as np

from difex.autodiff import Tensor, softmax_cross_entropy


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-h bias vector to every row of a B-by-h matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_bias: {x.data.shape} + {b.data.shape}")
    out = Tensor._op(x.data + b.data, (x, b))

    def backprop(g):
        x.grad += g
        b.grad += g.sum(axis=0)

    out._backprop = backprop
    return out


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows by integer index; gradient scatter-adds back."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor._op(x.data[idx], (x,))

    def backprop(g):
        np.add.at(x.grad, idx, g)

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


def _same_shape(a: Tensor, b: Tensor, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims disagree {a.data.shape} x {b.data.shape}")
    out = Tensor._op(a.data @ b.data, (a, b))

    def backprop(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out._backprop = backprop
    return out


def transpose(x: Tensor) -> Tensor:
    """The transpose of a matrix, as a contiguous copy."""
    out = Tensor._op(x.data.T.copy(), (x,))

    def backprop(g):
        x.grad += g.T

    out._backprop = backprop
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two tensors of one shape."""
    _same_shape(a, b, "sub")
    out = Tensor._op(a.data - b.data, (a, b))

    def backprop(g):
        a.grad += g
        b.grad -= g

    out._backprop = backprop
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    _same_shape(a, b, "mul")
    out = Tensor._op(a.data * b.data, (a, b))

    def backprop(g):
        a.grad += g * b.data
        b.grad += g * a.data

    out._backprop = backprop
    return out


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    y = np.sqrt(x.data)
    out = Tensor._op(y, (x,))

    def backprop(g):
        x.grad += g / (2.0 * y)

    out._backprop = backprop
    return out


def absolute(x: Tensor) -> Tensor:
    """Elementwise absolute value; its subgradient at 0 is 0."""
    out = Tensor._op(np.abs(x.data), (x,))

    def backprop(g):
        x.grad += g * np.sign(x.data)

    out._backprop = backprop
    return out


def covariance_chain(X: Tensor) -> Tensor:
    """Unbiased covariance 1/(n−1)·(XᵀX − (1/n)(1ᵀX)ᵀ(1ᵀX)) as an op chain."""
    n = X.data.shape[0]
    ones = Tensor(np.ones((1, n)))
    colsum = matmul(ones, X)
    gram = matmul(transpose(X), X)
    outer = scale(matmul(transpose(colsum), colsum), 1.0 / n)
    return scale(sub(gram, outer), 1.0 / (n - 1))


# -- the layer ops that the net and objective nodes replace ---------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = Tensor._op(a.data + b.data, (a, b))

    def backprop(g):
        a.grad += g
        b.grad += g

    out._backprop = backprop
    return out


def scale(x: Tensor, s) -> Tensor:
    """``x`` times a constant (one per arm when ``s`` is an array)."""
    out = Tensor._op(x.data * s, (x,))

    def backprop(g):
        x.grad += g * s

    out._backprop = backprop
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at 0 is taken as 0."""
    out = Tensor._op(np.maximum(x.data, 0.0), (x,))

    def backprop(g):
        x.grad += g * (x.data > 0.0)

    out._backprop = backprop
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor._op(y, (x,))

    def backprop(g):
        x.grad += g * (1.0 - y * y)

    out._backprop = backprop
    return out


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


def squash_rows(x: Tensor, radius: float = 1.0) -> Tensor:
    """Scale each row of x by 1/(1 + |row|/radius): row norms land strictly
    inside ``radius``, directions pass through, and the Jacobian never
    vanishes."""
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


# -- the nets and the objective as chains of those ops --------------------


def teacher_chain(model, x: Tensor):
    """The teacher's (features, logits) as the layer-by-layer graph."""
    h = relu(dense(x, model.w1, model.b1))
    feat = tanh(dense(h, model.w2, model.b2))
    return feat, dense(feat, model.wc, model.bc)


def student_chain(model, x: Tensor):
    """The student's heads and logits as the layer-by-layer graph, over
    (A·B, in) rows grouped by arm for a stack."""
    if model.arms > 1:
        x = Tensor._op(x.data.reshape(model.arms, -1, model.sizes[0]), ())
    h = relu(dense(x, model.w1, model.b1))
    z1 = squash_rows(dense(h, model.wz1, model.bz1))
    z2 = squash_rows(dense(h, model.wz2, model.bz2))
    logits = dense(concat_cols(z1, z2), model.wc, model.bc)
    return SimpleNamespace(z1=z1, z2=z2, logits=logits)


def objective_chain(batch, teacher_feat, outputs, w):
    """``total_objective`` as a chain of nodes: the cross-entropy plus each
    active term node, scaled by its weight, added in turn; returns
    (total, parts) in ``total_objective``'s form."""
    from difex.losses import (LossWeights, coral_loss, exploration_l2,
                              exploration_norm_l1, mse_distill)

    stacked = not isinstance(w, LossWeights)
    ws = w if stacked else (w,)
    total = cls = softmax_cross_entropy(outputs.logits, batch.labels)
    logged = [("cls", cls, range(len(ws)))]
    terms = (("mse", "lambda1", None), ("align", "lambda2", None),
             ("exp", "lambda3", "l2"), ("exp", "lambda3", "norm_l1"))
    for key, weight, variant in terms:
        lams = [getattr(x, weight) if variant in (None, x.variant) else 0.0 for x in ws]
        on = [a for a, lam in enumerate(lams) if lam > 0]
        if not on:
            continue
        arms = None if len(on) == len(ws) else np.array(on)
        if key == "mse":
            term = mse_distill(outputs.z1, teacher_feat, arms)
        elif key == "align":
            aligned = type(batch)(outputs.z2, batch.labels, batch.domain_ids)
            term = coral_loss(aligned, arms)
        else:
            explore = exploration_l2 if variant == "l2" else exploration_norm_l1
            term = explore(outputs.z1, outputs.z2, arms)
        logged.append((key, term, on))
        total = add(total, scale(term, np.array(lams) if stacked else lams[0]))
    logged.append(("total", total, range(len(ws))))
    if not stacked:
        return total, {key: float(t.data) for key, t, _ in logged}
    parts = [{} for _ in ws]
    for key, t, on in logged:
        for a in on:
            parts[a][key] = t.data.tolist()[a]
    return total, parts
