"""Tape ops that only tests use: unfused references that the fused
library ops must match bit for bit."""

import numpy as np

from difex.autodiff import Tensor


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
    outer = matmul(transpose(colsum), colsum).scale(1.0 / n)
    return sub(gram, outer).scale(1.0 / (n - 1))
