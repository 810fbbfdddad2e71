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
