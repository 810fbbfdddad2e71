"""Objective terms: distillation, cross-domain alignment, exploration.

The combined objective is

    cls + lambda1 * distill + lambda2 * align + lambda3 * explore

where terms with a zero weight are skipped outright, so the degenerate
setting builds exactly the same graph as a plain cross-entropy baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    softmax_cross_entropy,
    sum_all,
    sum_rows,
    rowwise_div,
)

__all__ = [
    "LossWeights",
    "DomainBatch",
    "mse_distill",
    "covariance",
    "coral_loss",
    "exploration_l2",
    "exploration_norm_l1",
    "total_objective",
]

VARIANTS = ("l2", "norm_l1")


@dataclass
class LossWeights:
    """Non-negative weights for the three auxiliary terms.

    lambda1 scales distillation, lambda2 alignment, lambda3 exploration;
    variant picks the exploration distance.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.1
    variant: str = "l2"

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
            setattr(self, name, v)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class DomainBatch:
    """A feature matrix with per-row labels and domain ids."""

    features: Tensor
    labels: np.ndarray
    domain_ids: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        self.domain_ids = np.asarray(self.domain_ids, dtype=np.intp)
        b = self.features.data.shape[0]
        if self.labels.shape != (b,) or self.domain_ids.shape != (b,):
            raise ValueError("labels/domain_ids must match the batch dimension")


def mse_distill(student_feat: Tensor, teacher_feat) -> Tensor:
    """Mean squared gap to the teacher's features; teacher is a constant.

    One graph node, with the bits of ``sum_all(diff * diff).scale(1/size)``.
    """
    target = teacher_feat.data if isinstance(teacher_feat, Tensor) else np.asarray(
        teacher_feat, dtype=np.float64
    )
    if student_feat.data.shape != target.shape:
        raise ValueError(
            f"feature shapes differ: {student_feat.data.shape} vs {target.shape}"
        )
    diff = student_feat.data - target
    s = 1.0 / diff.size
    out = Tensor._op((diff * diff).sum() * s, (student_feat,))

    def backprop(g):
        gd = g * s * diff
        student_feat.grad += gd + gd

    out._backprop = backprop
    return out


def covariance(X: Tensor) -> Tensor:
    """Unbiased covariance 1/(n−1)·(XᵀX − (1/n)(1ᵀX)ᵀ(1ᵀX)) of row samples."""
    n = X.data.shape[0]
    if X.data.ndim != 2 or n < 2:
        raise ValueError("covariance needs a matrix with at least 2 rows")
    ones = Tensor(np.ones((1, n)))
    colsum = ones @ X  # 1×d
    gram = X.T @ X
    return (gram - (colsum.T @ colsum).scale(1.0 / n)).scale(1.0 / (n - 1))


def coral_loss(batch: DomainBatch) -> Tensor:
    """Mean squared Frobenius distance between per-domain covariances,
    over unordered domain pairs.

    One graph node over the features. Its forward is ``covariance`` of
    each domain's rows, array layouts included, then the pair terms summed
    in order (0,1), (0,2), ..., (1,2), ...; its backward replays the
    gradient steps of that chain of ops in the order the tape runs them, so
    value and gradient have the same bits as the unfused chain. In
    particular each covariance collects its pair gradients in forward pair
    order: from four domains on, any other order changes the rounding.
    """
    F = batch.features
    present = np.unique(batch.domain_ids)
    if present.size < 2:
        raise ValueError("alignment needs at least 2 domains in the batch")
    groups, covs = [], []
    for d in present:
        rows = np.flatnonzero(batch.domain_ids == d)
        n = rows.size
        if n < 2:
            raise ValueError(f"domain {d} has {n} sample(s); need >= 2")
        X = F.data[rows]
        XT = X.T.copy()
        ones = np.ones((1, n))
        colsum = ones @ X
        colsumT = colsum.T.copy()
        covs.append((XT @ X - (colsumT @ colsum) * (1.0 / n)) * (1.0 / (n - 1)))
        groups.append((rows, X, XT, ones, colsum, colsumT))
    pairs = []
    total = None
    for i in range(len(covs)):
        for j in range(i + 1, len(covs)):
            diff = covs[i] - covs[j]
            term = (diff * diff).sum()
            total = term if total is None else total + term
            pairs.append((i, j, diff))
    s = 1.0 / len(pairs)
    out = Tensor._op(total * s, (F,))

    def backprop(g):
        g = g * s
        cov_grads = [np.zeros_like(cov) for cov in covs]
        for i, j, diff in pairs:
            gd = g * diff
            gd = gd + gd
            cov_grads[i] += gd
            cov_grads[j] -= gd
        for (rows, X, XT, ones, colsum, colsumT), gc in zip(groups, cov_grads):
            n = rows.size
            g_gram = gc * (1.0 / (n - 1))
            g_outer = -g_gram * (1.0 / n)
            g_XT = g_gram @ X.T
            g_colsumT = g_outer @ colsum.T
            g_colsum = colsumT.T @ g_outer + g_colsumT.T
            # the tape adds X's three gradients as gram, transpose, column sums
            g_X = XT.T @ g_gram + g_XT.T + ones.T @ g_colsum
            F.grad[rows] += g_X

    out._backprop = backprop
    return out


def exploration_l2(z1: Tensor, z2: Tensor) -> Tensor:
    """Negative mean squared distance between paired rows (push apart).

    One graph node, with the bits of
    ``sum_all((z1 - z2) * (z1 - z2)).scale(-1/rows)``.
    """
    if z1.data.shape != z2.data.shape:
        raise ValueError(f"shapes differ: {z1.data.shape} vs {z2.data.shape}")
    diff = z1.data - z2.data
    s = -1.0 / z1.data.shape[0]
    out = Tensor._op((diff * diff).sum() * s, (z1, z2))

    def backprop(g):
        gd = g * s * diff
        gd = gd + gd
        z1.grad += gd
        z2.grad -= gd

    out._backprop = backprop
    return out


def exploration_norm_l1(z1: Tensor, z2: Tensor) -> Tensor:
    """Negative mean L1 distance between L2-normalized rows.

    Bounded in [−2·sqrt(d), 0], which keeps the term from dominating
    late in training the way the unbounded squared distance can.
    """
    if z1.data.shape != z2.data.shape:
        raise ValueError(f"shapes differ: {z1.data.shape} vs {z2.data.shape}")
    normed = []
    for z in (z1, z2):
        norms = sum_rows(z * z).sqrt()
        if np.any(norms.data <= 1e-12):
            raise ValueError("zero-norm row; cannot normalize")
        normed.append(rowwise_div(z, norms))
    diff = normed[0] - normed[1]
    return sum_all(diff.abs()).scale(-1.0 / z1.data.shape[0])


def total_objective(batch: DomainBatch, teacher_feat, outputs, w: LossWeights):
    """Weighted sum of the active terms, plus their values for logging.

    ``outputs`` carries .logits, .z1 (distilled half), .z2 (aligned half).
    Zero-weight terms are not evaluated at all, so their graph nodes never
    exist. Returns (total: Tensor, parts: dict of floats).
    """
    cls = softmax_cross_entropy(outputs.logits, batch.labels)
    total = cls
    parts = {"cls": float(cls.data)}
    if w.lambda1 > 0:
        if teacher_feat is None:
            raise ValueError("distillation weight set but no teacher features given")
        mse = mse_distill(outputs.z1, teacher_feat)
        parts["mse"] = float(mse.data)
        total = total + mse.scale(w.lambda1)
    if w.lambda2 > 0:
        align = coral_loss(DomainBatch(outputs.z2, batch.labels, batch.domain_ids))
        parts["align"] = float(align.data)
        total = total + align.scale(w.lambda2)
    if w.lambda3 > 0:
        explore = (
            exploration_l2(outputs.z1, outputs.z2)
            if w.variant == "l2"
            else exploration_norm_l1(outputs.z1, outputs.z2)
        )
        parts["exp"] = float(explore.data)
        total = total + explore.scale(w.lambda3)
    parts["total"] = float(total.data)
    return total, parts
