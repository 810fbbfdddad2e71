"""Objective terms: distillation, cross-domain alignment, exploration.

The combined objective is

    cls + lambda1 * distill + lambda2 * align + lambda3 * explore

where terms with a zero weight are skipped outright, so the degenerate
setting builds exactly the same graph as a plain cross-entropy baseline.
``covariance`` and the alignment term share one covariance, forward and
backward.

Arms trained in lockstep feed features with a leading arm axis, (A, B, w),
and each term takes the ``arms`` that keep it: it reads and writes only
those arms' rows, and returns one value per arm, 0 for the arms it skips.
Each arm's value and gradient have the bits of the same term on that arm's
2-D features, and a term adds into its features' gradient in the order
its standalone graph does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, softmax_cross_entropy

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
        b = self.features.data.shape[-2]  # rows, after an arm axis if any
        if self.labels.shape != (b,) or self.domain_ids.shape != (b,):
            raise ValueError("labels/domain_ids must match the batch dimension")


def _rows(t: Tensor, arms):
    """The data of ``arms`` (all of ``t`` when None)."""
    return t.data if arms is None else t.data[arms]


def _add_grad(t: Tensor, arms, g):
    if arms is None:
        t.grad += g
    else:
        t.grad[arms] += g


def _per_arm_sum(a):
    """Sum of each arm's matrix: the pairwise sum that ``a.sum()`` runs on
    one contiguous matrix, once per arm."""
    return a.reshape(a.shape[:-2] + (-1,)).sum(axis=-1)


def _term(value, parents, arms):
    """A term's output node: ``value`` per arm of ``arms``, 0 elsewhere."""
    if arms is not None:
        full = np.zeros(parents[0].data.shape[0])
        full[arms] = value
        value = full
    return Tensor._op(value, parents)


def _arm_grad(g, arms):
    """The output gradient of ``arms``, shaped to scale their matrices."""
    return (g if arms is None else g[arms])[..., None, None]


def mse_distill(student_feat: Tensor, teacher_feat, arms=None) -> Tensor:
    """Mean squared gap to the teacher's features; teacher is a constant.

    One graph node, with the bits of ``sum_all(mul(diff, diff)).scale(1/size)``.
    With an arm axis every arm in ``arms`` is compared with the same
    B-by-w teacher features.
    """
    target = teacher_feat.data if isinstance(teacher_feat, Tensor) else np.asarray(
        teacher_feat, dtype=np.float64
    )
    if student_feat.data.shape[-2:] != target.shape:
        raise ValueError(
            f"feature shapes differ: {student_feat.data.shape} vs {target.shape}"
        )
    diff = _rows(student_feat, arms) - target
    s = 1.0 / target.size
    out = _term(_per_arm_sum(diff * diff) * s, (student_feat,), arms)

    def backprop(g):
        gd = _arm_grad(g, arms) * s * diff
        _add_grad(student_feat, arms, gd + gd)

    out._backprop = backprop
    return out


def _cov_forward(X):
    """Covariance of the rows of each (n, d) matrix of ``X``, and the arrays
    its backward needs; the steps and array layouts, each transpose a
    copy, are those of the op chain in ``covariance``, and so are the bits."""
    n = X.shape[-2]
    XT = X.swapaxes(-1, -2).copy()
    ones = np.ones((1, n))
    colsum = ones @ X
    colsumT = colsum.swapaxes(-1, -2).copy()
    cov = (XT @ X - (colsumT @ colsum) * (1.0 / n)) * (1.0 / (n - 1))
    return cov, (X, XT, ones, colsum, colsumT)


def _cov_backward(saved, g):
    """The gradient of ``X`` from the gradient ``g`` of its covariance.

    Replays the chain's gradient steps; X's three parts are added in the
    order its tape runs them: gram, then transpose, then column sums."""
    X, XT, ones, colsum, colsumT = saved
    n = X.shape[-2]
    g_gram = g * (1.0 / (n - 1))
    g_outer = -g_gram * (1.0 / n)
    g_XT = g_gram @ X.swapaxes(-1, -2)
    g_colsumT = g_outer @ colsum.swapaxes(-1, -2)
    g_colsum = colsumT.swapaxes(-1, -2) @ g_outer + g_colsumT.swapaxes(-1, -2)
    return XT.swapaxes(-1, -2) @ g_gram + g_XT.swapaxes(-1, -2) + ones.T @ g_colsum


def covariance(X: Tensor) -> Tensor:
    """Unbiased covariance 1/(n−1)·(XᵀX − (1/n)(1ᵀX)ᵀ(1ᵀX)) of row samples,
    as one graph node with the bits of that chain of ops."""
    n = X.data.shape[0]
    if X.data.ndim != 2 or n < 2:
        raise ValueError("covariance needs a matrix with at least 2 rows")
    cov, saved = _cov_forward(X.data)
    out = Tensor._op(cov, (X,))

    def backprop(g):
        X.grad += _cov_backward(saved, g)

    out._backprop = backprop
    return out


def coral_loss(batch: DomainBatch, arms=None) -> Tensor:
    """Mean squared Frobenius distance between per-domain covariances,
    over unordered domain pairs.

    One graph node over the features. Its forward is ``covariance`` of
    each domain's rows, array layouts included, then the pair terms summed
    in order (0,1), (0,2), ..., (1,2), ...; its backward replays the
    gradient steps of that chain of ops in the order the tape runs them, so
    value and gradient have the same bits as the unfused chain. In
    particular each covariance collects its pair gradients in forward pair
    order: from four domains on, any other order changes the rounding.
    With an arm axis the arms in ``arms`` are stacked through the same
    steps, one domain at a time, so domains of unequal size still work.
    """
    F = batch.features
    present = np.unique(batch.domain_ids)
    if present.size < 2:
        raise ValueError("alignment needs at least 2 domains in the batch")
    groups, covs = [], []
    for d in present:
        rows = np.flatnonzero(batch.domain_ids == d)
        if rows.size < 2:
            raise ValueError(f"domain {d} has {rows.size} sample(s); need >= 2")
        at = (Ellipsis, rows, slice(None)) if arms is None else (arms[:, None], rows)
        cov, saved = _cov_forward(F.data[at])
        covs.append(cov)
        groups.append((at, saved))
    pairs = []
    total = None
    for i in range(len(covs)):
        for j in range(i + 1, len(covs)):
            diff = covs[i] - covs[j]
            term = _per_arm_sum(diff * diff)
            total = term if total is None else total + term
            pairs.append((i, j, diff))
    s = 1.0 / len(pairs)
    out = _term(total * s, (F,), arms)

    def backprop(g):
        g = _arm_grad(g, arms) * s
        cov_grads = [np.zeros_like(cov) for cov in covs]
        for i, j, diff in pairs:
            gd = g * diff
            gd = gd + gd
            cov_grads[i] += gd
            cov_grads[j] -= gd
        for (at, saved), gc in zip(groups, cov_grads):
            F.grad[at] += _cov_backward(saved, gc)

    out._backprop = backprop
    return out


def exploration_l2(z1: Tensor, z2: Tensor, arms=None) -> Tensor:
    """Negative mean squared distance between paired rows (push apart).

    One graph node, with the bits of
    ``sum_all(mul(d, d)).scale(-1/rows)`` with ``d = sub(z1, z2)``.
    """
    if z1.data.shape != z2.data.shape:
        raise ValueError(f"shapes differ: {z1.data.shape} vs {z2.data.shape}")
    diff = _rows(z1, arms) - _rows(z2, arms)
    s = -1.0 / z1.data.shape[-2]
    out = _term(_per_arm_sum(diff * diff) * s, (z1, z2), arms)

    def backprop(g):
        gd = _arm_grad(g, arms) * s * diff
        gd = gd + gd
        _add_grad(z1, arms, gd)
        _add_grad(z2, arms, -gd)

    out._backprop = backprop
    return out


def exploration_norm_l1(z1: Tensor, z2: Tensor, arms=None) -> Tensor:
    """Negative mean L1 distance between L2-normalized rows.

    Bounded in [−2·sqrt(d), 0], which keeps the term from dominating
    late in training the way the unbounded squared distance can.

    One graph node with the bits of the op chain ``rowwise_div(z,
    sqrt(sum_rows(mul(z, z))))`` for each head, then ``sum_all(absolute(
    diff)).scale(-1/rows)`` of their difference; the tests keep those ops as
    its oracle. Its backward replays the chain's gradient steps in tape
    order: each head takes its division's gradient, then its product's
    two. A tape buffer starts at zero, so the ``+ 0.0`` below keep the
    sign of zero that the chain's first ``+=`` gives.
    """
    if z1.data.shape != z2.data.shape:
        raise ValueError(f"shapes differ: {z1.data.shape} vs {z2.data.shape}")
    heads = []
    for z in (z1, z2):
        x = _rows(z, arms)
        norms = np.sqrt((x * x).sum(axis=-1))
        if np.any(norms <= 1e-12):
            raise ValueError("zero-norm row; cannot normalize")
        heads.append((z, x, norms, x / norms[..., None]))
    diff = heads[0][3] - heads[1][3]
    s = -1.0 / z1.data.shape[-2]
    out = _term(_per_arm_sum(np.abs(diff)) * s, (z1, z2), arms)

    def backprop(g):
        g_diff = (_arm_grad(g, arms) * s + 0.0) * np.sign(diff) + 0.0
        for (z, x, norms, _), g_unit in zip(heads, (g_diff, 0.0 - g_diff)):
            _add_grad(z, arms, g_unit / norms[..., None])
            g_norms = 0.0 - (g_unit * x).sum(axis=-1) / (norms * norms)
            g_square = (g_norms / (2.0 * norms) + 0.0)[..., None]
            _add_grad(z, arms, g_square * x)
            _add_grad(z, arms, g_square * x)

    out._backprop = backprop
    return out


# (part, weight field, exploration variant) of each auxiliary term, in the
# order the objective adds them
_TERMS = (
    ("mse", "lambda1", None),
    ("align", "lambda2", None),
    ("exp", "lambda3", "l2"),
    ("exp", "lambda3", "norm_l1"),
)


def total_objective(batch: DomainBatch, teacher_feat, outputs, w):
    """Weighted sum of the active terms, plus their values for logging.

    ``outputs`` carries .logits, .z1 (distilled half), .z2 (aligned half).
    ``w`` is a LossWeights; for outputs with a leading arm axis it is a
    sequence of them, one per arm, and each term runs on the arms that
    weight it above zero. Zero-weight terms are not evaluated at all, so
    their graph nodes never exist.

    Returns (total, parts). Without an arm axis, total is a scalar Tensor
    and parts a dict of floats; with one, total holds one value per arm
    and parts is a list of one such dict per arm.
    """
    stacked = not isinstance(w, LossWeights)
    ws = w if stacked else (w,)
    if teacher_feat is None and any(x.lambda1 > 0 for x in ws):
        raise ValueError("distillation weight set but no teacher features given")
    cls = softmax_cross_entropy(outputs.logits, batch.labels)
    total = cls
    logged = [("cls", cls, range(len(ws)))]
    for key, weight, variant in _TERMS:
        lams = [getattr(x, weight) if variant in (None, x.variant) else 0.0 for x in ws]
        on = [a for a, lam in enumerate(lams) if lam > 0]
        if not on:
            continue
        arms = None if len(on) == len(ws) else np.array(on)
        if key == "mse":
            term = mse_distill(outputs.z1, teacher_feat, arms)
        elif key == "align":
            term = coral_loss(DomainBatch(outputs.z2, batch.labels, batch.domain_ids), arms)
        else:
            explore = exploration_l2 if variant == "l2" else exploration_norm_l1
            term = explore(outputs.z1, outputs.z2, arms)
        logged.append((key, term, on))
        total = total + term.scale(np.array(lams) if stacked else lams[0])
    logged.append(("total", total, range(len(ws))))
    if not stacked:
        return total, {key: float(t.data) for key, t, _ in logged}
    parts = [{} for _ in ws]
    for key, t, on in logged:
        values = t.data.tolist()
        for a in on:
            parts[a][key] = values[a]
    return total, parts
