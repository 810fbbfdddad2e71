"""Objective terms: distillation, cross-domain alignment, exploration.

The combined objective is

    cls + lambda1 * distill + lambda2 * align + lambda3 * explore

where terms with a zero weight are skipped outright. ``total_objective``
is one graph node; each term is also a node of its own, and both run the
term's one array core. ``covariance`` and the alignment term share one
covariance, forward and backward.

Arms trained in lockstep feed features with a leading arm axis, (A, B, w).
A term's array core is batched math over whatever leading axes it is
given; ``_on_arms`` runs it on the ``arms`` that keep the term, so it reads
and writes only those arms' rows and returns one value per arm, 0 for the
arms it skips. Distillation and L2 exploration share one squared-gap core,
``_gap``. Each arm's value and gradient have the bits of the same term on
that arm's 2-D features, and a term adds into its features' gradient in
the order its standalone graph does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _check_labels, _cross_entropy, _sum

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
    """A feature matrix with per-row labels and domain ids. When the ids are
    equal blocks in ascending id order, as the batches of
    ``training.batch_index_stream`` are, ``quota`` is the block size and
    alignment reshapes the rows instead of regrouping them; else it is None."""

    features: Tensor
    labels: np.ndarray
    domain_ids: np.ndarray
    quota: int | None = field(init=False)
    rows: np.ndarray = field(init=False, repr=False)  # np.arange of the rows

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        self.domain_ids = np.asarray(self.domain_ids, dtype=np.intp)
        b = self.features.data.shape[-2]  # rows, after an arm axis if any
        if self.labels.shape != (b,) or self.domain_ids.shape != (b,):
            raise ValueError("labels/domain_ids must match the batch dimension")
        self.rows = np.arange(b)
        domains = np.unique(self.domain_ids)
        q = b // max(len(domains), 1)
        blocks = q > 0 and np.array_equal(self.domain_ids, np.repeat(domains, q))
        self.quota = q if blocks else None


def _add_grad(t: Tensor, arms, g):
    if arms is None:
        t.grad += g
    else:
        t.grad[arms] += g


def _per_arm_sum(a):
    """Sum of each arm's matrix: the pairwise sum that ``a.sum()`` runs on
    one contiguous matrix, once per arm."""
    return _sum(a.reshape(a.shape[:-2] + (-1,)), axis=-1)


def _on_arms(core, arrays, arms, *rest):
    """Run ``core(*arrays, *rest)`` on the rows of ``arms`` of each array
    (all of them when None): the value is padded to one per arm, 0 for the
    arms it skips, and the core's ``backward(g, *adds)`` is handed only
    those arms' share of ``g``."""
    if arms is None:
        return core(*arrays, *rest)
    value, backward = core(*(x[arms] for x in arrays), *rest)
    full = np.zeros(arrays[0].shape[0])
    full[arms] = value
    return full, lambda g, *adds: backward(g[arms], *adds)


def _node(core, heads, arms, *rest):
    """A term's graph node over ``heads``: ``core`` on their arrays through
    ``_on_arms``, each head adding its gradient into the rows of ``arms``."""
    value, backward = _on_arms(core, [t.data for t in heads], arms, *rest)
    adds = [lambda g, t=t: _add_grad(t, arms, g) for t in heads]
    return Tensor._op(value, heads, lambda g: backward(g, *adds))


def _gap(diff, s):
    """``s`` times the sum of squares of each matrix of ``diff``; the backward
    hands ``2·s·g·diff`` to the first head and its negative to the second."""

    def backward(g, add, *second):
        gd = g[..., None, None] * s * diff
        gd = gd + gd
        add(gd)
        for add_second in second:
            add_second(-gd)

    return _per_arm_sum(diff * diff) * s, backward


def _distill(z, teacher_feat):
    if isinstance(teacher_feat, Tensor):
        teacher_feat = teacher_feat.data
    target = np.asarray(teacher_feat, dtype=np.float64)
    if z.shape[-2:] != target.shape:
        raise ValueError(f"feature shapes differ: {z.shape} vs {target.shape}")
    return _gap(z - target, 1.0 / target.size)


def mse_distill(student_feat: Tensor, teacher_feat, arms=None) -> Tensor:
    """Mean squared gap to the teacher's features; teacher is a constant.

    One graph node, with the bits of ``scale(sum_all(mul(diff, diff)), 1/size)``.
    With an arm axis every arm in ``arms`` is compared with the same
    B-by-w teacher features.
    """
    return _node(_distill, (student_feat,), arms, teacher_feat)


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
    if X.data.ndim != 2 or X.data.shape[0] < 2:
        raise ValueError("covariance needs a matrix with at least 2 rows")
    cov, saved = _cov_forward(X.data)
    return Tensor._op(cov, (X,), lambda g: _add_grad(X, None, _cov_backward(saved, g)))


def _coral(X, domain_ids, quota):
    """Alignment's array core: one ``_cov_forward`` call over the stacked
    blocks of ``quota`` rows, or one per domain of ``domain_ids``; the
    pair terms in one stack, summed in pair order."""
    if quota is None:
        rows = [np.flatnonzero(domain_ids == d) for d in np.unique(domain_ids)]
        blocks = [X[..., r, :][..., None, :, :] for r in rows]
    else:
        rows = None
        lead, width = X.shape[:-2], X.shape[-1]
        blocks = [np.ascontiguousarray(X).reshape(lead + (-1, quota, width))]
    sizes = [b.shape[-2] for b in blocks for _ in range(b.shape[-3])]
    if len(sizes) < 2 or min(sizes) < 2:
        raise ValueError(f"alignment needs >= 2 domains of >= 2 rows, got {sizes}")
    calls = [_cov_forward(b) for b in blocks]
    covs = calls[0][0] if rows is None else np.concatenate([c for c, _ in calls], axis=-3)
    pairs = [(i, j) for i in range(len(sizes)) for j in range(i + 1, len(sizes))]
    first, second = np.array(pairs).T
    diffs = covs[..., first, :, :] - covs[..., second, :, :]
    terms = _sum((diffs * diffs).reshape(diffs.shape[:-2] + (-1,)), axis=-1)
    s = 1.0 / len(pairs)

    def backward(g, add):
        gd = (g[..., None, None] * s)[..., None] * diffs
        gd += gd
        cov_grads = np.zeros(covs.shape)
        for k, (i, j) in enumerate(pairs):
            cov_grads[..., i, :, :] += gd[..., k, :, :]
            cov_grads[..., j, :, :] -= gd[..., k, :, :]
        if rows is None:  # a reshape, or each row filled in from its domain
            add(_cov_backward(calls[0][1], cov_grads).reshape(X.shape))
            return
        gx = np.empty(X.shape)
        for k, (r, (_, saved)) in enumerate(zip(rows, calls)):
            gx[..., r, :] = _cov_backward(saved, cov_grads[..., k, None, :, :])[..., 0, :, :]
        add(gx)

    return np.add.accumulate(terms, axis=-1)[..., -1] * s, backward


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
    steps. A batch whose ids are not equal blocks in ascending order
    (``batch.quota`` None) is regrouped by id, with the same bits.
    """
    return _node(_coral, (batch.features,), arms, batch.domain_ids, batch.quota)


def _explore_l2(z1, z2):
    if z1.shape != z2.shape:
        raise ValueError(f"shapes differ: {z1.shape} vs {z2.shape}")
    return _gap(z1 - z2, -1.0 / z1.shape[-2])


def exploration_l2(z1: Tensor, z2: Tensor, arms=None) -> Tensor:
    """Negative mean squared distance between paired rows (push apart).

    One graph node, with the bits of
    ``scale(sum_all(mul(d, d)), -1/rows)`` with ``d = sub(z1, z2)``.
    """
    return _node(_explore_l2, (z1, z2), arms)


def _explore_norm_l1(z1, z2):
    if z1.shape != z2.shape:
        raise ValueError(f"shapes differ: {z1.shape} vs {z2.shape}")
    heads = []
    for x in (z1, z2):
        norms = np.sqrt(_sum(x * x, axis=-1))
        if np.any(norms <= 1e-12):
            raise ValueError("zero-norm row; cannot normalize")
        heads.append((x, norms, x / norms[..., None]))
    diff = heads[0][2] - heads[1][2]
    s = -1.0 / z1.shape[-2]

    def backward(g, *adds):
        g_diff = (g[..., None, None] * s + 0.0) * np.sign(diff) + 0.0
        for (x, norms, _), g_unit, add in zip(heads, (g_diff, 0.0 - g_diff), adds):
            add(g_unit / norms[..., None])
            g_norms = 0.0 - _sum(g_unit * x, axis=-1) / (norms * norms)
            g_square = (g_norms / (2.0 * norms) + 0.0)[..., None]
            add(g_square * x)
            add(g_square * x)

    return _per_arm_sum(np.abs(diff)) * s, backward


def exploration_norm_l1(z1: Tensor, z2: Tensor, arms=None) -> Tensor:
    """Negative mean L1 distance between L2-normalized rows.

    Bounded in [−2·sqrt(d), 0], which keeps the term from dominating
    late in training the way the unbounded squared distance can.

    One graph node with the bits of the op chain ``rowwise_div(z,
    sqrt(sum_rows(mul(z, z))))`` for each head, then ``scale(sum_all(
    absolute(diff)), -1/rows)`` of their difference; the tests keep those
    ops as its oracle. Its backward replays the chain's gradient steps in
    tape order: each head takes its division's gradient, then its
    product's two; the ``+ 0.0`` keep the sign of zero of a zeroed buffer.
    """
    return _node(_explore_norm_l1, (z1, z2), arms)


# (part, weight field, exploration variant, array core, heads it reads) of
# each auxiliary term, in the order the objective adds them
_TERMS = (
    ("mse", "lambda1", None, _distill, (0,)),
    ("align", "lambda2", None, _coral, (1,)),
    ("exp", "lambda3", "l2", _explore_l2, (0, 1)),
    ("exp", "lambda3", "norm_l1", _explore_norm_l1, (0, 1)),
)


class _Plan:
    """The objective for one LossWeights, or a sequence of them (one per
    arm), worked out once: which terms run, on which arms, with which
    weights, into which heads. A training run makes one and hands it to
    ``total_objective`` in place of the weights, having checked every
    label of its batches once."""

    def __init__(self, w):
        self.stacked = not isinstance(w, LossWeights)
        ws = list(w) if self.stacked else [w]
        self.arms = range(len(ws))
        self.distills = any(x.lambda1 > 0 for x in ws)
        self.terms = []  # (part, core, heads, arms or None for all, arms on, weight)
        for key, weight, variant, core, heads in _TERMS:
            lams = [getattr(x, weight) if variant in (None, x.variant) else 0.0 for x in ws]
            on = [a for a, lam in enumerate(lams) if lam > 0]
            if on:
                arms = None if len(on) == len(ws) else np.array(on)
                lam = np.array(lams) if self.stacked else lams[0]
                self.terms.append((key, core, heads, arms, on, lam))


def total_objective(batch: DomainBatch, teacher_feat, outputs, w):
    """Weighted sum of the active terms, plus their values for logging.

    ``outputs`` carries .logits, .z1 (distilled half), .z2 (aligned half).
    ``w`` is a LossWeights; for outputs with a leading arm axis it is a
    sequence of them, one per arm, and each term runs on the arms that
    weight it above zero. Zero-weight terms are not evaluated at all.

    The total is one graph node. Over a student's forward its only parent
    is the net's node: its backward adds the logits' gradient and queues
    each term's gradient of z1 and z2 on ``outputs.head_grads``, which the
    net adds after the classifier's share, in the layer-by-layer tape's
    order. Over other tensors it adds into their gradients directly.

    Returns (total, parts). Without an arm axis, total is a scalar Tensor
    and parts a dict of floats; with one, total holds one value per arm
    and parts is a list of one such dict per arm.
    """
    logits, z1, z2 = outputs.logits, outputs.z1, outputs.z2
    if isinstance(w, _Plan):  # a training run's: its labels are checked
        plan = w
    else:
        plan = _Plan(w)
        if logits.data.ndim not in (2, 3):
            raise ValueError("softmax_cross_entropy expects B-by-C logits")
        _check_labels(batch.labels, *logits.data.shape[-2:])
    if teacher_feat is None and plan.distills:
        raise ValueError("distillation weight set but no teacher features given")
    queue = getattr(outputs, "head_grads", None)

    def add_to(head, arms):  # where a term's gradient of a head goes
        if queue is not None:
            return lambda g: queue.append((head, arms, g))
        t = (z1, z2)[head]
        return lambda g: _add_grad(t, arms, g)

    cls, cls_grad = _cross_entropy(logits.data, batch.labels, batch.rows)
    total = cls
    logged = [("cls", cls, plan.arms)]
    terms = []
    consts = {"mse": (teacher_feat,), "align": (batch.domain_ids, batch.quota)}
    for key, core, heads, arms, on, lam in plan.terms:
        arrays = [(z1, z2)[h].data for h in heads]
        value, backward = _on_arms(core, arrays, arms, *consts.get(key, ()))
        total = total + value * lam
        logged.append((key, value, on))
        terms.append((backward, lam, [add_to(h, arms) for h in heads]))
    logged.append(("total", total, plan.arms))

    def backprop(g):
        logits.grad += cls_grad(g)
        for backward, lam, adds in terms:
            backward(g * lam, *adds)

    out = Tensor._op(total, (logits,) if queue is not None else (logits, z1, z2),
                     backprop)
    if not plan.stacked:
        return out, {key: float(v) for key, v, _ in logged}
    parts = [{} for _ in plan.arms]
    for key, v, on in logged:
        values = np.atleast_1d(v).tolist()
        for a in on:
            parts[a][key] = values[a]
    return out, parts
