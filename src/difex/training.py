"""Two-stage training: phase teacher first, then the student with the
combined objective; plus batching, splits, and the virtual-domain trick.

Both stages run through one fit loop, ``_fit``, and one data set-up,
``_split_pool``; each stage brings only its own batching, as a per-epoch
generator of ``(loss, parts)``. A step's graph holds the parameters, the
net's node and its loss node (the cross-entropy or the objective), plus a
``sum_all`` root over arms in lockstep. Its weights and gradients live in
the net's two flat vectors, which one AdamW per stage updates in place.
What depends only on the run is worked out once: the pooled rows are
checked finite and the labels in range in ``_split_pool``, and the
student builds its objective's term plan and one ``DomainBatch`` of the
run's shape up front; a step then only computes, and checks its loss
(``Tensor.backward``) and its update (``AdamW.step``).

The students of several modes (the arms of an ablation) train in
lockstep, in ``_train_arms``: one stacked ``StudentModel``, one graph,
one backward pass and one AdamW step per batch for all arms, each arm's
loss terms running on that arm alone. Every arm draws the same batches
and initial weights from the run seed, and the stacked ops keep each
arm's bits, so an arm trained beside others ends exactly as it does
alone; ``train_student`` is the one-arm case of the same path.

Every random choice draws from its own named stream spawned off the run
seed (split, teacher init, teacher batches, student init, student
batches, virtual assignment). Streams a mode does not use are never
created, so e.g. the all-weights-zero mode consumes exactly the same
randomness as a bare classifier loop and reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (AdamW, Tensor, _check_finite, _check_labels, quiet_overflow,
                       softmax_cross_entropy, sum_all)
from .data import MAX_CELLS, DomainDataset, leave_one_out, stream
from .fourier import per_channel_phase
from .losses import VARIANTS, DomainBatch, LossWeights, _Plan, total_objective
from .model import StudentModel, TeacherModel, parameter_count, predict

__all__ = [
    "MODES",
    "TrainConfig",
    "RunResult",
    "effective_weights",
    "train_val_split",
    "batch_index_stream",
    "assign_virtual_domains",
    "train_teacher",
    "train_student",
    "run_arms",
    "run_leave_one_out",
    "evaluate",
    "flatten_features",
]

MODES = ("full", "no-intern", "no-mutual", "no-exp", "erm", "phase-only")

# named randomness streams, spawned as SeedSequence(seed, spawn_key=(tag, ...))
_STREAM_SPLIT = 31
_STREAM_TEACHER_INIT = 41
_STREAM_TEACHER_BATCH = 42
_STREAM_STUDENT_INIT = 43
_STREAM_VIRTUAL = 47
_STREAM_STUDENT_BATCH = 53
_VIRTUAL_DRAWS = 1000  # draws of pseudo-domain labels before a k is hopeless


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 5e-4
    lambda1: float = 1.0  # distillation
    lambda2: float = 1.0  # alignment
    lambda3: float = 0.1  # exploration
    exploration: str = "l2"  # exploration distance, a losses.VARIANTS entry
    seed: int = 0
    val_fraction: float = 0.2
    virtual_domains: int | None = None
    mode: str = "full"
    hidden: int = 64
    feature_dim: int = 48  # student width d; each head gets d/2

    def __post_init__(self):
        # the objective's four fields, checked in every mode by LossWeights;
        # the distance first, so that its error names the config key
        if self.exploration not in VARIANTS:
            raise ValueError(
                f"exploration must be one of {VARIANTS}, got {self.exploration!r}"
            )
        LossWeights(self.lambda1, self.lambda2, self.lambda3, self.exploration)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.feature_dim < 2 or self.feature_dim % 2:
            raise ValueError("feature_dim must be even and >= 2")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.virtual_domains is not None and self.virtual_domains < 2:
            raise ValueError("virtual_domains must be >= 2 when set")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunResult:
    model: StudentModel
    metrics: list
    selected_epoch: int
    val_accuracy: float
    target_accuracy: float | None = None
    teacher: TeacherModel | None = None


def effective_weights(cfg: TrainConfig) -> LossWeights:
    """Config weights with the ablated terms forced to zero."""
    l1, l2, l3 = cfg.lambda1, cfg.lambda2, cfg.lambda3
    if cfg.mode in ("erm", "phase-only"):
        l1 = l2 = l3 = 0.0
    elif cfg.mode == "no-intern":
        l1 = 0.0
    elif cfg.mode == "no-mutual":
        l2 = 0.0
    elif cfg.mode == "no-exp":
        l3 = 0.0
    return LossWeights(l1, l2, l3, cfg.exploration)


def flatten_features(X: np.ndarray, input_kind: str) -> np.ndarray:
    """Samples (n x channels x length) to flat rows, raw or phase."""
    if input_kind == "phase":
        # every channel of every sample is one row of a single batched call
        return per_channel_phase(X.reshape(-1, X.shape[-1])).reshape(len(X), -1)
    return X.reshape(len(X), -1)


def evaluate(model, ds_list) -> float:
    """Pooled accuracy of a student or teacher over datasets, fed the
    input kind it was trained on."""
    X, y, _ = _pool(ds_list, model.input_kind)
    return float(np.mean(predict(model, X) == y))


def train_val_split(ds: DomainDataset, fraction=0.8, seed=0):
    """Disjoint, exhaustive, class-stratified split of one domain."""
    if len(ds) < 5:
        raise ValueError("need at least 5 samples to split")
    rng = stream(seed, _STREAM_SPLIT, ds.domain)
    train_idx, val_idx = [], []
    for c in np.unique(ds.y):
        rows = np.flatnonzero(ds.y == c)
        if rows.size < 2:
            raise ValueError(f"class {c} has {rows.size} sample(s); need >= 2")
        perm = rng.permutation(rows)
        n_tr = int(np.clip(round(fraction * rows.size), 1, rows.size - 1))
        train_idx.extend(perm[:n_tr])
        val_idx.extend(perm[n_tr:])
    train_idx = np.sort(np.array(train_idx, dtype=np.intp))
    val_idx = np.sort(np.array(val_idx, dtype=np.intp))
    return (
        DomainDataset(ds.domain, ds.X[train_idx], ds.y[train_idx]),
        DomainDataset(ds.domain, ds.X[val_idx], ds.y[val_idx]),
    )


def _domain_quota(batch_size, m):
    """Rows per domain in a domain-balanced batch over ``m`` domains."""
    if m < 1:
        raise ValueError("no source domains")
    quota = batch_size // m
    if quota < 2:
        raise ValueError(
            f"batch_size {batch_size} cannot give {m} domains >= 2 rows each"
        )
    return quota


def _check_fill(batch_size, quota, sizes):
    """Every domain, of ``sizes`` training rows, fills at least one quota."""
    if min(sizes) < quota:
        raise ValueError(
            f"batch_size {batch_size} takes {quota} rows from each of "
            f"{len(sizes)} domains, but a domain has fewer samples than its "
            f"batch quota ({min(sizes)})"
        )


def batch_index_stream(domain_rows, batch_size, rng):
    """One epoch of domain-balanced batches over pooled row indices.

    Each batch takes floor(batch_size / M) rows from every domain,
    without replacement, domains freshly shuffled. Trailing rows that
    do not fill a whole quota are dropped for the epoch.
    """
    quota = _domain_quota(batch_size, len(domain_rows))
    _check_fill(batch_size, quota, [len(rows) for rows in domain_rows])
    perms = [rng.permutation(rows) for rows in domain_rows]
    steps = min(len(p) for p in perms) // quota
    batches = []
    for s in range(steps):
        batches.append(
            np.concatenate([p[s * quota : (s + 1) * quota] for p in perms])
        )
    return batches


def assign_virtual_domains(ds: DomainDataset, k: int, seed=0):
    """Uniformly relabel one domain into k pseudo-domains (all non-empty)."""
    if k < 2:
        raise ValueError("need k >= 2 pseudo-domains")
    if k > len(ds):
        raise ValueError(f"k={k} exceeds {len(ds)} samples")
    rng = stream(seed, _STREAM_VIRTUAL)
    for _ in range(_VIRTUAL_DRAWS):
        labels = rng.integers(0, k, size=len(ds))
        if np.bincount(labels, minlength=k).min() > 0:
            rows = [np.flatnonzero(labels == j) for j in range(k)]
            return [DomainDataset(j, ds.X[r], ds.y[r]) for j, r in enumerate(rows)]
    raise ValueError(f"k={k} pseudo-domains: no draw of {len(ds)} samples "
                     f"in {_VIRTUAL_DRAWS} left every one non-empty")


def _split_pool(sources, cfg, input_kind):
    """Split every source, pool each side as ``input_kind`` features and
    count the classes: (train parts, (X, y, rows per part), (X, y), classes).

    The training rows are checked here, once, for every batch drawn from
    them: each value finite, each label a class."""
    if not sources:
        raise ValueError("no source domains")
    pairs = [
        train_val_split(ds, 1.0 - cfg.val_fraction, cfg.seed) for ds in sources
    ]
    train_list = [p[0] for p in pairs]
    Xtr, ytr, rows = _pool(train_list, input_kind)
    Xva, yva, _ = _pool([p[1] for p in pairs], input_kind)
    classes = int(max(ytr.max(), yva.max())) + 1
    _check_finite(Xtr, "tensor")
    _check_labels(ytr, len(ytr), classes)
    return train_list, (Xtr, ytr, rows), (Xva, yva), classes


def _pool(ds_list, input_kind):
    X = np.concatenate([flatten_features(ds.X, input_kind) for ds in ds_list])
    y = np.concatenate([ds.y for ds in ds_list])
    starts = np.cumsum([0] + [len(ds) for ds in ds_list])
    rows = [np.arange(starts[i], starts[i + 1]) for i in range(len(ds_list))]
    return X, y, rows


def _fit(model, steps, val, cfg):
    """Train ``model`` with one AdamW and leave each of its arms at
    the epoch with that arm's best validation accuracy (the first, on
    ties). ``steps(epoch)`` yields ``(loss, parts)`` per batch, ``parts``
    one dict per arm; an epoch's metrics row for an arm holds the mean of
    each of its parts. Returns, per arm, (metrics, best epoch, best
    validation accuracy)."""
    Xva, yva = val
    params, arms = model.params(), model.arms
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)

    metrics = [[] for _ in range(arms)]
    best = [(-1.0, -1, None)] * arms  # (accuracy, epoch, weights)
    with quiet_overflow():
        for epoch in range(cfg.epochs):
            sums, count = [{} for _ in range(arms)], 0
            for loss, parts in steps(epoch):
                loss.backward()  # zeroes every gradient first: the net's node reaches all
                opt.step()
                for arm_sums, arm_parts in zip(sums, parts):
                    for key, value in arm_parts.items():
                        arm_sums[key] = arm_sums.get(key, 0.0) + value
                count += 1
            # each arm validates alone, so no stack of validation rows is built
            members = [model.member(a) for a in range(arms)] if arms > 1 else [model]
            for a, member in enumerate(members):
                acc = float(np.mean(predict(member, Xva) == yva))
                row = {"epoch": epoch}
                row.update({_COLUMNS[key]: total / count for key, total in sums[a].items()})
                row["val_acc"] = acc
                metrics[a].append(row)
                if acc > best[a][0]:
                    best[a] = (acc, epoch, [p.data.copy() for p in member.params()])
    for a, (_, _, weights) in enumerate(best):
        for p, data in zip(params, weights):  # p.data with a leading arm axis
            (p.data if arms > 1 else p.data[None])[a] = data
    return [(metrics[a], best[a][1], best[a][0]) for a in range(arms)]


def train_teacher(sources, cfg: TrainConfig) -> TeacherModel:
    """Stage one: fit a classifier on pooled phase features of the sources;
    return the epoch snapshot with the best validation accuracy."""
    _, (Xtr, ytr, _), val, classes = _split_pool(sources, cfg, "phase")
    teacher = TeacherModel(
        Xtr.shape[1], cfg.hidden, cfg.feature_dim // 2, classes,
        stream(cfg.seed, _STREAM_TEACHER_INIT),
    )

    def steps(epoch):
        # every row once per epoch, in a fresh order; the last batch may be short
        order = stream(cfg.seed, _STREAM_TEACHER_BATCH, epoch).permutation(len(Xtr))
        for start in range(0, len(Xtr), cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            _, logits = teacher.forward(Tensor._op(Xtr[rows], ()))  # rows checked
            yield softmax_cross_entropy(logits, ytr[rows]), [{}]

    _fit(teacher, steps, val, cfg)
    return teacher


# metrics.csv column of each part that total_objective reports
_COLUMNS = {"cls": "cls_loss", "mse": "mse_loss", "align": "align_loss",
            "exp": "exp_loss", "total": "total"}


def _input_kind(cfg):
    return "phase" if cfg.mode == "phase-only" else "raw"


def train_student(sources, teacher, cfg: TrainConfig) -> RunResult:
    """Stage two: fit the split-head student on the combined objective.

    The teacher stays frozen; its features over the training pool are
    computed once up front. Ablated terms are skipped, not zero-weighted:
    they are never computed.
    """
    return _train_arms(sources, [cfg])(teacher)[0]


def _train_arms(sources, cfgs):
    """Set up one student per config, all of one input kind, to train in
    lockstep; the returned ``train(teacher)`` gives their RunResults in order.

    The set-up needs no teacher, so a caller runs every check of it first:
    alignment's domain count and the batch quota, both on the number of
    domains to balance over (one source with ``virtual_domains`` set gives
    that many pseudo-domains), then the pseudo-domains' draw, the split and
    pooled rows, the ``data.MAX_CELLS`` weight count and the batch fill.

    All arms draw the same batches and initial weights from the seed, so
    one init is stacked A times and every step feeds the batch's rows
    once per arm; a term runs on the arms whose weight for it is not 0.
    """
    cfg, n_arms = cfgs[0], len(cfgs)
    weights = [effective_weights(c) for c in cfgs]
    virtual = len(sources) == 1 and cfg.virtual_domains
    m = cfg.virtual_domains if virtual else len(sources)
    if any(w.lambda2 > 0 for w in weights) and m < 2:
        raise ValueError("alignment needs >= 2 source domains (or virtual_domains set)")
    # every batch is ``quota`` rows of each domain in turn (batch_index_stream)
    quota = _domain_quota(cfg.batch_size, m)
    if virtual:
        sources = assign_virtual_domains(sources[0], m, cfg.seed)
    input_kind = _input_kind(cfg)
    train_list, (Xtr, ytr, domain_rows), val, classes = _split_pool(sources, cfg, input_kind)
    h, d = cfg.hidden, cfg.feature_dim
    count = n_arms * parameter_count("student", (Xtr.shape[1], h, d, classes))
    if count > MAX_CELLS:
        raise ValueError(
            f"hidden = {h} and feature_dim = {d} give {count} weights over "
            f"{n_arms} student(s) of {classes} classes; the limit is {MAX_CELLS}")
    _check_fill(cfg.batch_size, quota, [len(ds) for ds in train_list])
    domain_ids = np.repeat(np.arange(len(domain_rows)), quota)
    plan = _Plan(weights if n_arms > 1 else weights[0])
    # one batch of the run's shape, checked once; each step sets its labels, and
    # total_objective reads the features from the student's outputs
    batch = DomainBatch(Tensor(np.zeros((len(domain_ids), 0))), domain_ids, domain_ids)

    def train(teacher):
        if plan.distills and teacher is None:
            raise ValueError("distillation is active but no trained teacher was given")
        teacher_feat = None
        if plan.distills:
            Xtr_phase, _, _ = _pool(train_list, "phase")
            with quiet_overflow():
                teacher_feat = teacher.forward_np(Xtr_phase)[0]
        init = StudentModel(Xtr.shape[1], h, d, classes,
                            stream(cfg.seed, _STREAM_STUDENT_INIT), input_kind=input_kind)
        student = StudentModel.stack([init] * n_arms)

        def steps(epoch):
            rng = stream(cfg.seed, _STREAM_STUDENT_BATCH, epoch)
            for idx in batch_index_stream(domain_rows, cfg.batch_size, rng):
                rows = Xtr[idx] if n_arms == 1 else np.tile(Xtr[idx], (n_arms, 1))
                out = student.forward(Tensor._op(rows, ()))  # rows checked
                batch.labels = ytr[idx]
                tf = teacher_feat[idx] if teacher_feat is not None else None
                total, parts = total_objective(batch, tf, out, plan)
                if n_arms == 1:
                    parts = [parts]
                else:
                    total = sum_all(total)  # the root seeds every arm's total with 1
                yield total, parts

        fits = _fit(student, steps, val, cfg)
        return [
            RunResult(model=student.member(a), metrics=metrics,
                      selected_epoch=best_epoch, val_accuracy=best_acc)
            for a, (metrics, best_epoch, best_acc) in enumerate(fits)
        ]

    return train


def run_arms(domains, target, cfg: TrainConfig, modes) -> list:
    """Hold out one domain, train one student per mode on the rest, and
    score each on the held-out domain; results follow ``modes``, which
    must share one input kind.

    The teacher reads nothing of the config's mode, so it trains once,
    from ``cfg``, when any mode distills, and every distilling mode learns
    from that one teacher; the students train in lockstep. Mixed kinds and
    every check of the students' set-up fail before any teacher.
    """
    arms = [replace(cfg, mode=mode) for mode in modes]
    if len({_input_kind(arm) for arm in arms}) != 1:
        raise ValueError(f"modes must be of one input kind, got {tuple(modes)}")
    sources, target_ds = leave_one_out(domains, target)
    train = _train_arms(sources, arms)
    if len(arms) == 1:
        # through train_student, whose cfg names the arm in bench/tracer.py: set up twice
        train = lambda teacher: [train_student(sources, teacher, arms[0])]
    distills = [effective_weights(arm).lambda1 > 0 for arm in arms]
    teacher = train_teacher(sources, cfg) if any(distills) else None
    results = train(teacher)
    for result, distilled in zip(results, distills):
        result.teacher = teacher if distilled else None
        result.target_accuracy = evaluate(result.model, [target_ds])
    return results


def run_leave_one_out(domains, target, cfg: TrainConfig) -> RunResult:
    """Hold out one domain, train both stages on the rest, score the model
    on the held-out domain."""
    return run_arms(domains, target, cfg, (cfg.mode,))[0]
