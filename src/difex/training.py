"""Two-stage training: phase teacher first, then the student with the
combined objective; plus batching, splits, and the virtual-domain trick.

Both stages run through one fit loop, ``_fit``, and one data set-up,
``_split_pool``; each stage brings only its own batching, as a per-epoch
generator of ``(loss, parts)``.

Every random choice draws from its own named stream spawned off the run
seed (split, teacher init, teacher batches, student init, student
batches, virtual assignment). Streams a mode does not use are never
created, so e.g. the all-weights-zero mode consumes exactly the same
randomness as a bare classifier loop and reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import AdamW, Tensor, softmax_cross_entropy
from .data import DomainDataset, leave_one_out, stream
from .fourier import per_channel_phase
from .losses import DomainBatch, LossWeights, total_objective
from .model import StudentModel, TeacherModel, predict

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
        # the objective's four fields, checked in every mode by LossWeights
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


def batch_index_stream(domain_rows, batch_size, rng):
    """One epoch of domain-balanced batches over pooled row indices.

    Each batch takes floor(batch_size / M) rows from every domain,
    without replacement, domains freshly shuffled. Trailing rows that
    do not fill a whole quota are dropped for the epoch.
    """
    m = len(domain_rows)
    quota = batch_size // m
    if quota < 2:
        raise ValueError(
            f"batch_size {batch_size} cannot give {m} domains >= 2 rows each"
        )
    perms = [rng.permutation(rows) for rows in domain_rows]
    steps = min(len(p) for p in perms) // quota
    if steps == 0:
        raise ValueError("a domain has fewer samples than its batch quota")
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
    labels = rng.integers(0, k, size=len(ds))
    while np.bincount(labels, minlength=k).min() == 0:
        labels = rng.integers(0, k, size=len(ds))
    out = []
    for j in range(k):
        rows = np.flatnonzero(labels == j)
        out.append(DomainDataset(j, ds.X[rows], ds.y[rows]))
    return out


def _split_pool(sources, cfg, input_kind):
    """Split every source, pool each side as ``input_kind`` features and
    count the classes: (train parts, (X, y, rows per part), (X, y), classes)."""
    if not sources:
        raise ValueError("no source domains")
    pairs = [
        train_val_split(ds, 1.0 - cfg.val_fraction, cfg.seed) for ds in sources
    ]
    train_list = [p[0] for p in pairs]
    Xtr, ytr, rows = _pool(train_list, input_kind)
    Xva, yva, _ = _pool([p[1] for p in pairs], input_kind)
    classes = int(max(ytr.max(), yva.max())) + 1
    return train_list, (Xtr, ytr, rows), (Xva, yva), classes


def _pool(ds_list, input_kind):
    X = np.concatenate([flatten_features(ds.X, input_kind) for ds in ds_list])
    y = np.concatenate([ds.y for ds in ds_list])
    starts = np.cumsum([0] + [len(ds) for ds in ds_list])
    rows = [np.arange(starts[i], starts[i + 1]) for i in range(len(ds_list))]
    return X, y, rows


def _fit(model, steps, val, cfg):
    """Train ``model`` with AdamW and leave it at the epoch with the best
    validation accuracy (the first, on ties). ``steps(epoch)`` yields
    ``(loss, parts)`` per batch; an epoch's metrics row holds the mean of
    each part. Returns (metrics, best epoch, best validation accuracy)."""
    Xva, yva = val
    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    metrics = []
    best_acc, best_params, best_epoch = -1.0, None, -1
    for epoch in range(cfg.epochs):
        sums, count = {}, 0
        for loss, parts in steps(epoch):
            opt.zero_grad()
            loss.backward()
            opt.step()
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value
            count += 1
        acc = float(np.mean(predict(model, Xva) == yva))
        row = {"epoch": epoch}
        row.update({key: total / count for key, total in sums.items()})
        row["val_acc"] = acc
        metrics.append(row)
        if acc > best_acc:
            best_acc, best_epoch = acc, epoch
            best_params = [p.data.copy() for p in model.params()]
    for p, data in zip(model.params(), best_params):
        p.data = data
    return metrics, best_epoch, best_acc


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
            _, logits = teacher.forward(Tensor(Xtr[rows]))
            yield softmax_cross_entropy(logits, ytr[rows]), {}

    _fit(teacher, steps, val, cfg)
    return teacher


# metrics.csv column of each part that total_objective reports
_COLUMNS = {"cls": "cls_loss", "mse": "mse_loss", "align": "align_loss",
            "exp": "exp_loss", "total": "total"}


def train_student(sources, teacher, cfg: TrainConfig) -> RunResult:
    """Stage two: fit the split-head student on the combined objective.

    The teacher stays frozen; its features over the training pool are
    computed once up front. Ablated terms are skipped, not zero-weighted,
    so their graphs never exist.
    """
    w = effective_weights(cfg)
    if w.lambda1 > 0 and teacher is None:
        raise ValueError("distillation is active but no trained teacher was given")
    eff_sources = sources
    if len(sources) == 1 and cfg.virtual_domains:
        eff_sources = assign_virtual_domains(sources[0], cfg.virtual_domains, cfg.seed)
    if w.lambda2 > 0 and len(eff_sources) < 2:
        raise ValueError("alignment needs >= 2 source domains (or virtual_domains set)")
    input_kind = "phase" if cfg.mode == "phase-only" else "raw"
    train_list, (Xtr, ytr, domain_rows), val, classes = _split_pool(
        eff_sources, cfg, input_kind
    )
    dom_idx = np.concatenate(
        [np.full(len(rows), i, dtype=np.intp) for i, rows in enumerate(domain_rows)]
    )
    teacher_feat = None
    if w.lambda1 > 0:
        Xtr_phase, _, _ = _pool(train_list, "phase")
        teacher_feat = teacher.forward_np(Xtr_phase)[0]
    student = StudentModel(
        Xtr.shape[1], cfg.hidden, cfg.feature_dim, classes,
        stream(cfg.seed, _STREAM_STUDENT_INIT), input_kind=input_kind,
    )

    def steps(epoch):
        rng = stream(cfg.seed, _STREAM_STUDENT_BATCH, epoch)
        for idx in batch_index_stream(domain_rows, cfg.batch_size, rng):
            xb = Tensor(Xtr[idx])
            out = student.forward(xb)
            batch = DomainBatch(xb, ytr[idx], dom_idx[idx])
            tf = teacher_feat[idx] if teacher_feat is not None else None
            total, parts = total_objective(batch, tf, out, w)
            yield total, {_COLUMNS[k]: v for k, v in parts.items()}

    metrics, best_epoch, best_acc = _fit(student, steps, val, cfg)
    return RunResult(
        model=student,
        metrics=metrics,
        selected_epoch=best_epoch,
        val_accuracy=best_acc,
    )


def run_arms(domains, target, cfg: TrainConfig, modes) -> list:
    """Hold out one domain, train one student per mode on the rest, and
    score each on the held-out domain; results follow ``modes``.

    The teacher depends on everything in the config except the mode, so
    it is trained once, for the first mode that distills, and every
    distilling mode learns from that one teacher.
    """
    sources, target_ds = leave_one_out(domains, target)
    teacher = None
    results = []
    for mode in modes:
        arm = replace(cfg, mode=mode)
        if effective_weights(arm).lambda1 > 0:
            if teacher is None:
                teacher = train_teacher(sources, arm)
            result = train_student(sources, teacher, arm)
            result.teacher = teacher
        else:
            result = train_student(sources, None, arm)
        result.target_accuracy = evaluate(result.model, [target_ds])
        results.append(result)
    return results


def run_leave_one_out(domains, target, cfg: TrainConfig) -> RunResult:
    """Hold out one domain, train both stages on the rest, score the model
    on the held-out domain."""
    return run_arms(domains, target, cfg, (cfg.mode,))[0]
