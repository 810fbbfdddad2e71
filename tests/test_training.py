"""Pipeline contracts: splits, batching, mode wiring, and the promise
that the all-weights-zero path is a plain classifier loop, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import difex.training
from difex.autodiff import AdamW, NonFiniteError, Tensor, softmax_cross_entropy
from difex.data import BenchConfig, generate
from difex.fourier import fft, phase
from difex.losses import DomainBatch, LossWeights, total_objective
from difex.model import StudentModel, TeacherModel
from difex.training import (
    MODES,
    TrainConfig,
    assign_virtual_domains,
    batch_index_stream,
    effective_weights,
    evaluate,
    flatten_features,
    run_arms,
    run_leave_one_out,
    train_student,
    train_teacher,
    train_val_split,
)


def pcg(seed, *key):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


def tiny_domains():
    cfg = BenchConfig(domains=3, classes=4, per_class=10, length=16, seed=7)
    return generate(cfg)


def tiny_cfg(**kw):
    base = dict(epochs=4, batch_size=12, hidden=16, feature_dim=8, seed=2)
    base.update(kw)
    return TrainConfig(**base)


# -- config and weight wiring ---------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="dropout")
    with pytest.raises(ValueError):
        TrainConfig(feature_dim=7)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    for k in (-1, 0, 1):
        with pytest.raises(ValueError, match="virtual_domains"):
            TrainConfig(virtual_domains=k)
    # the objective's fields are checked in every mode, ablated or not
    for mode in ("full", "erm"):
        with pytest.raises(ValueError, match="lambda1"):
            TrainConfig(lambda1=-1, mode=mode)
        with pytest.raises(ValueError, match="lambda2"):
            TrainConfig(lambda2=np.nan, mode=mode)
        with pytest.raises(ValueError):
            TrainConfig(exploration="l3", mode=mode)


def test_effective_weights_per_mode():
    w = dict(lambda1=0.5, lambda2=0.7, lambda3=0.9, exploration="norm_l1")
    got = {mode: effective_weights(TrainConfig(**w, mode=mode)) for mode in MODES}
    assert (got["full"].lambda1, got["full"].lambda2, got["full"].lambda3) == (
        0.5, 0.7, 0.9,
    )
    assert got["no-intern"].lambda1 == 0.0 and got["no-intern"].lambda2 == 0.7
    assert got["no-mutual"].lambda2 == 0.0 and got["no-mutual"].lambda3 == 0.9
    assert got["no-exp"].lambda3 == 0.0 and got["no-exp"].lambda1 == 0.5
    for mode in ("erm", "phase-only"):
        assert (got[mode].lambda1, got[mode].lambda2, got[mode].lambda3) == (
            0.0, 0.0, 0.0,
        )
    assert all(v.variant == "norm_l1" for v in got.values())


# -- splits ---------------------------------------------------------------


def test_split_is_disjoint_exhaustive_and_stratified():
    ds = tiny_domains()[0]
    tr, va = train_val_split(ds, fraction=0.8, seed=0)
    assert len(tr) + len(va) == len(ds)
    for c in range(4):
        assert np.sum(tr.y == c) == 8
        assert np.sum(va.y == c) == 2
    # disjointness via the underlying rows: every sample appears once
    pool = np.concatenate([tr.X, va.X]).reshape(len(ds), -1)
    orig = ds.X.reshape(len(ds), -1)
    matched = np.zeros(len(ds), dtype=bool)
    for row in pool:
        hits = np.flatnonzero((orig == row).all(axis=1) & ~matched)
        assert hits.size >= 1
        matched[hits[0]] = True
    assert matched.all()


def test_split_is_seed_deterministic():
    ds = tiny_domains()[1]
    a = train_val_split(ds, seed=4)
    b = train_val_split(ds, seed=4)
    c = train_val_split(ds, seed=5)
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)
    assert not np.array_equal(a[1].X, c[1].X)


def test_split_rejects_thin_data():
    from difex.data import DomainDataset

    tiny = generate(BenchConfig(domains=1, classes=2, per_class=2, length=8))[0]
    with pytest.raises(ValueError, match="5 samples"):
        train_val_split(tiny)
    lone = generate(BenchConfig(domains=1, classes=2, per_class=3, length=8))[0]
    # 5 samples total but class 1 keeps a single one
    keep = np.append(np.flatnonzero(lone.y == 0), np.flatnonzero(lone.y == 1)[0])
    pad = np.append(keep, keep[0])
    thin = DomainDataset(0, lone.X[pad], lone.y[pad])
    with pytest.raises(ValueError, match="need >= 2"):
        train_val_split(thin)


# -- batching -------------------------------------------------------------


def test_batches_take_equal_quota_per_domain():
    rows = [np.arange(0, 9), np.arange(9, 16), np.arange(16, 28)]
    batches = batch_index_stream(rows, 6, pcg(0, 53, 0))
    # quota 2 per domain, limited by the 7-row domain -> 3 steps
    assert len(batches) == 3
    seen = []
    for b in batches:
        assert b.size == 6
        assert np.sum(b < 9) == 2
        assert np.sum((9 <= b) & (b < 16)) == 2
        assert np.sum(b >= 16) == 2
        seen.extend(b.tolist())
    assert len(set(seen)) == len(seen)  # without replacement


def test_batches_reject_starved_domains():
    with pytest.raises(ValueError, match="2 rows"):
        batch_index_stream([np.arange(4)] * 3, 4, pcg(0))
    with pytest.raises(ValueError, match="fewer samples"):
        batch_index_stream([np.arange(4), np.arange(1)], 4, pcg(0))


def test_virtual_domains_partition_the_source():
    ds = tiny_domains()[0]
    parts = assign_virtual_domains(ds, 3, seed=9)
    assert [p.domain for p in parts] == [0, 1, 2]
    assert all(len(p) > 0 for p in parts)
    assert sum(len(p) for p in parts) == len(ds)
    again = assign_virtual_domains(ds, 3, seed=9)
    for p, q in zip(parts, again):
        assert np.array_equal(p.X, q.X)
    with pytest.raises(ValueError):
        assign_virtual_domains(ds, 1)
    with pytest.raises(ValueError):
        assign_virtual_domains(ds, len(ds) + 1)


# -- the zero-weight path is a bare classifier loop -----------------------


def standalone_split(sources, cfg):
    """(X, y) training and validation parts of every source, drawn from
    the per-domain split stream 31, class by class."""
    frac = 1.0 - cfg.val_fraction
    tr_parts, va_parts = [], []
    for ds in sources:
        rng = pcg(cfg.seed, 31, ds.domain)
        tr_idx, va_idx = [], []
        for c in np.unique(ds.y):
            cls_rows = np.flatnonzero(ds.y == c)
            perm = rng.permutation(cls_rows)
            n_tr = int(np.clip(round(frac * cls_rows.size), 1, cls_rows.size - 1))
            tr_idx.extend(perm[:n_tr])
            va_idx.extend(perm[n_tr:])
        tr_idx = np.sort(np.array(tr_idx, dtype=np.intp))
        va_idx = np.sort(np.array(va_idx, dtype=np.intp))
        tr_parts.append((ds.X[tr_idx], ds.y[tr_idx]))
        va_parts.append((ds.X[va_idx], ds.y[va_idx]))
    return tr_parts, va_parts


def standalone_erm(sources, cfg):
    """Plain pooled training loop written without the pipeline helpers.

    Mirrors only the documented conventions: the per-domain split stream,
    the init stream, the per-epoch batch stream, and best-val selection.
    """
    tr_parts, va_parts = standalone_split(sources, cfg)
    Xtr = np.concatenate([x.reshape(len(x), -1) for x, _ in tr_parts])
    ytr = np.concatenate([y for _, y in tr_parts])
    Xva = np.concatenate([x.reshape(len(x), -1) for x, _ in va_parts])
    yva = np.concatenate([y for _, y in va_parts])
    starts = np.cumsum([0] + [len(x) for x, _ in tr_parts])
    rows = [np.arange(starts[i], starts[i + 1]) for i in range(len(tr_parts))]
    classes = int(max(ytr.max(), yva.max())) + 1
    model = StudentModel(
        Xtr.shape[1], cfg.hidden, cfg.feature_dim, classes, pcg(cfg.seed, 43)
    )
    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    quota = cfg.batch_size // len(rows)
    best = (-1.0, None, -1)
    for epoch in range(cfg.epochs):
        rng = pcg(cfg.seed, 53, epoch)
        perms = [rng.permutation(r) for r in rows]
        for s in range(min(len(p) for p in perms) // quota):
            idx = np.concatenate([p[s * quota : (s + 1) * quota] for p in perms])
            loss = softmax_cross_entropy(
                model.forward(Tensor(Xtr[idx])).logits, ytr[idx]
            )
            opt.zero_grad()
            loss.backward()
            opt.step()
        acc = float(np.mean(np.argmax(model.forward_np(Xva), axis=1) == yva))
        if acc > best[0]:
            best = (acc, [p.data.copy() for p in model.params()], epoch)
    for p, snap in zip(model.params(), best[1]):
        p.data = snap
    return model, best[2], best[0]


def test_erm_mode_matches_standalone_loop_bitwise():
    sources = tiny_domains()
    cfg = tiny_cfg(mode="erm", epochs=5)
    result = train_student(sources, None, cfg)
    twin, twin_epoch, twin_acc = standalone_erm(sources, cfg)
    for p, q in zip(result.model.params(), twin.params()):
        assert np.array_equal(p.data, q.data)
    assert result.selected_epoch == twin_epoch
    assert result.val_accuracy == twin_acc


def standalone_teacher(sources, cfg):
    """The phase teacher's loop written without the pipeline helpers.

    Mirrors only the documented conventions: the split of
    ``standalone_split``, per-sample phase features, init stream 41, a
    fresh permutation per epoch from stream 42 cut into batches with a
    short tail batch, and the first best validation epoch restored.
    """
    tr_parts, va_parts = standalone_split(sources, cfg)
    Xtr = np.concatenate([phase_rows_per_sample(x) for x, _ in tr_parts])
    ytr = np.concatenate([y for _, y in tr_parts])
    Xva = np.concatenate([phase_rows_per_sample(x) for x, _ in va_parts])
    yva = np.concatenate([y for _, y in va_parts])
    classes = int(max(ytr.max(), yva.max())) + 1
    model = TeacherModel(
        Xtr.shape[1], cfg.hidden, cfg.feature_dim // 2, classes, pcg(cfg.seed, 41)
    )
    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    best = (-1.0, None)
    for epoch in range(cfg.epochs):
        order = pcg(cfg.seed, 42, epoch).permutation(len(Xtr))
        for start in range(0, len(Xtr), cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            _, logits = model.forward(Tensor(Xtr[rows]))
            loss = softmax_cross_entropy(logits, ytr[rows])
            opt.zero_grad()
            loss.backward()
            opt.step()
        acc = float(np.mean(np.argmax(model.forward_np(Xva)[1], axis=1) == yva))
        if acc > best[0]:
            best = (acc, [p.data.copy() for p in model.params()])
    for p, snap in zip(model.params(), best[1]):
        p.data = snap
    return model


def test_teacher_matches_standalone_loop_bitwise():
    sources = tiny_domains()
    # 96 pooled training rows in batches of 10 leave a tail batch of 6, and
    # validation first peaks at epoch 2 of 5, so the restore matters
    cfg = tiny_cfg(epochs=5, batch_size=10)
    teacher = train_teacher(sources, cfg)
    twin = standalone_teacher(sources, cfg)
    for p, q in zip(teacher.params(), twin.params()):
        assert np.array_equal(p.data, q.data)


def test_inf_planted_in_a_weight_stops_training():
    # op outputs are not checked one by one; the check on the loss and on
    # the updated parameters must still catch an Inf set between steps
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 16))
    y = rng.integers(0, 4, size=12)
    domain_ids = np.repeat([0, 1, 2], 4)
    teacher_feat = np.tanh(rng.normal(size=(12, 4)))
    model = StudentModel(16, 16, 8, 4, rng)
    opt = AdamW(model.params())

    def step():
        xb = Tensor(x)
        batch = DomainBatch(xb, y, domain_ids)
        total, _ = total_objective(batch, teacher_feat, model.forward(xb), LossWeights())
        opt.zero_grad()
        total.backward()
        opt.step()

    step()
    model.w1.data[0, 0] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        step()


def test_full_mode_actually_changes_the_trajectory():
    sources = tiny_domains()
    erm = train_student(sources, None, tiny_cfg(mode="erm"))
    cfg = tiny_cfg(mode="full")
    full = train_student(sources, train_teacher(sources, cfg), cfg)
    diffs = [
        not np.array_equal(p.data, q.data)
        for p, q in zip(full.model.params(), erm.model.params())
    ]
    assert any(diffs)


# -- stage wiring ---------------------------------------------------------


def test_teacher_is_deterministic_and_frozen_during_stage_two():
    sources = tiny_domains()
    cfg = tiny_cfg()
    teacher = train_teacher(sources, cfg)
    again = train_teacher(sources, cfg)
    for p, q in zip(teacher.params(), again.params()):
        assert np.array_equal(p.data, q.data)
    before = [p.data.copy() for p in teacher.params()]
    train_student(sources, teacher, cfg)
    for p, snap in zip(teacher.params(), before):
        assert np.array_equal(p.data, snap)


def test_student_training_is_repeatable():
    sources = tiny_domains()
    cfg = tiny_cfg()
    teacher = train_teacher(sources, cfg)
    a = train_student(sources, teacher, cfg)
    b = train_student(sources, teacher, cfg)
    for p, q in zip(a.model.params(), b.model.params()):
        assert np.array_equal(p.data, q.data)
    assert a.metrics == b.metrics


def test_metric_rows_match_the_active_terms():
    sources = tiny_domains()
    erm = train_student(sources, None, tiny_cfg(mode="erm", epochs=2))
    assert [r["epoch"] for r in erm.metrics] == [0, 1]
    for row in erm.metrics:
        assert set(row) == {"epoch", "cls_loss", "total", "val_acc"}
        assert row["total"] == row["cls_loss"]
    cfg = tiny_cfg(mode="full", epochs=2)
    full = train_student(sources, train_teacher(sources, cfg), cfg)
    for row in full.metrics:
        assert set(row) == {
            "epoch", "cls_loss", "mse_loss", "align_loss", "exp_loss",
            "total", "val_acc",
        }
        assert row["exp_loss"] <= 0.0
        assert row["align_loss"] >= 0.0


def test_best_epoch_selection_is_first_argmax():
    sources = tiny_domains()
    result = train_student(sources, None, tiny_cfg(mode="erm", epochs=6))
    accs = [r["val_acc"] for r in result.metrics]
    assert result.val_accuracy == max(accs)
    assert result.selected_epoch == accs.index(max(accs))


def test_phase_only_mode_trains_on_phase_features():
    sources = tiny_domains()
    result = train_student(sources, None, tiny_cfg(mode="phase-only"))
    assert result.model.input_kind == "phase"
    acc = evaluate(result.model, sources)
    assert 0.0 <= acc <= 1.0
    for row in result.metrics:
        assert set(row) == {"epoch", "cls_loss", "total", "val_acc"}


def test_alignment_guards():
    sources = tiny_domains()
    with pytest.raises(ValueError, match=">= 2 source"):
        train_student(sources[:1], None, tiny_cfg(mode="no-intern"))
    with pytest.raises(ValueError, match="batch_size"):
        train_student(sources, None, tiny_cfg(mode="no-intern", batch_size=4))
    with pytest.raises(ValueError, match="teacher"):
        train_student(sources, None, tiny_cfg(mode="full"))
    with pytest.raises(ValueError, match="no source"):
        train_student([], None, tiny_cfg(mode="erm"))


def test_single_source_with_virtual_domains_trains():
    sources = tiny_domains()
    cfg = tiny_cfg(mode="full", virtual_domains=2, batch_size=16)
    teacher = train_teacher(sources[:1], cfg)
    result = train_student(sources[:1], teacher, cfg)
    assert {"align_loss", "exp_loss"} <= set(result.metrics[0])
    assert 0.0 <= result.val_accuracy <= 1.0


def test_leave_one_out_run_scores_the_held_out_domain():
    domains = tiny_domains()
    cfg = tiny_cfg(mode="full", epochs=2)
    result = run_leave_one_out(domains, 2, cfg)
    assert result.teacher is not None
    assert result.target_accuracy is not None
    assert result.target_accuracy == evaluate(result.model, [domains[2]])
    erm = run_leave_one_out(domains, 2, tiny_cfg(mode="erm", epochs=2))
    assert erm.teacher is None


def test_run_arms_equals_one_run_per_arm(monkeypatch):
    arms = ("erm", "no-intern", "no-mutual", "no-exp", "full")
    domains = tiny_domains()
    cfg = tiny_cfg(epochs=2)
    calls = []

    def counted(sources, cfg):
        calls.append(cfg.mode)
        return train_teacher(sources, cfg)

    monkeypatch.setattr(difex.training, "train_teacher", counted)
    together = run_arms(domains, 1, cfg, arms)
    # the first arm that distills trains the teacher; the others share it
    assert calls == ["no-mutual"]
    assert [r.teacher is None for r in together] == [True, True, False, False, False]
    assert together[2].teacher is together[3].teacher is together[4].teacher
    monkeypatch.undo()
    for arm, got in zip(arms, together):
        want = run_leave_one_out(domains, 1, replace(cfg, mode=arm))
        for p, q in zip(got.model.params(), want.model.params()):
            assert np.array_equal(p.data, q.data)
        assert got.metrics == want.metrics
        assert got.target_accuracy == want.target_accuracy
        assert got.val_accuracy == want.val_accuracy
        assert got.selected_epoch == want.selected_epoch


# -- phase features -------------------------------------------------------


def phase_rows_per_sample(X):
    rows = [np.concatenate([phase(fft(ch)) for ch in x]) for x in X]
    return np.stack(rows)


def test_phase_features_equal_the_per_sample_loop():
    X = np.concatenate([ds.X for ds in generate(BenchConfig())])
    assert np.array_equal(flatten_features(X, "phase"), phase_rows_per_sample(X))
    for sub in (X[::7], X[np.arange(len(X) - 1, 0, -13)], X[:, ::-1]):
        assert np.array_equal(flatten_features(sub, "phase"),
                              phase_rows_per_sample(sub))
