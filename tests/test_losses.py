"""Hand-derived oracles and analytic contracts for every objective term,
plus the weighted-total assembly."""

from types import SimpleNamespace

import numpy as np
import pytest

from difex.autodiff import Tensor, finite_difference_grad, sum_all
from difex.losses import (
    DomainBatch,
    LossWeights,
    coral_loss,
    covariance,
    exploration_l2,
    exploration_norm_l1,
    mse_distill,
    total_objective,
)
from oracles import (
    absolute,
    add,
    covariance_chain,
    mul,
    rowwise_div,
    scale,
    sqrt,
    sub,
    sum_rows,
    take_rows,
)


def rel_err(got, want):
    scale = max(np.abs(got).max(), np.abs(want).max(), 1e-12)
    return np.abs(got - want).max() / scale


# -- covariance -----------------------------------------------------------


def test_covariance_hand_oracle():
    got = covariance(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(got.data, [[2.0, 2.0], [2.0, 2.0]])


def test_covariance_matches_reference_estimator():
    for seed in range(10):
        x = np.random.default_rng(seed).normal(size=(7, 4))
        got = covariance(Tensor(x)).data
        want = np.cov(x.T, ddof=1)
        assert rel_err(got, want) < 1e-12


def test_covariance_is_bit_identical_to_the_op_chain():
    # one node against the chain it replaced: value and gradient, at row
    # counts and scales from tiny to large
    rng = np.random.default_rng(7)
    for _ in range(40):
        n, d = rng.integers(2, 12), rng.integers(1, 7)
        x0 = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        up = rng.normal(size=(d, d))
        results = []
        for cov in (covariance, covariance_chain):
            x = Tensor(x0)
            out = cov(x)
            add(sum_all(mul(out, Tensor(up))), sum_all(mul(x, x))).backward()
            results.append((out.data, x.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError):
        covariance(Tensor([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        covariance(Tensor([1.0, 2.0]))


# -- distillation ---------------------------------------------------------


def test_mse_hand_oracle():
    # mean over every entry: ((1-3)^2 + (2-4)^2) / 2 = 4
    loss = mse_distill(Tensor([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    assert float(loss.data) == 4.0


def test_mse_matches_reference_mean():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(6, 5))
        t = rng.normal(size=(6, 5))
        got = float(mse_distill(Tensor(s), t).data)
        assert abs(got - np.mean((s - t) ** 2)) < 1e-12


def test_mse_gradient_is_scaled_difference():
    # d/ds mean((s-t)^2) = 2(s-t)/(B*d)
    s0 = np.array([[1.0, 2.0], [0.0, -1.0]])
    t0 = np.array([[3.0, 4.0], [1.0, 1.0]])
    s = Tensor(s0)
    mse_distill(s, t0).backward()
    assert np.abs(s.grad - 2.0 * (s0 - t0) / s0.size).max() < 1e-15


def test_mse_treats_teacher_as_constant():
    s = Tensor(np.ones((2, 3)))
    t = Tensor(np.zeros((2, 3)))
    mse_distill(s, t).backward()
    assert t.grad is None  # never entered the graph
    assert s.grad is not None


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mse_distill(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


# -- cross-domain alignment -----------------------------------------------


def batch_of(features, domain_ids):
    f = np.asarray(features, dtype=float)
    return DomainBatch(Tensor(f), np.zeros(len(f), dtype=int), domain_ids)


def test_alignment_nonnegative():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(12, 4))
        ids = np.repeat([0, 1, 2], 4)
        assert float(coral_loss(batch_of(feats, ids)).data) >= 0.0


def test_alignment_zero_for_identical_domains():
    rows = np.random.default_rng(1).normal(size=(4, 3))
    feats = np.vstack([rows, rows])
    ids = np.array([0] * 4 + [1] * 4)
    assert abs(float(coral_loss(batch_of(feats, ids)).data)) < 1e-18


def test_alignment_symmetric_under_relabeling():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(10, 3))
    ids = np.array([0] * 5 + [1] * 5)
    a = float(coral_loss(batch_of(feats, ids)).data)
    b = float(coral_loss(batch_of(feats, 1 - ids)).data)
    assert abs(a - b) < 1e-15


def test_alignment_averages_unordered_pairs():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(12, 3))
    ids = np.repeat([0, 1, 2], 4)
    got = float(coral_loss(batch_of(feats, ids)).data)
    covs = [np.cov(feats[ids == d].T, ddof=1) for d in range(3)]
    want = sum(
        ((covs[i] - covs[j]) ** 2).sum()
        for i in range(3)
        for j in range(i + 1, 3)
    ) / 3.0
    assert abs(got - want) < 1e-12


def test_alignment_gradient_matches_differences():
    rng = np.random.default_rng(4)
    ids = np.repeat([0, 1], 4)
    f0 = rng.normal(size=(8, 3))
    leaf = Tensor(f0)
    coral_loss(batch_of_tensor(leaf, ids)).backward()
    numeric = finite_difference_grad(
        lambda a: float(coral_loss(batch_of(a, ids)).data), f0.copy()
    )
    assert rel_err(leaf.grad, numeric) < 1e-5


def batch_of_tensor(features: Tensor, domain_ids):
    n = features.data.shape[0]
    return DomainBatch(features, np.zeros(n, dtype=int), domain_ids)


def test_alignment_input_validation():
    feats = np.random.default_rng(5).normal(size=(6, 3))
    with pytest.raises(ValueError):
        coral_loss(batch_of(feats, np.zeros(6, dtype=int)))
    with pytest.raises(ValueError):
        coral_loss(batch_of(feats, np.array([0, 0, 0, 0, 0, 1])))


def coral_chain(batch: DomainBatch):
    """The unfused op chain coral_loss must reproduce bit for bit."""
    ids = batch.domain_ids
    covs = [
        covariance_chain(take_rows(batch.features, np.flatnonzero(ids == d)))
        for d in np.unique(ids)
    ]
    total = None
    for i in range(len(covs)):
        for j in range(i + 1, len(covs)):
            diff = sub(covs[i], covs[j])
            term = sum_all(mul(diff, diff))
            total = term if total is None else add(total, term)
    return scale(total, 1.0 / (len(covs) * (len(covs) - 1) // 2))


@pytest.mark.parametrize("k, blocks", [(k, False) for k in range(2, 7)] + [(4, True)],
                         ids=[str(k) for k in range(2, 7)] + ["4-blocks"])
def test_alignment_is_bit_identical_to_the_op_chain(k, blocks):
    # ragged, interleaved groups, or equal ascending blocks (the trainer's
    # layout, which alignment reshapes); a second branch also feeds the
    # features, so their gradient sums contributions in the order the tape
    # runs them
    rng = np.random.default_rng(100 + k)
    sizes = [2, 5, 3, 7, 4, 6][:k]
    ids = (np.repeat(np.arange(k), 5) if blocks
           else rng.permutation(np.repeat(np.arange(k), sizes)))
    assert (batch_of(np.zeros((len(ids), 1)), ids).quota == 5) == blocks
    f0 = rng.normal(size=(len(ids), 5))
    const = rng.normal(size=f0.shape)
    results = []
    for align in (coral_loss, coral_chain):
        leaf = Tensor(f0)
        loss = align(batch_of_tensor(leaf, ids))
        total = add(scale(loss, 0.7), sum_all(mul(leaf, Tensor(const))))
        total.backward()
        results.append((loss.data, leaf.grad))
    (fused, fused_grad), (chain, chain_grad) = results
    assert np.array_equal(fused, chain)
    assert np.array_equal(fused_grad, chain_grad)


# -- exploration ----------------------------------------------------------


def test_exploration_l2_hand_oracle():
    # rows distance^2 = 1 + 1 = 2, one row, negated
    loss = exploration_l2(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
    assert float(loss.data) == -2.0


def test_exploration_l2_sign_and_zero():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 4))
    assert float(exploration_l2(Tensor(z), Tensor(z.copy())).data) == 0.0
    for seed in range(10):
        a = np.random.default_rng(seed).normal(size=(5, 4))
        assert float(exploration_l2(Tensor(a), Tensor(z)).data) <= 0.0


def test_exploration_l2_reference_value():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    got = float(exploration_l2(Tensor(a), Tensor(b)).data)
    want = -np.mean(((a - b) ** 2).sum(axis=1))
    assert abs(got - want) < 1e-12


def test_exploration_l2_gradient_matches_differences():
    rng = np.random.default_rng(8)
    a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    leaf = Tensor(a0)
    exploration_l2(leaf, Tensor(b0)).backward()
    numeric = finite_difference_grad(
        lambda x: float(exploration_l2(Tensor(x), Tensor(b0)).data), a0.copy()
    )
    assert rel_err(leaf.grad, numeric) < 1e-6


def test_exploration_norm_l1_hand_oracle():
    # rows normalize to (1,0) and (0,1); L1 distance 2, negated
    loss = exploration_norm_l1(Tensor([[2.0, 0.0]]), Tensor([[0.0, 3.0]]))
    assert abs(float(loss.data) + 2.0) < 1e-15


def test_exploration_norm_l1_bound_and_zero():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        a = rng.normal(size=(5, d)) * rng.uniform(0.1, 50.0)
        b = rng.normal(size=(5, d)) * rng.uniform(0.1, 50.0)
        v = float(exploration_norm_l1(Tensor(a), Tensor(b)).data)
        assert -2.0 * np.sqrt(d) - 1e-12 <= v <= 0.0
        same = float(exploration_norm_l1(Tensor(a), Tensor(a.copy())).data)
        assert abs(same) < 1e-15


def test_exploration_norm_l1_scale_invariant():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    base = float(exploration_norm_l1(Tensor(a), Tensor(b)).data)
    scaled = float(exploration_norm_l1(Tensor(7.0 * a), Tensor(0.2 * b)).data)
    assert abs(base - scaled) < 1e-12


def test_exploration_norm_l1_gradient_matches_differences():
    rng = np.random.default_rng(10)
    a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    leaf = Tensor(a0)
    exploration_norm_l1(leaf, Tensor(b0)).backward()
    numeric = finite_difference_grad(
        lambda x: float(exploration_norm_l1(Tensor(x), Tensor(b0)).data),
        a0.copy(),
    )
    assert rel_err(leaf.grad, numeric) < 1e-5


def test_exploration_norm_l1_rejects_zero_rows():
    with pytest.raises(ValueError):
        exploration_norm_l1(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))


def test_exploration_shape_mismatch():
    with pytest.raises(ValueError):
        exploration_l2(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        exploration_norm_l1(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


# -- weighted total -------------------------------------------------------


def micro_setup(seed=0):
    rng = np.random.default_rng(seed)
    n, d = 8, 4
    outputs = SimpleNamespace(
        z1=Tensor(rng.normal(size=(n, d))),
        z2=Tensor(rng.normal(size=(n, d))),
        logits=Tensor(rng.normal(size=(n, 3))),
    )
    batch = DomainBatch(
        Tensor(rng.normal(size=(n, 6))),
        rng.integers(0, 3, size=n),
        np.repeat([0, 1], n // 2),
    )
    teacher = rng.normal(size=(n, d))
    return batch, teacher, outputs


def test_total_is_linear_in_the_weights():
    batch, teacher, outputs = micro_setup()

    def value(l1, l2, l3):
        w = LossWeights(l1, l2, l3, "l2")
        return float(total_objective(batch, teacher, outputs, w)[0].data)

    cls = value(0.0, 0.0, 0.0)
    mse = value(1.0, 0.0, 0.0) - cls
    align = value(0.0, 1.0, 0.0) - cls
    exp = value(0.0, 0.0, 1.0) - cls
    mixed = value(0.7, 0.3, 0.2)
    assert abs(mixed - (cls + 0.7 * mse + 0.3 * align + 0.2 * exp)) < 1e-12
    # and the parts dict reports the unweighted terms
    _, parts = total_objective(batch, teacher, outputs, LossWeights(0.7, 0.3, 0.2))
    assert abs(parts["mse"] - mse) < 1e-12
    assert abs(parts["align"] - align) < 1e-12
    assert abs(parts["exp"] - exp) < 1e-12


def test_zero_weight_terms_are_not_evaluated():
    batch, _, outputs = micro_setup()
    total, parts = total_objective(
        batch, None, outputs, LossWeights(0.0, 0.0, 0.0)
    )
    assert set(parts) == {"cls", "total"}
    assert parts["total"] == parts["cls"] == float(total.data)


def test_distillation_weight_requires_teacher():
    batch, _, outputs = micro_setup()
    with pytest.raises(ValueError):
        total_objective(batch, None, outputs, LossWeights(1.0, 0.0, 0.0))


def test_variant_selects_exploration_distance():
    batch, teacher, outputs = micro_setup()
    _, parts = total_objective(
        batch, teacher, outputs, LossWeights(0.0, 0.0, 1.0, "norm_l1")
    )
    want = float(exploration_norm_l1(outputs.z1, outputs.z2).data)
    assert abs(parts["exp"] - want) < 1e-15


def test_total_gradient_matches_differences():
    # the full four-term objective, differentiated through z1
    batch, teacher, outputs = micro_setup(seed=3)
    w = LossWeights(1.0, 1.0, 0.1)

    z1_0 = outputs.z1.data.copy()

    def run(z1_arr):
        out = SimpleNamespace(
            z1=Tensor(z1_arr) if not isinstance(z1_arr, Tensor) else z1_arr,
            z2=Tensor(outputs.z2.data),
            logits=Tensor(outputs.logits.data),
        )
        return out, total_objective(batch, teacher, out, w)[0]

    out, total = run(Tensor(z1_0))
    total.backward()
    numeric = finite_difference_grad(
        lambda a: float(run(a)[1].data), z1_0.copy()
    )
    assert rel_err(out.z1.grad, numeric) < 1e-4


def test_distill_and_exploration_are_bit_identical_to_the_op_chains():
    # each is one node; the op chain it replaced is the oracle
    rng = np.random.default_rng(21)
    a0, b0, t = (rng.normal(size=(9, 4)) for _ in range(3))

    def mse_chain(a, b):
        diff = sub(a, Tensor(t))
        return scale(sum_all(mul(diff, diff)), 1.0 / t.size)

    def exploration_chain(a, b):
        diff = sub(a, b)
        return scale(sum_all(mul(diff, diff)), -1.0 / a.data.shape[0])

    pairs = (
        (lambda a, b: mse_distill(a, t), mse_chain),
        (exploration_l2, exploration_chain),
    )
    for fused, chain in pairs:
        results = []
        for term in (fused, chain):
            a, b = Tensor(a0), Tensor(b0)
            loss = term(a, b)
            add(scale(loss, 0.3), sum_all(mul(a, b))).backward()
            results.append((loss.data, a.grad, b.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)


def norm_l1_chain(z1, z2):
    """exploration_norm_l1 as the op chain it was before it became one node."""
    normed = [rowwise_div(z, sqrt(sum_rows(mul(z, z)))) for z in (z1, z2)]
    diff = sub(normed[0], normed[1])
    return scale(sum_all(absolute(diff)), -1.0 / z1.data.shape[0])


@pytest.mark.parametrize("first", ["term", "other"])
def test_norm_l1_is_bit_identical_to_the_op_chain(first):
    # each head also feeds another consumer, before or after the term, as
    # the concat and distillation do in a step; rows 2 and 5 of the two
    # heads point the same way, so their difference is exactly 0
    rng = np.random.default_rng(29)
    a0, b0, c = (rng.normal(size=(9, 4)) for _ in range(3))
    b0[[2, 5]] = 2.0 * a0[[2, 5]]
    results = []
    for term in (exploration_norm_l1, norm_l1_chain):
        a, b = Tensor(a0), Tensor(b0)
        other = add(sum_all(mul(a, Tensor(c))), sum_all(mul(b, Tensor(c))))
        loss = term(a, b)
        root = (add(scale(loss, 0.3), other) if first == "term"
                else add(other, scale(loss, 0.3)))
        root.backward()
        results.append((loss.data, a.grad, b.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


# -- config types ---------------------------------------------------------


def test_weight_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda1=-0.1)
    with pytest.raises(ValueError):
        LossWeights(lambda2=np.inf)
    with pytest.raises(ValueError):
        LossWeights(variant="l3")
    w = LossWeights()
    assert (w.lambda1, w.lambda2, w.lambda3, w.variant) == (1.0, 1.0, 0.1, "l2")


def test_domain_batch_validation():
    with pytest.raises(ValueError):
        DomainBatch(Tensor(np.zeros((3, 2))), np.zeros(2), np.zeros(3))
    with pytest.raises(TypeError):  # the layout comes from the ids alone
        DomainBatch(Tensor(np.zeros((4, 2))), np.zeros(4), np.zeros(4), 2)


@pytest.mark.parametrize("ids, quota", [
    ([0, 0, 1, 1, 2, 2], 2), ([3, 3, 3, 7, 7, 7], 3), ([0] * 4, 4),
    ([0, 1, 0, 1], None),  # interleaved
    ([1, 1, 0, 0], None),  # descending blocks
    ([0, 0, 0, 1, 1, 2], None), ([0, 0, 0, 1], None),  # ragged
    ([], None),
])
def test_domain_batch_reads_its_block_layout_from_its_ids(ids, quota):
    assert batch_of(np.zeros((len(ids), 2)), ids).quota == quota


def test_interleaved_ids_align_by_domain():
    # rows 0, 2, 4 against 1, 3, 5, not the first three against the last
    f = np.random.default_rng(0).normal(size=(6, 3))
    value = float(coral_loss(batch_of(f, [0, 1, 0, 1, 0, 1])).data)
    regrouped = float(coral_loss(batch_of(f[[0, 2, 4, 1, 3, 5]], [0, 0, 0, 1, 1, 1])).data)
    assert value == regrouped and round(value, 4) == 12.2745
