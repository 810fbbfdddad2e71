"""Oracles for the arm axis: every op run on a stack of A arms gives, in
each arm's slice, the bits of the same op on that arm's 2-D operands.
Values and gradients are compared with np.array_equal, on the batches
the trainer builds: 3 and 4 source domains, 2 virtual domains, and
domains of unequal size."""

import numpy as np
import pytest

from difex.autodiff import (
    AdamW,
    NonFiniteError,
    Tensor,
    softmax_cross_entropy,
    sum_all,
)
from difex.losses import (
    DomainBatch,
    LossWeights,
    coral_loss,
    exploration_l2,
    exploration_norm_l1,
    mse_distill,
    total_objective,
)
from difex.model import StudentModel
from oracles import add, concat_cols, dense, mul, relu, scale, squash_rows

A = 5
# domain ids of one balanced batch, as batch_index_stream lays them out
BATCHES = {
    "3-source": np.repeat([0, 1, 2], 10),
    "4-source": np.repeat([0, 1, 2, 3], 8),
    "2-virtual": np.repeat([0, 1], 15),
    "ragged": np.repeat([0, 1, 2], [7, 11, 12]),
}
IN_WIDTHS = (64, 10)  # raw and phase rows of the benchmark are both 64 wide
SUBSETS = (None, [1, 3, 4], [0, 2])  # the arms a term runs on


def stacked(rng, *shape):
    """A stack of A arrays and its A per-arm 2-D tensors."""
    data = rng.normal(size=(A,) + shape)
    return Tensor(data), [Tensor(data[a]) for a in range(A)]


def assert_arms_equal(stack, arms):
    for a, t in enumerate(arms):
        assert np.array_equal(stack[a], t), f"arm {a}"


@pytest.mark.parametrize("name", sorted(BATCHES))
@pytest.mark.parametrize("width", IN_WIDTHS)
def test_dense_relu_squash_concat(name, width):
    rng = np.random.default_rng(width)
    rows = len(BATCHES[name])
    x, xs = stacked(rng, rows, width)
    w1, w1s = stacked(rng, width, 16)
    b1, b1s = stacked(rng, 16)
    wa, was = stacked(rng, 16, 4)
    ba, bas = stacked(rng, 4)
    wb, wbs = stacked(rng, 16, 4)
    bb, bbs = stacked(rng, 4)
    up = rng.normal(size=(A, rows, 8))

    def layers(x, w1, b1, wa, ba, wb, bb):
        h = relu(dense(x, w1, b1))
        return concat_cols(squash_rows(dense(h, wa, ba)), squash_rows(dense(h, wb, bb)))

    out = layers(x, w1, b1, wa, ba, wb, bb)
    sum_all(mul(out, Tensor(up))).backward()
    for a in range(A):
        leaves = [t[a] for t in (xs, w1s, b1s, was, bas, wbs, bbs)]
        want = layers(*leaves)
        sum_all(mul(want, Tensor(up[a]))).backward()
        assert np.array_equal(out.data[a], want.data)
        for got, leaf in zip((x, w1, b1, wa, ba, wb, bb), leaves):
            assert np.array_equal(got.grad[a], leaf.grad)


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_cross_entropy_gives_one_mean_per_arm(name):
    rng = np.random.default_rng(3)
    rows = len(BATCHES[name])
    logits, per_arm = stacked(rng, rows, 6)
    labels = rng.integers(0, 6, size=rows)
    weights = rng.uniform(0.5, 2.0, size=A)
    ce = softmax_cross_entropy(logits, labels)
    assert ce.data.shape == (A,)
    sum_all(scale(ce, weights)).backward()
    for a in range(A):
        want = softmax_cross_entropy(per_arm[a], labels)
        scale(want, weights[a]).backward()
        assert ce.data[a] == want.data
        assert np.array_equal(logits.grad[a], per_arm[a].grad)


def run_term(term, feats, arms, rng):
    """The term on a stack and on each kept arm alone, after an earlier
    consumer of every feature tensor, as the concat of the heads is in a
    training step; returns (stacked value, per-arm values, features)."""
    stack = [Tensor(f) for f in feats]
    ups = [rng.normal(size=f.shape) for f in feats]
    value = term(stack, None if arms is None else np.array(arms))
    earlier = sum_all(mul(stack[0], Tensor(ups[0])))
    for t, up in zip(stack[1:], ups[1:]):
        earlier = add(earlier, sum_all(mul(t, Tensor(up))))
    add(earlier, sum_all(scale(value, 0.3))).backward()
    alone = {}
    for a in range(A) if arms is None else arms:
        leaves = [Tensor(f[a]) for f in feats]
        v = term(leaves, None)
        earlier = sum_all(mul(leaves[0], Tensor(ups[0][a])))
        for t, up in zip(leaves[1:], ups[1:]):
            earlier = add(earlier, sum_all(mul(t, Tensor(up[a]))))
        add(earlier, scale(v, 0.3)).backward()
        alone[a] = (v.data, [t.grad for t in leaves])
    return value, alone, stack, ups


TERMS = {
    "mse": lambda teacher: (1, lambda f, arms: mse_distill(f[0], teacher, arms)),
    "l2": lambda _: (2, lambda f, arms: exploration_l2(f[0], f[1], arms)),
    "norm_l1": lambda _: (2, lambda f, arms: exploration_norm_l1(f[0], f[1], arms)),
}


@pytest.mark.parametrize("kind", sorted(TERMS))
@pytest.mark.parametrize("arms", SUBSETS)
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_terms_on_arm_subsets(kind, arms, name):
    rng = np.random.default_rng(7)
    rows = len(BATCHES[name])
    teacher = np.tanh(rng.normal(size=(rows, 6)))
    n_feats, term = TERMS[kind](teacher)
    feats = [rng.normal(size=(A, rows, 6)) for _ in range(n_feats)]
    value, alone, stack, ups = run_term(term, feats, arms, rng)
    assert value.data.shape == (A,)
    for a in range(A):
        if a not in alone:  # a skipped arm: value 0, only the earlier gradient
            assert value.data[a] == 0.0
            for t, up in zip(stack, ups):
                assert np.array_equal(t.grad[a], up[a])
            continue
        want, grads = alone[a]
        assert value.data[a] == want
        for t, g in zip(stack, grads):
            assert np.array_equal(t.grad[a], g)


@pytest.mark.parametrize("arms", SUBSETS)
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_coral_on_arm_subsets(arms, name):
    rng = np.random.default_rng(11)
    ids = BATCHES[name]
    labels = np.zeros(len(ids), dtype=np.intp)
    feats = [rng.normal(size=(A, len(ids), 6))]

    def term(f, arms):
        return coral_loss(DomainBatch(f[0], labels, ids), arms)

    value, alone, stack, _ = run_term(term, feats, arms, rng)
    for a, (want, grads) in alone.items():
        assert value.data[a] == want
        assert np.array_equal(stack[0].grad[a], grads[0])


def test_adamw_over_stacked_parameters():
    rng = np.random.default_rng(17)
    shapes = [(6, 4), (4,), (4, 3)]
    stack = [Tensor(rng.normal(size=(A,) + s)) for s in shapes]
    alone = [[Tensor(p.data[a]) for p in stack] for a in range(A)]
    opts = [AdamW(stack, lr=1e-2)] + [AdamW(ps, lr=1e-2) for ps in alone]
    for _ in range(4):
        grads = [rng.normal(size=p.data.shape) for p in stack]
        for p, g in zip(stack, grads):
            p.grad = g
        for a, ps in enumerate(alone):
            for p, g in zip(ps, grads):
                p.grad = g[a]
        for opt in opts:
            opt.step()
    for p, per_arm in zip(stack, zip(*alone)):
        assert_arms_equal(p.data, [q.data for q in per_arm])


ARM_WEIGHTS = [  # the ablation arms: erm, no-intern, no-mutual, no-exp, full
    LossWeights(0.0, 0.0, 0.0),
    LossWeights(0.0, 1.0, 0.1),
    LossWeights(1.0, 0.0, 0.1),
    LossWeights(1.0, 1.0, 0.0),
    LossWeights(1.0, 1.0, 0.1),
]


@pytest.mark.parametrize("variant", ["l2", "norm_l1"])
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_a_stacked_step_equals_each_arm_alone(variant, name):
    # the whole step: model forward, objective, backward, one AdamW update
    ids = BATCHES[name]
    rng = np.random.default_rng(19)
    x = rng.normal(size=(len(ids), 12))
    y = rng.integers(0, 3, size=len(ids))
    teacher = np.tanh(rng.normal(size=(len(ids), 4)))
    weights = [LossWeights(w.lambda1, w.lambda2, w.lambda3, variant)
               for w in ARM_WEIGHTS]
    init = StudentModel(12, 16, 8, 3, rng)
    stack = StudentModel.stack([init] * A)
    pair = StudentModel.stack([init, init])
    models = [pair.member(0) for _ in range(A)]  # each its own copy
    out = stack.forward(Tensor(np.tile(x, (A, 1))))
    total, parts = total_objective(DomainBatch(out.z2, y, ids), teacher, out, weights)
    opt = AdamW(stack.params())
    sum_all(total).backward()
    opt.step()
    for a, (m, w) in enumerate(zip(models, weights)):
        o = m.forward(Tensor(x))
        t, p = total_objective(DomainBatch(o.z2, y, ids), teacher, o, w)
        single = AdamW(m.params())
        t.backward()
        single.step()
        assert parts[a] == p
        assert total.data[a] == t.data
        member = stack.member(a)
        for got, want in zip(member.params(), m.params()):
            assert np.array_equal(got.data, want.data)


def test_stack_and_member_round_trip():
    rng = np.random.default_rng(23)
    members = [StudentModel(10, 8, 4, 3, rng) for _ in range(3)]
    stack = StudentModel.stack(members)
    assert stack.arms == 3 and members[0].arms == 1
    assert StudentModel.stack(members[:1]) is members[0]
    x = rng.normal(size=(7, 10))
    logits = stack.forward_np(np.tile(x, (3, 1)))
    assert logits.shape == (3, 7, 3)
    for a, m in enumerate(members):
        back = stack.member(a)
        for p, q in zip(back.params(), m.params()):
            assert np.array_equal(p.data, q.data)
        assert np.array_equal(logits[a], m.forward_np(x))


def test_a_non_finite_arm_stops_the_step():
    rng = np.random.default_rng(31)
    ids = BATCHES["3-source"]
    stack = StudentModel.stack([StudentModel(12, 16, 8, 3, rng)] * A)
    stack.w1.data[2, 0, 0] = np.inf  # one arm's weight, set between steps
    x = np.tile(rng.normal(size=(len(ids), 12)), (A, 1))
    y = rng.integers(0, 3, size=len(ids))
    with np.errstate(all="ignore"):
        out = stack.forward(Tensor(x))
        total, _ = total_objective(DomainBatch(out.z2, y, ids), None, out,
                                   [LossWeights(0.0, 1.0, 0.1)] * A)
    assert np.isfinite(np.delete(total.data, 2)).all()
    with pytest.raises(NonFiniteError):
        sum_all(total).backward()
