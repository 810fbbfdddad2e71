"""Reverse-mode gradients checked against central finite differences,
optimizer behavior, the non-finite guard, and how step graphs are freed."""

import gc

import numpy as np
import pytest

from difex.autodiff import (
    AdamW,
    NonFiniteError,
    Tensor,
    backward,
    finite_difference_grad,
    softmax_cross_entropy,
    sum_all,
)
from difex.losses import DomainBatch, LossWeights, total_objective
from difex.model import StudentModel, TeacherModel
from oracles import (
    absolute,
    add,
    add_bias,
    concat_cols,
    dense,
    matmul,
    mul,
    relu,
    rowwise_div,
    scale,
    sqrt,
    squash_rows,
    sub,
    sum_rows,
    take_rows,
    tanh,
    transpose,
)
from test_bench_contract import load_tracer


def rel_err(got, want):
    scale = max(np.abs(got).max(), np.abs(want).max(), 1e-12)
    return np.abs(got - want).max() / scale


def fd_check(build, x0, tol=1e-5):
    """build maps one ndarray to a scalar Tensor; compare both gradients.

    The probe point is copied so in-place perturbation never reaches
    arrays a builder closure captured as constants.
    """
    leaf = Tensor(x0)
    build(leaf).backward()
    numeric = finite_difference_grad(
        lambda a: float(build(Tensor(a)).data), x0.copy()
    )
    assert rel_err(leaf.grad, numeric) < tol


# -- op values ------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_hand_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))


def test_relu_values_and_zero_subgradient():
    x = Tensor([-1.0, 0.0, 2.0])
    out = relu(x)
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    sum_all(out).backward()
    # the kink at exactly 0 contributes nothing
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_add_zero_is_identity():
    x = Tensor([[1.5, -2.0]])
    out = add(x, Tensor([[0.0, 0.0]]))
    assert np.array_equal(out.data, x.data)


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        mul(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))


# -- finite-difference agreement, op by op --------------------------------


def test_matmul_grads_match_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a0 = rng.normal(size=(5, 4))
        b0 = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))  # fixed projection to a scalar
        fd_check(lambda t: sum_all(mul(matmul(t, Tensor(b0)), Tensor(w))), a0)
        fd_check(lambda t: sum_all(mul(matmul(Tensor(a0), t), Tensor(w))), b0)


def test_unary_grads_match_differences():
    rng = np.random.default_rng(1)
    for seed in range(5):
        x0 = rng.normal(size=(3, 4))
        x0 += 0.2 * np.sign(x0)  # keep clear of relu/abs kinks
        fd_check(lambda t: sum_all(relu(t)), x0)
        fd_check(lambda t: sum_all(absolute(t)), x0)
        fd_check(lambda t: sum_all(mul(tanh(t), Tensor(x0))), x0)
        fd_check(lambda t: sum_all(sqrt(mul(t, t))), x0)
        fd_check(lambda t: sum_all(mul(scale(t, -2.5), Tensor(x0))), x0)
        fd_check(lambda t: sum_all(matmul(transpose(t), Tensor(x0))), x0)


def test_binary_grads_match_differences():
    rng = np.random.default_rng(2)
    y0 = rng.normal(size=(3, 4))
    for _ in range(5):
        x0 = rng.normal(size=(3, 4))
        fd_check(lambda t: sum_all(mul(add(t, Tensor(y0)), sub(t, Tensor(y0)))), x0)
        fd_check(lambda t: sum_all(mul(mul(t, Tensor(y0)), t)), x0)


def test_structural_op_grads_match_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=3)
        s0 = rng.uniform(0.5, 2.0, size=4)
        w = rng.normal(size=(4, 3))
        fd_check(lambda t: sum_all(mul(add_bias(t, Tensor(b0)), Tensor(w))), x0)
        fd_check(lambda t: sum_all(mul(add_bias(Tensor(x0), t), Tensor(w))), b0)
        fd_check(lambda t: sum_all(sum_rows(mul(t, t))), x0)
        fd_check(lambda t: sum_all(mul(rowwise_div(t, Tensor(s0)), Tensor(w))), x0)
        fd_check(lambda t: sum_all(mul(rowwise_div(Tensor(x0), t), Tensor(w))), s0)
        fd_check(
            lambda t: sum_all(mul(concat_cols(t, scale(t, 2.0)), Tensor(np.hstack([w, w])))),
            x0,
        )


def test_take_rows_scatter_adds_duplicates():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(4, 3))
    idx = np.array([0, 0, 2, 3, 0])
    w = rng.normal(size=(5, 3))
    fd_check(lambda t: sum_all(mul(take_rows(t, idx), Tensor(w))), x0)
    # row 0 is gathered three times, so its gradient accumulates three terms
    leaf = Tensor(x0)
    sum_all(take_rows(leaf, idx)).backward()
    assert np.array_equal(leaf.grad[0], [3.0, 3.0, 3.0])
    assert np.array_equal(leaf.grad[1], [0.0, 0.0, 0.0])


def test_squash_rows_grads_match_differences():
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 30.0):
        x0 = rng.normal(size=(5, 3)) * scale
        w = rng.normal(size=(5, 3))
        fd_check(lambda t: sum_all(mul(squash_rows(t), Tensor(w))), x0)
        fd_check(lambda t: sum_all(mul(squash_rows(t, radius=2.5), Tensor(w))), x0)


def test_squash_rows_bounds_and_liveness():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(6, 4)) * 100.0)
    out = squash_rows(x)
    norms = np.sqrt((out.data**2).sum(axis=1))
    assert np.all(norms < 1.0)
    # even far outside the ball the map stays responsive: no dead rows
    sum_all(mul(out, Tensor(rng.normal(size=(6, 4))))).backward()
    assert np.all(np.abs(x.grad).max(axis=1) > 0)


def test_squash_rows_rejects_bad_inputs():
    with pytest.raises(ValueError):
        squash_rows(Tensor([1.0, 2.0]))
    with pytest.raises(ValueError):
        squash_rows(Tensor([[1.0, 2.0]]), radius=0.0)


def test_softmax_cross_entropy_uniform_logits():
    # all-equal logits: loss is exactly log C
    loss = softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 3])
    assert float(loss.data) == np.log(4.0)
    assert float(loss.data) >= 0.0


def test_softmax_cross_entropy_saturated_no_overflow():
    loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
    assert 0.0 <= float(loss.data) < 1e-12
    assert np.isfinite(loss.data)


def test_softmax_cross_entropy_grads_match_differences():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 5, size=8)
    for _ in range(5):
        x0 = rng.normal(size=(8, 5))
        fd_check(lambda t: softmax_cross_entropy(t, labels), x0)


def test_softmax_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0])
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros(3)), [0])


# -- backward pass mechanics ----------------------------------------------


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_zero_scale_is_zero():
    x = Tensor([1.0, 2.0, 3.0])
    sum_all(scale(x, 0.0)).backward()
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_handles_reused_nodes():
    # d/dx sum(y + y) with y = x*x is 4x, visiting y's rule exactly once
    x = Tensor([1.0, -2.0, 3.0])
    y = mul(x, x)
    sum_all(add(y, y)).backward()
    assert np.allclose(x.grad, 4.0 * x.data)


def test_backward_root_must_be_scalar():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).backward()


def test_backward_zero_fills_unreachable_params():
    w = Tensor(np.ones((2, 2)))
    x = Tensor([3.0])
    backward(sum_all(mul(x, x)), params=[w, x])
    assert np.array_equal(w.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, [6.0])


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x0 = rng.normal(size=(3, 3))
        a, b = rng.uniform(0.5, 2.0, size=2)

        def l1(t):
            return sum_all(mul(t, t))

        def l2(t):
            return sum_all(mul(tanh(t), Tensor(x0)))

        t = Tensor(x0)
        add(scale(l1(t), a), scale(l2(t), b)).backward()
        combined = t.grad.copy()
        t1 = Tensor(x0)
        l1(t1).backward()
        t2 = Tensor(x0)
        l2(t2).backward()
        assert np.abs(combined - (a * t1.grad + b * t2.grad)).max() < 1e-10


# -- the oracle itself ----------------------------------------------------


def test_finite_difference_of_sum_is_ones():
    got = finite_difference_grad(lambda a: float(a.sum()), np.zeros((2, 2)))
    assert np.allclose(got, 1.0, atol=1e-9)


def test_finite_difference_of_half_norm():
    got = finite_difference_grad(
        lambda a: 0.5 * float((a * a).sum()), np.array([1.0, 2.0])
    )
    assert np.abs(got - [1.0, 2.0]).max() < 1e-8


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_grad(lambda a: 0.0, np.zeros(2), h=0.0)


# -- optimizer ------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_keeps_params():
    p = Tensor([1.0, -2.0])
    opt = AdamW([p], weight_decay=0.0)
    before = p.data.copy()
    for _ in range(3):
        opt.zero_grad()
        opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_descends_a_parabola():
    p = Tensor([1.0])
    opt = AdamW([p], lr=1e-3, weight_decay=0.0)
    loss0 = float(p.data[0] ** 2)
    opt.zero_grad()
    sum_all(mul(p, p)).backward()
    opt.step()
    assert float(p.data[0] ** 2) < loss0


def test_adamw_converges_on_quadratic():
    # f(w) = (w - 3)^2; 200 steps at lr 0.1 land within 1e-3 of the minimizer
    p = Tensor([0.0])
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        diff = sub(p, Tensor([3.0]))
        opt.zero_grad()
        sum_all(mul(diff, diff)).backward()
        opt.step()
    assert abs(float(p.data[0]) - 3.0) < 1e-3


def test_adamw_decoupled_decay_is_geometric():
    # with zero gradient the update reduces to p *= (1 - lr*wd) each step
    lr, wd = 1e-2, 0.5
    p = Tensor([2.0])
    opt = AdamW([p], lr=lr, weight_decay=wd)
    for _ in range(4):
        opt.zero_grad()
        opt.step()
    assert abs(float(p.data[0]) - 2.0 * (1 - lr * wd) ** 4) < 1e-15


def test_adamw_first_step_matches_hand_update():
    # bias-corrected first step with wd=0 moves by lr * g/(|g| + eps)
    g = np.array([0.3, -4.0])
    p = Tensor([1.0, 1.0])
    opt = AdamW([p], lr=1e-3, weight_decay=0.0)
    p.grad = g.copy()
    opt.step()
    want = 1.0 - 1e-3 * g / (np.abs(g) + 1e-8)
    assert np.abs(p.data - want).max() < 1e-12


def test_adamw_rejects_mismatched_grad():
    p = Tensor([1.0, 2.0])
    opt = AdamW([p])
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


class LoopAdamW:
    """The per-tensor update the flat AdamW must reproduce bit for bit."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2 = betas
        self.eps, self.t = eps, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data -= self.lr * self.weight_decay * p.data
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def test_flat_adamw_is_bit_identical_to_the_per_tensor_loop():
    rng = np.random.default_rng(12)
    shapes = [(4, 3), (3,), (2, 5), (1,)]
    init = [rng.normal(size=s) for s in shapes]
    flat = [Tensor(a) for a in init]
    loop = [Tensor(a) for a in init]
    opts = (AdamW(flat, lr=1e-2, weight_decay=5e-4), LoopAdamW(loop, 1e-2, 5e-4))
    snap = None
    for step in range(5):
        grads = [rng.normal(size=s) for s in shapes]
        grads[3] = None  # an unreachable parameter steps on a zero gradient
        for params, opt in zip((flat, loop), opts):
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step()
        for p, q in zip(flat, loop):
            assert np.array_equal(p.data, q.data)
        if step == 1:
            snap = [p.data.copy() for p in flat]
        if step == 2:  # restore an earlier snapshot, as best-epoch selection does
            for p, q, a in zip(flat, loop, snap):
                p.data, q.data = a.copy(), a.copy()


def test_dense_is_bit_identical_to_add_bias_of_matmul():
    rng = np.random.default_rng(13)
    x0, w0, b0 = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    up = rng.normal(size=(6, 3))
    results = []
    for layer in (dense, lambda x, w, b: add_bias(matmul(x, w), b)):
        x, w, b = Tensor(x0), Tensor(w0), Tensor(b0)
        out = layer(x, w, b)
        add(sum_all(mul(out, Tensor(up))), sum_all(mul(x, x))).backward()
        results.append((out.data, x.grad, w.grad, b.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        dense(Tensor(x0), Tensor(w0), Tensor(np.zeros(4)))
    with pytest.raises(ValueError):
        dense(Tensor(x0), Tensor(w0.T), Tensor(b0))


# -- non-finite guard -----------------------------------------------------


def test_tensor_rejects_non_finite_values():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([[np.nan]])


def test_optimizer_step_guards_parameters():
    # at lr 1e308 the first update lands near -1e308 (finite); the second
    # overflows and must be caught rather than written back
    p = Tensor([1.0])
    opt = AdamW([p], lr=1e308, weight_decay=0.0)
    with np.errstate(over="ignore"):
        p.grad = np.array([1.0])
        opt.step()
        assert np.isfinite(p.data).all()
        p.grad = np.array([1.0])
        with pytest.raises(NonFiniteError):
            opt.step()


def test_backward_rejects_a_non_finite_loss():
    with np.errstate(over="ignore"):
        loss = sum_all(Tensor([1e308, 1e308]))
    with pytest.raises(NonFiniteError):
        loss.backward()


def test_overflowing_step_writes_nothing_back():
    # the first parameter's update is finite, the second's overflows: the
    # step must raise with both parameters and the moments untouched
    a, b = Tensor([1.0, -2.0]), Tensor([-1e308])
    opt = AdamW([a, b], lr=1e308, weight_decay=0.0)
    a.grad, b.grad = np.array([0.5, 0.5]), np.array([1.0])
    before = [a.data.copy(), b.data.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            opt.step()
    assert np.array_equal(a.data, before[0]) and np.array_equal(b.data, before[1])
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()


# -- determinism ----------------------------------------------------------


def test_training_loop_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(np.zeros(3))
        opt = AdamW([w, b], lr=1e-3)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        for _ in range(5):
            logits = add_bias(matmul(Tensor(x), w), b)
            loss = softmax_cross_entropy(logits, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        return w.data.copy(), b.data.copy()

    w1, b1 = run()
    w2, b2 = run()
    assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


# -- freeing step graphs ----------------------------------------------------

STEP_WEIGHTS = {
    "full": LossWeights(),
    "norm_l1": LossWeights(variant="norm_l1"),
    "erm": LossWeights(0.0, 0.0, 0.0),
}


def make_step(kind, seed=0):
    """A model, its optimizer, and a builder of one training step's graph.

    ``kind`` is "teacher" or a key of STEP_WEIGHTS; the batch has three
    domains of four rows, as the trainer's domain-balanced batches do.
    ``build()`` returns (loss, tensors of the graph other than the params:
    the net's node).
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(12, 10))
    y = np.arange(12) % 3
    domain_ids = np.repeat([0, 1, 2], 4)
    teacher_feat = np.tanh(rng.normal(size=(12, 4)))
    if kind == "teacher":
        model = TeacherModel(10, 16, 4, 3, rng)
    else:
        model = StudentModel(10, 16, 8, 3, rng)

    def build():
        xb = Tensor(x)
        if kind == "teacher":
            feat, logits = model.forward(xb)
            return softmax_cross_entropy(logits, y), [logits]
        out = model.forward(xb)
        loss, _ = total_objective(DomainBatch(xb, y, domain_ids), teacher_feat,
                                  out, STEP_WEIGHTS[kind])
        return loss, [out.logits]

    return model, AdamW(model.params()), build


@pytest.mark.parametrize("kind", ["full", "norm_l1", "erm", "teacher"])
def test_step_graphs_are_freed_without_the_cyclic_gc(kind):
    _, opt, build = make_step(kind)
    build()  # numpy's first np.unique call leaves one-time cyclic garbage
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(10):
            loss, _ = build()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_backward_twice_gives_identical_grads():
    model, _, build = make_step("full")
    loss, inner = build()
    loss.backward()
    first = [t.grad.copy() for t in model.params() + inner]
    loss.backward()
    # intermediate nodes keep their grads, and a second pass re-zeroes them
    second = [t.grad for t in model.params() + inner]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_traced_graph_node_counts():
    # bench/tracer.py counts nodes per step by walking ``_parents``; the
    # benchmark's ``step.*.graph_nodes`` rows read these numbers
    tracer = load_tracer()
    # the parameters, the net's node and the loss node
    for kind, nodes in (("full", 10), ("erm", 10), ("teacher", 8)):
        loss, _ = make_step(kind)[2]()
        assert tracer.count_graph_nodes(loss) == nodes, kind
