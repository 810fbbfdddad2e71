"""The one-node nets and the one-node objective against the layer-by-layer
graph in ``oracles``: the loss, every logged part, every parameter
gradient and the weights after two AdamW steps, all with np.array_equal,
on the batches the trainer builds."""

import numpy as np
import pytest

from difex.autodiff import AdamW, Tensor, softmax_cross_entropy, sum_all
from difex.losses import DomainBatch, total_objective
from difex.model import StudentModel, TeacherModel
from difex.training import MODES, TrainConfig, effective_weights
from oracles import objective_chain, student_chain, teacher_chain

# rows per domain, domains: as batch_index_stream lays out a batch of 30-32
LAYOUTS = {"3-source": (10, 3), "4-source": (8, 4), "2-virtual": (15, 2)}
ARMS = ("erm", "no-intern", "no-mutual", "no-exp", "full")  # the ablation


def assert_same_step(node_model, chain_model, step):
    """Two AdamW steps of each model; ``step(model, chain)`` builds one
    graph and returns (root, loss values, parts)."""
    opts = [AdamW(m.params()) for m in (node_model, chain_model)]
    for _ in range(2):
        results = []
        for model, opt, chain in zip((node_model, chain_model), opts, (False, True)):
            root, loss, parts = step(model, chain)
            opt.zero_grad()
            root.backward()
            results.append((loss, parts, [p.grad.copy() for p in model.params()]))
            opt.step()
        (loss, parts, grads), (want_loss, want_parts, want_grads) = results
        assert np.array_equal(loss, want_loss)
        assert parts == want_parts
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want)
        for p, q in zip(node_model.params(), chain_model.params()):
            assert np.array_equal(p.data, q.data)


@pytest.mark.parametrize("rows", [32, 7])  # a full batch and a short last one
def test_teacher_node_matches_the_layer_chain(rows):
    rng = np.random.default_rng(rows)
    x, y = rng.normal(size=(rows, 64)), rng.integers(0, 6, size=rows)
    models = [TeacherModel(64, 64, 24, 6, np.random.default_rng(1)) for _ in range(2)]

    def step(model, chain):
        forward = teacher_chain if chain else TeacherModel.forward
        feat, logits = forward(model, Tensor(x))
        loss = softmax_cross_entropy(logits, y)
        return loss, loss.data, feat.data.tobytes()

    assert_same_step(*models, step)


def student_case(layout, weights, variant, seed=3):
    """Models, rows and targets of one step over a batch of ``layout``."""
    quota, m = LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(quota * m, 64))
    y = rng.integers(0, 6, size=quota * m)
    teacher = np.tanh(rng.normal(size=(quota * m, 24)))
    ws = [effective_weights(TrainConfig(mode=w, exploration=variant)) for w in weights]
    init = StudentModel(64, 64, 48, 6, np.random.default_rng(seed + 1))
    models = [StudentModel.stack([init] * len(ws)) if len(ws) > 1
              else StudentModel.stack([init, init]).member(0) for _ in range(2)]
    ids = np.repeat(np.arange(m), quota)

    def step(model, chain):
        rows = Tensor(np.tile(x, (len(ws), 1)))
        out = student_chain(model, rows) if chain else model.forward(rows)
        batch = DomainBatch(out.z2, y, ids)
        objective = objective_chain if chain else total_objective
        total, parts = objective(batch, teacher, out, ws if len(ws) > 1 else ws[0])
        return (sum_all(total) if len(ws) > 1 else total), total.data, parts

    return models, step


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("variant", ["l2", "norm_l1"])
@pytest.mark.parametrize("mode", MODES)
def test_student_node_matches_the_layer_chain(mode, variant, layout):
    models, step = student_case(layout, [mode], variant)
    assert_same_step(*models, step)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("variant", ["l2", "norm_l1"])
def test_stacked_student_node_matches_the_layer_chain(variant, layout):
    # five arms, each term on the arms that keep it
    models, step = student_case(layout, ARMS, variant)
    assert_same_step(*models, step)


def test_a_batch_of_one_domain_block_cannot_align():
    out = StudentModel(8, 6, 4, 3, np.random.default_rng(0)).forward(
        Tensor(np.ones((6, 8))))
    batch = DomainBatch(out.z2, np.zeros(6, dtype=int), np.zeros(6, dtype=int))
    weights = effective_weights(TrainConfig(mode="no-intern"))
    with pytest.raises(ValueError, match="2 domains"):
        total_objective(batch, None, out, weights)
