"""Network wiring, inference conventions, and checkpoint round trips."""

import gc
import json

import numpy as np
import pytest

import difex.model
from difex.autodiff import AdamW, Tensor, softmax_cross_entropy, sum_all
from difex.model import (
    StudentModel,
    TeacherModel,
    load_checkpoint,
    predict,
    save_checkpoint,
)


def rng_for(seed):
    return np.random.default_rng(seed)


# -- architecture ---------------------------------------------------------


def test_student_splits_features_evenly():
    m = StudentModel(10, 16, 8, 3, rng_for(0))
    out = m.forward(Tensor(np.random.default_rng(1).normal(size=(5, 10))))
    assert out.z1.data.shape == (5, 4)
    assert out.z2.data.shape == (5, 4)
    assert out.logits.data.shape == (5, 3)
    # classifier reads the concatenation, so its weight is d wide
    assert m.wc.data.shape == (8, 3)


def test_student_rejects_odd_width():
    with pytest.raises(ValueError):
        StudentModel(10, 16, 7, 3, rng_for(0))


def test_teacher_head_matches_half_width():
    t = TeacherModel(10, 16, 4, 3, rng_for(0))
    feat, logits = t.forward(Tensor(np.zeros((2, 10))))
    assert feat.data.shape == (2, 4)
    assert logits.data.shape == (2, 3)


def test_teacher_and_student_trunks_have_equal_parameter_shapes():
    t = TeacherModel(10, 16, 4, 3, rng_for(0))
    s = StudentModel(10, 16, 8, 3, rng_for(0))
    assert t.w1.data.shape == s.w1.data.shape
    # the student's two heads together hold as many weights as one d-wide layer
    assert t.w2.data.size * 2 == s.wz1.data.size + s.wz2.data.size


def test_init_is_seed_deterministic():
    a = StudentModel(6, 8, 4, 3, rng_for(7))
    b = StudentModel(6, 8, 4, 3, rng_for(7))
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.data, pb.data)


# -- forward agreement ----------------------------------------------------


def test_student_graph_and_plain_forward_agree():
    m = StudentModel(10, 16, 8, 4, rng_for(2))
    x = np.random.default_rng(3).normal(size=(6, 10))
    out = m.forward(Tensor(x))
    assert np.array_equal(out.logits.data, m.forward_np(x))


def test_teacher_graph_and_plain_forward_agree():
    t = TeacherModel(10, 16, 4, 3, rng_for(4))
    x = np.random.default_rng(5).normal(size=(6, 10))
    feat_g, logits_g = t.forward(Tensor(x))
    feat_n, logits_n = t.forward_np(x)
    assert np.array_equal(feat_g.data, feat_n)
    assert np.array_equal(logits_g.data, logits_n)


def both_models():
    return [StudentModel(10, 16, 8, 4, rng_for(21)),
            TeacherModel(10, 16, 4, 3, rng_for(22))]


@pytest.mark.parametrize("model", both_models(), ids=["student", "teacher"])
def test_inference_graphs_are_freed_without_the_cyclic_gc(model):
    x = np.random.default_rng(23).normal(size=(30, 10))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(20):
            model.forward_np(x)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("model", both_models(), ids=["student", "teacher"])
def test_inference_never_calls_forward(model, monkeypatch):
    # the benchmark's tracer counts training rows on forward
    x = np.random.default_rng(24).normal(size=(5, 10))
    before = predict(model, x)

    def forward(self, x):
        raise AssertionError("inference went through forward")

    monkeypatch.setattr(type(model), "forward", forward)
    assert np.array_equal(predict(model, x), before)  # runs forward_np


def test_student_features_stay_inside_unit_ball():
    m = StudentModel(10, 16, 8, 3, rng_for(6))
    x = np.random.default_rng(7).normal(size=(20, 10)) * 50.0
    out = m.forward(Tensor(x))
    for z in (out.z1.data, out.z2.data):
        assert np.all(np.sqrt((z * z).sum(axis=1)) < 1.0)


def test_teacher_features_are_tanh_bounded():
    # saturated pre-activations round to exactly +-1 in 64-bit, hence <=
    t = TeacherModel(10, 16, 4, 3, rng_for(8))
    feat, _ = t.forward_np(np.random.default_rng(9).normal(size=(10, 10)) * 30)
    assert np.all(np.abs(feat) <= 1.0)


# -- inference ------------------------------------------------------------


def test_predict_single_and_batch_agree():
    m = StudentModel(6, 8, 4, 3, rng_for(10))
    X = np.random.default_rng(11).normal(size=(5, 6))
    batch = predict(m, X)
    assert batch.shape == (5,)
    for i in range(5):
        assert predict(m, X[i]) == batch[i]


def test_predict_breaks_ties_toward_lowest_index():
    # a zero-initialized net emits identical logits for every class
    m = StudentModel(6, 8, 4, 5, rng=None)
    assert predict(m, np.ones(6)) == 0
    got = predict(m, np.ones((3, 6)))
    assert np.array_equal(got, [0, 0, 0])


# -- checkpoints ----------------------------------------------------------


def test_student_checkpoint_round_trip(tmp_path):
    m = StudentModel(12, 8, 6, 4, rng_for(12), input_kind="raw")
    path = tmp_path / "student.ckpt"
    save_checkpoint(m, path, seed=9)
    back, header = load_checkpoint(path)
    for pa, pb in zip(m.params(), back.params()):
        assert np.array_equal(pa.data, pb.data)
    assert header["kind"] == "student" and header["d"] == 6
    assert header["seed"] == 9 and header["input"] == "raw"
    X = np.random.default_rng(13).normal(size=(8, 12))
    assert np.array_equal(predict(m, X), predict(back, X))
    assert np.array_equal(m.forward_np(X), back.forward_np(X))


def test_teacher_checkpoint_round_trip(tmp_path):
    t = TeacherModel(12, 8, 3, 4, rng_for(14))
    path = tmp_path / "teacher.ckpt"
    save_checkpoint(t, path)
    back, header = load_checkpoint(path)
    assert header["kind"] == "teacher" and header["feat_dim"] == 3
    X = np.random.default_rng(15).normal(size=(5, 12))
    feat_a, logits_a = t.forward_np(X)
    feat_b, logits_b = back.forward_np(X)
    assert np.array_equal(feat_a, feat_b)
    assert np.array_equal(logits_a, logits_b)


def test_checkpoint_preserves_input_kind(tmp_path):
    m = StudentModel(12, 8, 6, 4, rng_for(16), input_kind="phase")
    path = tmp_path / "p.ckpt"
    save_checkpoint(m, path)
    back, _ = load_checkpoint(path)
    assert back.input_kind == "phase"


def split_checkpoint(path):
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    return json.loads(blob[: nl].decode()), blob[nl + 1 :]


def test_checkpoint_rejects_truncated_blob(tmp_path):
    m = StudentModel(6, 4, 4, 2, rng_for(17))
    path = tmp_path / "t.ckpt"
    save_checkpoint(m, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("sizes", [(1, 1, 2, 1), (6, 4, 4, 2), (12, 8, 6, 4),
                                   (32, 16, 8, 3)])
def test_checkpoint_blob_size_follows_the_header_dims(tmp_path, sizes):
    # the loader's count of float64s from the dims equals the layers' sizes
    for model in (StudentModel(*sizes, rng_for(20)), TeacherModel(*sizes, rng_for(21))):
        path = tmp_path / f"{model.kind}.ckpt"
        save_checkpoint(model, path)
        load_checkpoint(path)
        path.write_bytes(path.read_bytes() + bytes(8))
        count = sum(p.data.size for p in model.params())
        with pytest.raises(ValueError, match=f"expected {count * 8}$"):
            load_checkpoint(path)


def test_checkpoint_blob_size_is_checked_before_a_model_is_built(
        tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    for model, width in ((StudentModel(6, 4, 4, 2, rng_for(22)), "d"),
                         (TeacherModel(6, 4, 2, 2, rng_for(23)), "feat_dim")):
        path = tmp_path / f"{model.kind}.ckpt"
        save_checkpoint(model, path)
        header, blob = split_checkpoint(path)
        monkeypatch.setattr(difex.model, type(model).__name__, refuse)
        for key in ("in_dim", "hidden", width, "classes"):
            path.write_bytes(json.dumps({**header, key: 10**7}).encode() + b"\n" + blob)
            with pytest.raises(ValueError, match="checkpoint blob is"):
                load_checkpoint(path)
        monkeypatch.undo()


def test_checkpoint_rejects_garbage_header(tmp_path):
    path = tmp_path / "g.ckpt"
    path.write_bytes(b"\xff\xfe not json\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_format(tmp_path):
    m = StudentModel(6, 4, 4, 2, rng_for(18))
    path = tmp_path / "v.ckpt"
    save_checkpoint(m, path)
    header, blob = split_checkpoint(path)
    header["format"] = 99
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_kind(tmp_path):
    m = StudentModel(6, 4, 4, 2, rng_for(19))
    path = tmp_path / "k.ckpt"
    save_checkpoint(m, path)
    header, blob = split_checkpoint(path)
    header["kind"] = "referee"
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="kind"):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_table_mismatch(tmp_path):
    # a wrong size; the right sizes as floats; each 1 written as true
    path = tmp_path / "s.ckpt"
    for classes, edit in ((2, lambda t: [[5, 4]] + t[1:]),
                          (2, lambda t: [[float(v) for v in s] for s in t]),
                          (1, lambda t: [[v == 1 or v for v in s] for s in t])):
        save_checkpoint(StudentModel(6, 4, 4, classes, rng_for(20)), path)
        header, blob = split_checkpoint(path)
        header["shapes"] = edit(header["shapes"])
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)


# -- the flat layout --------------------------------------------------------


def assert_laid_out(model, path):
    """Every parameter and its gradient are views of the net's two vectors,
    in layout order, and the weight vector reads back as the checkpoint."""
    at = 0
    for p in model.params():
        for array, vector in ((p.data, model.vector), (p.grad, model.grad)):
            assert array.base is vector
            assert array.ctypes.data == vector.ctypes.data + at * 8
        at += p.data.size
    assert at == model.vector.size == model.grad.size
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        fh.readline()
        assert fh.read() == model.vector.astype("<f8").tobytes()


def test_parameters_stay_views_of_one_vector(tmp_path):
    rng = rng_for(6)
    x, y = rng.normal(size=(9, 10)), rng.integers(0, 3, size=9)
    teacher = TeacherModel(10, 8, 4, 3, rng)
    members = [StudentModel(10, 8, 6, 3, rng) for _ in range(3)]
    stack = StudentModel.stack(members)

    def reloaded(model):
        save_checkpoint(model, tmp_path / "saved.ckpt")
        return load_checkpoint(tmp_path / "saved.ckpt")[0]

    for model in (teacher, members[0], stack, stack.member(1),
                  reloaded(teacher), reloaded(stack.member(2))):
        assert_laid_out(model, tmp_path / "check.ckpt")
    for model in (teacher, stack):
        opt = AdamW(model.params(), lr=1e-2)
        before = model.vector.copy()
        for _ in range(3):
            out = model.forward(Tensor(np.tile(x, (model.arms, 1))))
            loss = softmax_cross_entropy(out[1] if model.kind == "teacher" else out.logits, y)
            opt.zero_grad()
            (sum_all(loss) if model.arms > 1 else loss).backward()
            opt.step()
            assert_laid_out(model, tmp_path / "check.ckpt")
        assert not np.array_equal(model.vector, before)


@pytest.mark.parametrize("net_first", [True, False])
def test_a_parameter_read_twice_gets_both_gradients(net_first):
    from oracles import add

    rng = rng_for(7)
    x = rng.normal(size=(5, 10))
    model = StudentModel(10, 8, 6, 3, rng)

    def grads(build):
        loss = build()
        loss.backward()
        return [p.grad.copy() for p in model.params()]

    def net():
        return sum_all(model.forward(Tensor(x)).logits)

    def total():  # one addition into w1's gradient, so both orders are exact
        return sum_all(model.w1)

    alone = grads(net)
    pair = (net, total) if net_first else (total, net)
    both = grads(lambda: add(pair[0](), pair[1]()))
    for p, got, want in zip(model.params(), both, alone):
        assert np.array_equal(got, want + 1.0 if p is model.w1 else want)
    # two graph nodes of one net: each parameter sums both passes
    twice = grads(lambda: add(net(), net()))
    for got, want in zip(twice, alone):
        assert np.array_equal(got, want + want)
