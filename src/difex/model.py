"""Teacher and student networks, inference, and checkpoint I/O.

Both nets share the same shape: one relu hidden layer, a bounded feature
layer, a linear classifier. The student's feature layer is split into two
heads z1 and z2 of equal width; the classifier reads their concatenation,
so its input width equals the full feature width d. The teacher's single
feature head is d/2 wide, matching z1 for the distillation loss.

The two nets bound their features differently, on purpose. The student's
heads face a *maximized* divergence term, so their scale must be capped
or the optimizer inflates it without limit; they pass through a radial
squash (rows scaled into the unit ball), which caps the divergence
reward at a small constant independent of d while leaving feature
directions, where the class information lives, freely trainable at
any magnitude. An elementwise saturation would instead die coordinate
by coordinate exactly where the divergence term pushes. The teacher
never faces that term, so its feature layer keeps tanh, whose extra
per-coordinate folding classifies measurably better here; the student's
distillation head then converges to the radial projection of the
teacher's features, which preserves their directions.

Each net defines its layers once, in ``_layers``. ``forward`` returns
that graph for training; ``forward_np`` runs it on a throwaway graph,
freed by reference counting on return (the tape is acyclic), and returns
arrays. ``forward_np`` skips ``forward``, where the benchmark's tracer
counts training rows.

A ``StudentModel`` can also hold A members of one shape, trained in
lockstep: ``StudentModel.stack`` lays their weights along a leading arm
axis, and both passes then take A·B input rows grouped by arm (member a
reads rows a·B to (a+1)·B) and return every activation as (A, B, width).
``member(a)`` gives back member a as a plain model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat_cols, dense, squash_rows

__all__ = [
    "TeacherModel",
    "StudentModel",
    "StudentOutputs",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]


def _init_weight(rng, fan_in, fan_out):
    if rng is None:
        return Tensor(np.zeros((fan_in, fan_out)))
    return Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))


class TeacherModel:
    """Phase-input classifier whose feature layer is the distillation target."""

    kind = "teacher"
    input_kind = "phase"

    def __init__(self, in_dim, hidden, feat_dim, n_classes, rng):
        self.in_dim = in_dim
        self.hidden = hidden
        self.feat_dim = feat_dim
        self.n_classes = n_classes
        self.w1 = _init_weight(rng, in_dim, hidden)
        self.b1 = Tensor(np.zeros(hidden))
        self.w2 = _init_weight(rng, hidden, feat_dim)
        self.b2 = Tensor(np.zeros(feat_dim))
        self.wc = _init_weight(rng, feat_dim, n_classes)
        self.bc = Tensor(np.zeros(n_classes))

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2, self.wc, self.bc]

    def _layers(self, x: Tensor):
        h = dense(x, self.w1, self.b1).relu()
        feat = dense(h, self.w2, self.b2).tanh()
        return feat, dense(feat, self.wc, self.bc)

    def forward(self, x: Tensor):
        """Graph-building pass; returns (features, logits)."""
        return self._layers(x)

    def forward_np(self, x: np.ndarray):
        """(features, logits) as arrays; the graph is dropped on return."""
        feat, logits = self._layers(Tensor(x))
        return feat.data, logits.data


@dataclass
class StudentOutputs:
    """z1 feeds distillation, z2 alignment; logits read [z1 | z2]."""

    z1: Tensor
    z2: Tensor
    logits: Tensor


class StudentModel:
    """Raw-input classifier with a split feature layer.

    ``input_kind`` records what the net was trained on ("raw" normally,
    "phase" for the phase-input ablation) so evaluation can feed it the
    right representation.
    """

    kind = "student"

    def __init__(self, in_dim, hidden, d, n_classes, rng, input_kind="raw"):
        if d % 2:
            raise ValueError(f"feature width d must be even, got {d}")
        self.in_dim = in_dim
        self.hidden = hidden
        self.d = d
        self.n_classes = n_classes
        self.input_kind = input_kind
        half = d // 2
        self.w1 = _init_weight(rng, in_dim, hidden)
        self.b1 = Tensor(np.zeros(hidden))
        self.wz1 = _init_weight(rng, hidden, half)
        self.bz1 = Tensor(np.zeros(half))
        self.wz2 = _init_weight(rng, hidden, half)
        self.bz2 = Tensor(np.zeros(half))
        self.wc = _init_weight(rng, d, n_classes)
        self.bc = Tensor(np.zeros(n_classes))

    def params(self):
        return [
            self.w1,
            self.b1,
            self.wz1,
            self.bz1,
            self.wz2,
            self.bz2,
            self.wc,
            self.bc,
        ]

    @property
    def arms(self):
        """Members held: 1 for a plain model, A for a stack."""
        return self.w1.data.shape[0] if self.w1.data.ndim == 3 else 1

    @classmethod
    def stack(cls, members):
        """One model holding ``members`` (all of one shape) along an arm
        axis; a single member is returned as it is."""
        if len(members) == 1:
            return members[0]
        first = members[0]
        out = cls(first.in_dim, first.hidden, first.d, first.n_classes, None,
                  first.input_kind)
        for p, *each in zip(out.params(), *(m.params() for m in members)):
            p.data = np.stack([q.data for q in each])
        return out

    def member(self, a):
        """Member ``a`` of a stack as a plain model with its own copy of the
        weights; a plain model is its own only member."""
        if self.arms == 1:
            return self
        out = StudentModel(self.in_dim, self.hidden, self.d, self.n_classes, None,
                           self.input_kind)
        for p, q in zip(out.params(), self.params()):
            p.data = q.data[a].copy()
        return out

    def _layers(self, x: Tensor) -> StudentOutputs:
        if self.arms > 1:  # rows grouped by arm -> (A, B, in)
            x = Tensor._op(x.data.reshape(self.arms, -1, self.in_dim), ())
        h = dense(x, self.w1, self.b1).relu()
        z1 = squash_rows(dense(h, self.wz1, self.bz1))
        z2 = squash_rows(dense(h, self.wz2, self.bz2))
        logits = dense(concat_cols(z1, z2), self.wc, self.bc)
        return StudentOutputs(z1=z1, z2=z2, logits=logits)

    def forward(self, x: Tensor) -> StudentOutputs:
        """Graph-building pass over (A·B, in) rows grouped by arm (B rows
        for a plain model); returns the heads and the logits."""
        return self._layers(x)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Logits as an array, (A, B, classes) for a stack; the graph is
        dropped on return."""
        return self._layers(Tensor(x)).logits.data


def predict(model, x):
    """Class of the largest logit; ties go to the lowest index.

    Accepts one flat sample or a batch of rows of the model's input kind;
    no transform is involved, inference is a single forward pass of the
    student or teacher.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    logits = model.forward_np(np.atleast_2d(arr))
    if model.kind == "teacher":
        logits = logits[1]  # the teacher also returns its features
    ids = np.argmax(logits, axis=1)
    return int(ids[0]) if single else ids


# -- checkpoints ---------------------------------------------------------
#
# One JSON header line, then every parameter array in declaration order as
# raw little-endian float64, C-order. The header pins all shapes so a load
# can validate the blob byte-for-byte.

FORMAT_VERSION = 1

# constructor sizes per model kind, in argument order
_HEADER_DIMS = {
    "teacher": ("in_dim", "hidden", "feat_dim", "classes"),
    "student": ("in_dim", "hidden", "d", "classes"),
}
# input views per model kind; a header without "input" means the first
_HEADER_INPUTS = {"teacher": ("phase",), "student": ("raw", "phase")}


def save_checkpoint(model, path, seed=None):
    header = {
        "format": FORMAT_VERSION,
        "kind": model.kind,
        "input": model.input_kind,
        "in_dim": model.in_dim,
        "hidden": model.hidden,
        "classes": model.n_classes,
        "seed": seed,
        "shapes": [list(p.data.shape) for p in model.params()],
    }
    if model.kind == "teacher":
        header["feat_dim"] = model.feat_dim
    else:
        header["d"] = model.d
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in model.params():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild a model from disk; returns (model, header). Shape-validates."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable checkpoint header in {path}: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint header in {path} is not a JSON object")
    fmt = header.get("format")
    if isinstance(fmt, bool) or not isinstance(fmt, int) or fmt != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format {fmt!r}")
    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in _HEADER_DIMS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    inputs = _HEADER_INPUTS[kind]
    input_kind = header.get("input", inputs[0])
    if input_kind not in inputs:
        raise ValueError(f"checkpoint input {input_kind!r} is not valid for a {kind}")
    dims = [header.get(key) for key in _HEADER_DIMS[kind]]
    for key, v in zip(_HEADER_DIMS[kind], dims):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(
                f"checkpoint field {key!r} must be a positive integer, got {v!r}"
            )
    # the float64s the dims imply, checked before a model of them is built;
    # w is the feature width, which the student's two heads split
    i, h, w, c = dims
    expected = (i * h + h + h * w + w + w * c + c) * 8
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint blob is {len(blob)} bytes, expected {expected}"
        )
    table = header.get("shapes")
    if not isinstance(table, list) or not all(isinstance(s, list) for s in table):
        raise ValueError("checkpoint shape table must be a list of lists")
    if kind == "teacher":
        model = TeacherModel(*dims, rng=None)
    else:
        model = StudentModel(*dims, rng=None, input_kind=input_kind)
    params = model.params()
    if [tuple(s) for s in table] != [p.data.shape for p in params]:
        raise ValueError("checkpoint shape table does not match architecture")
    offset = 0
    for p in params:
        n = p.data.size
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        p.data = arr.reshape(p.data.shape).astype(np.float64)
        offset += n * 8
    return model, header
