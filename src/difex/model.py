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

Each net's parameters are laid out once, in ``_LAYOUTS``: every
(name, shape), in declaration and checkpoint order, from the net's four
``sizes`` (inputs, hidden, feature width, classes). Construction,
``params()``, both checkpoint functions and ``parameter_count`` read it.

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
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, _check_finite, concat_cols, dense, quiet_overflow,
                       squash_rows)

__all__ = [
    "TeacherModel",
    "StudentModel",
    "StudentOutputs",
    "predict",
    "parameter_count",
    "save_checkpoint",
    "load_checkpoint",
]

# (name, shape) of each parameter per kind, from the sizes; a 2-D shape is
# a weight, a 1-D one its layer's bias
_LAYOUTS = {
    "teacher": lambda i, h, w, c: {
        "w1": (i, h), "b1": (h,), "w2": (h, w), "b2": (w,), "wc": (w, c), "bc": (c,),
    },
    "student": lambda i, h, d, c: {
        "w1": (i, h), "b1": (h,), "wz1": (h, d // 2), "bz1": (d // 2,),
        "wz2": (h, d // 2), "bz2": (d // 2,), "wc": (d, c), "bc": (c,),
    },
}


def parameter_count(kind, sizes):
    """Floats, weights and biases, in one net of ``kind`` and these sizes."""
    return sum(math.prod(shape) for shape in _LAYOUTS[kind](*sizes).values())


class _Net:
    """Parameters in the kind's layout: weights He-normal from ``rng`` in
    layout order (zeros when ``rng`` is None), biases zero."""

    def __init__(self, in_dim, hidden, width, n_classes, rng):
        self.sizes = (in_dim, hidden, width, n_classes)
        for name, shape in _LAYOUTS[self.kind](*self.sizes).items():
            if rng is None or len(shape) == 1:
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            setattr(self, name, Tensor(data))

    def params(self):
        return [getattr(self, name) for name in _LAYOUTS[self.kind](*self.sizes)]

    def forward(self, x: Tensor):
        """Graph-building pass: the teacher's (features, logits); the
        student's heads and logits over (A·B, in) rows grouped by arm."""
        return self._layers(x)


class TeacherModel(_Net):
    """Phase-input classifier whose feature layer is the distillation target."""

    kind = "teacher"
    input_kind = "phase"

    def _layers(self, x: Tensor):
        h = dense(x, self.w1, self.b1).relu()
        feat = dense(h, self.w2, self.b2).tanh()
        return feat, dense(feat, self.wc, self.bc)

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


class StudentModel(_Net):
    """Raw-input classifier with a split feature layer.

    ``input_kind`` records what the net was trained on ("raw" normally,
    "phase" for the phase-input ablation) so evaluation can feed it the
    right representation.
    """

    kind = "student"

    def __init__(self, in_dim, hidden, d, n_classes, rng, input_kind="raw"):
        if d % 2:
            raise ValueError(f"feature width d must be even, got {d}")
        super().__init__(in_dim, hidden, d, n_classes, rng)
        self.input_kind = input_kind

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
        out = cls(*first.sizes, None, first.input_kind)
        for p, *each in zip(out.params(), *(m.params() for m in members)):
            p.data = np.stack([q.data for q in each])
        return out

    def member(self, a):
        """Member ``a`` of a stack as a plain model with its own copy of the
        weights; a plain model is its own only member."""
        if self.arms == 1:
            return self
        out = StudentModel(*self.sizes, None, self.input_kind)
        for p, q in zip(out.params(), self.params()):
            p.data = q.data[a].copy()
        return out

    def _layers(self, x: Tensor) -> StudentOutputs:
        if self.arms > 1:  # rows grouped by arm -> (A, B, in)
            x = Tensor._op(x.data.reshape(self.arms, -1, self.sizes[0]), ())
        h = dense(x, self.w1, self.b1).relu()
        z1 = squash_rows(dense(h, self.wz1, self.bz1))
        z2 = squash_rows(dense(h, self.wz2, self.bz2))
        logits = dense(concat_cols(z1, z2), self.wc, self.bc)
        return StudentOutputs(z1=z1, z2=z2, logits=logits)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Logits as an array, (A, B, classes) for a stack; the graph is
        dropped on return."""
        return self._layers(Tensor(x)).logits.data


def predict(model, x):
    """Class of the largest logit; ties go to the lowest index.

    Accepts one flat sample or a batch of rows of the model's input kind;
    no transform is involved, inference is a single forward pass of the
    student or teacher. Logits that are not finite raise
    ``NonFiniteError``: no class is read off them.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    with quiet_overflow():
        logits = model.forward_np(np.atleast_2d(arr))
    if model.kind == "teacher":
        logits = logits[1]  # the teacher also returns its features
    _check_finite(logits, "logits")
    ids = np.argmax(logits, axis=1)
    return int(ids[0]) if single else ids


# -- checkpoints ---------------------------------------------------------
#
# One JSON header line, then every parameter array in declaration order as
# raw little-endian float64, C-order. The header pins all shapes so a load
# can validate the blob byte-for-byte.

FORMAT_VERSION = 1

# header keys of each kind's ``sizes``, in order
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
        **dict(zip(_HEADER_DIMS[model.kind], model.sizes)),
        "seed": seed,
        "shapes": [list(p.data.shape) for p in model.params()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in model.params():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild a model from disk; returns (model, header). The blob size
    and the shape table are checked against the layout before a model is
    built, and every weight read must be finite."""
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
    expected = parameter_count(kind, dims) * 8
    if len(blob) != expected:
        raise ValueError(f"checkpoint blob is {len(blob)} bytes, expected {expected}")
    table = header.get("shapes")
    if not isinstance(table, list) or not all(isinstance(s, list) for s in table):
        raise ValueError("checkpoint shape table must be a list of lists")
    layout = _LAYOUTS[kind](*dims)
    if [tuple(s) for s in table] != list(layout.values()):
        raise ValueError("checkpoint shape table does not match architecture")
    model = (TeacherModel(*dims, None) if kind == "teacher"
             else StudentModel(*dims, None, input_kind))
    offset = 0
    for name, shape in layout.items():
        arr = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
        getattr(model, name).data = arr.reshape(shape).astype(np.float64)
        offset += arr.nbytes
    return model, header
