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
A step's weights live in one float64 ``vector`` per net, in that order,
so it reads as the checkpoint blob, and their gradients in one ``grad``
vector: every parameter's ``data`` and ``grad`` are views of the two,
which ``autodiff.AdamW`` updates in place.

Each net's forward pass is one graph node over its parameters, built in
``_layers`` on arrays with the input batch as a constant (no input
gradient); its backward replays the layer-by-layer tape's gradient steps,
adding into the gradient views, so values and parameter gradients keep
that tape's bits. The node holds the logits; the features come back as
constants, and a loss hands the node its gradients of them through
``StudentOutputs.head_grads``. Neither pass checks finiteness: ``predict``
checks the logits it reads, and training checks its rows once per run,
its loss each step and its updated weights.
``forward_np`` runs the same arithmetic without the node, and skips
``forward``, where the benchmark's tracer counts training rows.

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

from .autodiff import Tensor, _check_finite, _lay_out, _sum, quiet_overflow

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


def _affine(x, w, b, out=None):
    """``x @ w + b``, into ``out`` when given."""
    y = x @ w.data
    return np.add(y, b.data[..., None, :], out=y if out is None else out)


def _affine_backward(x, w, b, g, input_grad=True):
    """Add b's and w's gradients from the output's ``g``; return x's."""
    b.grad += _sum(g, axis=-2)
    gx = g @ w.data.swapaxes(-1, -2) if input_grad else None
    w.grad += x.swapaxes(-1, -2) @ g
    return gx


class _Net:
    """Parameters in the kind's layout: weights He-normal from ``rng`` in
    layout order (zeros when ``rng`` is None), biases zero."""

    def __init__(self, in_dim, hidden, width, n_classes, rng):
        self.sizes = (in_dim, hidden, width, n_classes)
        params = []
        for shape in _LAYOUTS[self.kind](*self.sizes).values():
            if rng is None or len(shape) == 1:
                params.append(Tensor(np.zeros(shape)))
            else:
                params.append(Tensor(rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)))
        self._hold(params)

    def _hold(self, params):
        """Take ``params`` in layout order, their data and gradients laid
        out in the net's ``vector`` and ``grad``: each parameter's block in
        turn ((arms, ...) for a stack), so ``vector`` reads as the checkpoint."""
        self._params = tuple(params)
        for name, p in zip(_LAYOUTS[self.kind](*self.sizes), params):
            setattr(self, name, p)
        self.vector, self.grad = _lay_out(params)

    def params(self):
        return list(self._params)

    @property
    def arms(self):
        """Members held: 1 for a plain model, A for a stack."""
        return self.w1.data.shape[0] if self.w1.data.ndim == 3 else 1

    def _layers(self, x):
        """Each head's features on the rows of ``x``, the logits of their
        concatenation, the heads' gradient queue and the node's backward.

        The heads' pre-activations sit side by side in one (..., rows,
        head, width) array, so one bound and its backward serve them all
        and the concatenation is a reshape."""
        w1, b1, *heads, wc, bc = self._params
        if self.arms > 1:  # rows grouped by arm -> (A, B, in)
            x = x.reshape(self.arms, -1, self.sizes[0])
        a1 = _affine(x, w1, b1)
        h = np.maximum(a1, 0.0)
        n = len(heads) // 2
        u = np.empty(a1.shape[:-1] + (n, self.sizes[2] // n))
        for k in range(n):
            _affine(h, heads[2 * k], heads[2 * k + 1], out=u[..., k, :])
        zz, grad = self._bound(u)
        z = zz.reshape(a1.shape[:-1] + (-1,))
        queue = []

        def backprop(g):
            g_zz = _affine_backward(z, wc, bc, g).reshape(zz.shape)
            for head, arms, gh in queue:
                g_zz[..., head, :][... if arms is None else arms] += gh
            queue.clear()
            g_u = grad(g_zz)
            g_a1 = _affine_backward(h, heads[0], heads[1], g_u[..., 0, :])
            for k in range(1, n):
                g_a1 += _affine_backward(h, heads[2 * k], heads[2 * k + 1], g_u[..., k, :])
            g_a1 *= a1 > 0.0  # in place: one more temporary page-faults lockstep steps
            _affine_backward(x, w1, b1, g_a1, input_grad=False)

        return [zz[..., k, :] for k in range(n)], _affine(z, wc, bc), queue, backprop

    def forward(self, x: Tensor):
        """Graph-building pass: the teacher's (features, logits), the
        student's ``StudentOutputs``; the logits are the net's node."""
        feats, logits, queue, backprop = self._layers(x.data)
        node = Tensor._op(logits, self._params, backprop)
        feats = [Tensor._op(z, ()) for z in feats]
        if self.kind == "teacher":
            return feats[0], node
        return StudentOutputs(*feats, node, queue)

    def forward_np(self, x: np.ndarray):
        """The teacher's (features, logits) or the student's logits, as
        arrays; (A, B, classes) for a stack."""
        feats, logits, _, _ = self._layers(Tensor(x).data)
        return (feats[0], logits) if self.kind == "teacher" else logits


class TeacherModel(_Net):
    """Phase-input classifier whose feature layer is the distillation target."""

    kind = "teacher"
    input_kind = "phase"

    @staticmethod
    def _bound(u):
        """tanh, and its backward."""
        y = np.tanh(u)
        return y, lambda g: g * (1.0 - y * y)


@dataclass
class StudentOutputs:
    """z1 feeds distillation, z2 alignment; logits read [z1 | z2]. From
    ``StudentModel.forward``, a loss queues its gradients of the constant
    z1 (head 0) and z2 (head 1) on ``head_grads`` as (head, arms, grad)."""

    z1: Tensor
    z2: Tensor
    logits: Tensor
    head_grads: list | None = None


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

    @classmethod
    def stack(cls, members):
        """One model holding ``members`` (all of one shape) along an arm
        axis; a single member is returned as it is."""
        if len(members) == 1:
            return members[0]
        first = members[0]
        out = cls(*first.sizes, None, first.input_kind)
        out._hold([Tensor(np.stack([q.data for q in each]))
                   for each in zip(*(m._params for m in members))])
        return out

    def member(self, a):
        """Member ``a`` of a stack as a plain model with its own copy of the
        weights; a plain model is its own only member."""
        if self.arms == 1:
            return self
        out = StudentModel(*self.sizes, None, self.input_kind)
        out._hold([Tensor(q.data[a]) for q in self._params])
        return out

    @staticmethod
    def _bound(u):
        """Each row scaled by 1/(1 + |row|) into the unit ball, and its
        backward."""
        r = np.sqrt(_sum(u * u, axis=-1) + 1e-300)
        s = 1.0 / (1.0 + r)

        def grad(g):
            # d/du [s(r)·u] = s·I + (ds/dr)·u uᵀ/r, with ds/dr = −s²
            coef = _sum(g * u, axis=-1) * s * s / r
            return g * s[..., None] - u * coef[..., None]

        return u * s[..., None], grad


def predict(model, x):
    """Class of the largest logit; ties go to the lowest index.

    Accepts one flat sample or a batch of rows of the model's input kind;
    no transform is involved, inference is a single forward pass of the
    student or teacher. Rows of another width than the model's input
    raise ``ValueError``; logits that are not finite raise
    ``NonFiniteError``: no class is read off them.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.shape[-1] != model.sizes[0]:
        raise ValueError(
            f"model expects {model.sizes[0]} inputs per row, got {rows.shape[-1]}")
    with quiet_overflow():
        logits = model.forward_np(rows)
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
    if not isinstance(table, list) or not all(  # ints, and a bool is no int here
            isinstance(s, list) and all(type(v) is int for v in s) for s in table):
        raise ValueError("checkpoint shape table must be lists of integers")
    layout = _LAYOUTS[kind](*dims)
    if [tuple(s) for s in table] != list(layout.values()):
        raise ValueError("checkpoint shape table does not match architecture")
    model = (TeacherModel(*dims, None) if kind == "teacher"
             else StudentModel(*dims, None, input_kind))
    model.vector[...] = np.frombuffer(blob, dtype="<f8")
    for name, p in zip(layout, model._params):
        if not np.all(np.isfinite(p.data)):
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
    return model, header
