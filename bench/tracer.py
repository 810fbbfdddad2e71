"""Span recorder for the benchmark's traced runs.

Used as a launcher in place of ``python -m difex.cli``:

    python3 bench/tracer.py --spans OUT.json -- train data/ --target 0 --out run/

It wraps public functions and methods of the difex modules in timing
spans, runs the one CLI command in this process, and writes every span
to OUT.json when the command returns. Spans stay in memory until then.

A span is ``[name, start, end, parent, arm]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``arm`` the ablation arm being
trained (``cfg.mode`` of ``train_student``, ``"teacher"`` inside
``train_teacher``, null elsewhere). Self times are derived by the reader,
``bench/run.py``.

``cli``, ``training`` and ``data`` bind functions with ``from ... import``,
so replacing a module attribute alone would miss their calls: every
difex module attribute that is the original function is rebound to the
wrapper. Methods are replaced on their class.

Besides spans the file holds three counts made at the layer boundaries:
graph nodes per step (a walk over ``_parents`` from the loss root at each
``Tensor.backward``), rows through graph-building forwards per arm, and
the set of distinct samples given to ``per_channel_phase``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

# (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("fourier.phase", "difex.fourier", "per_channel_phase"),
    ("fourier.fft", "difex.fourier", "fft"),
    ("fourier.fft", "difex.fourier", "fft2"),
    ("losses.objective", "difex.losses", "total_objective"),
    ("losses.coral", "difex.losses", "coral_loss"),
    ("losses.distill", "difex.losses", "mse_distill"),
    ("losses.explore", "difex.losses", "exploration_l2"),
    ("losses.explore", "difex.losses", "exploration_norm_l1"),
    ("losses.cross_entropy", "difex.autodiff", "softmax_cross_entropy"),
    ("model.checkpoint", "difex.model", "save_checkpoint"),
    ("model.checkpoint", "difex.model", "load_checkpoint"),
    ("training.teacher", "difex.training", "train_teacher"),
    ("training.student", "difex.training", "train_student"),
    ("data.generate", "difex.data", "generate"),
    ("data.save_csv", "difex.data", "save_csv"),
    ("data.load_csv", "difex.data", "load_csv"),
)

# (span name, module, class, method)
METHODS = (
    ("model.forward", "difex.model", "TeacherModel", "forward"),
    ("model.forward", "difex.model", "StudentModel", "forward"),
    ("model.infer", "difex.model", "TeacherModel", "forward_np"),
    ("model.infer", "difex.model", "StudentModel", "forward_np"),
    ("autodiff.adamw", "difex.autodiff", "AdamW", "step"),
    ("autodiff.backward", "difex.autodiff", "Tensor", "backward"),
)


def count_graph_nodes(root):
    """Distinct tensors reachable from ``root`` through ``_parents``,
    the root and the leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Recorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.arm = None
        self.graph_nodes = {}  # arm -> sorted list of node counts seen
        self.forward_rows = {}  # arm -> rows through graph-building forwards
        self.csv_rows = 0
        self.phase_keys = set()

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs once
        the span has closed, so its cost stays out of every span."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.arm]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def with_arm(self, arm_of, fn):
        """Run ``fn`` with ``self.arm`` set from its arguments."""

        @functools.wraps(fn)
        def armed(*args, **kwargs):
            prev, self.arm = self.arm, arm_of(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.arm = prev

        return armed

    # -- counts ----------------------------------------------------------

    def _phase_key(self, args, _result):
        x = args[0]
        self.phase_keys.add(hashlib.blake2b(
            memoryview(x.tobytes()), digest_size=8).hexdigest())

    def _forward_rows(self, args, _result):
        arm = self.arm or ""
        self.forward_rows[arm] = self.forward_rows.get(arm, 0) + args[1].data.shape[0]

    def _loaded_rows(self, _args, dataset):
        self.csv_rows += len(dataset)

    def _saved_rows(self, args, _result):
        self.csv_rows += len(args[0])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "graph_nodes": self.graph_nodes,
                "forward_rows": self.forward_rows,
                "csv_rows": self.csv_rows,
                "phase_keys": sorted(self.phase_keys),
            }, fh)


def _rebind(orig, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "difex" and not mod_name.startswith("difex."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _student_arm(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return cfg.mode


def install(rec: Recorder):
    """Wrap every traced difex function; the package must be imported."""
    after = {
        "per_channel_phase": rec._phase_key,
        "load_csv": rec._loaded_rows,
        "save_csv": rec._saved_rows,
    }
    for span, mod_name, attr in FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        new = rec.wrap(span, orig, after.get(attr))
        if attr == "train_student":
            new = rec.with_arm(_student_arm, new)
        elif attr == "train_teacher":
            new = rec.with_arm(lambda args, kwargs: "teacher", new)
        _rebind(orig, new)
    for span, mod_name, cls_name, meth in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        orig = getattr(cls, meth)
        after_fn = rec._forward_rows if meth == "forward" else None
        setattr(cls, meth, rec.wrap(span, orig, after_fn))

    tensor = sys.modules["difex.autodiff"].Tensor
    timed_backward = tensor.backward
    walk = rec.wrap("trace.graph_walk", count_graph_nodes)

    def backward(self):
        seen = rec.graph_nodes.setdefault(rec.arm or "", [])
        n = walk(self)
        if n not in seen:
            seen.append(n)
            seen.sort()
        return timed_backward(self)

    tensor.backward = backward


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <difex arguments>",
              file=sys.stderr)
        return 1
    out, cli_args = argv[1], argv[3:]
    import difex.cli

    rec = Recorder()
    install(rec)
    try:
        return rec.wrap("cli", difex.cli.main)(cli_args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
