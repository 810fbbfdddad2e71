"""The traced benchmark wraps difex functions and methods by name; every
name it lists must still resolve, or traced runs break. A traced run
must also count the rows that every trained arm pushes through a
graph-building forward, and find one graph size per arm."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from difex.data import load_dir

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("difex_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for _span, mod_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), attr
    for _span, mod_name, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(getattr(cls, meth)), f"{cls_name}.{meth}"


# -- what a traced run counts ------------------------------------------------

ROOT = TRACER.parent.parent
GEN_CFG = """\
domains = 3
classes = 3
per_class = 6
length = 16
channels = 2
noise = 0.05
seed = 3
"""
EPOCHS, BATCH = 2, 12
TRAIN_CFG = f"epochs = {EPOCHS}\nbatch_size = {BATCH}\nhidden = 16\nfeature_dim = 8\n"
ARMS = 5  # the arms of `ablate`


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "difex_bench_run", TRACER.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Span files of a traced `train` and a traced `ablate` on a tiny
    dataset, run serially as the benchmark runs them."""
    root = tmp_path_factory.mktemp("traced")
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), DIFEX_THREADS="1")

    def run(*args):
        res = subprocess.run([sys.executable, *map(str, args)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr

    data = root / "data"
    run("-m", "difex.cli", "generate", "--config", root / "gen.cfg", "--out", data)
    spans = {}
    for cmd, extra in (("train", ["--target", 0, "--mode", "full"]),
                       ("ablate", ["--seeds", 1])):
        spans[cmd] = root / f"{cmd}.spans.json"
        run(TRACER, "--spans", spans[cmd], "--", cmd, data, *extra,
            "--config", root / "train.cfg", "--out", root / cmd)
    domains = load_dir(str(data))
    return {cmd: json.loads(path.read_text()) for cmd, path in spans.items()}, domains


def test_traced_forwards_count_every_arms_rows(traced):
    # the benchmark's own expectation: the teacher's rows plus every arm's
    # domain-balanced student rows, per epoch
    trace, domains = traced
    stage_rows = load_bench().stage_rows
    teacher, student = stage_rows(domains, 0, BATCH)
    want = {"train": EPOCHS * (teacher + student), "ablate": 0}
    for target in range(len(domains)):
        teacher, student = stage_rows(domains, target, BATCH)
        want["ablate"] += EPOCHS * (teacher + ARMS * student)
    for cmd, spans in trace.items():
        assert sum(spans["forward_rows"].values()) == want[cmd], cmd


def test_traced_graphs_have_one_size_per_key(traced):
    for cmd, spans in traced[0].items():
        assert spans["graph_nodes"], cmd
        for key, sizes in spans["graph_nodes"].items():
            assert len(sizes) == 1, (cmd, key, sizes)


def test_a_traced_train_times_each_step_layer_under_its_arm(traced):
    # bench/run.py builds its step.<arm>.* rows from these spans' arms
    names = {}
    for name, _start, _end, _parent, arm in traced[0]["train"]["spans"]:
        names.setdefault(arm, set()).add(name)
    shared = {"model.forward", "autodiff.backward", "autodiff.adamw"}
    assert shared | {"losses.cross_entropy", "training.teacher"} <= names["teacher"]
    assert shared | {"losses.objective", "training.student"} <= names["full"]
    assert set(load_bench().STEP_LAYERS) <= names["teacher"] | names["full"]


def test_traced_graph_sizes_per_key(traced):
    spans = traced[0]
    assert spans["train"]["graph_nodes"] == {"teacher": [8], "full": [10]}
    # the lockstep students carry no arm, so their graph is the "" key
    assert spans["ablate"]["graph_nodes"] == {"teacher": [8], "": [11]}


def test_the_package_binds_only_its_version_and_each_module_api_resolves():
    code = """\
import importlib, pkgutil, difex
print(sorted(k for k in vars(difex) if not k.startswith("__")), "__version__" in vars(difex))
for info in pkgutil.iter_modules(difex.__path__):
    mod = importlib.import_module("difex." + info.name)
    for name in getattr(mod, "__all__", ()):
        getattr(mod, name)
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[] True\n"
