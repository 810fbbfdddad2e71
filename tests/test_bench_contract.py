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
