#!/usr/bin/env python3
"""The difex benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

Each `difex` command runs as a fresh `python -m difex.cli` process on the
sources under `src/`, serially (`DIFEX_THREADS=1`, one BLAS thread), in a
closed loop: the next operation starts when the previous one has ended,
and operations keep starting while the next one is expected to finish
inside `--seconds`. At least one always runs. Inputs are built from
`--seed` before timing starts, under `.bench_work/`, which the run removes
when it ends.

Workloads (see `bench/README.md` for why each exists):

* `train-full`   one `difex train --mode full` on the default benchmark.
* `ablate-sweep` one `difex ablate` over 4 targets x 5 arms x 1 seed at
                 `epochs = 10`.
* `spectral-io`  `generate`, `eval` of a teacher checkpoint on each of the
                 4 domains, and `motivate` over the 400 class-0 samples.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` untraced and traced operations alternate and it holds the
per-layer metrics, read from spans that `bench/tracer.py` records in the
traced processes. The line before it (`info: {...}`) records the seed,
commit, versions, per-operation times, failures and output digests.

Exit codes: 0 a result was printed (`correct` says whether every
operation passed its checks), 1 the checkout has no difex sources or
building the inputs failed, 2 usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIGESTS = BENCH / "reference_digests.json"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_IMPORTS = 7  # fresh `import difex.cli` timings per run, median reported
ARMS = ("erm", "no-intern", "no-mutual", "no-exp", "full")  # cli.ABLATION_ARMS
EPOCHS = 50  # TrainConfig default, used by train-full
SWEEP_EPOCHS = 10
TARGETS = 4
CLASS0_ROWS = 100  # per_class: rows 0..99 of every domain are class 0


class CheckFailed(Exception):
    """An operation's outputs are missing, malformed or inconsistent."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(DIFEX_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Proc:
    """One finished child process."""

    def __init__(self, code, wall, cpu, rss_mb, out, err, spans=None):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb
        self.out, self.err, self.spans = out, err, spans

    def stdout(self):
        return self.out.read_text(encoding="utf-8")

    def describe(self):
        tail = self.err.read_text(encoding="utf-8", errors="replace")[-400:]
        return f"exit {self.code}: {tail.strip()}"


def spawn(argv, stem, env, timeout):
    """Run argv to completion; wall time and peak RSS of that one process.

    The child is waited on through a pidfd, so it is never signalled after
    it was reaped, and it is killed and reaped if the bench is interrupted.
    """
    out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Proc(os.waitstatus_to_exitcode(status), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out, err)


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def finite_unit(value, what):
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckFailed(f"{what} {value!r} is not a finite value in [0, 1]")
    return value


def read_table(path, rows, cols=None):
    """Header plus `rows` comma-separated lines; returns them split."""
    if not path.is_file():
        raise CheckFailed(f"missing {path.name}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != rows + 1:
        raise CheckFailed(f"{path.name} has {len(lines) - 1} rows, expected {rows}")
    table = [ln.split(",") for ln in lines]
    if cols is not None and any(len(r) != cols for r in table):
        raise CheckFailed(f"{path.name} rows are not {cols} columns wide")
    return table


class Bench:
    """State of one benchmark run: its inputs, commands and operations."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.t_start = time.monotonic()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env()
        self.n_cmd = 0

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.t_start)

    def run(self, argv):
        self.n_cmd += 1
        stem = self.work / f"cmd{self.n_cmd:03d}"
        return spawn(argv, stem, self.env, max(1.0, self.remaining()))

    def difex(self, args, traced=False):
        """One `difex` CLI command in a fresh process."""
        args = [str(a) for a in args]
        if not traced:
            return self.run([sys.executable, "-m", "difex.cli", *args])
        spans = self.work / f"cmd{self.n_cmd + 1:03d}.spans.json"
        proc = self.run([sys.executable, str(BENCH / "tracer.py"),
                         "--spans", str(spans), "--", *args])
        proc.spans = spans
        return proc

    def setup_seconds(self):
        """Median wall time of a fresh interpreter importing difex.cli."""
        argv = [sys.executable, "-c", "import difex.cli"]
        self.must(self.run(argv))  # warm the page and bytecode caches
        times = [self.must(self.run(argv)).wall for _ in range(SETUP_IMPORTS)]
        return statistics.median(times)

    @staticmethod
    def must(proc):
        if proc.code != 0:
            raise SystemExit(f"bench: set-up command failed, {proc.describe()}")
        return proc

    def generate_inputs(self):
        """The default 4-domain benchmark, via `generate --config` with
        every key listed.

        Its seed stays 0: held-out accuracy moves from 0.33 to 0.99 across
        dataset seeds 1-6, which would bury any change in `target_acc`.
        The workload seed drives the training randomness instead.
        """
        cfg = self.work / "bench.cfg"
        cfg.write_text(
            "domains = 4\nclasses = 6\nper_class = 100\nlength = 32\n"
            "channels = 2\nnoise = 0.1\nseed = 0\n", encoding="utf-8")
        data = self.work / "data"
        self.must(self.difex(["generate", "--config", cfg, "--out", data]))
        return cfg, data


# -- workloads -------------------------------------------------------------


def split_rows(labels, fraction=0.8):
    """Training rows of one domain under train_val_split's rounding."""
    counts = defaultdict(int)
    for y in labels:
        counts[int(y)] += 1
    return sum(min(max(round(fraction * n), 1), n - 1) for n in counts.values())


def stage_rows(domains, target, batch_size=32):
    """Rows one teacher epoch and one student epoch push through forward
    and backward when `target` is held out (the student drops the rows
    that do not fill a domain-balanced batch)."""
    train = [split_rows(ds.y) for ds in domains if ds.domain != target]
    quota = batch_size // len(train)
    return sum(train), min(train) // quota * quota * len(train)


class TrainFull:
    """`difex train --target 0 --mode full` with the default config."""

    def setup(self, b):
        from difex.data import load_csv

        _, self.data = b.generate_inputs()
        domains = [load_csv(self.data / f"domain_{d}.csv", channels=2)
                   for d in range(TARGETS)]
        teacher, student = stage_rows(domains, 0)
        self.samples = self.trained_rows = EPOCHS * (teacher + student)

    def op(self, b, k, traced):
        out = b.work / f"op{k}"
        proc = b.difex(["train", self.data, "--target", 0, "--mode", "full",
                        "--seed", b.seed, "--out", out], traced)
        return [proc], lambda: self.check(out)

    @staticmethod
    def check(out):
        from difex.model import load_checkpoint

        table = read_table(out / "metrics.csv", EPOCHS)
        for row in table[1:]:
            if not all(math.isfinite(float(v)) for v in row):
                raise CheckFailed("metrics.csv holds a non-finite value")
        files = [out / "metrics.csv", out / "student.ckpt", out / "teacher.ckpt"]
        for path, kind in ((files[1], "student"), (files[2], "teacher")):
            try:
                _, header = load_checkpoint(path)
            except (OSError, ValueError, KeyError) as exc:
                raise CheckFailed(f"{path.name} does not reload: {exc}") from None
            if header["kind"] != kind:
                raise CheckFailed(f"{path.name} holds a {header['kind']}")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        acc = finite_unit(manifest["target_accuracy"], "target accuracy")
        return sha256_files(files), acc


class AblateSweep:
    """`difex ablate --seeds <seed>` at `epochs = 10`: 4 targets x 5 arms."""

    def setup(self, b):
        from difex.data import load_csv

        _, self.data = b.generate_inputs()
        self.config = b.work / "sweep.cfg"
        self.config.write_text(f"epochs = {SWEEP_EPOCHS}\n", encoding="utf-8")
        domains = [load_csv(self.data / f"domain_{d}.csv", channels=2)
                   for d in range(TARGETS)]
        self.samples = 0
        for target in range(TARGETS):
            teacher, student = stage_rows(domains, target)
            # one teacher per (target, seed) cell, shared by the arms that distill
            self.samples += SWEEP_EPOCHS * (teacher + len(ARMS) * student)
        self.trained_rows = self.samples

    def op(self, b, k, traced):
        out = b.work / f"op{k}"
        proc = b.difex(["ablate", self.data, "--seeds", b.seed,
                        "--config", self.config, "--out", out], traced)
        return [proc], lambda: self.check(out)

    @staticmethod
    def check(out):
        table = read_table(out / "runs.csv", TARGETS * len(ARMS), cols=6)
        if table[0] != ["target", "mode", "seed", "target_acc", "val_acc",
                        "selected_epoch"]:
            raise CheckFailed("runs.csv has an unexpected header")
        cells = {(int(r[0]), r[1]) for r in table[1:]}
        if cells != {(t, a) for t in range(TARGETS) for a in ARMS}:
            raise CheckFailed("runs.csv does not cover 4 targets x 5 arms")
        full = []
        for row in table[1:]:
            acc = finite_unit(float(row[3]), "target_acc")
            finite_unit(float(row[4]), "val_acc")
            if row[1] == "full":
                full.append(acc)
        files = [out / "runs.csv", out / "summary.csv", out / "summary.txt"]
        read_table(files[1], len(ARMS))
        read_table(files[2], len(ARMS))
        return sha256_files(files), sum(full) / len(full)


class SpectralIO:
    """generate, eval of a teacher on every domain, motivate: no training."""

    def setup(self, b):
        from difex.data import leave_one_out, load_csv
        from difex.model import save_checkpoint
        from difex.training import TrainConfig, train_teacher

        self.config, data = b.generate_inputs()
        self.reference = [data / f"domain_{d}.csv" for d in range(TARGETS)]
        domains = [load_csv(p, channels=2) for p in self.reference]
        sources, _ = leave_one_out(domains, 0)
        self.teacher = b.work / "teacher.ckpt"
        save_checkpoint(train_teacher(sources, TrainConfig(seed=b.seed)),
                        self.teacher, seed=b.seed)
        self.ids = ",".join(f"{d}:{i}" for d in range(TARGETS)
                            for i in range(CLASS0_ROWS))
        rows = len(domains[0])
        # rows written by generate, scored by eval, transformed by motivate
        self.samples = TARGETS * rows + TARGETS * rows + TARGETS * CLASS0_ROWS
        self.trained_rows = 0

    def op(self, b, k, traced):
        data, views = b.work / f"op{k}" / "data", b.work / f"op{k}" / "views.csv"
        procs = [b.difex(["generate", "--config", self.config, "--out", data],
                         traced)]
        if procs[0].code == 0:
            for d in range(TARGETS):
                procs.append(b.difex(["eval", data, "--checkpoint", self.teacher,
                                      "--target", d], traced))
            procs.append(b.difex(["motivate", data, "--ids", self.ids,
                                  "--out", views], traced))
        return procs, lambda: self.check(data, views, procs)

    def check(self, data, views, procs):
        from difex.data import DataError, load_csv

        csvs = [data / f"domain_{d}.csv" for d in range(TARGETS)]
        for path, ref in zip(csvs, self.reference):
            try:
                ds = load_csv(path)
            except (OSError, DataError) as exc:
                raise CheckFailed(f"{path.name} does not reload: {exc}") from None
            if ds.X.shape != (600, 2, 32):
                raise CheckFailed(f"{path.name} reloads as {ds.X.shape}")
            if path.read_bytes() != ref.read_bytes():
                raise CheckFailed(f"{path.name} differs from the set-up dataset")
        accs, lines = [], []
        for d, proc in enumerate(procs[1:1 + TARGETS]):
            line = proc.stdout().strip()
            prefix = f"target={d} accuracy="
            if not line.startswith(prefix):
                raise CheckFailed(f"eval printed {line!r}")
            accs.append(finite_unit(float(line[len(prefix):]), "eval accuracy"))
            lines.append(line)
        table = read_table(views, 64, cols=2 + 4 * TARGETS * CLASS0_ROWS)
        for row in table[1:]:
            if not all(math.isfinite(float(v)) for v in row[2:]):
                raise CheckFailed("motivate wrote a non-finite value")
        h = hashlib.sha256(sha256_files(csvs + [views]).encode())
        h.update("\n".join(lines).encode())
        return h.hexdigest(), sum(accs) / len(accs)


WORKLOADS = {"train-full": TrainFull, "ablate-sweep": AblateSweep,
             "spectral-io": SpectralIO}


# -- per-layer metrics from spans -------------------------------------------

STEP_LAYERS = ("model.forward", "losses.objective", "losses.cross_entropy",
               "autodiff.backward", "autodiff.adamw")


def layer_metrics(span_files, n_ops):
    """Per-layer metrics of `n_ops` traced operations, per operation.

    Times are inclusive span durations unless named `self`; a span's self
    time is its duration minus the time its direct child spans cover.
    """
    total, calls, self_t = defaultdict(float), defaultdict(int), defaultdict(float)
    step = defaultdict(float)  # (arm, part) -> seconds; (arm, "steps") -> count
    graph_nodes, rows, keys = {}, defaultdict(int), set()
    csv_rows = 0
    for path in span_files:
        trace = json.loads(path.read_text(encoding="utf-8"))
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, arm in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, arm) in enumerate(spans):
            dur = t1 - t0
            total[name] += dur
            calls[name] += 1
            self_t[name] += dur - child[i]
            if arm is None or name not in STEP_LAYERS:
                continue
            if name == "autodiff.backward":
                step[arm, "backward"] += dur
            elif name == "autodiff.adamw":
                step[arm, "optimizer"] += dur
                step[arm, "steps"] += 1
            elif name != "losses.cross_entropy" or spans[parent][0] != "losses.objective":
                step[arm, "forward_loss"] += dur
        for arm, counts in trace["graph_nodes"].items():
            graph_nodes[arm] = sorted(set(graph_nodes.get(arm, [])) | set(counts))
        for arm, n in trace["forward_rows"].items():
            rows[arm] += n
        csv_rows += trace["csv_rows"]
        keys.update(trace["phase_keys"])

    def per_op(x):
        return x / n_ops

    phase_calls = calls["fourier.phase"]
    m = {
        "fourier.phase_s": per_op(total["fourier.phase"]),
        "fourier.phase_calls": per_op(phase_calls),
        "fourier.phase_ms_per_1k": (total["fourier.phase"] / phase_calls * 1e6
                                    if phase_calls else 0.0),
        "fourier.fft_s": per_op(total["fourier.fft"]),
        "fourier.fft_calls": per_op(calls["fourier.fft"]),
        "fourier.phase_reuse": (len(keys) / per_op(phase_calls)
                                if phase_calls else 0.0),
        "autodiff.backward_s": per_op(total["autodiff.backward"]),
        "autodiff.backward_calls": per_op(calls["autodiff.backward"]),
        "autodiff.graph_nodes": max((max(v) for v in graph_nodes.values()), default=0),
        "autodiff.adamw_s": per_op(total["autodiff.adamw"]),
        "autodiff.adamw_steps": per_op(calls["autodiff.adamw"]),
        "model.forward_s": per_op(total["model.forward"]),
        "model.forward_calls": per_op(calls["model.forward"]),
        "losses.objective_s": per_op(total["losses.objective"]),
        "losses.coral_s": per_op(total["losses.coral"]),
        "losses.distill_s": per_op(total["losses.distill"]),
        "losses.explore_s": per_op(total["losses.explore"]),
    }
    for arm in ARMS + ("teacher",):
        steps = step[arm, "steps"]
        for part in ("forward_loss", "backward", "optimizer"):
            m[f"step.{arm}.{part}_us"] = step[arm, part] / steps * 1e6 if steps else 0.0
        m[f"step.{arm}.graph_nodes"] = max(graph_nodes.get(arm, [0]))
    m.update({
        "training.teacher_s": per_op(total["training.teacher"]),
        "training.teacher_runs": per_op(calls["training.teacher"]),
        "training.student_s": per_op(total["training.student"]),
        "training.student_runs": per_op(calls["training.student"]),
        "training.student_self_s": per_op(self_t["training.student"]),
        "data.generate_s": per_op(total["data.generate"]),
        "data.save_csv_s": per_op(total["data.save_csv"]),
        "data.load_csv_s": per_op(total["data.load_csv"]),
        "data.csv_rows": per_op(csv_rows),
        "model.infer_s": per_op(total["model.infer"]),
        "model.checkpoint_s": per_op(total["model.checkpoint"]),
        "cli.self_s": per_op(self_t["cli"]),
        "cli.commands": per_op(calls["cli"]),
    })
    # a graph whose size changes between steps of one arm is a finding
    varying = {a: v for a, v in graph_nodes.items() if len(v) > 1}
    return m, per_op(sum(rows.values())), varying


UNITS = {"_s": "s", "_us": "us", "_ms_per_1k": "ms", "_reuse": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- the run ---------------------------------------------------------------


def source_identity():
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return commit, h.hexdigest()


def reference_digest(workload, seed):
    """Output digest recorded for this workload and seed at the seed commit."""
    table = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    return table["digests"].get(workload, {}).get(str(seed))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """Import difex from this checkout's src/, and nowhere else."""
    if not (SRC / "difex" / "cli.py").is_file():
        raise SystemExit(f"bench: no difex sources under {SRC}; run from a checkout")
    for var in ("DIFEX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import difex
    import numpy

    if Path(difex.__file__).resolve().parent != SRC / "difex":
        raise SystemExit(f"bench: difex imported from {difex.__file__}, not {SRC}")
    return numpy.__version__


def main(argv=None):
    args = parse_args(argv)
    numpy_version = load_program()
    b = Bench(args.workload, args.seed, args.seconds, args.trace)
    shutil.rmtree(b.work, ignore_errors=True)
    b.work.mkdir(parents=True)
    try:
        return measure(b, numpy_version)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(b, numpy_version):
    workload = WORKLOADS[b.workload]()
    setup_s = None if b.trace else b.setup_seconds()
    t0 = time.perf_counter()
    workload.setup(b)
    inputs_s = time.perf_counter() - t0

    ops = []  # dicts: traced, wall, rss_mb, ok, reason, digest, acc, spans
    walls = {False: [], True: []}
    t_ops = time.monotonic()
    while True:
        for traced in ((False, True) if b.trace else (False,)):
            procs, check = workload.op(b, len(ops), traced)
            op = {"traced": traced, "wall": sum(p.wall for p in procs),
                  "cpu": sum(p.cpu for p in procs),
                  "rss_mb": max(p.rss_mb for p in procs), "ok": False,
                  "reason": None, "digest": None, "acc": None,
                  "spans": [p.spans for p in procs]}
            bad = [p for p in procs if p.code != 0]
            try:
                if bad:
                    raise CheckFailed(bad[0].describe())
                op["digest"], op["acc"] = check()
                first = next((o["digest"] for o in ops if o["ok"]), op["digest"])
                if op["digest"] != first:
                    raise CheckFailed("output bytes differ from the run's first operation")
                op["ok"] = True
            except CheckFailed as exc:
                op["reason"] = str(exc)
            except (OSError, ValueError, KeyError) as exc:
                op["reason"] = f"unreadable output: {exc!r}"
            ops.append(op)
            walls[traced].append(op["wall"])
        elapsed = time.monotonic() - t_ops
        next_op = sum(statistics.median(w) for w in walls.values() if w)
        if elapsed + next_op > b.seconds or next_op * 1.2 > b.remaining():
            break

    good = [o for o in ops if o["ok"]]
    failed = len(ops) - len(good)

    def median_wall(traced):
        pool = [o["wall"] for o in good if o["traced"] == traced] or walls[traced]
        return statistics.median(pool)

    op_s = median_wall(False)
    info = {
        "workload": b.workload, "seed": b.seed, "seconds": b.seconds,
        "trace": b.trace, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "inputs_s": inputs_s, "op_s_all": [o["wall"] for o in ops],
        "op_cpu_s_all": [o["cpu"] for o in ops],
        "traced": [o["traced"] for o in ops],
        "error_rate": failed / len(ops),
        "failures": [o["reason"] for o in ops if not o["ok"]],
        "samples_per_op": workload.samples,
    }
    info["commit"], info["src_sha256"] = source_identity()
    digest = good[0]["digest"] if good else None
    recorded = reference_digest(b.workload, b.seed)
    info["digest"] = digest
    info["digest_matches_seed_commit"] = (
        "unrecorded" if recorded is None else digest == recorded)

    if b.trace:
        traced = [o for o in good if o["traced"]]
        files = [f for o in traced for f in o["spans"]]
        metrics, rows, varying = (layer_metrics(files, len(traced)) if traced
                                  else ({}, 0, {}))
        if traced and rows != workload.trained_rows:
            info["failures"].append(f"traced forwards saw {rows} training rows, "
                                    f"expected {workload.trained_rows}")
        if varying:
            info["failures"].append(f"graph size varies within an arm: {varying}")
        metrics["trace.overhead_s"] = median_wall(True) - op_s
        values = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        accs = [o["acc"] for o in good]
        values = {
            "op_s": {"value": op_s, "unit": "s"},
            "samples_per_s": {"value": workload.samples / op_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(o["rss_mb"] for o in ops),
                            "unit": "MB"},
            "ok_rate": {"value": 1.0 - failed / len(ops), "unit": "ratio"},
            "target_acc": {"value": statistics.median(accs) if accs else 0.0,
                           "unit": "ratio"},
        }
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not info["failures"],
                      "attempted": len(ops), "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
