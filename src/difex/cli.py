"""Command-line surface: generate, train, ablate, motivate, eval.

Exit codes: 0 success, 1 usage error, 2 data or config error,
3 numerical failure (a NaN or Inf reached a tensor).

Every command is deterministic given its config and seed; timestamps
appear only inside manifest files, never in data outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .autodiff import NonFiniteError
from .data import BenchConfig, DataError, generate, load_dir, save_csv
from .fourier import row_views
from .model import load_checkpoint, save_checkpoint
from .training import MODES, TrainConfig, evaluate, run_arms, run_leave_one_out

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

ABLATION_ARMS = ("erm", "no-intern", "no-mutual", "no-exp", "full")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- config files --------------------------------------------------------


def parse_config(path):
    """Flat `key = value` lines; blank lines and # comments ignored; a
    key may appear once."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected `key = value`")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise DataError(f"{path}:{ln}: repeated key {key!r}")
        out[key] = val
    return out


def _read_config(path, casts, required):
    """The keys of a config file, each cast by its entry in ``casts``.
    Unknown keys are errors, and so are missing ones when ``required``."""
    raw = parse_config(path)
    unknown = set(raw) - set(casts)
    if unknown:
        raise DataError(f"unknown config key {sorted(unknown)[0]!r}")
    vals = {}
    for key, cast in casts.items():
        if key not in raw:
            if required:
                raise DataError(f"missing config key {key!r}")
            continue
        try:
            vals[key] = cast(raw[key])
        except ValueError:
            raise DataError(f"bad config value for {key!r}: {raw[key]!r}") from None
    return vals


GENERATE_KEYS = {
    "domains": int, "classes": int, "per_class": int, "length": int,
    "channels": int, "noise": float, "seed": int,
}


def _bench_config(config_path):
    if config_path is None:
        return BenchConfig()
    vals = _read_config(config_path, GENERATE_KEYS, required=True)
    return BenchConfig(noise_sigma=vals.pop("noise"), **vals)


# TrainConfig's fields, except mode and seed (flags), each with its cast
TRAIN_KEYS = {
    "epochs": int, "batch_size": int, "lr": float, "weight_decay": float,
    "lambda1": float, "lambda2": float, "lambda3": float,
    "exploration": lambda s: s.replace("-", "_"), "val_fraction": float,
    "virtual_domains": int, "hidden": int, "feature_dim": int,
}


def _train_config(config_path, mode, seed):
    vals = _read_config(config_path, TRAIN_KEYS, required=False) if config_path else {}
    return TrainConfig(seed=seed, mode=mode, **vals)


def _build_id():
    import subprocess  # only manifests need it; keeps it out of start-up

    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    return f"difex-{__version__}"


def _write_manifest(path, payload):
    payload = dict(payload)
    payload["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    payload["build"] = _build_id()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands ---------------------------------------------------------


def cmd_generate(args):
    cfg = _bench_config(args.config)
    datasets = generate(cfg)
    # only once every sample exists, so a failed run leaves no directory
    os.makedirs(args.out, exist_ok=True)
    files = []
    for ds in datasets:
        name = f"domain_{ds.domain}.csv"
        save_csv(ds, os.path.join(args.out, name))
        files.append(name)
    _write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "generate",
        "domains": cfg.domains, "classes": cfg.classes,
        "per_class": cfg.per_class, "length": cfg.length,
        "channels": cfg.channels, "seed": cfg.seed,
        "noise_sigma": list(cfg.noise_sigma),
        "patterns": [[[b, p] for b, p in pat] for pat in cfg.patterns],
        "envelopes": [list(row) for row in cfg.envelopes],
        "files": files,
    })
    print(f"wrote {len(files)} domain files "
          f"({cfg.samples_per_domain} rows each) to {args.out}")
    return EXIT_OK


def write_table(rows, path):
    """A CSV of dict rows; the columns are the keys of the first row, in
    its order. Values are written with ``str``, which for a float is its
    shortest round-trip repr."""
    cols = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


def cmd_train(args):
    domains = load_dir(args.data)
    cfg = _train_config(args.config, args.mode, args.seed)
    result = run_leave_one_out(domains, args.target, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(result.model, os.path.join(args.out, "student.ckpt"),
                    seed=cfg.seed)
    if result.teacher is not None:
        save_checkpoint(result.teacher, os.path.join(args.out, "teacher.ckpt"),
                        seed=cfg.seed)
    write_table(result.metrics, os.path.join(args.out, "metrics.csv"))
    _write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "train",
        "data": os.path.abspath(args.data),
        "target": args.target,
        "config": dataclasses.asdict(cfg),
        "selected_epoch": result.selected_epoch,
        "val_accuracy": result.val_accuracy,
        "target_accuracy": result.target_accuracy,
    })
    print(f"mode={cfg.mode} target={args.target} seed={cfg.seed} "
          f"val_acc={result.val_accuracy:.4f} "
          f"target_acc={result.target_accuracy:.4f}")
    return EXIT_OK


def _ablate_cell(payload):
    """The rows of every arm for one (target, seed) pair."""
    domains, target, cfg = payload
    results = run_arms(domains, target, cfg, ABLATION_ARMS)
    return [{
        "target": target, "mode": arm, "seed": cfg.seed,
        "target_acc": result.target_accuracy,
        "val_acc": result.val_accuracy,
        "selected_epoch": result.selected_epoch,
    } for arm, result in zip(ABLATION_ARMS, results)]


def _worker_count(n_cells):
    raw = os.environ.get("DIFEX_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise DataError(f"DIFEX_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise DataError("DIFEX_THREADS must be >= 1")
    return max(1, min(cap, n_cells))


def cmd_ablate(args):
    domains = load_dir(args.data)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise DataError(f"bad --seeds list {args.seeds!r}") from None
    if not seeds:
        raise DataError("no seeds given")
    cfg = _train_config(args.config, "full", seeds[0])
    targets = sorted(ds.domain for ds in domains)
    grid = [
        (domains, t, dataclasses.replace(cfg, seed=s))
        for t in targets for s in seeds
    ]
    workers = _worker_count(len(grid))
    if workers > 1:
        # imported here so a serial run or any other command never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_ablate_cell, grid))
    else:
        cells = [_ablate_cell(cell) for cell in grid]
    rows = [r for cell in cells for r in cell]
    rows.sort(key=lambda r: (r["target"], ABLATION_ARMS.index(r["mode"]), r["seed"]))

    os.makedirs(args.out, exist_ok=True)
    write_table(rows, os.path.join(args.out, "runs.csv"))

    # per arm, (mean, std) of target_acc on each target, then over all of them
    summary = {}
    for arm in ABLATION_ARMS:
        groups = [[r["target_acc"] for r in rows
                   if r["mode"] == arm and r["target"] == t] for t in targets]
        groups.append([acc for g in groups for acc in g])
        summary[arm] = [(float(np.mean(g)), float(np.std(g))) for g in groups]
    names = [f"target_{t}" for t in targets] + ["overall"]
    summary_rows = []
    for arm, stats in summary.items():
        row = {"mode": arm}
        for name, (mean, std) in zip(names, stats):
            row[f"{name}_mean"], row[f"{name}_std"] = mean, std
        summary_rows.append(row)
    write_table(summary_rows, os.path.join(args.out, "summary.csv"))
    lines = [f"{'mode':<10}" + "".join(f"target {t:<12}" for t in targets)
             + "overall"]
    for arm, stats in summary.items():
        lines.append(f"{arm:<10}" + "  ".join(f"{m:.4f}±{s:.4f}" for m, s in stats))
    table = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    _write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "ablate",
        "data": os.path.abspath(args.data),
        "seeds": seeds,
        "arms": list(ABLATION_ARMS),
        "targets": targets,
        "config": dataclasses.asdict(cfg),
        "runs": rows,
    })
    print(table, end="")
    return EXIT_OK


def _parse_ids(spec_str, domains):
    by_domain = {ds.domain: ds for ds in domains}
    picks = []
    for token in spec_str.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            raise DataError(f"bad id {token!r}; expected DOMAIN:INDEX")
        d_str, i_str = token.split(":", 1)
        try:
            d, i = int(d_str), int(i_str)
        except ValueError:
            raise DataError(f"bad id {token!r}; expected DOMAIN:INDEX") from None
        if d not in by_domain:
            raise DataError(f"id {token!r} not found: no domain {d}")
        ds = by_domain[d]
        if not 0 <= i < len(ds):
            raise DataError(f"id {token!r} not found: domain {d} has {len(ds)} rows")
        picks.append((d, i))
    if not picks:
        raise DataError("no sample ids given")
    return picks


def cmd_motivate(args):
    domains = load_dir(args.data)
    by_domain = {ds.domain: ds for ds in domains}
    if args.ids:
        picks = _parse_ids(args.ids, domains)
    else:
        # default: the first class-0 sample of every domain
        picks = []
        for ds in domains:
            rows = np.flatnonzero(ds.y == 0)
            if rows.size:
                picks.append((ds.domain, int(rows[0])))
        if len(picks) < 1:
            raise DataError("no class-0 samples to pick by default")
    classes = {int(by_domain[d].y[i]) for d, i in picks}
    if len(classes) > 1:
        raise DataError(f"samples span classes {sorted(classes)}; pick one class")
    n_ch, length = by_domain[picks[0][0]].X.shape[1:]
    if any(by_domain[d].X.shape[1:] != (n_ch, length) for d, _ in picks):
        raise DataError("samples have inconsistent shapes")
    # picks x channels x length; every channel of every pick in one transform
    raw = np.stack([by_domain[d].X[i] for d, i in picks])
    views = (("raw", raw),) + tuple(zip(("amp", "phase", "recon"), row_views(raw)))
    columns, names = [], []
    for k, (d, i) in enumerate(picks):
        for group, view in views:
            names.append(f"{group}_d{d}_{i}")
            columns.append(view[k].reshape(-1))
    # one row per (channel, bin), as Python floats for repr
    table = np.stack(columns, axis=1).tolist()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("channel,bin," + ",".join(names) + "\n")
        for row, vals in enumerate(table):
            fh.write(f"{row // length},{row % length},{','.join(map(repr, vals))}\n")
    print(f"wrote {4 * len(picks)} column groups "
          f"({len(picks)} sample(s)) to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    model, _ = load_checkpoint(args.checkpoint)
    matches = load_dir(args.data, domains={args.target})
    if not matches:
        raise DataError(f"target domain {args.target} not in dataset")
    acc = evaluate(model, matches)
    print(f"target={args.target} accuracy={acc!r}")
    return EXIT_OK


# -- argument wiring -----------------------------------------------------


def build_parser():
    parser = _Parser(prog="difex",
                     description="Domain-generalization experiments: "
                                 "phase-teacher distillation, correlation "
                                 "alignment, feature exploration.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("generate", help="write a synthetic benchmark to CSV")
    p.add_argument("--config", help="flat key=value benchmark config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_generate)

    def common(p):
        p.add_argument("data", help="dataset directory (from `generate`)")
        p.add_argument("--config", help="flat key=value training config")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="one leave-one-domain-out training run")
    common(p)
    p.add_argument("--target", type=int, required=True, help="held-out domain id")
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="full target x arm x seed grid")
    common(p)
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated seed list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("motivate",
                       help="emit raw/amplitude/phase/reconstruction columns")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--ids", help="comma-separated DOMAIN:INDEX sample ids")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_motivate)

    p = sub.add_parser("eval", help="re-score a saved checkpoint")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteError as exc:
        print(f"difex: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, KeyError, OSError) as exc:
        print(f"difex: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
