"""End-to-end command tests: exit codes, artifacts, reproducibility."""

import concurrent.futures
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import difex.cli
from difex.cli import main
from difex.data import BenchConfig, DomainDataset, generate, load_dir, save_csv
from difex.fourier import amplitude, fft, phase, reconstruct_phase_only
from difex.model import StudentModel, TeacherModel, load_checkpoint, save_checkpoint
from difex.training import TrainConfig

GEN_CFG = """\
domains = 3
classes = 3
per_class = 6
length = 16
channels = 2
noise = 0.05
seed = 3
"""

TRAIN_CFG = """\
epochs = 2
batch_size = 12
hidden = 16
feature_dim = 8
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset, config files and a full-mode run (target 0,
    seed 1), shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = write(root / "bench.cfg", GEN_CFG)
    train_cfg = write(root / "train.cfg", TRAIN_CFG)
    data = str(root / "data")
    assert main(["generate", "--config", gen_cfg, "--out", data]) == 0
    run = str(root / "run")
    assert main(["train", data, "--config", train_cfg, "--target", "0",
                 "--seed", "1", "--out", run]) == 0
    with open(os.path.join(run, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {"root": root, "gen_cfg": gen_cfg, "train_cfg": train_cfg,
            "data": data, "run": run, "manifest": manifest}


# -- generate -------------------------------------------------------------


def test_generate_writes_per_domain_files_and_manifest(workspace):
    data = workspace["data"]
    for d in range(3):
        assert os.path.exists(os.path.join(data, f"domain_{d}.csv"))
    with open(os.path.join(data, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["files"] == ["domain_0.csv", "domain_1.csv", "domain_2.csv"]
    assert manifest["channels"] == 2 and manifest["classes"] == 3
    assert "created_at" in manifest and "build" in manifest


def test_generate_is_byte_reproducible(workspace, tmp_path):
    other = str(tmp_path / "again")
    assert main(["generate", "--config", workspace["gen_cfg"],
                 "--out", other]) == 0
    for d in range(3):
        a = open(os.path.join(workspace["data"], f"domain_{d}.csv"), "rb").read()
        b = open(os.path.join(other, f"domain_{d}.csv"), "rb").read()
        assert a == b


def test_generate_config_errors(workspace, tmp_path, capsys):
    missing = write(tmp_path / "m.cfg", "domains = 2\n")
    assert main(["generate", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    unknown = write(tmp_path / "u.cfg", GEN_CFG + "colour = red\n")
    assert main(["generate", "--config", unknown, "--out", str(tmp_path / "o")]) == 2
    bad = write(tmp_path / "b.cfg", GEN_CFG.replace("length = 16", "length = sixteen"))
    capsys.readouterr()
    assert main(["generate", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert "bad config value for 'length': 'sixteen'" in capsys.readouterr().err
    malformed = write(tmp_path / "mm.cfg", "domains 2\n")
    assert main(["generate", "--config", malformed, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key", ["domains", "per_class"])
def test_a_huge_generate_size_exits_two_without_allocating(tmp_path, capsys, key):
    line = {"domains": "domains = 3", "per_class": "per_class = 6"}[key]
    cfg = write(tmp_path / "huge.cfg",
                GEN_CFG.replace(line, f"{key} = 1000000000000"))
    out = tmp_path / "o"
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["generate", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("difex: error: ") and err.count("\n") == 1
    assert "limit" in err and "1000000000000" in err
    assert peak < 1 << 20 and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("line,message", [
    ("noise = nan", "noise_sigma must be one finite"),
    ("noise = inf", "noise_sigma must be one finite"),
    ("domains = -2", "need >=1 domain, got domains = -2"),
    ("noise = 1e308", "noise_sigma"),
])
def test_a_bad_generate_value_exits_two_without_a_directory(
        tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    old = next(ln for ln in GEN_CFG.splitlines() if ln.startswith(key + " "))
    cfg = write(tmp_path / "bad.cfg", GEN_CFG.replace(old, line))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("difex: error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_repeated_generate_config_key_exits_two(tmp_path, capsys):
    cfg = write(tmp_path / "g.cfg", GEN_CFG + "seed = 4\n")
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("difex: error: ") and ":8: repeated key 'seed'" in err


# -- train ----------------------------------------------------------------


def test_train_writes_checkpoints_metrics_manifest(workspace, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", workspace["data"], "--config", workspace["train_cfg"],
                 "--target", "0", "--seed", "1", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mode=full target=0 seed=1" in printed
    for name in ("student.ckpt", "teacher.ckpt", "metrics.csv", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    header = open(os.path.join(out, "metrics.csv")).readline().strip()
    assert header == "epoch,cls_loss,mse_loss,align_loss,exp_loss,total,val_acc"
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["config"]["mode"] == "full"
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["feature_dim"] == 8
    # the manifest holds the whole config of the run, and it reads back
    assert TrainConfig(**manifest["config"]) == TrainConfig(
        epochs=2, batch_size=12, hidden=16, feature_dim=8, seed=1, mode="full")
    assert 0.0 <= manifest["val_accuracy"] <= 1.0
    assert manifest["selected_epoch"] in (0, 1)


def test_train_erm_skips_teacher_and_trims_metrics(workspace, tmp_path):
    out = str(tmp_path / "erm")
    assert main(["train", workspace["data"], "--config", workspace["train_cfg"],
                 "--target", "0", "--mode", "erm", "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "teacher.ckpt"))
    header = open(os.path.join(out, "metrics.csv")).readline().strip()
    assert header == "epoch,cls_loss,total,val_acc"


def test_train_is_byte_reproducible(workspace, tmp_path):
    outs = [str(tmp_path / n) for n in ("a", "b")]
    for out in outs:
        assert main(["train", workspace["data"], "--config",
                     workspace["train_cfg"], "--target", "1", "--out", out]) == 0
    for name in ("student.ckpt", "teacher.ckpt", "metrics.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b
    manifests = []
    for out in outs:
        with open(os.path.join(out, "manifest.json")) as fh:
            m = json.load(fh)
        m.pop("created_at")
        manifests.append(m)
    assert manifests[0] == manifests[1]


def test_train_argument_and_data_errors(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", workspace["data"], "--target", "0", "--out", "x",
              "--mode", "dropout"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train", workspace["data"], "--out", "x"])  # --target required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # a config key, not a flag
        main(["train", workspace["data"], "--target", "0", "--out", "x",
              "--exploration", "l2"])
    assert exc.value.code == 1
    assert main(["train", str(tmp_path / "nope"), "--target", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["train", workspace["data"], "--target", "9",
                 "--out", str(tmp_path / "o")]) == 2
    unknown = write(tmp_path / "t.cfg", TRAIN_CFG + "momentum = 0.9\n")
    assert main(["train", workspace["data"], "--config", unknown,
                 "--target", "0", "--out", str(tmp_path / "o")]) == 2
    bad = write(tmp_path / "tb.cfg", TRAIN_CFG.replace("epochs = 2", "epochs = two"))
    assert main(["train", workspace["data"], "--config", bad,
                 "--target", "0", "--out", str(tmp_path / "o")]) == 2


def test_numerical_blowup_exits_three(workspace, tmp_path):
    hot = write(tmp_path / "hot.cfg", TRAIN_CFG + "lr = 1e150\n")
    with np.errstate(all="ignore"):
        code = main(["train", workspace["data"], "--config", hot,
                     "--target", "0", "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("line", [
    "hidden = 0", "lr = nan", "lr = inf", "lr = -0.001", "weight_decay = -1",
    "virtual_domains = 0", "virtual_domains = 1", "virtual_domains = -1",
])
def test_out_of_range_train_config_exits_two(workspace, tmp_path, capsys, line):
    cfg = write(tmp_path / "t.cfg", TRAIN_CFG + line + "\n")
    assert main(["train", workspace["data"], "--config", cfg,
                 "--target", "0", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("difex: error: ")


def test_train_keys_are_the_config_fields_set_by_no_flag():
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(difex.cli.TRAIN_KEYS) | {"mode", "seed"} == fields


def test_repeated_train_config_key_exits_two(workspace, tmp_path, capsys):
    cfg = write(tmp_path / "t.cfg", TRAIN_CFG + "epochs = 1\n")
    assert main(["train", workspace["data"], "--config", cfg,
                 "--target", "0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("difex: error: ") and ":5: repeated key 'epochs'" in err
    assert not os.path.exists(tmp_path / "o")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


@pytest.mark.parametrize("manifest", [
    '["domain_0.csv"]',
    '{"channels": 2, "files": 5}',
    '{"channels": "two", "files": ["domain_0.csv"]}',
    None,  # the CSV files alone are not a dataset directory
])
def test_malformed_manifest_exits_two(workspace, tmp_path, capsys, manifest):
    data = tmp_path / "data"
    data.mkdir()
    with open(os.path.join(workspace["data"], "domain_0.csv")) as fh:
        (data / "domain_0.csv").write_text(fh.read())
    if manifest is not None:
        (data / "manifest.json").write_text(manifest)
    assert main(["motivate", str(data), "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err.startswith("difex: error: ")


# -- eval -----------------------------------------------------------------


def test_eval_matches_the_training_manifest(workspace, capsys):
    run = workspace["run"]
    code = main(["eval", workspace["data"], "--checkpoint",
                 os.path.join(run, "student.ckpt"), "--target", "0"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("target=0 accuracy=")
    acc = float(line.split("=")[-1])
    assert acc == workspace["manifest"]["target_accuracy"]


def test_eval_teacher_checkpoint(workspace, capsys):
    run = workspace["run"]
    code = main(["eval", workspace["data"], "--checkpoint",
                 os.path.join(run, "teacher.ckpt"), "--target", "2"])
    assert code == 0
    acc = float(capsys.readouterr().out.strip().split("=")[-1])
    assert 0.0 <= acc <= 1.0


def test_eval_reads_only_its_target_domain(workspace, tmp_path, capsys):
    student = os.path.join(workspace["run"], "student.ckpt")
    copy = tmp_path / "data"
    shutil.copytree(workspace["data"], copy)
    lines = (copy / "domain_2.csv").read_text().splitlines()
    lines[-2] = lines[-2].rsplit(",", 1)[0] + ",oops"
    (copy / "domain_2.csv").write_text("\n".join(lines) + "\n")
    printed = []
    for data in (workspace["data"], str(copy)):
        assert main(["eval", data, "--checkpoint", student, "--target", "0"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].startswith("target=0 ")
    assert main(["eval", str(copy), "--checkpoint", student, "--target", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("difex: error: ") and "domain_2.csv" in err


def test_eval_errors(workspace, tmp_path):
    assert main(["eval", workspace["data"], "--checkpoint",
                 str(tmp_path / "none.ckpt"), "--target", "0"]) == 2
    run = workspace["run"]
    assert main(["eval", workspace["data"], "--checkpoint",
                 os.path.join(run, "student.ckpt"), "--target", "9"]) == 2


@pytest.mark.parametrize("edit", [
    lambda header: [1, "teacher"],
    lambda header: {**header, "in_dim": "wide"},
    lambda header: {**header, "shapes": 5},
], ids=["list", "in_dim", "shapes"])
def test_malformed_checkpoint_header_exits_two(workspace, tmp_path, capsys, edit):
    with open(os.path.join(workspace["run"], "teacher.ckpt"), "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(edit(header)).encode("utf-8") + b"\n" + blob)
    assert main(["eval", workspace["data"], "--checkpoint", str(bad),
                 "--target", "0"]) == 2
    assert capsys.readouterr().err.startswith("difex: error: ")


@pytest.mark.parametrize("kind, value", [
    ("student", "banana"), ("student", None), ("teacher", "raw"),
])
def test_checkpoint_input_kind_is_checked(workspace, tmp_path, capsys, kind, value):
    # 2 channels x length 16 = 32 inputs, as in the workspace dataset
    rng = np.random.default_rng(0)
    model = (StudentModel(32, 8, 4, 3, rng) if kind == "student"
             else TeacherModel(32, 8, 2, 3, rng))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, str(path))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    header["input"] = value
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["eval", workspace["data"], "--checkpoint", str(path),
                 "--target", "0"]) == 2
    assert capsys.readouterr().err.startswith("difex: error: ")


# -- ablate ---------------------------------------------------------------


def test_ablate_grid_and_thread_equivalence(workspace, tmp_path, monkeypatch):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    outs = {}
    for label, threads in (("serial", "1"), ("pool", "2")):
        out = str(tmp_path / label)
        monkeypatch.setenv("DIFEX_THREADS", threads)
        assert main(["ablate", workspace["data"], "--config",
                     workspace["train_cfg"], "--seeds", "0,1",
                     "--out", out]) == 0
        outs[label] = out
    assert pools == [2]  # the serial run starts no pool, the other one does
    lines = open(os.path.join(outs["serial"], "runs.csv")).read().splitlines()
    assert lines[0] == "target,mode,seed,target_acc,val_acc,selected_epoch"
    assert len(lines) == 1 + 3 * 5 * 2  # targets x arms x seeds
    modes = [ln.split(",")[1] for ln in lines[1:]]
    assert set(modes) == {"erm", "no-intern", "no-mutual", "no-exp", "full"}
    for name in ("runs.csv", "summary.csv", "summary.txt"):
        a = open(os.path.join(outs["serial"], name), "rb").read()
        b = open(os.path.join(outs["pool"], name), "rb").read()
        assert a == b
    summary = open(os.path.join(outs["serial"], "summary.csv")).read().splitlines()
    assert len(summary) == 6
    assert summary[0].split(",")[0] == "mode"
    assert "overall_mean" in summary[0]


def test_ablate_parses_the_train_config_once(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DIFEX_THREADS", "1")
    paths = []
    parse_config = difex.cli.parse_config

    def counted(path):
        paths.append(path)
        return parse_config(path)

    monkeypatch.setattr(difex.cli, "parse_config", counted)
    assert main(["ablate", workspace["data"], "--config", workspace["train_cfg"],
                 "--seeds", "0,1", "--out", str(tmp_path / "o")]) == 0
    assert paths == [workspace["train_cfg"]]


def test_ablate_thread_and_seed_validation(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DIFEX_THREADS", "0")
    assert main(["ablate", workspace["data"], "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("DIFEX_THREADS", "abc")
    assert main(["ablate", workspace["data"], "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("DIFEX_THREADS", "1")
    assert main(["ablate", workspace["data"], "--seeds", "x,y",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["ablate", workspace["data"], "--seeds", ",",
                 "--out", str(tmp_path / "o")]) == 2


# -- motivate -------------------------------------------------------------


def load_columns(path):
    lines = open(path).read().splitlines()
    names = lines[0].split(",")
    cells = np.array([ln.split(",") for ln in lines[1:]], dtype=object)
    return {
        name: cells[:, i].astype(float) for i, name in enumerate(names)
    }


def test_motivate_default_picks_one_sample_per_domain(workspace, tmp_path, capsys):
    out = str(tmp_path / "views.csv")
    assert main(["motivate", workspace["data"], "--out", out]) == 0
    assert "12 column groups" in capsys.readouterr().out
    cols = load_columns(out)
    names = [n for n in cols if n not in ("channel", "bin")]
    assert len(names) == 12  # 4 views x 3 domains
    for prefix in ("raw", "amp", "phase", "recon"):
        assert sum(n.startswith(prefix + "_") for n in names) == 3
    assert len(cols["bin"]) == 2 * 16  # channels x length rows


def test_motivate_phase_view_is_scale_invariant(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.normal(size=(4, 2, 16))
    data = tmp_path / "scaled"
    data.mkdir()
    save_csv(DomainDataset(0, X, np.zeros(4, dtype=int)), data / "domain_0.csv")
    save_csv(DomainDataset(1, 2.0 * X, np.zeros(4, dtype=int)), data / "domain_1.csv")
    (data / "manifest.json").write_text(
        '{"channels": 2, "files": ["domain_0.csv", "domain_1.csv"]}'
    )
    out = str(tmp_path / "v.csv")
    assert main(["motivate", str(data), "--ids", "0:1,1:1", "--out", out]) == 0
    cols = load_columns(out)
    assert np.max(np.abs(cols["phase_d0_1"] - cols["phase_d1_1"])) < 1e-12
    assert np.max(np.abs(cols["recon_d0_1"] - cols["recon_d1_1"])) < 1e-9
    assert np.max(np.abs(cols["amp_d1_1"] - 2.0 * cols["amp_d0_1"])) < 1e-9
    assert np.max(np.abs(cols["raw_d1_1"] - 2.0 * cols["raw_d0_1"])) < 1e-12


def test_motivate_amplitude_carries_the_domain_gap(tmp_path):
    # without the codes and noise, same-class samples from different
    # domains agree in phase exactly; only amplitude separates them
    cfg = BenchConfig(domains=3, classes=3, per_class=4, length=32,
                      noise_sigma=np.zeros(3), decoy_bins=[], stable_bins=[],
                      seed=2)
    data = tmp_path / "clean"
    data.mkdir()
    names = []
    for ds in generate(cfg):
        name = f"domain_{ds.domain}.csv"
        save_csv(ds, data / name)
        names.append(name)
    (data / "manifest.json").write_text(
        json.dumps({"channels": 2, "files": names})
    )
    out = str(tmp_path / "v.csv")
    assert main(["motivate", str(data), "--out", out]) == 0
    cols = load_columns(out)
    picks = sorted(
        n.split("_", 1)[1] for n in cols if n.startswith("amp_")
    )
    for i, a in enumerate(picks):
        for b in picks[i + 1:]:
            amp_gap = np.linalg.norm(cols[f"amp_{a}"] - cols[f"amp_{b}"])
            phase_gap = np.linalg.norm(cols[f"phase_{a}"] - cols[f"phase_{b}"])
            assert phase_gap < 1e-9
            assert amp_gap > 1.0


def test_motivate_csv_equals_a_per_sample_rebuild(tmp_path):
    # the default benchmark: one class-0 sample from each of four domains
    data = str(tmp_path / "data")
    assert main(["generate", "--out", data]) == 0
    out = str(tmp_path / "v.csv")
    assert main(["motivate", data, "--out", out]) == 0
    domains = load_dir(data)
    assert len(domains) == 4
    columns, names = [], []
    for ds in domains:
        i = int(np.flatnonzero(ds.y == 0)[0])
        views = {"raw": [], "amp": [], "phase": [], "recon": []}
        for ch in ds.X[i]:
            s = fft(ch)
            views["raw"].append(ch)
            views["amp"].append(amplitude(s))
            views["phase"].append(phase(s))
            views["recon"].append(reconstruct_phase_only(s))
        for group, parts in views.items():
            names.append(f"{group}_d{ds.domain}_{i}")
            columns.append(np.concatenate(parts))
    n_ch, length = domains[0].X.shape[1:]
    lines = ["channel,bin," + ",".join(names)]
    for row in range(n_ch * length):
        vals = ",".join(repr(float(c[row])) for c in columns)
        lines.append(f"{row // length},{row % length},{vals}")
    with open(out, "rb") as fh:
        assert fh.read() == ("\n".join(lines) + "\n").encode("utf-8")


def test_motivate_id_errors(workspace, tmp_path):
    out = str(tmp_path / "v.csv")
    assert main(["motivate", workspace["data"], "--ids", "9:0", "--out", out]) == 2
    assert main(["motivate", workspace["data"], "--ids", "0:999", "--out", out]) == 2
    assert main(["motivate", workspace["data"], "--ids", "zero", "--out", out]) == 2
    assert main(["motivate", workspace["data"], "--ids", ",", "--out", out]) == 2


def test_motivate_rejects_mixed_classes(workspace, tmp_path):
    # row 0 is class 0; find a row of another class in domain 0
    domains = load_dir(workspace["data"])
    other = int(np.flatnonzero(domains[0].y != domains[0].y[0])[0])
    assert main(["motivate", workspace["data"], "--ids", f"0:0,0:{other}",
                 "--out", str(tmp_path / "v.csv")]) == 2


# -- checkpoint interop ---------------------------------------------------


def test_saved_student_reloads_identically(workspace):
    run = workspace["run"]
    model, header = load_checkpoint(os.path.join(run, "student.ckpt"))
    assert header["kind"] == "student"
    assert header["seed"] == 1
    again, _ = load_checkpoint(os.path.join(run, "student.ckpt"))
    for p, q in zip(model.params(), again.params()):
        assert np.array_equal(p.data, q.data)


# -- start-up -------------------------------------------------------------


def test_importing_the_cli_loads_neither_a_pool_nor_subprocess():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import difex.cli, sys; "
            "print(sorted({'concurrent.futures', 'subprocess'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
