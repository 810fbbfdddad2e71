"""Property tests at the input boundaries, the config files, the dataset
manifest, the checkpoint header and the cells of a dataset CSV: bad
input exits 2 with a one-line error (or raises ``DataError``), never a
traceback."""

import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difex.cli import main
from difex.data import DataError, load_csv, load_dir
from difex.model import StudentModel, TeacherModel, save_checkpoint
from difex.training import MODES

# deterministic examples and no example database, so a run is repeatable
# and leaves no files behind
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

BASE_CFG = {"epochs": "1", "batch_size": "12", "hidden": "8", "feature_dim": "4"}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Three domains of 18 rows, 2 channels of length 16: 32 features."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "bench.cfg"
    cfg.write_text("domains = 3\nclasses = 3\nper_class = 6\nlength = 16\n"
                   "channels = 2\nnoise = 0.05\nseed = 3\n")
    assert main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return str(root / "data")


def _train(data_dir, values, mode, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "train.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            for key, val in {**BASE_CFG, **values}.items():
                fh.write(f"{key} = {val}\n")
        with np.errstate(all="ignore"):
            code = main(["train", data_dir, "--config", cfg, "--mode", mode,
                         "--target", "0", "--out", os.path.join(tmp, "run")])
    return code, capsys.readouterr().err


# -- training config ------------------------------------------------------

NAN, INF = math.nan, math.inf
WORDS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)


def _floats_outside(lo, hi):
    """Floats not in the open interval (lo, hi), NaN and the infinities too."""
    return st.one_of(st.sampled_from([NAN, INF, -INF, lo, hi]),
                     st.floats(max_value=lo), st.floats(min_value=hi))


# for every key, values the documented rules reject; a word fails the cast
# of a numeric key, or is one of "nan" / "inf" that the rules reject anyway
BAD_VALUES = {
    "epochs": st.one_of(st.integers(-3, 0), WORDS),
    "batch_size": st.one_of(st.integers(-3, 1), WORDS),
    "hidden": st.one_of(st.integers(-3, 0), WORDS),
    "feature_dim": st.one_of(st.integers(-3, 1), st.sampled_from([3, 5, 7]), WORDS),
    "lr": st.one_of(_floats_outside(0.0, INF), WORDS),
    "weight_decay": st.one_of(
        st.sampled_from([NAN, INF, -INF]), st.floats(max_value=-1e-300), WORDS),
    "val_fraction": st.one_of(_floats_outside(0.0, 1.0), WORDS),
    "lambda1": st.one_of(st.sampled_from([NAN, INF, -INF]),
                         st.floats(max_value=-1e-300), WORDS),
    "lambda2": st.one_of(st.sampled_from([NAN, -1.0]), WORDS),
    "lambda3": st.one_of(st.sampled_from([NAN, -INF]), WORDS),
    "exploration": WORDS,  # no digits, so never "l2" or "norm_l1"
    "virtual_domains": st.one_of(st.integers(-3, 1), WORDS),
}


@FUZZ
@given(bad=st.sampled_from(sorted(BAD_VALUES)).flatmap(
           lambda key: st.tuples(st.just(key), BAD_VALUES[key])),
       mode=st.sampled_from(MODES))
def test_a_bad_train_config_value_exits_two(data_dir, capsys, bad, mode):
    key, value = bad
    code, err = _train(data_dir, {key: value}, mode, capsys)
    assert code == 2, (key, value)
    assert err.startswith("difex: error: ") and err.count("\n") == 1


# values inside the documented ranges; a run may still not fit the data (2)
# or overflow (3), but never escape as a traceback
GOOD_VALUES = {
    "epochs": st.integers(1, 2), "batch_size": st.integers(2, 24),
    "hidden": st.integers(1, 8), "feature_dim": st.sampled_from([2, 4, 6]),
    "lr": st.floats(1e-6, 1e3), "weight_decay": st.floats(0.0, 10.0),
    "val_fraction": st.floats(0.01, 0.99),
    "lambda1": st.floats(0.0, 100.0), "lambda2": st.floats(0.0, 100.0),
    "lambda3": st.floats(0.0, 100.0),
    "exploration": st.sampled_from(["l2", "norm_l1", "norm-l1"]),
    "virtual_domains": st.integers(2, 3),
}


@settings(FUZZ, max_examples=80)
@given(values=st.fixed_dictionaries(GOOD_VALUES), mode=st.sampled_from(MODES),
       data=st.data())
def test_any_train_config_exits_cleanly(data_dir, capsys, values, mode, data):
    bad = data.draw(st.lists(st.sampled_from(sorted(BAD_VALUES)), max_size=2,
                             unique=True))
    for key in bad:
        values[key] = data.draw(BAD_VALUES[key])
    code, err = _train(data_dir, values, mode, capsys)
    assert code == 2 if bad else code in (0, 2, 3)
    if code:
        assert err.startswith("difex: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["hidden", "feature_dim"])
@pytest.mark.parametrize("value", [2**31, 10**12])
def test_a_layer_size_too_big_to_hold_exits_two(data_dir, capsys, key, value):
    for mode in MODES:
        code, err = _train(data_dir, {key: value}, mode, capsys)
        assert code == 2, mode
        assert err.startswith("difex: error: ") and err.count("\n") == 1
        assert f"{key} = {value}" in err


# -- benchmark config -----------------------------------------------------

# small values, so a config that passes generates in milliseconds
GEN_GOOD = {
    "domains": st.integers(1, 3), "classes": st.integers(2, 4),
    "per_class": st.integers(1, 3), "length": st.sampled_from([8, 16]),
    "channels": st.integers(1, 2), "seed": st.integers(0, 5),
    "noise": st.floats(0.0, 0.5),
}
# any value at all: out of range, a float for an int, a word
ANY_VALUE = st.one_of(st.integers(-2, 17).map(str), WORDS,
                      st.floats(allow_infinity=True, allow_nan=True).map(repr))
GEN_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(GEN_GOOD) + ["colour", "epochs"]),
              ANY_VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    WORDS,  # a line without "="
    st.sampled_from(["", "# a comment", "  "]),
)


def _generate(lines, capsys):
    """Exit code, stderr and whether the output directory exists after a
    `generate` with these config lines."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "bench.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "d")
        with np.errstate(all="ignore"):
            code = main(["generate", "--config", cfg, "--out", out])
        made_dir = os.path.exists(out)
    return code, capsys.readouterr().err, made_dir


@settings(FUZZ, max_examples=120)
@given(values=st.fixed_dictionaries({k: v.map(str) for k, v in GEN_GOOD.items()}),
       edited=st.dictionaries(st.sampled_from(sorted(GEN_GOOD)), ANY_VALUE,
                              max_size=2),
       dropped=st.sets(st.sampled_from(sorted(GEN_GOOD)), max_size=1),
       extra=st.lists(GEN_LINES, max_size=2))
def test_any_generate_config_exits_cleanly(capsys, values, edited, dropped, extra):
    values.update(edited)
    lines = [f"{k} = {v}" for k, v in values.items() if k not in dropped] + extra
    code, err, made_dir = _generate(lines, capsys)
    # every key exactly once, nothing else but blank lines and comments
    must_fail = dropped or any(ln.strip() and not ln.startswith("#") for ln in extra)
    assert code == 2 if must_fail else code in (0, 2)
    if code:
        assert err.startswith("difex: error: ") and err.count("\n") == 1
        assert not made_dir


# per key, negative or non-finite values the documented rules reject
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
GEN_BAD = {
    "domains": st.integers(-3, 0), "classes": st.integers(-3, 1),
    "per_class": st.integers(-3, 0), "length": st.integers(-3, -1),
    "channels": st.integers(-3, 0), "seed": st.integers(-3, -1),
    "noise": st.one_of(st.floats(max_value=-1e-300).map(repr), NON_FINITE),
}


@settings(FUZZ, max_examples=80)
@given(values=st.fixed_dictionaries({k: v.map(str) for k, v in GEN_GOOD.items()}),
       bad=st.lists(st.sampled_from(sorted(GEN_BAD)), min_size=1, max_size=2,
                    unique=True),
       data=st.data())
def test_a_negative_or_non_finite_generate_value_exits_two(capsys, values, bad, data):
    for key in bad:
        values[key] = str(data.draw(st.one_of(GEN_BAD[key], NON_FINITE)))
    code, err, made_dir = _generate([f"{k} = {v}" for k, v in values.items()], capsys)
    assert code == 2, values
    assert err.startswith("difex: error: ") and err.count("\n") == 1
    assert any(key in err for key in bad), err
    assert not made_dir


# -- checkpoint header ----------------------------------------------------


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Paths of a student and a teacher checkpoint that fit ``data_dir``."""
    root = tmp_path_factory.mktemp("ckpt")
    rng = np.random.default_rng(0)
    out = {}
    for model in (StudentModel(32, 8, 4, 3, rng), TeacherModel(32, 8, 2, 3, rng)):
        out[model.kind] = str(root / f"{model.kind}.ckpt")
        save_checkpoint(model, out[model.kind], seed=0)
    return out


def _read(path):
    with open(path, "rb") as fh:
        return json.loads(fh.readline()), fh.read()


def _eval(data_dir, header_line, blob, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as fh:
            fh.write(header_line + b"\n" + blob)
        code = main(["eval", data_dir, "--checkpoint", path, "--target", "0"])
    return code, capsys.readouterr().err


DELETE = object()
# header fields the loader reads, per kind; it ignores any other
READ = {
    "student": {"format", "kind", "input", "in_dim", "hidden", "d", "classes",
                "shapes"},
    "teacher": {"format", "kind", "input", "in_dim", "hidden", "feat_dim",
                "classes", "shapes"},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8,
)


# sizes no model could be built at
HUGE = [2**31, 10**12]


@settings(FUZZ, max_examples=150)
@given(kind=st.sampled_from(["student", "teacher"]),
       key=st.sampled_from(["format", "kind", "input", "in_dim", "hidden", "d",
                            "feat_dim", "classes", "shapes", "seed", "extra"]),
       value=st.one_of(st.just(DELETE), st.sampled_from(["raw", "phase"]),
                       st.sampled_from(HUGE), JSON_VALUES))
def test_an_edited_checkpoint_header_exits_zero_or_two(
        data_dir, checkpoints, capsys, kind, key, value):
    header, blob = _read(checkpoints[kind])
    original = header.get(key, DELETE)
    if value is DELETE:
        header.pop(key, None)
    else:
        header[key] = value
    code, err = _eval(data_dir, json.dumps(header).encode("utf-8"), blob, capsys)
    if key not in READ[kind]:
        ok = True
    elif key == "input":
        # a missing field means the kind's own input
        ok = value in (DELETE, "phase") or (kind, value) == ("student", "raw")
    else:
        # same JSON, same type: 1.0 or true is no stand-in for 1
        ok = value is not DELETE and json.dumps(value) == json.dumps(original)
    assert code == (0 if ok else 2), (kind, key, value)
    if code:
        assert err.startswith("difex: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["student", "teacher"])
@pytest.mark.parametrize("value", HUGE)
def test_a_huge_checkpoint_dim_exits_two(data_dir, checkpoints, capsys, kind, value):
    header, blob = _read(checkpoints[kind])
    width = "d" if kind == "student" else "feat_dim"
    for key in ("in_dim", "hidden", width, "classes"):
        line = json.dumps({**header, key: value}).encode("utf-8")
        code, err = _eval(data_dir, line, blob, capsys)
        assert code == 2, key
        assert err.startswith("difex: error: checkpoint blob is ")
        assert err.count("\n") == 1


def _weights(path):
    header, blob = _read(path)
    return json.dumps(header).encode("utf-8"), np.frombuffer(blob, "<f8").copy()


@FUZZ
@given(kind=st.sampled_from(["student", "teacher"]),
       value=st.sampled_from([NAN, INF, -INF]), data=st.data())
def test_a_non_finite_checkpoint_weight_exits_two(
        data_dir, checkpoints, capsys, kind, value, data):
    line, weights = _weights(checkpoints[kind])
    weights[data.draw(st.integers(0, weights.size - 1))] = value
    code, err = _eval(data_dir, line, weights.astype("<f8").tobytes(), capsys)
    assert code == 2
    assert err.startswith("difex: error: checkpoint parameter ")
    assert err.count("\n") == 1


@FUZZ
@given(kind=st.sampled_from(["student", "teacher"]),
       scale=st.one_of(st.just(1e300), st.floats(1.0, 1e300)))
def test_huge_finite_checkpoint_weights_exit_zero_or_three(
        data_dir, checkpoints, capsys, kind, scale):
    # under "error" a numpy overflow warning would escape main as an exception
    line, weights = _weights(checkpoints[kind])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _eval(data_dir, line, (weights * scale).astype("<f8").tobytes(),
                          capsys)
    assert code in (0, 3), scale
    if code:
        assert err.startswith("difex: numerical failure: ") and err.count("\n") == 1
    else:
        assert err == ""


@FUZZ
@given(line=st.binary(max_size=64).filter(lambda b: b"\n" not in b))
def test_a_garbled_checkpoint_header_exits_two(data_dir, checkpoints, capsys, line):
    code, err = _eval(data_dir, line, _read(checkpoints["student"])[1], capsys)
    assert code == 2
    assert err.startswith("difex: error: ")


# -- dataset manifest -----------------------------------------------------


@pytest.fixture(scope="module")
def bare_dir(data_dir, tmp_path_factory):
    """The CSV files of ``data_dir`` without their manifest."""
    root = tmp_path_factory.mktemp("bare")
    for d in range(3):
        shutil.copy(os.path.join(data_dir, f"domain_{d}.csv"), root)
    return str(root)


REAL = st.sampled_from([f"domain_{d}.csv" for d in range(3)])
NAMES = st.one_of(REAL, st.text(max_size=6),
                  st.sampled_from(["", ".", "manifest.json"]))


def _or_else(good, *other):
    # half the draws from ``good``: a nested one_of would be flattened
    return st.one_of(good, st.one_of(*other).map(lambda v: v))


@settings(FUZZ, max_examples=150)
@given(files=_or_else(st.lists(REAL, min_size=1, max_size=4),
                      st.lists(NAMES, max_size=4), st.just(DELETE), JSON_VALUES),
       channels=_or_else(st.sampled_from([1, 2, 4]), st.just(DELETE),
                         st.sampled_from([0, 3, 64, True, 2.0]), JSON_VALUES),
       wanted=st.one_of(st.none(), st.sets(st.integers(-1, 3), max_size=3)))
def test_a_manifest_loads_or_raises_data_error(bare_dir, files, channels, wanted):
    manifest = {k: v for k, v in (("files", files), ("channels", channels))
                if v is not DELETE}
    with open(os.path.join(bare_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    try:
        domains = load_dir(bare_dir, domains=wanted)
    except DataError:
        return
    # what loads is every listed file of a wanted domain, in order, with a
    # real channel count
    assert type(channels) is int and channels >= 1
    assert [ds.domain for ds in domains] == [
        int(f[7]) for f in files if wanted is None or int(f[7]) in wanted]
    assert all(ds.X.shape[1:] == (channels, 32 // channels) for ds in domains)


# -- CSV cells ------------------------------------------------------------

ID_CELLS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),  # nan, inf, fractions, 1e+30, -0.0
    st.text("0123456789.-+eEinfa_ ", max_size=8),
)


@FUZZ
@given(cells=st.lists(ID_CELLS, min_size=4, max_size=4))
def test_csv_id_cells_load_or_raise_data_error(cells):
    (d0, l0), (d1, l1) = cells[:2], cells[2:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "domain.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"domain,label,f_0\n{d0},{l0},1.0\n{d1},{l1},2.0\n")
        try:
            ds = load_csv(path, channels=1)
        except DataError:
            return
    # what loads is exactly the numbers written, as non-negative classes
    assert ds.domain == float(d0) == float(d1)
    assert ds.y.tolist() == [float(l0), float(l1)]
    assert ds.y.min() >= 0


FEATURE_CELLS = st.one_of(
    st.floats().map(repr),  # nan, inf, 1e+308, -0.0
    st.integers(-2**70, 2**70).map(str),
    st.text("0123456789.-+eEinfa_ x", max_size=8),
)


@FUZZ
@given(cells=st.lists(FEATURE_CELLS, min_size=4, max_size=4))
def test_csv_feature_cells_load_or_raise_data_error(cells):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "domain.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("domain,label,f_0,f_1\n"
                     f"0,0,{cells[0]},{cells[1]}\n0,1,{cells[2]},{cells[3]}\n")
        try:
            ds = load_csv(path, channels=1)
        except DataError:
            return
    # what loads is exactly the numbers written, all of them finite
    assert ds.X.reshape(-1).tolist() == [float(c) for c in cells]
    assert np.all(np.isfinite(ds.X))
