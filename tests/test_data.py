"""Benchmark generator invariants, dataset I/O contracts, and splits."""

import json
import time

import numpy as np
import pytest

from difex.data import (
    BenchConfig,
    DataError,
    DomainDataset,
    domain_shift_report,
    generate,
    leave_one_out,
    load_csv,
    load_dir,
    save_csv,
)
from difex.fourier import amplitude, fft, per_channel_phase


def small_cfg(**kw):
    base = dict(domains=3, classes=4, per_class=8, length=32, channels=2, seed=1)
    base.update(kw)
    return BenchConfig(**base)


# -- generation basics ----------------------------------------------------


def test_generate_is_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    for da, db in zip(a, b):
        assert da.domain == db.domain
        assert np.array_equal(da.X, db.X)
        assert np.array_equal(da.y, db.y)


def test_generate_shapes_and_balance():
    cfg = small_cfg()
    doms = generate(cfg)
    assert [ds.domain for ds in doms] == [0, 1, 2]
    for ds in doms:
        assert ds.X.shape == (cfg.samples_per_domain, cfg.channels, cfg.length)
        assert np.all(np.isfinite(ds.X))
        counts = np.bincount(ds.y, minlength=cfg.classes)
        assert np.all(counts == cfg.per_class)


def test_degenerate_domains_are_identical():
    # with every domain-varying knob off, all domains draw the same data
    m, n = 4, 32
    cfg = BenchConfig(
        domains=m, classes=4, per_class=6, length=n, seed=3,
        noise_sigma=np.zeros(m), envelopes=np.ones((m, n)),
        decoy_bins=[], stable_bins=[],
    )
    doms = generate(cfg)
    for ds in doms[1:]:
        assert np.array_equal(doms[0].X, ds.X)
        assert np.array_equal(doms[0].y, ds.y)


def test_noiseless_phase_equal_across_domains_at_pattern_bins():
    cfg = small_cfg(per_class=6, noise_sigma=np.zeros(3))
    doms = generate(cfg)
    for cls in range(cfg.classes):
        bins = [b for b, _ in cfg.patterns[cls]]
        rows = np.flatnonzero(doms[0].y == cls)
        base = np.stack([per_channel_phase(doms[0].X[r]) for r in rows])
        for ds in doms[1:]:
            other = np.stack([per_channel_phase(ds.X[r]) for r in rows])
            diff = np.abs(base[..., bins] - other[..., bins])
            diff = np.minimum(diff, 2.0 * np.pi - diff)
            assert diff.max() < 1e-9


def test_mean_amplitude_ratios_follow_the_envelopes():
    # Monte-Carlo with ~200 samples per domain: the measured cross-domain
    # amplitude ratio tracks the configured envelope ratio within 10%
    cfg = BenchConfig(per_class=34, seed=5)
    doms = generate(cfg)
    half = cfg.length // 2
    means = []
    for ds in doms:
        amps = [
            amplitude(fft(ds.X[i, ch]))
            for i in range(len(ds))
            for ch in range(cfg.channels)
        ]
        means.append(np.mean(amps, axis=0))
    for i in range(cfg.domains):
        for j in range(cfg.domains):
            if i == j:
                continue
            measured = means[i][1:half] / means[j][1:half]
            configured = cfg.envelopes[i][1:half] / cfg.envelopes[j][1:half]
            assert np.abs(measured / configured - 1.0).max() < 0.10


def test_phase_deviation_shrinks_with_noise():
    bins = sorted({b for pat in small_cfg().patterns for b, _ in pat})
    base = generate(small_cfg(noise_sigma=np.zeros(3)))

    def deviation(sigma):
        noisy = generate(small_cfg(noise_sigma=np.full(3, sigma)))
        total = []
        for dn, d0 in zip(noisy, base):
            pn = np.stack([per_channel_phase(x) for x in dn.X])
            p0 = np.stack([per_channel_phase(x) for x in d0.X])
            diff = np.abs(pn[..., bins] - p0[..., bins])
            total.append(np.minimum(diff, 2.0 * np.pi - diff).mean())
        return float(np.mean(total))

    d = {s: deviation(s) for s in (0.3, 0.1, 0.03)}
    assert d[0.3] > d[0.1] > d[0.03]


def test_shift_probe_reports_both_views():
    doms = generate(small_cfg(per_class=12))
    report = domain_shift_report(doms, steps=40)
    assert set(report) == {"amp", "phase"}
    for v in report.values():
        assert 0.0 <= v <= 1.0


# -- config validation ----------------------------------------------------


def test_config_rejects_basic_misuse():
    with pytest.raises(DataError):
        BenchConfig(domains=0)
    with pytest.raises(DataError):
        BenchConfig(classes=1)
    with pytest.raises(DataError):
        BenchConfig(length=24)  # not a power of two
    with pytest.raises(DataError):
        BenchConfig(length=2)
    with pytest.raises(DataError):
        BenchConfig(channels=0)
    with pytest.raises(DataError, match="per_class = 0"):
        BenchConfig(per_class=0)
    with pytest.raises(DataError, match="seed"):
        BenchConfig(seed=-1)


def test_config_rejects_bad_envelopes_and_noise():
    with pytest.raises(DataError, match="envelopes"):
        small_cfg(envelopes=np.ones((2, 32)))
    with pytest.raises(DataError, match="positive"):
        small_cfg(envelopes=np.zeros((3, 32)))
    with pytest.raises(DataError, match="noise"):
        small_cfg(noise_sigma=np.full(3, -0.1))
    with pytest.raises(DataError, match="noise"):
        small_cfg(noise_sigma=np.zeros(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="noise"):
            small_cfg(noise_sigma=np.full(3, bad))
        with pytest.raises(DataError, match="noise"):
            small_cfg(noise_sigma=bad)
    # one value stands for every domain
    assert np.array_equal(small_cfg(noise_sigma=0.3).noise_sigma, np.full(3, 0.3))


def test_config_rejects_bad_code_layout():
    with pytest.raises(DataError, match="collides"):
        small_cfg(decoy_bins=[2, 5, 8])  # 8 is a pattern bin at length 32
    with pytest.raises(DataError, match="duplicate"):
        small_cfg(decoy_bins=[3, 3, 6])
    with pytest.raises(DataError, match="outside"):
        small_cfg(stable_bins=[16])
    # two bins give 2 usable codewords, too few for 4 classes
    with pytest.raises(DataError, match="need more than"):
        small_cfg(decoy_bins=[3, 6])
    with pytest.raises(DataError, match="need more than"):
        small_cfg(stable_bins=[4, 7])


@pytest.mark.parametrize("classes", [2, 3, 6, 14])
@pytest.mark.parametrize("length", [4, 8, 16, 32, 64, 128])
def test_derived_patterns_and_codes_are_well_formed(classes, length):
    cfg = BenchConfig(domains=3, classes=classes, per_class=1, length=length)
    keys = [tuple(pat) for pat in cfg.patterns]
    assert len(keys) == classes and len(set(keys)) == classes
    pattern_bins = {b for pat in cfg.patterns for b, _ in pat}
    assert all(1 <= b < length // 2 for b in pattern_bins)
    if cfg.decoy_bins:
        assert cfg.decoy_maps.shape == (3, classes)
        for row in cfg.decoy_maps:
            assert sorted(row.tolist()) == list(range(1, classes + 1))
        assert cfg.decoy_maps.max() < 2 ** len(cfg.decoy_bins)
    if cfg.stable_bins:
        assert sorted(cfg.stable_words.tolist()) == list(range(1, classes + 1))
        assert cfg.stable_words.max() < 2 ** len(cfg.stable_bins)
    decoy, stable = set(cfg.decoy_bins), set(cfg.stable_bins)
    assert len(decoy) == len(cfg.decoy_bins) and len(stable) == len(cfg.stable_bins)
    assert not (decoy & pattern_bins) and not (stable & (pattern_bins | decoy))


def test_short_signals_drop_the_codes_gracefully():
    # at length 8 there is no room beside the pattern bins; both codes
    # must disable themselves rather than fail
    cfg = BenchConfig(domains=2, classes=3, per_class=4, length=8, seed=0)
    assert cfg.decoy_bins == [] and cfg.stable_bins == []
    doms = generate(cfg)
    assert doms[0].X.shape == (12, 2, 8)


def test_larger_signals_keep_code_room():
    cfg = BenchConfig(length=64, per_class=2)
    assert len(cfg.decoy_bins) >= 3 and len(cfg.stable_bins) >= 3
    taken = {b for pat in cfg.patterns for b, _ in pat}
    assert not (set(cfg.decoy_bins) & taken)
    assert not (set(cfg.stable_bins) & (taken | set(cfg.decoy_bins)))


# -- splits ---------------------------------------------------------------


def test_leave_one_out_partitions_domains():
    doms = generate(small_cfg())
    sources, target = leave_one_out(doms, 1)
    assert [ds.domain for ds in sources] == [0, 2]
    assert target.domain == 1
    covered = set()
    for t in range(3):
        src, tgt = leave_one_out(doms, t)
        assert {ds.domain for ds in src} | {tgt.domain} == {0, 1, 2}
        covered.add(tgt.domain)
    assert covered == {0, 1, 2}


def test_leave_one_out_rejects_bad_target():
    doms = generate(small_cfg())
    with pytest.raises(DataError):
        leave_one_out(doms, 5)
    with pytest.raises(DataError):
        leave_one_out(doms[:1], 0)


# -- CSV I/O --------------------------------------------------------------


def test_csv_round_trip_is_lossless(tmp_path):
    ds = generate(small_cfg())[1]
    path = tmp_path / "domain_1.csv"
    save_csv(ds, path)
    back = load_csv(path, channels=2)
    assert back.domain == ds.domain
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_csv_header_format(tmp_path):
    ds = generate(small_cfg(per_class=1))[0]
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("domain,label,f_0,f_1,")
    assert first.split(",")[-1] == "f_63"


def test_csv_10k_rows_round_trip_under_a_second(tmp_path):
    cfg = BenchConfig(domains=4, classes=5, per_class=125, seed=3)
    doms = generate(cfg)
    t0 = time.monotonic()
    for i, ds in enumerate(doms):
        save_csv(ds, tmp_path / f"domain_{i}.csv")
    back = [
        load_csv(tmp_path / f"domain_{i}.csv", channels=cfg.channels)
        for i in range(4)
    ]
    assert time.monotonic() - t0 < 1.0
    for ds, b in zip(doms, back):
        assert np.array_equal(ds.X, b.X)


def test_save_csv_writes_each_value_as_repr_of_its_float(tmp_path):
    X = np.array([[[-0.0, 5e-324, 1e-05]], [[1e16, 123456789.0, -2.5]]])
    ds = DomainDataset(7, X, np.array([0, 3]))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    lines = ["domain,label,f_0,f_1,f_2"]
    for label, row in zip((0, 3), X.reshape(2, -1)):
        lines.append("7," + str(label) + "," + ",".join(repr(float(v)) for v in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert lines[1] == "7,0,-0.0,5e-324,1e-05"
    assert lines[2] == "7,3,1e+16,123456789.0,-2.5"


def _write_dir(path, datasets, order=None):
    names = [f"domain_{ds.domain}.csv" for ds in datasets]
    for ds, name in zip(datasets, names):
        save_csv(ds, path / name)
    files = names if order is None else [names[i] for i in order]
    (path / "manifest.json").write_text(json.dumps({"channels": 2, "files": files}))


def test_load_dir_with_domains_keeps_only_those_in_manifest_order(tmp_path):
    _write_dir(tmp_path, generate(small_cfg(per_class=2)), order=[2, 0, 1])
    full = load_dir(tmp_path)
    assert [ds.domain for ds in full] == [2, 0, 1]
    for wanted in ({0}, {1}, {2}, {2, 0}, {0, 1, 2}, {5}, set()):
        picked = load_dir(tmp_path, domains=wanted)
        expect = [ds for ds in full if ds.domain in wanted]
        assert [ds.domain for ds in picked] == [ds.domain for ds in expect]
        for a, b in zip(picked, expect):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_load_dir_matches_domain_ids_numerically(tmp_path):
    ds = generate(small_cfg(per_class=1))[1]
    _write_dir(tmp_path, [ds])
    path = tmp_path / "domain_1.csv"
    lines = path.read_text().splitlines()
    # "1,0,..." -> "1.0,0,..." on every data row
    path.write_text("\n".join([lines[0]] + ["1.0" + ln[1:] for ln in lines[1:]]) + "\n")
    (back,) = load_dir(tmp_path, domains={1})
    assert back.domain == 1 and np.array_equal(back.X, ds.X)
    assert load_dir(tmp_path, domains={0}) == []


def test_load_dir_with_domains_loads_what_it_cannot_rule_out(tmp_path):
    _write_dir(tmp_path, generate(small_cfg(per_class=1))[:2])
    bad = tmp_path / "domain_1.csv"
    # a first-row domain that does not parse, a file with only its header,
    # a file that cannot be read: each is loaded, so each fails as before
    lines = bad.read_text().splitlines()
    for text in ["\n".join([lines[0], "one" + lines[1][1:]]) + "\n",
                 lines[0] + "\n"]:
        bad.write_text(text)
        with pytest.raises(DataError, match="domain_1"):
            load_dir(tmp_path, domains={0})
    bad.unlink()
    with pytest.raises(DataError, match="cannot read"):
        load_dir(tmp_path, domains={0})
    # a late bad row of a file whose first row names another domain is
    # never parsed
    _write_dir(tmp_path, generate(small_cfg(per_class=1))[:2])
    bad.write_text(bad.read_text() + "1,0,oops\n")
    assert [ds.domain for ds in load_dir(tmp_path, domains={0})] == [0]
    with pytest.raises(DataError, match="domain_1"):
        load_dir(tmp_path, domains={1})


def test_load_dir_with_domains_reads_two_lines_of_a_wide_file(tmp_path):
    # domain 1's header alone is 68,902 characters; its last row is bad
    save_csv(DomainDataset(0, np.zeros((2, 2, 3)), np.array([0, 1])),
             tmp_path / "domain_0.csv")
    wide = tmp_path / "domain_1.csv"
    save_csv(DomainDataset(1, np.zeros((2, 2, 5000)), np.array([0, 1])), wide)
    assert len(wide.read_text().splitlines()[0]) == 68902
    with open(wide, "a", encoding="utf-8") as fh:
        fh.write("1,0," + "0.0," * 9999 + "oops\n")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"channels": 2, "files": ["domain_0.csv", "domain_1.csv"]}))
    assert [ds.domain for ds in load_dir(tmp_path, domains={0})] == [0]
    with pytest.raises(DataError, match="bad number 'oops'"):
        load_dir(tmp_path, domains={1})


def test_config_rejects_sizes_beyond_the_ceiling():
    for kw in (dict(domains=10**12), dict(per_class=10**12)):
        with pytest.raises(DataError, match="limit"):
            small_cfg(**kw)


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("domain,label,f_0,f_1\n0,0,1.0,2.0\n0,1,3.0\n")
    with pytest.raises(DataError, match=r"bad\.csv:3"):
        load_csv(path, channels=1)
    path.write_text("domain,label,f_0,f_1\n0,0,1.0,oops\n")
    with pytest.raises(DataError, match=r"bad\.csv:2.*oops"):
        load_csv(path, channels=1)
    # every row's width is checked before any cell is parsed
    path.write_text("domain,label,f_0,f_1\n0,0,1.0,oops\n0,1,3.0,4.0\n0,1,3.0\n")
    with pytest.raises(DataError, match=r"bad\.csv:4: expected 4 columns, got 3"):
        load_csv(path, channels=1)


def test_csv_rejects_structural_problems(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, channels=1)
    path.write_text("domain,label,g_0\n0,0,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, channels=1)
    path.write_text("domain,label,f_0\n")
    with pytest.raises(DataError, match="no data"):
        load_csv(path, channels=1)
    path.write_text("domain,label,f_0,f_1\n0,0,1.0,2.0\n1,0,1.0,2.0\n")
    with pytest.raises(DataError, match="mixed"):
        load_csv(path, channels=1)
    path.write_text("domain,label,f_0,f_1\n0,0.5,1.0,2.0\n")
    with pytest.raises(DataError, match="labels"):
        load_csv(path, channels=1)
    path.write_text("domain,label,f_0,f_1,f_2\n0,0,1.0,2.0,3.0\n")
    with pytest.raises(DataError, match="divisible"):
        load_csv(path, channels=2)


def test_csv_channel_count_from_manifest(tmp_path):
    ds = generate(small_cfg(per_class=2))[0]
    path = tmp_path / "domain_0.csv"
    save_csv(ds, path)
    with pytest.raises(DataError, match="channel"):
        load_csv(path)  # no manifest, no explicit count
    (tmp_path / "manifest.json").write_text('{"channels": 2}')
    back = load_csv(path)
    assert back.X.shape == ds.X.shape


@pytest.mark.parametrize("domain, label, match", [
    ("inf", "0", "domain"),  # once an OverflowError traceback
    ("-inf", "0", "domain"),
    ("nan", "0", "domain"),
    ("0.5", "0", "domain"),  # once loaded as domain 0
    ("1e30", "0", "domain"),
    ("0", "inf", "labels"),  # once loaded as class -2**63
    ("0", "1e30", "labels"),
    ("0", "nan", "labels"),
    ("0", "-1", "labels"),
])
def test_csv_ids_must_be_integers_that_fit(tmp_path, domain, label, match):
    path = tmp_path / "ids.csv"
    path.write_text(f"domain,label,f_0,f_1\n{domain},{label},1.0,2.0\n")
    with pytest.raises(DataError, match=match):
        load_csv(path, channels=1)


def test_csv_ids_accept_large_and_negative_integers(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("domain,label,f_0\n-3,1e18,1.0\n-3.0,2,2.0\n")
    back = load_csv(path, channels=1)
    assert back.domain == -3
    assert back.y.tolist() == [10**18, 2]


@pytest.mark.parametrize("value", ["2.9", "true", '"2"'])
def test_csv_manifest_channel_count_must_be_an_integer(tmp_path, value):
    # int() once accepted each of these: 2.9 loaded as 2 channels, true as 1
    ds = generate(small_cfg(per_class=2))[0]
    path = tmp_path / "domain_0.csv"
    save_csv(ds, path)
    (tmp_path / "manifest.json").write_text(f'{{"channels": {value}}}')
    with pytest.raises(DataError, match="channels"):
        load_csv(path)


def test_dataset_validation():
    with pytest.raises(DataError):
        DomainDataset(0, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(DataError):
        DomainDataset(0, np.zeros((3, 2, 4)), np.zeros(2))
    with pytest.raises(DataError):
        DomainDataset(0, np.full((2, 1, 4), np.nan), np.zeros(2))
