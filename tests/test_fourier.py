"""Transform correctness against the naive-sum oracle, plus the analytic
properties the rest of the pipeline leans on (Parseval, round trips,
phase scaling invariance, dead-bin handling)."""

import numpy as np
import pytest

from difex.fourier import (
    Spectrum,
    _forward_c,
    amplitude,
    dft_naive,
    fft,
    fft2,
    fft_inverse,
    per_channel_phase,
    phase,
    reconstruct_phase_only,
    row_views,
)


def spectrum_diff(a: Spectrum, b: Spectrum) -> float:
    return max(np.abs(a.re - b.re).max(), np.abs(a.im - b.im).max())


def double_sum_2d(x: np.ndarray) -> Spectrum:
    """O(N^4) literal evaluation of the 2-D transform definition."""
    h_n, w_n = x.shape
    re = np.zeros((h_n, w_n))
    im = np.zeros((h_n, w_n))
    for u in range(h_n):
        for v in range(w_n):
            for h in range(h_n):
                for w in range(w_n):
                    ang = -2.0 * np.pi * (u * h / h_n + v * w / w_n)
                    re[u, v] += x[h, w] * np.cos(ang)
                    im[u, v] += x[h, w] * np.sin(ang)
    return Spectrum(re, im)


# -- oracle agreement -----------------------------------------------------


def test_fft_matches_naive_oracle_all_lengths():
    for n in range(1, 65):
        for seed in range(5):
            x = np.random.default_rng(1000 * n + seed).normal(size=n)
            assert spectrum_diff(fft(x), dft_naive(x)) < 1e-9


def test_fft2_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (2, 2), (3, 5), (4, 4), (8, 8)):
        x = rng.normal(size=shape)
        assert spectrum_diff(fft2(x), double_sum_2d(x)) < 1e-9


def test_non_power_of_two_falls_back_to_naive_sum():
    x = np.random.default_rng(1).normal(size=6)
    assert spectrum_diff(fft(x), dft_naive(x)) < 1e-12


# -- hand-derived spot values ---------------------------------------------


def test_delta_has_flat_spectrum():
    s = dft_naive([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(s.re, 1.0, atol=1e-12)
    assert np.allclose(s.im, 0.0, atol=1e-12)
    assert np.allclose(amplitude(s), 1.0, atol=1e-12)
    assert np.allclose(phase(s), 0.0, atol=1e-12)


def test_constant_is_dc_only():
    s = dft_naive([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(s.re, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(s.im, 0.0, atol=1e-12)


def test_single_period_sine():
    s = dft_naive([0.0, 1.0, 0.0, -1.0])
    assert np.allclose(s.re, 0.0, atol=1e-12)
    assert np.allclose(s.im, [0.0, -2.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(amplitude(s), [0.0, 2.0, 0.0, 2.0], atol=1e-12)
    p = phase(s)
    assert abs(p[1] + np.pi / 2) < 1e-12
    # zero-amplitude bins carry no angle
    assert p[0] == 0.0 and p[2] == 0.0


def test_length_one_signal_is_its_own_spectrum():
    s = fft([7.25])
    assert s.re[0] == 7.25 and s.im[0] == 0.0


def test_fft2_delta_and_separability():
    s = fft2([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(s.re, 1.0, atol=1e-12)
    assert np.allclose(s.im, 0.0, atol=1e-12)
    rng = np.random.default_rng(2)
    f, g = rng.normal(size=4), rng.normal(size=8)
    sf, sg = fft(f), fft(g)
    outer = fft2(np.outer(f, g))
    cf, cg = sf.re + 1j * sf.im, sg.re + 1j * sg.im
    want = np.outer(cf, cg)
    assert np.abs(outer.re - want.real).max() < 1e-9
    assert np.abs(outer.im - want.imag).max() < 1e-9


# -- analytic properties --------------------------------------------------


def test_conjugate_symmetry_for_real_input():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        s = fft(rng.normal(size=n))
        for k in range(n):
            j = (n - k) % n
            assert abs(s.re[k] - s.re[j]) < 1e-9
            assert abs(s.im[k] + s.im[j]) < 1e-9


def test_parseval_energy_identity():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(1, 65)))
        lhs = float((x * x).sum())
        rhs = float((amplitude(fft(x)) ** 2).sum()) / x.size
        assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-9


def test_inverse_round_trip_1d():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(1, 65)))
        assert np.abs(fft_inverse(fft(x)) - x).max() < 1e-9


def test_inverse_round_trip_2d():
    rng = np.random.default_rng(3)
    for shape in ((2, 2), (4, 8), (3, 7), (8, 8)):
        x = rng.normal(size=shape)
        assert np.abs(fft_inverse(fft2(x)) - x).max() < 1e-9


def test_phase_invariant_under_positive_scaling():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=32)
        p1 = phase(fft(x))
        p2 = phase(fft(2.5 * x))
        assert np.abs(p1 - p2).max() < 1e-12


def test_amplitude_scales_linearly():
    x = np.random.default_rng(4).normal(size=16)
    a1, a3 = amplitude(fft(x)), amplitude(fft(3.0 * x))
    assert np.abs(a3 - 3.0 * a1).max() < 1e-9


# -- phase edge cases -----------------------------------------------------


def test_phase_of_zero_spectrum_is_zero():
    s = Spectrum(np.zeros(4), np.zeros(4))
    assert np.array_equal(phase(s), np.zeros(4))


def test_phase_negative_axis_folds_to_positive_pi():
    # arctan2(-0.0, -1.0) is -pi; the convention here is (-pi, pi]
    s = Spectrum(np.array([-1.0, -1.0]), np.array([0.0, -0.0]))
    p = phase(s)
    assert p[0] == np.pi and p[1] == np.pi


def test_phase_suppresses_rounding_residue():
    # a pure cosine leaves ~1e-16 residue at the empty bins after the fast
    # transform; their angles are noise and must read as 0
    n = 32
    x = np.cos(2.0 * np.pi * 3.0 * np.arange(n) / n)
    s = fft(x)
    p = phase(s)
    live = {3, n - 3}
    for k in range(n):
        if k not in live:
            assert p[k] == 0.0
    assert abs(abs(p[3]) - 0.0) < 1e-9  # cosine at bin 3 has angle 0


# -- reconstructions ------------------------------------------------------


def test_phase_only_reconstruction_of_delta():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    r = reconstruct_phase_only(fft(x))
    assert np.abs(r - x).max() < 1e-12


def test_reconstruction_with_true_amplitude_recovers_signal():
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=32)
        s = fft(x)
        amp, p = amplitude(s), phase(s)
        back = fft_inverse(Spectrum(amp * np.cos(p), amp * np.sin(p)))
        assert np.abs(back - x).max() < 1e-9


def test_phase_only_reconstruction_ignores_scale():
    x = np.random.default_rng(5).normal(size=16)
    r1 = reconstruct_phase_only(fft(x))
    r2 = reconstruct_phase_only(fft(2.0 * x))
    assert np.abs(r1 - r2).max() < 1e-12


def test_phase_only_reconstruction_has_unit_spectrum():
    x = np.random.default_rng(6).normal(size=16)
    r = reconstruct_phase_only(fft(x))
    assert np.abs(amplitude(fft(r)) - 1.0).max() < 1e-9


# -- channel handling -----------------------------------------------------


def test_per_channel_phase_single_channel():
    x = np.random.default_rng(7).normal(size=(1, 16))
    got = per_channel_phase(x)
    assert got.shape == (1, 16)
    assert np.array_equal(got[0], phase(fft(x[0])))


def test_per_channel_phase_channels_independent():
    x = np.random.default_rng(8).normal(size=(3, 16))
    got = per_channel_phase(x)
    for ch in range(3):
        assert np.array_equal(got[ch], phase(fft(x[ch])))
    permuted = per_channel_phase(x[::-1])
    assert np.array_equal(permuted, got[::-1])


def test_per_channel_phase_images():
    x = np.random.default_rng(9).normal(size=(2, 4, 8))
    got = per_channel_phase(x)
    assert got.shape == (2, 4, 8)
    for ch in range(2):
        assert np.array_equal(got[ch], phase(fft2(x[ch])))


# -- batching: one call over many signals, same bits as one per signal ----


def same_spectrum(a: Spectrum, b: Spectrum) -> bool:
    return np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)


def test_fft2_equals_row_then_column_loops():
    rng = np.random.default_rng(20)
    for shape in ((1, 1), (3, 5), (4, 8), (6, 12), (16, 16)):
        x = rng.normal(size=shape)
        c = np.stack([_forward_c(row) for row in x.astype(np.complex128)])
        c = np.stack([_forward_c(col) for col in c.T]).T
        assert same_spectrum(fft2(x), Spectrum(c.real, c.imag))


def test_row_views_equal_the_per_row_views():
    rng = np.random.default_rng(22)
    for n in (1, 7, 12, 32):
        x = rng.normal(size=(3, 4, n))
        amp, ph, recon = row_views(x)
        for i in range(3):
            for j in range(4):
                s = fft(x[i, j])
                assert np.array_equal(amp[i, j], amplitude(s))
                assert np.array_equal(ph[i, j], phase(s))
                assert np.array_equal(recon[i, j], reconstruct_phase_only(s))
    with pytest.raises(ValueError):
        row_views(np.zeros((3, 0)))


@pytest.mark.parametrize("n", [7, 12, 16])
def test_per_channel_phase_rows_equal_the_per_channel_loop(n):
    x = np.random.default_rng(n).normal(size=(9, n))
    want = np.stack([phase(fft(ch)) for ch in x])
    assert np.array_equal(per_channel_phase(x), want)


@pytest.mark.parametrize("shape", [(3, 4, 8), (2, 5, 7), (2, 6, 12)])
def test_per_channel_phase_images_equal_the_per_image_loop(shape):
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    want = np.stack([phase(fft2(ch)) for ch in x])
    assert np.array_equal(per_channel_phase(x), want)


def test_batched_phase_judges_dead_bins_per_signal():
    # a quiet signal batched next to loud ones keeps its own phase: its
    # bins are small next to the batch maximum, not next to its own
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(4, 16))
    rows[2] *= 1e-12
    got = per_channel_phase(rows)
    assert np.array_equal(got[2], phase(fft(rows[2])))
    assert np.count_nonzero(got[2]) > 8
    assert np.array_equal(row_views(rows)[1][2], phase(fft(rows[2])))
    images = rng.normal(size=(3, 4, 8))
    images[1] *= 1e-12
    got = per_channel_phase(images)
    assert np.array_equal(got[1], phase(fft2(images[1])))
    assert np.count_nonzero(got[1]) > 16


# -- error contracts ------------------------------------------------------


def test_shape_and_input_validation():
    with pytest.raises(ValueError):
        Spectrum(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        dft_naive([])
    with pytest.raises(ValueError):
        dft_naive(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fft(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fft2(np.zeros(4))
    with pytest.raises(ValueError):
        fft_inverse(Spectrum(np.zeros((2, 2, 2)), np.zeros((2, 2, 2))))
    with pytest.raises(ValueError):
        per_channel_phase(np.zeros(8))
