"""Discrete Fourier analysis: spectra, phase, amplitude, reconstructions.

`dft_naive` is the direct O(N²) evaluation of the transform definition and
acts as the correctness oracle. Everything else rests on one transform,
a radix-2 recursion along the last axis of an array of any rank (a
per-bin naive sum for awkward lengths): the leading axes are a batch, so
samples × channels go through in a single call, with the same bits as
one call per signal. `fft` and `fft2` are its 1-D and 2-D faces,
`row_views` and `per_channel_phase` its batched ones.
Spectra are carried as separate real/imaginary float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "dft_naive",
    "fft",
    "fft2",
    "fft_inverse",
    "phase",
    "amplitude",
    "reconstruct_phase_only",
    "row_views",
    "per_channel_phase",
]


@dataclass
class Spectrum:
    """Real and imaginary parts of a transform, same shape as the signal."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.shape != self.im.shape:
            raise ValueError(
                f"re/im shapes differ: {self.re.shape} vs {self.im.shape}"
            )

    @property
    def shape(self):
        return self.re.shape


def dft_naive(signal) -> Spectrum:
    """Direct double-loop evaluation of Σ_h x(h)·e^{−j2πhu/N}.

    Quadratic on purpose; everything faster is checked against this.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_naive expects a non-empty 1-D signal")
    n = x.size
    re = np.zeros(n)
    im = np.zeros(n)
    for u in range(n):
        for h in range(n):
            ang = -2.0 * np.pi * h * u / n
            re[u] += x[h] * np.cos(ang)
            im[u] += x[h] * np.sin(ang)
    return Spectrum(re, im)


def _fft_c(x: np.ndarray) -> np.ndarray:
    # x is complex128 whose last axis has power-of-two length
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    even = _fft_c(x[..., 0::2])
    odd = _fft_c(x[..., 1::2])
    twiddle = np.exp(-2j * np.pi * np.arange(n // 2) / n) * odd
    return np.concatenate([even + twiddle, even - twiddle], axis=-1)


def _naive_c(x: np.ndarray) -> np.ndarray:
    # contiguous rows keep each bin's sum in the same (pairwise) order as a
    # lone 1-D signal, so batching does not change a single bit
    x = np.ascontiguousarray(x)
    n = x.shape[-1]
    u = np.arange(n)
    out = np.empty(x.shape, dtype=np.complex128)
    for k in range(n):
        out[..., k] = np.sum(x * np.exp(-2j * np.pi * k * u / n), axis=-1)
    return out


def _forward_c(x: np.ndarray) -> np.ndarray:
    """The one transform: along the last axis, every leading index a signal."""
    n = x.shape[-1]
    if n == 0:
        raise ValueError("empty signal")
    if n & (n - 1) == 0:
        return _fft_c(x)
    return _naive_c(x)


def _forward2_c(c: np.ndarray) -> np.ndarray:
    # rows, then columns, of every trailing 2-D plane
    c = _forward_c(c)
    return _forward_c(c.swapaxes(-1, -2)).swapaxes(-1, -2)


def fft(signal) -> Spectrum:
    """Transform of a real 1-D signal; radix-2 when the length allows."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("fft expects a 1-D signal")
    c = _forward_c(x.astype(np.complex128))
    return Spectrum(c.real, c.imag)


def fft2(x) -> Spectrum:
    """2-D transform as row transforms followed by column transforms."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("fft2 expects a non-empty 2-D array")
    c = _forward2_c(a.astype(np.complex128))
    return Spectrum(c.real, c.imag)


def _inverse_c(c: np.ndarray) -> np.ndarray:
    # inverse along the last axis via the conjugation identity:
    # F⁻¹(X) = conj(F(conj(X)))/N
    return np.conj(_forward_c(np.conj(c))) / c.shape[-1]


def fft_inverse(s: Spectrum) -> np.ndarray:
    """Inverse transform; returns the real part (inputs here are real signals)."""
    c = s.re + 1j * s.im
    if c.ndim not in (1, 2):
        raise ValueError("inverse supports 1-D and 2-D spectra")
    out = _inverse_c(c)
    if c.ndim == 2:
        out = _inverse_c(out.swapaxes(-1, -2)).swapaxes(-1, -2)
    return out.real


def _phase(re: np.ndarray, im: np.ndarray, axis) -> np.ndarray:
    # dead bins are judged against the largest bin of their own signal:
    # the whole array (axis=None) or each slice over `axis`
    p = np.arctan2(im, re)
    # arctan2 returns [−π, π]; fold the −π edge onto +π, and pin dead bins to 0
    p = np.where(p == -np.pi, np.pi, p)
    mag = np.hypot(re, im)
    if axis is None:
        peak = mag.max() if mag.size else 0.0
    else:
        peak = mag.max(axis=axis, keepdims=True)
    return np.where(mag <= 1e-9 * peak, 0.0, p)


def phase(s: Spectrum) -> np.ndarray:
    """Full-quadrant angle of (re, im) per bin, in (−π, π]; angle(0,0) = 0.

    The two-argument form keeps the quadrant that a literal im/re ratio
    would lose, and is defined on the re = 0 axis. Bins whose magnitude is
    negligible next to the largest bin of the same spectrum (below 1e-9
    relative) are treated as dead too: after a transform round trip an
    exactly-empty bin holds rounding residue of order 1e-16 whose angle is
    arbitrary, and that angle must not masquerade as signal.
    """
    return _phase(s.re, s.im, axis=None)


def amplitude(s: Spectrum) -> np.ndarray:
    """Per-bin magnitude √(re² + im²)."""
    return np.hypot(s.re, s.im)


def reconstruct_phase_only(s: Spectrum) -> np.ndarray:
    """Real part of the inverse of the unit-amplitude spectrum e^{j·phase}.

    Keeps where structure sits in the signal while discarding how much
    energy each bin carries.
    """
    p = phase(s)
    return fft_inverse(Spectrum(np.cos(p), np.sin(p)))


def row_views(x):
    """(amplitude, phase, phase-only reconstruction) of every row of x.

    One batched transform along the last axis; each row is its own
    signal, so row i of each view equals `amplitude(fft(x[i]))`,
    `phase(fft(x[i]))` and `reconstruct_phase_only(fft(x[i]))` exactly.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0 or a.size == 0:
        raise ValueError("row_views expects a non-empty array of rows")
    c = _forward_c(a.astype(np.complex128))
    p = _phase(c.real, c.imag, axis=-1)
    recon = _inverse_c(np.cos(p) + 1j * np.sin(p)).real
    return np.hypot(c.real, c.imag), p, recon


def per_channel_phase(x) -> np.ndarray:
    """Phase of each channel's spectrum, stacked back to the input shape.

    Accepts C×N signals or C×H×W images; channels never mix. All channels
    go through one batched transform, and each channel's dead bins are
    judged against its own largest bin, so the result equals the
    per-channel `phase(fft(ch))` / `phase(fft2(ch))` exactly. Callers may
    pass any number of signals as rows, e.g. samples × channels at once.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 2:
        c = _forward_c(a.astype(np.complex128))
        return _phase(c.real, c.imag, axis=-1)
    if a.ndim == 3:
        c = _forward2_c(a.astype(np.complex128))
        return _phase(c.real, c.imag, axis=(-2, -1))
    raise ValueError("expected C×N or C×H×W input")
