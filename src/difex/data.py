"""Synthetic multi-domain benchmark, dataset I/O, leave-one-domain-out split.

Construction: each class owns phase offsets on a shared triple of
frequency bins; each domain owns a strictly positive, fold-symmetric
amplitude envelope. A sample is the inverse transform of
envelope * (rolled class spectrum + decoy spectrum + stable spectrum
+ noise). The roll scrambles absolute phase per sample, so the durable
class signal lives in phase relations, which every domain agrees on.

Two amplitude codes ride alongside, both phase-free (uniform random
angles, so no phase view ever sees them):

- The decoy writes the class into large-margin on/off levels at a few
  bins, keyed by a different class-to-codeword assignment in every
  domain. Within one training domain it is a perfect, easy shortcut;
  pooled across domains it requires identifying the domain first; on a
  held-out domain the assignment is fresh and the shortcut misleads.
- The stable code uses one shared assignment everywhere and sits on
  bins where every envelope takes the same value, so its statistics
  carry no domain signature at all. It is quieter than the decoy, a
  second legitimate route to the label that rewards models pushed to
  look beyond their first feature.

Models that chase the easiest pooled fit inherit the trap; models that
strip domain-specific structure keep the phase signal and, if anything
drives them to diversify, pick up the stable code as well.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamW, Tensor, softmax_cross_entropy
from .fourier import row_views
from .model import TeacherModel, predict

__all__ = [
    "DataError",
    "DomainDataset",
    "BenchConfig",
    "MAX_CELLS",
    "check_size",
    "generate",
    "leave_one_out",
    "save_csv",
    "load_csv",
    "load_dir",
    "domain_shift_report",
    "stream",
]


class DataError(ValueError):
    """Malformed dataset files or invalid benchmark configuration."""


def stream(seed, *key):
    """Independent generator for one named purpose under one seed: PCG64
    seeded by ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


@dataclass
class DomainDataset:
    """All samples of one domain, stored as stacked arrays."""

    domain: int
    X: np.ndarray  # n x channels x length
    y: np.ndarray  # n

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.X.ndim != 3 or self.y.shape != (self.X.shape[0],):
            raise DataError("X must be n x channels x length with matching labels")
        if not np.all(np.isfinite(self.X)):
            raise DataError("non-finite sample values")

    def __len__(self):
        return self.X.shape[0]


def _frac_bins(length, fracs):
    return sorted({max(1, min(length // 2 - 1, round(length * f))) for f in fracs})


# rates at which consecutive bins spread the class offsets; pairwise
# differences of these generate every class step, so the offsets BETWEEN
# bins pin the class down even though no single bin has to
_PATTERN_RATES = (1, 2, 5, 1, 2, 5)


def _default_patterns(classes, length):
    """Shared bins in the lower half-spectrum with per-class offsets.

    Classes are told apart by the offsets BETWEEN bins (each bin spreads
    the class at a different rate), because every sample additionally
    receives a random roll angle common to its bins (see generate) that
    erases absolute phase. A fixed waveform template can therefore never
    match a class; only relations between per-bin phases can. Spreading
    the code over six bins leaves any phase reader several redundant
    views of it, which matters once noise floods the unused bins.
    """
    bins = _frac_bins(
        length, (0.03125, 0.0625, 0.15625, 0.25, 0.28125, 0.4375)
    )
    patterns = []
    for c in range(classes):
        pat = []
        for i, b in enumerate(bins):
            rate = _PATTERN_RATES[i % len(_PATTERN_RATES)]
            ang = 2.0 * np.pi * c * rate / classes + 0.9 * i
            ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
            pat.append((int(b), float(ang)))
        patterns.append(pat)
    return patterns


def _default_decoy_bins(length):
    # sit between the pattern bins, away from their mirrors, DC and Nyquist
    return _frac_bins(length, (0.09375, 0.1875, 0.34375))


def _default_stable_bins(length):
    return _frac_bins(length, (0.125, 0.21875, 0.40625))


def _codeword_check(classes, n_bins, what):
    usable = 2**n_bins - 2
    if classes > usable:
        raise DataError(
            f"{classes} classes need more than {n_bins} {what} bins "
            f"({usable} codewords)"
        )


def _default_decoy_maps(domains, classes, n_bins, seed):
    """Per-domain assignment of classes to on/off amplitude codewords.

    Each domain permutes the same codeword set 1..C differently. Inside
    any one domain the decoy amplitudes predict the class perfectly;
    across domains the assignments contradict each other, so a model
    leaning on them transfers at chance. The shared codeword set keeps
    the class-balanced level mix at every bin identical across domains,
    so the decoy itself leaks no domain signal into marginal amplitude
    or phase statistics beyond what the envelopes already carry.
    """
    _codeword_check(classes, n_bins, "decoy")
    words = np.arange(1, classes + 1)
    maps = np.empty((domains, classes), dtype=np.intp)
    for d in range(domains):
        maps[d] = words[stream(seed, 15, d).permutation(classes)]
    return maps


def _default_envelopes(domains, length, amplitude_scale, seed, flat_bins=()):
    # smooth part: gains spread geometrically, tilts linearly; rough part:
    # independent per-bin log-uniform gains, mirrored so the fold k -> n-k
    # leaves the envelope fixed and the real inverse transform keeps phases
    gains = 0.6 * (2.5 / 0.6) ** (np.arange(domains) / max(1, domains - 1))
    tilts = np.linspace(-0.95, 0.95, domains) if domains > 1 else np.array([0.0])
    k = np.arange(length)
    profile = np.cos(2.0 * np.pi * k / length)
    env = amplitude_scale * gains[:, None] * (1.0 + tilts[:, None] * profile[None, :])
    rng = stream(seed, 14)
    half = length // 2
    jag = np.empty((domains, length))
    for d in range(domains):
        u = rng.uniform(-1.1, 1.1, half + 1)
        jag[d, : half + 1] = np.exp(u)
        jag[d, half + 1 :] = jag[d, 1:half][::-1]
    env = env * jag
    # the stable code's home bins get one common gain so nothing about the
    # domain shows through them; mirrors too, to keep the fold symmetry
    for b in flat_bins:
        env[:, b] = amplitude_scale
        env[:, length - b] = amplitude_scale
    return env


def _check_code_bins(bins, n, taken, what):
    out = [int(b) for b in bins]
    if len(set(out)) != len(out):
        raise DataError(f"duplicate {what} bin")
    for b in out:
        if not 1 <= b < n // 2:
            raise DataError(f"{what} bin {b} outside (0, {n // 2})")
        if b in taken:
            raise DataError(f"{what} bin {b} collides with another code's bin")
    return out


# the most float64 sample cells (domains x classes x per_class x channels
# x length) a benchmark may have; the default benchmark has 153,600
MAX_CELLS = 2**26


def check_size(domains, classes, per_class, channels, length):
    """Reject a benchmark whose sample array would exceed MAX_CELLS cells,
    before anything of that size is allocated."""
    cells = math.prod(int(v) for v in (domains, classes, per_class, channels, length))
    if cells > MAX_CELLS:
        raise DataError(
            f"{domains} domains x {classes} classes x {per_class} per class x "
            f"{channels} channels x length {length} is {cells} sample values; "
            f"the limit is {MAX_CELLS}"
        )


@dataclass
class BenchConfig:
    """Everything that determines a generated benchmark.

    patterns: per class, a list of (bin, phase offset) pairs; bins must sit
    strictly inside the half-spectrum so each has a distinct mirror bin.
    envelopes: domains x length positive gains applied to the spectrum.
    noise_sigma: per-domain standard deviation of added spectral noise, or
    one value for every domain.
    decoy_bins / decoy_levels / decoy_maps: the domain-keyed amplitude
    shortcut (maps is domains x classes codewords). stable_bins /
    stable_levels / stable_words: the domain-invariant amplitude code
    (words is one codeword per class, shared by all domains). Either
    code is disabled by passing [] for its bins.
    """

    domains: int = 4
    classes: int = 6
    per_class: int = 100
    length: int = 32
    channels: int = 2
    patterns: list = field(default=None)
    envelopes: np.ndarray = field(default=None)
    noise_sigma: np.ndarray = field(default=None)
    seed: int = 0
    amplitude_scale: float = 8.0
    decoy_bins: list = field(default=None)
    decoy_levels: tuple = (0.25, 2.5)
    decoy_maps: np.ndarray = field(default=None)
    stable_bins: list = field(default=None)
    stable_levels: tuple = (0.55, 1.45)
    stable_words: np.ndarray = field(default=None)

    def __post_init__(self):
        # every size is checked before anything is sized by it
        for key, least, what in (
            ("domains", 1, "domain"), ("classes", 2, "classes"),
            ("per_class", 1, "sample per class"), ("channels", 1, "channel"),
        ):
            value = getattr(self, key)
            if value < least:
                raise DataError(f"need >={least} {what}, got {key} = {value}")
        n = self.length
        if n < 4 or n & (n - 1):
            raise DataError(f"length must be a power of two >= 4, got {n}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        check_size(self.domains, self.classes, self.per_class, self.channels, n)
        if self.patterns is None:
            self.patterns = _default_patterns(self.classes, n)
        if len(self.patterns) != self.classes:
            raise DataError("one pattern per class required")
        seen = set()
        pattern_bins = set()
        for pat in self.patterns:
            key = tuple(sorted((int(b), round(float(p), 12)) for b, p in pat))
            if key in seen:
                raise DataError("class phase patterns must be pairwise distinct")
            seen.add(key)
            bins = [b for b, _ in pat]
            if len(set(bins)) != len(bins):
                raise DataError("duplicate bin within a class pattern")
            for b in bins:
                if not 1 <= b < n // 2:
                    raise DataError(f"pattern bin {b} outside (0, {n // 2})")
                pattern_bins.add(int(b))
        min_bits = max(1, int(np.ceil(np.log2(self.classes + 2))))
        if self.decoy_bins is None:
            free = [b for b in _default_decoy_bins(n) if b not in pattern_bins]
            self.decoy_bins = free if len(free) >= min_bits else []
        self.decoy_bins = _check_code_bins(self.decoy_bins, n, pattern_bins, "decoy")
        taken = pattern_bins | set(self.decoy_bins)
        if self.stable_bins is None:
            free = [b for b in _default_stable_bins(n) if b not in taken]
            self.stable_bins = free if len(free) >= min_bits else []
        self.stable_bins = _check_code_bins(self.stable_bins, n, taken, "stable")
        if self.decoy_bins:
            self._check_levels(self.decoy_levels, "decoy_levels")
            if self.decoy_maps is None:
                self.decoy_maps = _default_decoy_maps(
                    self.domains, self.classes, len(self.decoy_bins), self.seed
                )
            self.decoy_maps = np.asarray(self.decoy_maps, dtype=np.intp)
            if self.decoy_maps.shape != (self.domains, self.classes):
                raise DataError(
                    f"decoy_maps must be {self.domains} x {self.classes} codewords"
                )
            self._check_words(self.decoy_maps, len(self.decoy_bins), "decoy")
        if self.stable_bins:
            self._check_levels(self.stable_levels, "stable_levels")
            if self.stable_words is None:
                _codeword_check(self.classes, len(self.stable_bins), "stable")
                self.stable_words = np.arange(1, self.classes + 1)
            self.stable_words = np.asarray(self.stable_words, dtype=np.intp)
            if self.stable_words.shape != (self.classes,):
                raise DataError(f"stable_words must list {self.classes} codewords")
            if len(set(self.stable_words.tolist())) != self.classes:
                raise DataError("stable_words must be pairwise distinct")
            self._check_words(self.stable_words, len(self.stable_bins), "stable")
        if self.envelopes is None:
            self.envelopes = _default_envelopes(
                self.domains, n, self.amplitude_scale, self.seed,
                flat_bins=self.stable_bins,
            )
        if self.noise_sigma is None:
            self.noise_sigma = 0.1
        self.envelopes = np.asarray(self.envelopes, dtype=np.float64)
        self.noise_sigma = np.asarray(self.noise_sigma, dtype=np.float64)
        if self.noise_sigma.ndim == 0:
            self.noise_sigma = np.full(self.domains, self.noise_sigma)
        if self.envelopes.shape != (self.domains, n):
            raise DataError(f"envelopes must be {self.domains} x {n}")
        if np.any(self.envelopes <= 0):
            raise DataError("envelopes must be strictly positive")
        sigma = self.noise_sigma
        # NaN fails sigma >= 0, but inf passes it
        valid = np.isfinite(sigma) & (sigma >= 0)
        if sigma.shape != (self.domains,) or not valid.all():
            raise DataError(
                "noise_sigma must be one finite, non-negative value per domain"
            )

    @staticmethod
    def _check_levels(levels, name):
        lo, hi = levels
        if not 0 <= lo < hi:
            raise DataError(f"{name} must satisfy 0 <= low < high")

    @staticmethod
    def _check_words(words, n_bins, what):
        top = 2**n_bins
        arr = np.asarray(words)
        if np.any(arr < 0) or np.any(arr >= top):
            raise DataError(f"{what} codewords must lie in [0, {top})")

    @property
    def samples_per_domain(self):
        return self.classes * self.per_class


def _class_spectra(cfg: BenchConfig, cls: int, rho) -> np.ndarray:
    """Unit-magnitude complex spectra of one class for a block of samples.

    Pattern bin carries phase offset + rho, with the conjugate at its
    mirror bin; all other bins are zero. rho is a per (sample, channel)
    roll angle shared by the whole bin set. Domain-independent.
    """
    n = cfg.length
    spec = np.zeros(rho.shape + (n,), dtype=np.complex128)
    for b, offset in cfg.patterns[cls]:
        phase = offset + rho
        spec[..., b] = np.exp(1j * phase)
        spec[..., n - b] = np.exp(-1j * phase)
    return spec


def _amp_code_spectra(spec, word, bins, levels, rng):
    """Add one amplitude codeword into a block of spectra, in place.

    Bit i of the codeword picks the high or low magnitude at bins[i];
    the phase at each bin is uniform random per (sample, channel), so
    the code is invisible to any phase view and carries no repeatable
    waveform shape; only its magnitude pattern survives averaging.
    """
    n = spec.shape[-1]
    shape = spec.shape[:-1]
    lo, hi = levels
    for i, b in enumerate(bins):
        level = hi if (word >> i) & 1 else lo
        theta = rng.uniform(-np.pi, np.pi, shape)
        spec[..., b] = level * np.exp(1j * theta)
        spec[..., n - b] = np.conj(spec[..., b])


def _spectral_noise(rng, shape, n, sigma):
    """Conjugate-symmetric complex white noise, per-component std sigma.

    Equivalent to stationary Gaussian noise in the signal domain; applied
    before the envelope so the noise color follows the domain.
    """
    half = n // 2
    eps = np.zeros(shape + (n,), dtype=np.complex128)
    re = rng.normal(0.0, sigma, shape + (half - 1,))
    im = rng.normal(0.0, sigma, shape + (half - 1,))
    eps[..., 1:half] = re + 1j * im
    eps[..., half + 1 :] = np.conj(eps[..., 1:half][..., ::-1])
    eps[..., 0] = rng.normal(0.0, sigma, shape)
    eps[..., half] = rng.normal(0.0, sigma, shape)
    return eps


def _inverse_basis(n):
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, t) / n)  # E[t, k] = e^{j2πkt/n}


def _roll_angles(cfg: BenchConfig, cls: int):
    """Per (sample, channel) roll angles for one class.

    A roll shifts every pattern bin of the sample by the same uniform
    angle, erasing absolute phase while preserving the offsets between
    bins that encode the class. Drawn from a class-keyed stream
    independent of the domain, so sample j of class c rolls identically
    in every domain: cross-domain correspondence (and with it the
    noiseless phase-equality property) is preserved.
    """
    rng = stream(cfg.seed, 12, cls)
    return rng.uniform(-np.pi, np.pi, (cfg.per_class, cfg.channels))


def generate(cfg: BenchConfig):
    """Deterministic benchmark: list of per-domain datasets, class-major rows.

    Sample = inverse transform of envelope * (rolled class spectrum +
    decoy spectrum + stable spectrum + spectral noise). The deliberate
    twists:

    - Each sample's pattern phases are rolled per channel by a uniform
      angle shared across domains but fresh per sample, so no fixed
      waveform template matches a class; only phase offsets between the
      pattern bins do, and those agree in every domain.
    - The decoy bins carry the class in two loud amplitude levels, but
      under a different class-to-codeword assignment per domain. Within
      any one training domain the decoy is a perfect shortcut and far
      easier than phase recovery; pooled across domains the assignments
      conflict, so exploiting it requires features that identify the
      domain first, and on the held-out domain, where the assignment
      is fresh, those features backfire.
    - The stable bins carry the class in two quieter levels under one
      assignment shared by all domains, over envelope values equalized
      across domains: a genuinely transferable second route that no
      amount of domain normalization removes.
    - All code phases are uniform random, so phase views see neither
      code; and the noise rides inside the envelope, so amplitude
      statistics carry the domain twice over (pattern scaling and noise
      color) while the signal-to-noise ratio at every pattern bin, and
      with it the phase jitter, is identical across domains.

    Per-domain draw order is fixed (per class: decoy phases, stable
    phases, then noise), so disabling a code changes the downstream
    draws too; regenerate every arm of a comparison from the same seed.
    """
    n = cfg.length
    basis_t = _inverse_basis(n).T
    rolls = [_roll_angles(cfg, c) for c in range(cfg.classes)]
    out = []
    for d in range(cfg.domains):
        rng = stream(cfg.seed, 11, d)
        n_total = cfg.samples_per_domain
        X = np.empty((n_total, cfg.channels, n))
        y = np.empty(n_total, dtype=np.intp)
        env = cfg.envelopes[d]
        row = 0
        for c in range(cfg.classes):
            spec = _class_spectra(cfg, c, rolls[c])
            if cfg.decoy_bins:
                _amp_code_spectra(
                    spec, int(cfg.decoy_maps[d, c]), cfg.decoy_bins,
                    cfg.decoy_levels, rng,
                )
            if cfg.stable_bins:
                _amp_code_spectra(
                    spec, int(cfg.stable_words[c]), cfg.stable_bins,
                    cfg.stable_levels, rng,
                )
            sigma = cfg.noise_sigma[d]
            try:
                # a huge sigma overflows here: one error, not numpy's warnings
                with np.errstate(over="raise", invalid="raise"):
                    eps = _spectral_noise(rng, (cfg.per_class, cfg.channels), n, sigma)
                    full = (spec + eps) * env[None, None, :]
                    X[row : row + cfg.per_class] = (full @ basis_t).real / n
            except FloatingPointError:
                raise DataError(
                    f"samples overflow float64 at noise_sigma = {sigma:g}"
                ) from None
            y[row : row + cfg.per_class] = c
            row += cfg.per_class
        out.append(DomainDataset(domain=d, X=X, y=y))
    return out


def leave_one_out(domains, target):
    """Split into (sources, target dataset); the target never leaks."""
    if len(domains) < 2:
        raise DataError("leave-one-out needs at least 2 domains")
    matches = [ds for ds in domains if ds.domain == target]
    if len(matches) != 1:
        raise DataError(f"target domain {target} not found exactly once")
    sources = [ds for ds in domains if ds.domain != target]
    return sources, matches[0]


# -- CSV I/O -------------------------------------------------------------


def _header(width):
    return "domain,label," + ",".join(f"f_{i}" for i in range(width))


def save_csv(ds: DomainDataset, path):
    """One row per sample, features flattened channel-major, floats written
    as shortest round-trip decimals."""
    flat = ds.X.reshape(len(ds), -1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header(flat.shape[1]) + "\n")
        # repr of a tolist() float is repr(float(v)), without a numpy scalar
        for label, row in zip(ds.y.tolist(), flat.tolist()):
            fh.write(f"{ds.domain},{label},{','.join(map(repr, row))}\n")


def _read_manifest(path):
    """A dataset manifest: a JSON object with a positive integer
    "channels" and a list of file names in "files" (empty if absent)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: expected a JSON object")
    files = manifest.setdefault("files", [])
    if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
        raise DataError(f'{path}: "files" must be a list of file names')
    channels = manifest.get("channels")
    # no int() coercion: it would read 2.9 as 2 channels and true as 1
    if isinstance(channels, bool) or not isinstance(channels, int) or channels < 1:
        raise DataError(
            f'{path}: "channels" must be a positive integer, got {channels!r}'
        )
    return manifest


def _manifest_channels(path):
    manifest = os.path.join(os.path.dirname(os.path.abspath(path)), "manifest.json")
    if not os.path.exists(manifest):
        raise DataError(
            f"{path}: channel count unknown; pass channels= or provide manifest.json"
        )
    return _read_manifest(manifest)["channels"]


def load_dir(path, domains=None):
    """The datasets of a directory written by `generate`: the CSV files
    its manifest.json lists, in that order.

    With ``domains`` (a set of domain ids), only datasets of those domains
    are returned. A file whose first data row names a domain outside the
    set is skipped unparsed; any other file is loaded in full, so it fails
    as it would without the filter.
    """
    manifest = _read_manifest(os.path.join(path, "manifest.json"))
    if not manifest["files"]:
        raise DataError(f"{path}: manifest.json lists no dataset files")
    out = []
    for name in manifest["files"]:
        file = os.path.join(path, name)
        if domains is not None:
            first = _first_domain(file)
            if first is not None and first not in domains:
                continue
        ds = load_csv(file, channels=manifest["channels"])
        if domains is None or ds.domain in domains:
            out.append(ds)
    return out


# enough characters for a header and the first cell of the next row
_PEEK_CHARS = 1 << 16


def _first_domain(path):
    """The domain cell of a dataset file's first data row as a float, or
    None when the file cannot be read that far or the cell does not parse.

    The row is split as `load_csv` splits it, and the cell parses as its
    float64 would, so a whole number compares equal to its integer id.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(_PEEK_CHARS)
    except (OSError, ValueError):
        return None
    lines = head.splitlines()
    if len(lines) < 2:
        return None
    row = lines[1]
    # the cell is whole once a comma or line break follows it, or at the end
    if "," not in row and len(lines) == 2 and len(head) == _PEEK_CHARS:
        return None
    try:
        return float(row.split(",", 1)[0])
    except ValueError:
        return None


# integer ids of magnitude below 2**_ID_BITS convert to intp exactly
_ID_BITS = np.iinfo(np.intp).bits - 1


def load_csv(path, channels=None) -> DomainDataset:
    """Parse a dataset file back; errors name the offending line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    cols = lines[0].split(",")
    if (
        len(cols) < 3
        or cols[0] != "domain"
        or cols[1] != "label"
        or cols[2:] != [f"f_{i}" for i in range(len(cols) - 2)]
    ):
        raise DataError(f"{path}:1: unknown header")
    width = len(cols) - 2
    if channels is None:
        channels = _manifest_channels(path)
    if channels < 1 or width % channels:
        raise DataError(f"{path}: width {width} not divisible by {channels} channels")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width + 2:
            raise DataError(
                f"{path}:{ln}: expected {width + 2} columns, got {len(parts)}"
            )
        rows.append(parts)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError:
        for ln, parts in enumerate(rows, start=2):
            for cell in parts:
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"{path}:{ln}: bad number {cell!r}") from None
        raise
    domains, labels = table[:, 0], table[:, 1]
    # ids arrive as float64; NaN, inf, fractions and values beyond intp
    # are not whole
    ids = table[:, :2]
    whole = (ids == np.floor(ids)) & (np.abs(ids) < 2.0**_ID_BITS)
    if not whole[:, 0].all():
        raise DataError(f"{path}: domain ids must be integers with |id| < 2**{_ID_BITS}")
    if np.any(domains != domains[0]):
        raise DataError(f"{path}: mixed domain ids in one file")
    if not whole[:, 1].all() or np.any(labels < 0):
        raise DataError(f"{path}: labels must be non-negative integers < 2**{_ID_BITS}")
    X = table[:, 2:].reshape(len(rows), channels, width // channels)
    return DomainDataset(domain=int(domains[0]), X=X, y=labels.astype(np.intp))


# -- the benchmark's validity probe --------------------------------------


def _probe_features(domains, kind):
    X = np.concatenate([ds.X for ds in domains])
    amp, phase, _ = row_views(X)
    f = amp if kind == "amp" else phase
    labels = [np.full(len(ds), ds.domain, dtype=np.intp) for ds in domains]
    return f.reshape(len(X), -1), np.concatenate(labels)


def domain_shift_report(domains, seed=0, steps=150):
    """Train one small classifier to read the DOMAIN off amplitude features
    and another off phase features; report both accuracies.

    A healthy benchmark shows near-perfect amplitude accuracy (the shift
    is real) and near-chance phase accuracy (phase is domain-clean).
    """
    report = {}
    ids = sorted(ds.domain for ds in domains)
    remap = {d: i for i, d in enumerate(ids)}
    for kind in ("amp", "phase"):
        X, dom = _probe_features(domains, kind)
        dom = np.array([remap[d] for d in dom], dtype=np.intp)
        rng = stream(seed, 13)
        order = rng.permutation(len(X))
        cut = int(0.8 * len(X))
        tr, te = order[:cut], order[cut:]
        mu, sd = X[tr].mean(axis=0), X[tr].std(axis=0) + 1e-9
        Z = (X - mu) / sd
        probe = TeacherModel(X.shape[1], 32, 16, len(ids), rng)
        opt = AdamW(probe.params(), lr=1e-2, weight_decay=0.0)
        for _ in range(steps):
            _, logits = probe.forward(Tensor(Z[tr]))
            loss = softmax_cross_entropy(logits, dom[tr])
            opt.zero_grad()
            loss.backward()
            opt.step()
        report[kind] = float(np.mean(predict(probe, Z[te]) == dom[te]))
    return report
