"""Synthetic datasets on the unit sphere via von Mises-Fisher draws.

Classes get uniformly drawn mean directions; each class spreads into a few
subclusters (vMF around the class mean) and samples concentrate around
their subcluster.  A noise fraction re-draws samples around a wrong class
while keeping the original label, which is what keeps hinge losses from
ever emptying out during training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .core import _write_csv
from .errors import (DegenerateConcentrationError, DimensionMismatchError, InvalidSpecError, _check_fields,
                     _int_labels)


@dataclass(frozen=True)
class VmfParams:
    """Mean direction and concentration of one von Mises-Fisher component."""

    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        if mu.size < 2:
            raise DimensionMismatchError(f"direction must have dim >= 2, got {mu.size}")
        if abs(float(np.linalg.norm(mu)) - 1.0) > 1e-9:
            raise ValueError("mu must be a unit vector")
        _check_fields(self, least={"kappa": 0}, error=ValueError)
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.mu.size


def vmf_density(x, params: VmfParams):
    """Density C_d(kappa) * exp(kappa * <mu, x>) of points (..., d) on the unit sphere.

    Returns one value per point, shape (...); a single point gives a float.
    C_d(kappa) = kappa^{d/2-1} / ((2 pi)^{d/2} I_{d/2-1}(kappa)), evaluated
    through the exponentially scaled Bessel function so large kappa cannot
    overflow.  kappa = 0 collapses to the uniform density, the reciprocal
    sphere area.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != params.mu.shape:
        raise DimensionMismatchError(f"x has shape {x.shape}, mu has {params.mu.shape}")
    norms = np.linalg.norm(x, axis=-1)
    off = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    if off.size:
        raise ValueError(f"x must lie on the unit sphere: row {off[0]} has norm {norms.flat[off[0]]}")
    d = params.dim
    if params.kappa == 0.0:
        dens = np.full(norms.shape, math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0)))
    else:
        nu = d / 2.0 - 1.0
        # I_nu(k) = ive(nu, k) * e^k, so log C_d absorbs the e^{-k} factor
        log_norm = (
            nu * math.log(params.kappa)
            - (d / 2.0) * math.log(2.0 * math.pi)
            - math.log(float(scipy.special.ive(nu, params.kappa)))
            - params.kappa
        )
        # an elementwise row sum, so a stack gives each row's single-point value bit for bit
        dens = np.exp(log_norm + params.kappa * (x * params.mu).sum(-1))
    return float(dens) if dens.ndim == 0 else dens


def _uniform_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(dim)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


def _sample_radial(kappa: float, dim: int, rng: np.random.Generator) -> float:
    # rejection scheme with Beta((d-1)/2, (d-1)/2) proposals; the envelope
    # constant b is written in its cancellation-free form
    m = dim - 1
    b = m / (math.sqrt(4.0 * kappa * kappa + m * m) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    while True:
        z = rng.beta(m / 2.0, m / 2.0)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = 1.0 - rng.uniform()  # (0, 1], keeps the log finite
        if kappa * w + m * math.log(1.0 - x0 * w) - c >= math.log(u):
            return w


def sample_vmf(params: VmfParams, rng: np.random.Generator) -> np.ndarray:
    """One draw from the distribution; always returned with unit norm."""
    d = params.dim
    if params.kappa == 0.0:
        return _uniform_sphere(rng, d)
    w = _sample_radial(params.kappa, d, rng)
    while True:
        g = rng.standard_normal(d)
        g -= float(g @ params.mu) * params.mu
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            tangent = g / norm
            break
    x = math.sqrt(max(0.0, 1.0 - w * w)) * tangent + w * params.mu
    return x / float(np.linalg.norm(x))


@dataclass(frozen=True)
class DatasetSpec:
    """Layout and concentrations of one synthetic dataset."""

    n_classes: int
    subclusters_per_class: int
    samples_per_subcluster: int
    input_dim: int
    class_kappa: float
    subcluster_kappa: float
    noise_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, least={"n_classes": 1, "subclusters_per_class": 1, "samples_per_subcluster": 1,
                                   "input_dim": 2, "class_kappa": 0, "subcluster_kappa": 0, "seed": 0},
                      error=InvalidSpecError)
        if self.subcluster_kappa < self.class_kappa:
            raise InvalidSpecError(
                "subcluster_kappa must be >= class_kappa (subclusters sit inside classes)"
            )
        if not 0.0 <= self.noise_fraction < 1.0:
            raise InvalidSpecError(f"noise_fraction must be in [0, 1), got {self.noise_fraction}")
        if self.noise_fraction > 0.0 and self.n_classes < 2:
            raise InvalidSpecError("noise needs at least 2 classes to borrow a wrong one from")

    @property
    def n_samples(self) -> int:
        return self.n_classes * self.subclusters_per_class * self.samples_per_subcluster


@dataclass(frozen=True)
class SynthDataset:
    """Feature rows with class labels, subcluster ids, and noise flags."""

    features: np.ndarray
    labels: np.ndarray
    subclusters: np.ndarray
    noise_flags: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionMismatchError(f"features must be 2-D, got {feats.shape}")
        n = feats.shape[0]
        labels = _int_labels(self.labels)
        subs = np.asarray(self.subclusters, dtype=np.int64).reshape(-1)
        flags = np.asarray(self.noise_flags, dtype=bool).reshape(-1)
        if not (labels.size == subs.size == flags.size == n):
            raise DimensionMismatchError("per-row columns must all match the feature count")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "subclusters", subs)
        object.__setattr__(self, "noise_flags", flags)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def gen_dataset(spec: DatasetSpec) -> SynthDataset:
    """Generate the dataset a spec describes; identical spec, identical bytes.

    Noisy samples are re-drawn around a uniformly chosen *other* class's
    subcluster but keep their original label row, so exactly
    round(noise_fraction * n) rows are mislabelled on purpose.
    """
    d, total = spec.input_dim, spec.n_samples
    try:  # before the first draw, so a dataset too large to hold fails at once
        features = np.empty((total, d))
        labels = np.empty(total, dtype=np.int64)
        subclusters = np.empty(total, dtype=np.int64)
        sub_means = np.empty((spec.n_classes, spec.subclusters_per_class, d))
    except (MemoryError, ValueError) as exc:  # ValueError: past NumPy's largest dimension
        raise InvalidSpecError(f"cannot allocate the dataset's n_samples x input_dim = {total} x {d} "
                               f"float64 features: {exc}") from None
    rng = np.random.default_rng(spec.seed)
    class_means = np.stack([_uniform_sphere(rng, d) for _ in range(spec.n_classes)])
    for c in range(spec.n_classes):
        for j in range(spec.subclusters_per_class):
            sub_means[c, j] = sample_vmf(VmfParams(class_means[c], spec.class_kappa), rng)
    row = 0
    for c in range(spec.n_classes):
        for j in range(spec.subclusters_per_class):
            params = VmfParams(sub_means[c, j], spec.subcluster_kappa)
            for _ in range(spec.samples_per_subcluster):
                features[row] = sample_vmf(params, rng)
                labels[row] = c
                subclusters[row] = j
                row += 1
    noise_flags = np.zeros(total, dtype=bool)
    n_noise = int(round(spec.noise_fraction * total))
    if n_noise:
        chosen = rng.choice(total, size=n_noise, replace=False)
        for i in np.sort(chosen):
            wrong = int(rng.integers(spec.n_classes - 1))
            if wrong >= labels[i]:
                wrong += 1
            j = int(rng.integers(spec.subclusters_per_class))
            features[i] = sample_vmf(VmfParams(sub_means[wrong, j], spec.subcluster_kappa), rng)
            noise_flags[i] = True
    return SynthDataset(features, labels, subclusters, noise_flags)


def estimate_kappa(samples) -> float:
    """Concentration estimate kappa = rbar (d - rbar^2) / (1 - rbar^2).

    rbar is the norm of the mean of the unit-norm sample rows.  rbar at the
    numerical floor means no preferred direction (returns 0); rbar
    indistinguishable from 1 means zero dispersion, which has no finite
    estimate.
    """
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need a 2-D array with at least 2 rows, got shape {X.shape}")
    norms = np.linalg.norm(X, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("samples must have unit norm")
    d = X.shape[1]
    rbar = float(np.linalg.norm(X.mean(axis=0)))
    if rbar <= 1e-12:
        return 0.0
    if rbar >= 1.0 - 1e-12:
        raise DegenerateConcentrationError("samples are all but identical; kappa diverges")
    return rbar * (d - rbar * rbar) / (1.0 - rbar * rbar)


def write_dataset_csv(dataset: SynthDataset, path) -> None:
    """CSV with header label,subcluster,noise,f0..f{D-1}; floats keep 17 digits."""
    rows = zip(dataset.labels.tolist(), dataset.subclusters.tolist(), dataset.noise_flags.tolist(),
               dataset.features)
    _write_csv(path, "label,subcluster,noise," + ",".join(f"f{i}" for i in range(dataset.dim)),
               "{},{},{:d}" + ",{:.17g}" * dataset.dim, ((*ids, *x.tolist()) for *ids, x in rows))

