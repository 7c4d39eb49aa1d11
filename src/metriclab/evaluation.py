"""Retrieval accuracy and embedding-geometry statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmbeddingBatch, _pairwise_dist, _unit_rows, similarity_matrix, write_sim_matrix_csv
from .errors import DegenerateConcentrationError, DimensionMismatchError, NonFiniteError, _int_labels
from .synth import estimate_kappa

METRICS = ("euclidean", "cosine")
_UNIFORMITY_BLOCK_ROWS = 1024  # rows of the (rows, n) kernel block uniformity holds at a time


@dataclass(frozen=True)
class GalleryProbeSplit:
    """Held-out retrieval split: probes query, the gallery answers."""

    gallery: np.ndarray
    gallery_labels: np.ndarray
    probe: np.ndarray
    probe_labels: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self):
        gallery = np.asarray(self.gallery, dtype=np.float64)
        probe = np.asarray(self.probe, dtype=np.float64)
        g_labels, p_labels = _int_labels(self.gallery_labels), _int_labels(self.probe_labels)
        if gallery.ndim != 2 or probe.ndim != 2:
            raise DimensionMismatchError("gallery and probe must be 2-D")
        if gallery.shape[0] == 0 or probe.shape[0] == 0:
            raise ValueError("gallery and probe must both be non-empty")
        if gallery.shape[1] != probe.shape[1]:
            raise DimensionMismatchError(
                f"gallery dim {gallery.shape[1]} vs probe dim {probe.shape[1]}"
            )
        if g_labels.size != gallery.shape[0] or p_labels.size != probe.shape[0]:
            raise DimensionMismatchError("label counts must match row counts")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        object.__setattr__(self, "gallery", gallery)
        object.__setattr__(self, "probe", probe)
        object.__setattr__(self, "gallery_labels", g_labels)
        object.__setattr__(self, "probe_labels", p_labels)


@dataclass(frozen=True)
class GeometryReport:
    """Spread statistics of an embedded set."""

    uniformity: float
    kappa_hat: float
    intra_class_dist: float
    inter_class_dist: float
    inter_intra_ratio: float
    degenerate_classes: tuple[int, ...] = ()


def rank1(split: GalleryProbeSplit) -> float:
    """Fraction of probes whose nearest gallery row shares their label.

    Ties go to the lowest gallery index, which argmin/argmax already
    guarantee; euclidean takes the closest row, cosine the most aligned.
    """
    if split.metric == "euclidean":
        diff = split.probe[:, None, :] - split.gallery[None, :, :]
        scores = np.einsum("ijk,ijk->ij", diff, diff)
        nearest = scores.argmin(axis=1)
    else:
        sims = _unit_rows(split.probe)[0] @ _unit_rows(split.gallery)[0].T
        nearest = sims.argmax(axis=1)
    return float(np.mean(split.gallery_labels[nearest] == split.probe_labels))


def uniformity(embeddings, t: float = 2.0) -> float:
    """log of the mean Gaussian-kernel value over all ordered pairs i != j.

    Rows are L2-normalized first, so the statistic only sees directions.
    More negative means the directions cover the sphere more evenly;
    an antipodal pair bottoms out at -4t.  Blocks of _UNIFORMITY_BLOCK_ROWS
    rows keep the memory flat for tens of thousands of rows.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need at least two embedding rows, got shape {X.shape}")
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    unit = _unit_rows(X)[0]
    n = unit.shape[0]
    total = 0.0
    for start in range(0, n, _UNIFORMITY_BLOCK_ROWS):
        block = unit[start:start + _UNIFORMITY_BLOCK_ROWS]
        # ||zi - zj||^2 = 2 - 2 <zi, zj> on the sphere
        sq = np.clip(2.0 - 2.0 * (block @ unit.T), 0.0, None)
        total += float(np.exp(-t * sq).sum())
    total -= n  # drop the i == j kernel values, each exactly 1
    return float(np.log(total / (n * (n - 1))))


@dataclass(frozen=True)
class VarianceStats:
    """Mean pairwise distances within and across classes."""

    intra_class_dist: float
    inter_class_dist: float
    inter_intra_ratio: float
    degenerate_classes: tuple[int, ...]


def variance_ratio(embeddings, labels) -> VarianceStats:
    """Mean intra-class vs inter-class pairwise Euclidean distance.

    Classes whose members are all mutually coincident are reported as
    degenerate rather than silently shrinking the intra mean to zero first.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    y = _int_labels(labels)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise DimensionMismatchError("embeddings and labels disagree")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("variance ratio needs at least two classes")
    D = _pairwise_dist(X)
    same = y[:, None] == y[None, :]
    off_diag = ~np.eye(y.size, dtype=bool)
    intra_mask = same & off_diag
    if not intra_mask.any():
        raise ValueError("no class has two members; intra-class distance is undefined")
    intra = float(D[intra_mask].mean())
    inter = float(D[~same].mean())
    degenerate = []
    for c in classes:
        rows = y == c
        mask = intra_mask & rows[:, None] & rows[None, :]
        if mask.any() and not D[mask].any():
            degenerate.append(int(c))
    ratio = float("inf") if intra == 0.0 else inter / intra
    return VarianceStats(intra, inter, ratio, tuple(degenerate))


def build_geometry_report(embeddings, labels, t: float = 2.0) -> GeometryReport:
    """Bundle uniformity, the concentration estimate, and the distance ratio."""
    X = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        cause = ": float64 overflow" if np.isfinite(X[bad[0]]).all() else " (inf or nan entries)"
        raise NonFiniteError(f"embedding row {bad[0]} has norm {norms[bad[0]]}{cause}")
    stats = variance_ratio(X, labels)
    try:
        kappa = estimate_kappa(_unit_rows(X)[0])
    except DegenerateConcentrationError:
        kappa = float("inf")  # fully collapsed embeddings
    return GeometryReport(
        uniformity=uniformity(X, t),
        kappa_hat=kappa,
        intra_class_dist=stats.intra_class_dist,
        inter_class_dist=stats.inter_class_dist,
        inter_intra_ratio=stats.inter_intra_ratio,
        degenerate_classes=stats.degenerate_classes,
    )


def snapshot_sim_matrix(batch: EmbeddingBatch, path, kind: str = "cosine"):
    """Write the batch's similarity matrix with rows grouped by class.

    The row order inside each class keeps the original relative order, so a
    PK-sampled batch lands as contiguous K x K diagonal blocks.
    """
    order = np.argsort(batch.labels, kind="stable")
    grouped = EmbeddingBatch(batch.data[order], batch.labels[order])
    sim = similarity_matrix(grouped, kind)
    try:
        write_sim_matrix_csv(sim, path)
    except OSError as exc:
        raise OSError(f"could not write similarity snapshot to {path}: {exc}") from exc
    return sim
