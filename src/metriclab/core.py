"""Embedding containers and the distance / similarity kernels the losses and evaluation share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, DimensionMismatchError, NonFiniteError, _int_labels

SIM_KINDS = ("cosine", "cosine_over_max")


@dataclass(frozen=True)
class EmbeddingBatch:
    """A B x D block of finite embeddings with one integer class label per row, in any
    layout: a training batch's [N, K] PK layout is batching.sample_pk's promise, not this one's."""

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DimensionMismatchError(f"embedding data must be 2-D, got shape {data.shape}")
        labels = _int_labels(self.labels)
        if labels.shape[0] != data.shape[0]:
            raise DimensionMismatchError(
                f"{labels.shape[0]} labels for {data.shape[0]} embedding rows"
            )
        if not np.all(np.isfinite(data)):
            raise NonFiniteError("embedding batch contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.data.shape[-2]

    @property
    def dim(self) -> int:
        return self.data.shape[-1]


def _unchecked_batch(data: np.ndarray, labels: np.ndarray, cls=EmbeddingBatch) -> EmbeddingBatch:
    """An EmbeddingBatch of float64 (B, D) or (k, B, D) stacked data and B int64 labels, unchecked."""
    batch = object.__new__(cls)  # cls bound at import: a wrapper later put on the name is no class
    batch.__dict__.update(data=data, labels=labels)
    return batch


@dataclass(frozen=True)
class SimMatrix:
    """Symmetric B x B similarity matrix tagged with the kind that produced it."""

    values: np.ndarray
    kind: str = "cosine"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise DimensionMismatchError(f"similarity matrix must be square, got {vals.shape}")
        if self.kind not in SIM_KINDS:
            raise ValueError(f"kind must be one of {SIM_KINDS}, got {self.kind!r}")
        if not np.allclose(vals, vals.T, rtol=0.0, atol=1e-12):
            raise ValueError("similarity matrix must be symmetric")
        if self.kind == "cosine":
            if vals.size and (vals.min() < -1.0 or vals.max() > 1.0):
                raise ValueError("cosine similarities must lie in [-1, 1]")
            if not np.all(np.diag(vals) == 1.0):
                raise ValueError("cosine self-similarity must equal 1")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X scaled to unit rows, and the row norms (over the last axis, so stacks too)."""
    norms = np.linalg.norm(X, axis=-1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateVectorError(f"row {zero[0] % X.shape[-2]} has zero norm and no direction")
    return X / norms[..., None], norms


def _gram(X: np.ndarray) -> np.ndarray:
    """X @ X.T over the last two axes, symmetric to the bit: one GEMM (NumPy's SYRK route is 3x
    slower) averaged with its transpose, halved first so it cannot overflow where X @ X.T does not."""
    G = X @ X.swapaxes(-1, -2).copy()
    G *= 0.5
    return G + G.swapaxes(-1, -2)


def _cosine_values(unit: np.ndarray) -> np.ndarray:
    """Cosines of unit rows, valid by construction: the loss layer skips the SimMatrix checks."""
    vals = _gram(unit)
    np.clip(vals, -1.0, 1.0, out=vals)
    np.einsum("...ii->...i", vals)[...] = 1.0  # a writable view of each diagonal
    return vals


# Fewest rows at which _pairwise_dist takes the Gram form.  The explicit form
# builds the (B, B, D) difference tensor, 8.4 MB at (16, 16).  One call on unit
# rows, d = 16, best of 7 on one pinned CPU, explicit / Gram: 16 rows 14 / 21
# us, 32 rows 40 / 31 us, 64 rows 124 / 64 us, 256 rows 2.8 / 0.9 ms.
_DIST_GRAM_MIN_ROWS = 32
# Gram entries with d^2 <= (n_i + n_j) / ratio are recomputed explicitly.
_DIST_RECOMPUTE_RATIO = 16.0
# Squared row norms the Gram form takes.  Inside this range no product or sum
# overflows, and underflow costs less than one ulp of a kept entry.
_DIST_GRAM_NORMS = (1e-250, 1e250)


def _pairwise_dist(X: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of the rows of X: exactly symmetric, zero diagonal.

    Below _DIST_GRAM_MIN_ROWS rows, every gradcheck batch among them, they
    come from the (B, B, D) differences.  From there on they come from d^2 =
    n_i + n_j - 2 <x_i, x_j> and one BLAS product, and every entry with d^2 <=
    (n_i + n_j) / rho, rho = _DIST_RECOMPUTE_RATIO, is recomputed from explicit
    differences, so close pairs, where the Gram form would cancel, carry the
    explicit form's bits.  Each other entry is within rho (D + 2) eps_mach of
    the exact d^2, relative: its rounding error is at most about (D + 1)
    eps_mach (n_i + n_j) + eps_mach d^2 / 2, and n_i + n_j < rho d^2 there.
    A squared row norm outside _DIST_GRAM_NORMS, or a NaN, sends the whole
    batch to the explicit form, so an entry is finite exactly when it is there.
    """
    if X.shape[-2] >= _DIST_GRAM_MIN_ROWS:
        if X.ndim > 2:  # a (k, B, D) stack: the norm test and the pairs recomputed are per batch
            return np.stack([_pairwise_dist(x) for x in X])
        with np.errstate(over="ignore"):  # an overflow shows in the norms: explicit form
            G = _gram(X)
        n = G.diagonal()
        lo, hi = _DIST_GRAM_NORMS
        if n.min() >= lo and n.max() <= hi:  # a NaN fails both comparisons
            n_sum = n[:, None] + n
            d2 = n_sum - 2.0 * G  # G is symmetric to the bit, so d2 is
            flat = d2.ravel()  # a view: d2 is contiguous
            redo = np.flatnonzero(flat * _DIST_RECOMPUTE_RATIO <= n_sum.ravel())
            i, j = np.divmod(redo, X.shape[0])
            diff = X[i] - X[j]
            flat[redo] = np.einsum("ij,ij->i", diff, diff)
            return np.sqrt(d2, out=d2)
    diff = X[..., None, :] - X[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))


def similarity_matrix(batch: EmbeddingBatch, kind: str = "cosine") -> SimMatrix:
    """Pairwise cosine similarities of all batch rows.

    kind="cosine_over_max" divides every entry by the largest off-diagonal
    similarity, which stretches the scale so the closest non-identical pair
    sits at exactly 1.
    """
    if kind not in SIM_KINDS:
        raise ValueError(f"kind must be one of {SIM_KINDS}, got {kind!r}")
    vals = _cosine_values(_unit_rows(batch.data)[0])
    if kind == "cosine_over_max":
        if batch.size < 2:
            raise ValueError("cosine_over_max needs at least two rows")
        peak = float(vals[~np.eye(batch.size, dtype=bool)].max())  # the largest off-diagonal
        if peak <= 0.0:
            raise ValueError("cosine_over_max is undefined when no off-diagonal similarity is positive")
        vals = vals / peak
    return SimMatrix(vals, kind)


def _write_csv(path, header: str, row_format: str, rows) -> None:
    """The package's one CSV rule: ``header``, then ``row_format.format(*row)`` per row, ASCII,
    newline-terminated, written as the rows come (no whole-table copy).  Float fields take
    ``{:.17g}``, which a read-back turns into the same bits."""
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        f.writelines(row_format.format(*row) + "\n" for row in rows)


def write_sim_matrix_csv(sim: SimMatrix, path) -> None:
    """Write the matrix as ``# kind=<kind> B=<n>`` plus one CSV row per matrix row."""
    _write_csv(path, f"# kind={sim.kind} B={sim.size}", ",".join(["{:.17g}"] * sim.size),
               (row.tolist() for row in sim.values))

