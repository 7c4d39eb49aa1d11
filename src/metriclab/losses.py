"""Forward values and hand-derived gradients for the loss family.

Every loss maps an :class:`~metriclab.core.EmbeddingBatch` to a
:class:`LossResult` whose ``grad`` is the exact derivative of the reduced
scalar with respect to the batch matrix.  No autodiff anywhere.  The pair
losses gather anchor-positive (B, P) and anchor-negative (B, M) blocks of
the batch's :class:`~metriclab.batching.AnchorLayout` from one shared
:class:`BatchGeometry`, sum each term's weights over the other axis into
one coefficient per pair, and push the B x B coefficient matrix through one
of three closed-form chain rules (distance, raw inner product, cosine).
Every loss is row-wise: (k, B, D) data, k batches of one label layout, gives k values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .batching import AnchorLayout, anchor_layout
from .core import EmbeddingBatch, _cosine_values, _gram, _pairwise_dist, _unit_rows
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    NonFiniteError,
    _check_fields,
)

REDUCTIONS = ("mean_over_nonzero", "mean_over_all")
COMBINED_VARIANTS = ("simce", "m_simce")


@dataclass(frozen=True)
class LossConfig:
    """Shared knobs for the loss family.

    reduction applies to the hinge losses: mean_over_nonzero divides by the
    number of triplets with a strictly positive hinge (the batch-all
    convention), mean_over_all by the full triplet count.
    normalize_for_simce switches the contrastive losses from raw inner
    products to cosine scores.  detach_similarity freezes the similarity
    weights of the weighted triplet loss, so no gradient flows through them.
    """

    margin: float = 0.2
    temperature: float = 1.0
    reduction: str = "mean_over_nonzero"
    normalize_for_simce: bool = False
    detach_similarity: bool = False

    def __post_init__(self):
        _check_fields(self, least={"margin": 0})
        if self.temperature <= 0.0:
            raise InvalidConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.reduction not in REDUCTIONS:
            raise InvalidConfigError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")


@dataclass(frozen=True)
class LossResult:
    """Scalar loss, its gradient, and the active-triplet counters.

    n_non counts triplets with a strictly positive hinge; losses without a
    hinge report n_non == n_total.  Classifier-head gradients ride along
    when the loss touches a head.  A stack's counters total over it; one batch's value is a float.
    """

    value: float
    grad: np.ndarray
    n_non: int
    n_total: int
    head_grad_weight: np.ndarray | None = None
    head_grad_bias: np.ndarray | None = None

    def __post_init__(self):
        if getattr(self.value, "ndim", 0) == 0:
            object.__setattr__(self, "value", float(self.value))
        if not (0 <= self.n_non <= self.n_total):
            raise ValueError(f"n_non={self.n_non} outside [0, n_total={self.n_total}]")
        if not (math.isfinite(self.value) if isinstance(self.value, float) else np.isfinite(self.value).all()):
            raise NonFiniteError("loss value is non-finite")
        if not np.isfinite(self.grad).all():
            raise NonFiniteError("loss gradient contains non-finite entries")


@dataclass
class ClassifierHead:
    """Affine map from the embedding space onto class logits."""

    weight: np.ndarray  # (n_classes, dim)
    bias: np.ndarray    # (n_classes,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if self.weight.ndim != 2:
            raise DimensionMismatchError(f"head weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise DimensionMismatchError(
                f"{self.bias.shape[0]} biases for {self.weight.shape[0]} classes"
            )

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, n_classes: int, dim: int, scale: float = 0.1):
        return cls(rng.standard_normal((n_classes, dim)) * scale, np.zeros(n_classes))


def weight_from_sim(s):
    """Map similarity s in [-1, 1] to the weight (1 - s) / 2 in [0, 1]."""
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < -1.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"similarity outside [-1, 1]: {s!r}")
    out = (1.0 - arr) / 2.0
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# batch geometry and gradient assembly


class BatchGeometry:
    """Pairwise geometry of one batch, computed once and shared by the loss terms.

    Each piece is computed on first use, so a distance-only term accepts zero-norm rows.
    """

    def __init__(self, batch: EmbeddingBatch):
        self.batch = batch
        self.layout = anchor_layout(batch.labels)
        self.copies = math.prod(batch.data.shape[:-2])  # batches in a stack, 1 for one batch
        self.pos_flat, self.neg_flat = self.layout.stacked_flat(batch.data.shape[:-2])

    @cached_property
    def dist(self) -> np.ndarray:
        return _pairwise_dist(self.batch.data)

    @cached_property
    def unit_norms(self) -> tuple[np.ndarray, np.ndarray]:
        return _unit_rows(self.batch.data)

    @cached_property
    def sim(self) -> np.ndarray:
        return _cosine_values(self.unit_norms[0])

    def scores(self, cfg: LossConfig) -> np.ndarray:
        """Score matrix of the contrastive losses: cosines or raw inner products."""
        if cfg.normalize_for_simce:
            return self.sim
        return _gram(self.batch.data)

    def score_grad(self, C: np.ndarray, cfg: LossConfig) -> np.ndarray:
        if cfg.normalize_for_simce:
            return _grad_from_cos(C, *self.unit_norms, self.sim)
        return (C + C.swapaxes(-1, -2)) @ self.batch.data

    def blocks(self, pairwise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """pairwise[..., a, positives of a] as (..., B, P) and its negatives as (..., B, M)."""
        flat = pairwise.reshape(-1)
        return flat[self.pos_flat], flat[self.neg_flat]

    def coefficients(self, c_pos: np.ndarray, c_neg: np.ndarray) -> np.ndarray:
        """B x B matrices with c_pos and c_neg put back at the layout's (a, p) and (a, n).

        Padding slots point at the diagonal and must carry zero, so it stays zero.
        """
        C = np.zeros(self.batch.data.shape[:-1] + (self.batch.size,))
        flat = C.reshape(-1)  # a view: C is contiguous
        flat[self.pos_flat] = c_pos
        flat[self.neg_flat] = c_neg
        return C


def _grad_from_dist(C: np.ndarray, X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij C_ij * D_ij with D the pairwise-distance matrix.

    Coincident pairs (D_ij == 0) contribute nothing: the subgradient there
    is pinned to zero.
    """
    R = C + C.swapaxes(-1, -2)
    M = np.divide(R, D, out=np.zeros_like(R), where=D > 0.0)
    return M.sum(axis=-1)[..., None] * X - M @ X


def _grad_from_cos(C: np.ndarray, unit: np.ndarray, norms: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Gradient of sum_ij C_ij * S_ij with S the cosine matrix (C diagonal must be zero)."""
    R = C + C.swapaxes(-1, -2)
    return (R @ unit - (R * S).sum(axis=-1)[..., None] * unit) / norms[..., None]


# Fewest positive slots per anchor (P) at which _hinge sorts instead of counting
# over the (B, P, M) grid: O(B (P + M) log(P + M)) plus about 25 us more fixed cost
# a call, against O(B P M).  One hinge call on unit rows, d = 16, median thread time
# on one pinned CPU of a 2-vCPU VM, median of five runs, grid / sort, for (N, K) PK
# batches: (4, 4) 22 / 45 us, (8, 8) 92 / 117 us, (8, 13) 286 / 263 us, (8, 14) 347 /
# 291 us, (4, 32) 0.86 / 0.40 ms: the sort leads or ties from P = 13 up to N = 8, and
# at N = 16 the two are close from P = 13: (16, 14) 1.54 / 1.62, (16, 16) 2.09 / 2.08 ms.
_HINGE_SORT_MIN_P = 13


def _hinge_counts(v: np.ndarray, y: np.ndarray, lay: AnchorLayout):
    """k[a, p] = #{n : y[a, n] < v[a, p]} and c[a, n] = #{p : v[a, p] > y[a, n]} over
    the layout's real slots (0 in padded ones), from one sort per anchor.

    v and y must be >= 0 or NaN, so they order as their bit patterns: each is
    keyed 2 * bits + tag, tag 1 for a negative, and a threshold sorts before an
    equal negative, a tie staying inactive as under v > y.  Padded and NaN
    thresholds key to 0 and padded negatives to the largest key, so they count
    nothing; the shift drops the sign bit, so -0.0 keys as 0.0 and a NaN
    negative of either sign sorts past every threshold.  So k and c are the
    grid's sums on every input.
    """
    width = v.shape[-1]
    one = np.uint64(1)
    keys = np.concatenate([
        np.where(lay.pos_mask & (v == v), v.view(np.uint64) << one, np.uint64(0)),
        np.where(lay.neg_mask, (y.view(np.uint64) << one) | one, np.uint64(np.iinfo(np.uint64).max)),
    ], axis=-1)
    order = np.argsort(keys, axis=-1)
    is_neg = order >= width
    negs_so_far = np.cumsum(is_neg, axis=-1)
    # a threshold counts the negatives before it, a negative the thresholds after it
    thresholds_after = negs_so_far + (width - 1 - np.arange(keys.shape[-1]))
    counts = np.empty_like(negs_so_far)
    np.put_along_axis(counts, order, np.where(is_neg, thresholds_after, negs_so_far), axis=-1)
    return counts[..., :width], counts[..., width:]


def _hinge(geo: BatchGeometry, cfg: LossConfig, ap: np.ndarray, an: np.ndarray):
    """Reduced relu(margin + ap[a, p] - an[a, n]) over the batch's triplets: the value,
    the weight each (a, p) and (a, n) collects from its active triplets, n_non, n_total.

    The counts come from _hinge_counts from P = _HINGE_SORT_MIN_P on and from the grid
    below it, the same bits either way, and so do the gradient and the value, sum k v - sum c an
    over counted slots (a non-finite v or an left inactive stays out).  Its error is about
    B (P + M) eps_mach of sum k |v| + sum c |an|, so near-tied hinges may sum below 0: it clamps to 0.
    """
    lay = geo.layout
    v = cfg.margin + ap
    if ap.shape[-1] >= _HINGE_SORT_MIN_P:
        k, c = _hinge_counts(v, an, lay)
    else:
        active = (v[..., None] > an[..., None, :]) & lay.grid
        k, c = active.sum(axis=-1), active.sum(axis=-2)
    total = np.maximum((k * v).sum(axis=(-2, -1), where=k > 0) - (c * an).sum(axis=(-2, -1), where=c > 0), 0.0)
    n_non = k.sum(axis=(-2, -1), keepdims=True)  # arrays, not scalars: NumPy's faster path
    counted = n_non if cfg.reduction == "mean_over_nonzero" else np.full_like(n_non, lay.n_triplets)
    denom = np.maximum(counted, 1.0)
    return total / denom[..., 0, 0], k / denom, c / denom, int(n_non.sum()), lay.n_triplets * n_non.size


# ---------------------------------------------------------------------------
# kernels: (value, grad, n_non, n_total[, head grads]) with no checks; the
# public losses below validate once and wrap the tuple in one LossResult


def _triplet(geo: BatchGeometry, cfg: LossConfig):
    d_ap, d_an = geo.blocks(geo.dist)
    value, lam_p, lam_n, n_non, n_total = _hinge(geo, cfg, d_ap, d_an)
    grad = _grad_from_dist(geo.coefficients(lam_p, -lam_n), geo.batch.data, geo.dist)
    return value, grad, n_non, n_total


def _s_triplet(geo: BatchGeometry, cfg: LossConfig):
    d_ap, d_an = geo.blocks(geo.dist)
    s_ap, s_an = geo.blocks(geo.sim)
    # weight_from_sim without its range checks: _cosine_values clipped the cosines
    w_ap, w_an = (1.0 - s_ap) / 2.0, (1.0 - s_an) / 2.0
    value, lam_p, lam_n, n_non, n_total = _hinge(geo, cfg, w_ap * d_ap, w_an * d_an)
    grad = _grad_from_dist(geo.coefficients(lam_p * w_ap, -lam_n * w_an), geo.batch.data, geo.dist)
    if not cfg.detach_similarity:
        # dw/dS = -1/2, with the distances held as multipliers
        Cs = geo.coefficients(-0.5 * lam_p * d_ap, 0.5 * lam_n * d_an)
        grad = grad + _grad_from_cos(Cs, *geo.unit_norms, geo.sim)
    return value, grad, n_non, n_total


# Widest score range, over T, that simce factors.  Every factor's exponent is
# then within +-350 and a product of two within e^{+-700}, inside the normal
# doubles (e^{+-708}): nothing overflows or flushes to zero.
_SIMCE_FACTOR_SPAN = 700.0


def _simce_factors(scores: np.ndarray, g_ap: np.ndarray, g_an: np.ndarray, lay: AnchorLayout,
                   temperature: float):
    """Per-anchor factors Ep (B, P) and En (B, M) with Ep[a, p] * En[a, n] = exp(z) on
    the grid, z = (g_an[a, n] - g_ap[a, p]) / T, and exactly 0 in padded slots.

    One shift c per batch, the midpoint of the score matrix's range, so every
    exponent of Ep = exp((c - g_ap) / T) and En = exp((g_an - c) / T), padded
    slots included (they hold diagonal scores), is at most half that range
    over T.  A batch does not factor when the range over T exceeds
    _SIMCE_FACTOR_SPAN: raw scores at large norms, or a tiny temperature.
    Cosines span at most 2, so they factor at every T >= 2 / 700.  None when no batch
    factors, else (ok, Ep, En): ok is ... when all do, else the mask of those that do.
    """
    lo, hi = scores.min(axis=(-2, -1)), scores.max(axis=(-2, -1))
    ok = (hi - lo) / temperature <= _SIMCE_FACTOR_SPAN  # <=, so NaN does not factor
    factored = np.count_nonzero(ok) if lay.n_triplets else 0
    if not factored:
        return None
    ok = ... if factored == ok.size else ok
    c = (0.5 * (lo + hi))[ok][..., None, None]
    return (ok, np.exp((c - g_ap[ok]) / temperature) * lay.pos_mask,
            np.exp((g_an[ok] - c) / temperature) * lay.neg_mask)


def _simce_direct(g_ap: np.ndarray, g_an: np.ndarray, grid: np.ndarray, temperature: float):
    """Sum of softplus(z) over the grid, and sigmoid(z) on it summed over its negatives
    (B, P) and over its positives (B, M), from e = exp(-|z|), which cannot overflow:
    the fallback of the factored form."""
    z = (g_an[..., None, :] - g_ap[..., None]) / temperature
    e = np.exp(-np.abs(z))
    total = (np.maximum(z, 0.0) + np.log1p(e)).sum(axis=(-3, -2, -1), where=grid)
    lam = np.where(grid, np.where(z >= 0.0, 1.0, e) / (1.0 + e), 0.0)
    return total, lam.sum(axis=-1), lam.sum(axis=-2)


# Most (rows, P, M) grid elements the factored simce takes in one pass, over
# the whole stack: its two slabs of doubles, 512 KB, stay in L2, where the
# (16, 16) grid, 7.4 MB, would stream from memory on every pass.
_SIMCE_BLOCK_ELEMS = 32768


def _simce_slab(e_p: np.ndarray, e_n: np.ndarray):
    """Sum of softplus(z) over the factors' grid, and sigmoid(z) summed over
    its negatives (rows, P) and over its positives (rows, M)."""
    # u = exp(z), 0 off the grid: softplus(z) = log1p(u) and sigmoid(z) =
    # u / (1 + u), written into u and one more grid-sized buffer
    u = e_p[..., None] * e_n[..., None, :]
    buf = np.log1p(u)
    total = buf.sum(axis=(-3, -2, -1))
    lam = np.divide(u, np.add(u, 1.0, out=buf), out=u)
    return total, lam.sum(axis=-1), lam.sum(axis=-2)


def _simce_blocks(e_p: np.ndarray, e_n: np.ndarray):
    """_simce_slab over blocks of anchors (axis -2) of at most _SIMCE_BLOCK_ELEMS grid
    elements over the stack (one anchor a block when its grid is larger).

    Each anchor's sums are the same bits whatever the block; the total only
    moves by rounding.
    """
    rows = max(1, _SIMCE_BLOCK_ELEMS // (math.prod(e_p.shape[:-2]) * e_p.shape[-1] * e_n.shape[-1]))
    if rows >= e_p.shape[-2]:  # no loop for one block
        return _simce_slab(e_p, e_n)
    total, lam_p, lam_n = 0.0, np.empty_like(e_p), np.empty_like(e_n)
    for a in range(0, e_p.shape[-2], rows):
        block = np.s_[..., a:a + rows, :]
        part, lam_p[block], lam_n[block] = _simce_slab(e_p[block], e_n[block])
        total += part
    return total, lam_p, lam_n


def _simce(geo: BatchGeometry, cfg: LossConfig):
    lay = geo.layout
    scores = geo.scores(cfg)
    g_ap, g_an = geo.blocks(scores)
    n_total = lay.n_triplets
    factors = _simce_factors(scores, g_ap, g_an, lay, cfg.temperature)
    if factors is not None and factors[0] is ...:
        total, lam_p, lam_n = _simce_blocks(*factors[1:])
    else:  # each batch of a stack takes the form its own call takes
        total, lam_p, lam_n = _simce_direct(g_ap, g_an, lay.grid, cfg.temperature)
        if factors is not None:
            total[factors[0]], lam_p[factors[0]], lam_n[factors[0]] = _simce_blocks(*factors[1:])
    scale = cfg.temperature * max(n_total, 1)
    grad = geo.score_grad(geo.coefficients(-lam_p / scale, lam_n / scale), cfg)
    return total / max(n_total, 1), grad, n_total * geo.copies, n_total * geo.copies


def _m_simce(geo: BatchGeometry, cfg: LossConfig):
    lay = geo.layout
    n_pairs = lay.n_pairs
    if n_pairs == 0:
        return np.zeros(geo.batch.data.shape[:-2]), np.zeros_like(geo.batch.data), 0, 0
    g_ap, g_an = geo.blocks(geo.scores(cfg))
    sp = g_ap / cfg.temperature
    # every anchor has a negative here: positives exist, so two classes do
    sn = np.where(lay.neg_mask, g_an / cfg.temperature, -np.inf)
    shift_a = sn.max(axis=-1, keepdims=True)
    e_sn = np.exp(sn - shift_a)
    shift = np.maximum(sp, shift_a)
    e_sp = np.exp(sp - shift)
    rescale = np.exp(shift_a - shift)
    total = e_sp + rescale * e_sn.sum(axis=-1, keepdims=True)
    per_pair = np.log(total) + shift - sp
    value = per_pair[..., lay.pos_mask].sum(axis=-1) / n_pairs
    scale = cfg.temperature * n_pairs
    c_pos = np.where(lay.pos_mask, e_sp / total - 1.0, 0.0) / scale
    c_neg = e_sn * np.where(lay.pos_mask, rescale / total, 0.0).sum(axis=-1, keepdims=True) / scale
    grad = geo.score_grad(geo.coefficients(c_pos, c_neg), cfg)
    return value, grad, n_pairs * geo.copies, n_pairs * geo.copies


def _ce(batch: EmbeddingBatch, head: ClassifierHead):
    X, y, b = batch.data, batch.labels, batch.size
    logits = X @ head.weight.T + head.bias
    shift = logits.max(axis=-1, keepdims=True)
    log_z = shift + np.log(np.exp(logits - shift).sum(axis=-1, keepdims=True))
    log_prob = logits - log_z
    rows, n = np.arange(b), math.prod(X.shape[:-1])
    value = -log_prob[..., rows, y].mean(axis=-1)
    dlogits = np.exp(log_prob)
    dlogits[..., rows, y] -= 1.0
    dlogits /= b
    return value, dlogits @ head.weight, n, n, dlogits.swapaxes(-1, -2) @ X, dlogits.sum(axis=-2)


def _check_head(batch: EmbeddingBatch, head: ClassifierHead) -> None:
    if batch.dim != head.dim:
        raise DimensionMismatchError(f"embeddings have dim {batch.dim}, head expects {head.dim}")
    y = batch.labels
    if y.size and (y.min() < 0 or y.max() >= head.n_classes):
        bad = y[(y < 0) | (y >= head.n_classes)][0]
        raise InvalidLabelError(f"label {bad} outside [0, {head.n_classes})")


def triplet_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossResult:
    """Batch-all margin triplet loss on Euclidean distances.

    Per triplet: relu(margin + d(a, p) - d(a, n)).
    """
    return LossResult(*_triplet(BatchGeometry(batch), cfg))


def s_triplet_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossResult:
    """Similarity-weighted triplet loss.

    Each distance is scaled by (1 - cos) / 2 of its pair before entering the
    hinge, so nearly-parallel positives stop pulling and nearly-parallel
    negatives push hardest.  Unless cfg.detach_similarity is set, the
    gradient also flows through the cosine weights themselves.
    """
    return LossResult(*_s_triplet(BatchGeometry(batch), cfg))


def simce_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossResult:
    """Two-way softmax cross entropy per triplet on anchor inner products.

    Per triplet: -log(e^{<a,p>/T} / (e^{<a,p>/T} + e^{<a,n>/T})), which is
    softplus((<a,n> - <a,p>) / T), averaged over all triplets.  Every
    triplet contributes, so n_non == n_total.  The exponentials are taken
    per anchor: e^z = e^{(c - <a,p>)/T} * e^{(<a,n> - c)/T} with one shift c
    per batch, and padded slots of the factors are exactly 0, so one product
    over the triplet grid gives softplus as log1p and sigmoid as u / (1 + u).
    Scores spanning more than 700 T (raw inner products at large norms, or a
    tiny T) fall back to the exp(-|z|) form, which cannot overflow.
    """
    return LossResult(*_simce(BatchGeometry(batch), cfg))


def m_simce_loss(batch: EmbeddingBatch, cfg: LossConfig) -> LossResult:
    """Multi-negative softmax cross entropy per positive pair.

    Per ordered pair (a, p): -log(e^{<a,p>/T} / (e^{<a,p>/T} +
    sum_k e^{<a,n_k>/T})) with every other-class row of the batch as a
    negative, averaged over pairs.  The negatives' sum depends on the
    anchor only, so it is taken once per anchor and rescaled per pair.
    Log-sum-exp is max-shifted, so scores up to about 700 in magnitude stay
    finite.
    """
    return LossResult(*_m_simce(BatchGeometry(batch), cfg))


def ce_loss(batch: EmbeddingBatch, head: ClassifierHead) -> LossResult:
    """Softmax cross entropy on head logits, with gradients for the head too."""
    _check_head(batch, head)
    return LossResult(*_ce(batch, head))


def combined_loss(batch: EmbeddingBatch, head: ClassifierHead, cfg: LossConfig,
                  variant: str = "simce") -> LossResult:
    """Weighted triplet + classifier cross entropy + one contrastive term.

    variant picks the contrastive term: "simce" (one negative per triplet)
    or "m_simce" (all negatives per positive pair).  All three terms enter
    with unit coefficients; the triplet counters are taken from the hinge
    term, which is the one that goes quiet as training converges.  The
    checks run once, on the labels and on the summed value and gradient.
    """
    if variant not in COMBINED_VARIANTS:
        raise InvalidConfigError(f"variant must be one of {COMBINED_VARIANTS}, got {variant!r}")
    _check_head(batch, head)
    geo = BatchGeometry(batch)
    h_value, h_grad, n_non, n_total = _s_triplet(geo, cfg)
    ce_value, ce_grad, _, _, head_grad_weight, head_grad_bias = _ce(batch, head)
    c_value, c_grad, _, _ = (_simce if variant == "simce" else _m_simce)(geo, cfg)
    return LossResult(h_value + ce_value + c_value, h_grad + ce_grad + c_grad, n_non, n_total,
                      head_grad_weight, head_grad_bias)


# Every loss by name, called as LOSSES[name](batch, cfg, head).  Entries look
# the functions up when called, so wrappers installed on these names see them.
LOSSES = {
    "triplet": lambda batch, cfg, head: triplet_loss(batch, cfg),
    "s_triplet": lambda batch, cfg, head: s_triplet_loss(batch, cfg),
    "simce": lambda batch, cfg, head: simce_loss(batch, cfg),
    "m_simce": lambda batch, cfg, head: m_simce_loss(batch, cfg),
    "ce": lambda batch, cfg, head: ce_loss(batch, head),
    "combined_simce": lambda batch, cfg, head: combined_loss(batch, head, cfg, "simce"),
    "combined_m_simce": lambda batch, cfg, head: combined_loss(batch, head, cfg, "m_simce"),
}
