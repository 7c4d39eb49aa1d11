"""PK batch sampling and the batch-all (anchor, positive, negative) layout.

A PK batch holds N classes with K samples each.  Mining is exhaustive
("batch all", Hermans, Beyer & Leibe, arXiv:1703.07737): every ordered
(anchor, positive) pair with every sample of a different class.
:func:`anchor_layout` stores that set once per label pattern as padded
per-anchor blocks of positives and negatives; the flat triplet and
positive-pair enumerations are views of it in lexicographic (anchor,
positive, negative) order, so reductions are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, InvalidConfigError, NoNegativesError, _check_fields, _int_labels


@dataclass(frozen=True)
class BatchSpec:
    """[N, K] mini-batch layout: ``n_classes`` classes, ``samples_per_class`` each."""

    n_classes: int
    samples_per_class: int

    def __post_init__(self):
        # one class leaves no negatives, one sample per class no positives
        _check_fields(self, least={"n_classes": 2, "samples_per_class": 2})

    @property
    def batch_size(self) -> int:
        return self.n_classes * self.samples_per_class


@dataclass(frozen=True)
class TripletIndexSet:
    """All (anchor, positive, negative) row-index triples of one batch.

    Stored as three parallel arrays; ``as_tuples`` gives the list view.
    """

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        if not (len(self.anchors) == len(self.positives) == len(self.negatives)):
            raise InvalidConfigError("triplet index arrays must have equal length")

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    def as_tuples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.anchors.tolist(), self.positives.tolist(), self.negatives.tolist()))


@dataclass(frozen=True)
class PosPairSet:
    """All ordered same-class (anchor, positive) pairs with their negative sets.

    The negatives of pair ``i`` are ``neg_rows[neg_offsets[i]:neg_offsets[i+1]]``:
    every row whose label differs from the anchor's, in ascending row order.
    """

    anchors: np.ndarray
    positives: np.ndarray
    neg_rows: np.ndarray
    neg_offsets: np.ndarray

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    def negatives_of(self, i: int) -> np.ndarray:
        return self.neg_rows[self.neg_offsets[i]:self.neg_offsets[i + 1]]

    def pairs(self):
        """Yield (anchor, positive, negatives) per pair, in enumeration order."""
        for i in range(len(self)):
            yield int(self.anchors[i]), int(self.positives[i]), self.negatives_of(i)


def _canonical_key(labels: np.ndarray) -> tuple[int, ...]:
    # relabel by first appearance so the cache hits on any batch with the
    # same grouping pattern, whatever the raw label values are
    seen: dict[int, int] = {}
    out = []
    for v in labels.tolist():
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AnchorLayout:
    """The batch-all triplets of one label pattern as padded per-anchor blocks.

    Row ``a`` of ``pos_idx`` (B, P) lists the rows sharing a's label, a
    itself excluded, and row ``a`` of ``neg_idx`` (B, M) the rows with
    another label, both ascending and padded to the longest row with ``a``
    itself, where ``pos_mask`` / ``neg_mask`` are False.  ``grid`` (B, P, M)
    marks the real triplets; ``pos_flat`` / ``neg_flat`` are the blocks as
    offsets a * B + index into a row-major B x B matrix.
    """

    pos_idx: np.ndarray
    pos_mask: np.ndarray
    neg_idx: np.ndarray
    neg_mask: np.ndarray
    grid: np.ndarray
    pos_flat: np.ndarray
    neg_flat: np.ndarray

    @cached_property
    def n_triplets(self) -> int:
        return int(np.count_nonzero(self.grid))

    @cached_property
    def n_pairs(self) -> int:
        return int(np.count_nonzero(self.pos_mask))

    def stacked_flat(self, stack: tuple) -> tuple[np.ndarray, np.ndarray]:
        """pos_flat and neg_flat offset into each B x B matrix of a raveled ``stack`` of them."""
        cache = self.__dict__.setdefault("_stacked_flat", {})  # per stack shape, as cached_property keeps
        if stack not in cache:
            start = self.pos_idx.shape[0] ** 2 * np.arange(np.prod(stack, dtype=int)).reshape(stack + (1, 1))
            cache[stack] = _freeze(self.pos_flat + start), _freeze(self.neg_flat + start)
        return cache[stack]


def _padded_rows(member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column indices of each row's True entries, ascending, padded with the row's own index."""
    width = int(member.sum(axis=1).max(initial=0))
    order = np.argsort(~member, axis=1, kind="stable")[:, :width]
    mask = np.take_along_axis(member, order, axis=1)
    idx = np.where(mask, order, np.arange(member.shape[0])[:, None])
    return _freeze(idx.astype(np.int64)), _freeze(mask)


@lru_cache(maxsize=64)
def _anchor_layout_cached(key: tuple[int, ...]) -> AnchorLayout:
    labels = np.asarray(key, dtype=np.int64)
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(labels.size, dtype=bool)
    if pos.any() and same.all():
        raise NoNegativesError("batch contains a single class; no positive pair has a negative")
    pos_idx, pos_mask = _padded_rows(pos)
    neg_idx, neg_mask = _padded_rows(~same)
    grid = _freeze(pos_mask[:, :, None] & neg_mask[:, None, :])
    base = np.arange(labels.size)[:, None] * labels.size
    return AnchorLayout(pos_idx, pos_mask, neg_idx, neg_mask, grid,
                        _freeze(base + pos_idx), _freeze(base + neg_idx))


def anchor_layout(labels) -> AnchorLayout:
    """Per-anchor positives and negatives of a batch, cached per label pattern.

    Raises NoNegativesError when positives exist but the batch holds only
    one class.  A batch with no same-class pair at all has P == 0.
    """
    return _anchor_layout_cached(_canonical_key(_int_labels(labels)))


def enumerate_triplets(labels) -> TripletIndexSet:
    """Every (anchor, positive, negative) index triple, lexicographically ordered.

    Raises NoNegativesError when positives exist but the batch holds only
    one class.  A batch with no same-class pair at all yields an empty set.
    """
    lay = anchor_layout(labels)
    anchors, i, j = np.nonzero(lay.grid)  # row-major: sorted by (a, i, j), so by (a, p, n)
    return TripletIndexSet(_freeze(anchors), _freeze(lay.pos_idx[anchors, i]),
                           _freeze(lay.neg_idx[anchors, j]))


def enumerate_pos_pairs(labels) -> PosPairSet:
    """Every ordered same-class (anchor, positive) pair with all other-class rows as negatives."""
    lay = anchor_layout(labels)
    anchors, i = np.nonzero(lay.pos_mask)
    offsets = np.concatenate(([0], np.cumsum(lay.neg_mask.sum(axis=1)[anchors])))
    neg_rows = lay.neg_idx[anchors][lay.neg_mask[anchors]]
    return PosPairSet(_freeze(anchors), _freeze(lay.pos_idx[anchors, i]),
                      _freeze(neg_rows), _freeze(offsets.astype(np.int64)))


@dataclass(frozen=True)
class PKIndex:
    """The rows of every class that can fill a ``spec`` block, built once per label set.

    ``class_rows[i]`` holds the ascending rows of the i-th eligible class
    (eligible classes ascending).  :func:`sample_pk` draws from it without
    touching the labels again, so a training loop builds it once per run.
    """

    spec: BatchSpec
    class_rows: tuple[np.ndarray, ...]


def pk_index(labels, spec: BatchSpec) -> PKIndex:
    """Index the classes with at least ``spec.samples_per_class`` rows.

    Raises CapacityError when fewer than ``spec.n_classes`` classes exist,
    or fewer than that many have enough rows.
    """
    labels = _int_labels(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < spec.n_classes:
        raise CapacityError(
            f"dataset has {classes.size} classes but the batch needs {spec.n_classes}"
        )
    eligible = classes[counts >= spec.samples_per_class]
    if eligible.size < spec.n_classes:
        raise CapacityError(
            f"only {eligible.size} classes have >= {spec.samples_per_class} samples; "
            f"the batch needs {spec.n_classes}"
        )
    return PKIndex(spec, tuple(_freeze(np.flatnonzero(labels == c)) for c in eligible))


def sample_pk(index: PKIndex, rng: np.random.Generator) -> np.ndarray:
    """Draw a PK batch of dataset row indices, without replacement at both levels.

    Picks ``index.spec.n_classes`` distinct classes among the indexed ones,
    then ``samples_per_class`` distinct rows from each.  The result is
    class-block contiguous, so the labels of the rows always form a full
    [N, K] layout.  Deterministic given the generator state.
    """
    spec = index.spec
    # choice(n) then indexing consumes the stream choice(array of length n) does
    chosen = rng.choice(len(index.class_rows), size=spec.n_classes, replace=False)
    blocks = []
    for c in chosen:
        rows = index.class_rows[c]
        blocks.append(rows[rng.choice(rows.size, size=spec.samples_per_class, replace=False)])
    return np.concatenate(blocks)
