"""Batch-all triplet and positive-pair enumeration plus PK batch sampling.

Counts are verified against brute-force nested loops; ordering and
determinism are asserted exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import (
    BatchSpec,
    PKIndex,
    enumerate_pos_pairs,
    enumerate_triplets,
    pk_index,
    sample_pk,
)
from metriclab.errors import CapacityError, InvalidConfigError, NoNegativesError


def _pk_labels(n_classes, samples_per_class):
    return np.repeat(np.arange(n_classes), samples_per_class)


def _brute_force_triplets(labels):
    out = []
    size = len(labels)
    for a in range(size):
        for p in range(size):
            for n in range(size):
                if a != p and labels[a] == labels[p] and labels[a] != labels[n]:
                    out.append((a, p, n))
    return out


def _brute_force_pairs(labels):
    out = {}
    size = len(labels)
    for a in range(size):
        for p in range(size):
            if a != p and labels[a] == labels[p]:
                out[(a, p)] = [n for n in range(size) if labels[n] != labels[a]]
    return out


class TestBatchSpec:
    def test_sizes(self):
        spec = BatchSpec(8, 8)
        assert spec.batch_size == 64

    def test_rejects_single_class(self):
        with pytest.raises(InvalidConfigError):
            BatchSpec(1, 4)

    def test_rejects_single_sample(self):
        with pytest.raises(InvalidConfigError):
            BatchSpec(4, 1)


class TestEnumerateTriplets:
    def test_minimal_batch_count(self):
        """A (2,2) batch has 4 anchors x 1 positive x 2 negatives = 8 triplets."""
        triplets = enumerate_triplets(_pk_labels(2, 2))
        assert len(triplets) == 8

    def test_matches_brute_force_small(self):
        labels = _pk_labels(2, 2)
        assert enumerate_triplets(labels).as_tuples() == _brute_force_triplets(labels)

    def test_full_batch_count(self):
        """A (8,8) batch enumerates exactly 25088 triplets."""
        assert len(enumerate_triplets(_pk_labels(8, 8))) == 25088

    def test_count_formula_over_grid(self):
        """|triplets| = N*K*(K-1)*(N-1)*K for every full PK shape tested."""
        for n, k in itertools.product((2, 3, 4), repeat=2):
            labels = _pk_labels(n, k)
            assert len(enumerate_triplets(labels)) == n * k * (k - 1) * (n - 1) * k

    def test_label_invariants_hold_exhaustively(self):
        labels = np.array([0, 0, 2, 2, 2, 5])
        for a, p, n in enumerate_triplets(labels).as_tuples():
            assert a != p
            assert labels[a] == labels[p]
            assert labels[a] != labels[n]

    def test_lexicographic_order(self):
        triplets = enumerate_triplets(_pk_labels(3, 2)).as_tuples()
        assert triplets == sorted(triplets)

    def test_unbalanced_labels_match_brute_force(self):
        labels = np.array([4, 0, 0, 4, 1, 4])
        assert enumerate_triplets(labels).as_tuples() == _brute_force_triplets(labels)

    def test_single_class_rejected(self):
        with pytest.raises(NoNegativesError):
            enumerate_triplets(np.array([3, 3, 3, 3]))

    def test_result_arrays_are_read_only(self):
        """Cached enumerations cannot be mutated by one caller under another."""
        triplets = enumerate_triplets(_pk_labels(2, 2))
        with pytest.raises(ValueError):
            triplets.anchors[0] = 99


class TestEnumeratePosPairs:
    def test_minimal_batch(self):
        """A (2,2) batch has 4 ordered same-class pairs, 2 negatives each."""
        pairs = enumerate_pos_pairs(_pk_labels(2, 2))
        assert len(pairs) == 4
        for i in range(len(pairs)):
            assert len(pairs.negatives_of(i)) == 2

    def test_full_batch(self):
        """A (8,8) batch has 448 pairs with 56 negatives each."""
        pairs = enumerate_pos_pairs(_pk_labels(8, 8))
        assert len(pairs) == 448
        for i in range(len(pairs)):
            assert len(pairs.negatives_of(i)) == 56

    def test_matches_brute_force(self):
        labels = np.array([1, 1, 0, 0, 0, 7])
        pairs = enumerate_pos_pairs(labels)
        expected = _brute_force_pairs(labels)
        seen = {(a, p): list(negs) for a, p, negs in pairs.pairs()}
        assert seen == expected

    def test_negatives_are_anchor_relative(self):
        """Negative sets contain every row whose label differs from the anchor's."""
        labels = np.array([0, 0, 1, 1, 2, 2])
        for a, _, negs in enumerate_pos_pairs(labels).pairs():
            np.testing.assert_array_equal(negs, np.nonzero(labels != labels[a])[0])

    def test_all_distinct_labels_empty(self):
        assert len(enumerate_pos_pairs(np.array([0, 1, 2, 3]))) == 0

    def test_single_class_rejected(self):
        with pytest.raises(NoNegativesError):
            enumerate_pos_pairs(np.array([0, 0, 0]))


class TestSamplePk:
    def test_shape_contract(self):
        """Spec (8,8) on a 10x20 pool returns 64 rows, 8 classes, 8 each."""
        labels = _pk_labels(10, 20)
        idx = sample_pk(pk_index(labels, BatchSpec(8, 8)), np.random.default_rng(5))
        assert len(idx) == 64
        picked = labels[idx]
        classes, counts = np.unique(picked, return_counts=True)
        assert len(classes) == 8
        np.testing.assert_array_equal(counts, 8)

    def test_exhaustive_case(self):
        """Spec (2,2) on a 2x2 pool must select every sample exactly once."""
        idx = sample_pk(pk_index(_pk_labels(2, 2), BatchSpec(2, 2)), np.random.default_rng(6))
        assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_no_repeated_rows(self):
        labels = _pk_labels(6, 9)
        idx = sample_pk(pk_index(labels, BatchSpec(4, 5)), np.random.default_rng(7))
        assert len(set(idx.tolist())) == len(idx)

    def test_determinism(self):
        labels = _pk_labels(10, 20)
        index = pk_index(labels, BatchSpec(8, 8))
        a = sample_pk(index, np.random.default_rng(8))
        b = sample_pk(index, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)

    def test_class_blocks_are_contiguous(self):
        """Rows arrive grouped by class so PK layout checks hold downstream."""
        labels = _pk_labels(10, 20)
        picked = labels[sample_pk(pk_index(labels, BatchSpec(5, 4)), np.random.default_rng(9))]
        blocks = picked.reshape(5, 4)
        for row in blocks:
            assert len(set(row.tolist())) == 1

    def test_too_few_classes(self):
        with pytest.raises(CapacityError, match="classes"):
            pk_index(np.array([0, 0, 1, 1]), BatchSpec(3, 2))

    def test_too_few_samples_in_class(self):
        with pytest.raises(CapacityError):
            pk_index(np.array([0, 0, 0, 1]), BatchSpec(2, 2))

    def test_class_selection_near_uniform(self):
        """Over many draws every class is picked at close to the uniform rate."""
        labels = _pk_labels(10, 4)
        rng = np.random.default_rng(10)
        index = pk_index(labels, BatchSpec(4, 2))
        counts = np.zeros(10)
        draws = 10000
        for _ in range(draws):
            idx = sample_pk(index, rng)
            counts[np.unique(labels[idx])] += 1
        expected = draws * 4 / 10
        assert np.all(np.abs(counts - expected) <= 0.05 * expected)


# ---------------------------------------------------------------------------
# the per-run PK index against the sampler it replaced


def _label_scan_sample_pk(labels, spec, rng):
    """The sampler as it was before the PK index: a full label scan per draw."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
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
    chosen = rng.choice(eligible, size=spec.n_classes, replace=False)
    blocks = []
    for c in chosen:
        rows = np.flatnonzero(labels == c)
        blocks.append(rng.choice(rows, size=spec.samples_per_class, replace=False))
    return np.concatenate(blocks)


@st.composite
def _label_pools(draw):
    """Unbalanced class sizes (some below K, some empty), sparse label values, shuffled rows."""
    n_classes = draw(st.integers(1, 9))
    values = draw(st.lists(st.integers(-1000, 10**6), min_size=n_classes,
                           max_size=n_classes, unique=True))
    counts = draw(st.lists(st.integers(0, 12), min_size=n_classes, max_size=n_classes))
    labels = np.repeat(np.array(values, dtype=np.int64), counts)
    if draw(st.booleans()):
        labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(labels)
    spec = BatchSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    return labels, spec, draw(st.integers(0, 2**32 - 1))


def _capacity_message(fn):
    try:
        fn()
    except CapacityError as exc:
        return str(exc)
    return None


class TestPKIndex:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_label_pools())
    def test_same_rows_stream_and_errors_as_the_label_scan(self, pool):
        """Over a prebuilt index, 20 draws give the rows the label-scan
        sampler gave and leave the generator where it left it; building the
        index refuses an impossible layout with the same CapacityError message."""
        labels, spec, seed = pool
        want = _capacity_message(lambda: _label_scan_sample_pk(labels, spec, np.random.default_rng(0)))
        assert _capacity_message(lambda: pk_index(labels, spec)) == want
        if want is not None:
            return
        index = pk_index(labels, spec)
        old_rng, index_rng = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(20):
            old = _label_scan_sample_pk(labels, spec, old_rng)
            rows = sample_pk(index, index_rng)
            np.testing.assert_array_equal(rows, old)
            assert rows.dtype == old.dtype
            # the layout guarantee the training step relies on instead of re-checking it
            blocks = labels[rows].reshape(spec.n_classes, spec.samples_per_class)
            assert np.all(blocks == blocks[:, :1])
            assert np.unique(blocks[:, 0]).size == spec.n_classes
            assert np.unique(rows).size == rows.size
        assert old_rng.bit_generator.state == index_rng.bit_generator.state

    def test_index_lists_eligible_classes_in_ascending_order(self):
        labels = np.array([7, 3, 7, 9, 3, 7, 9, 9, 1])
        index = pk_index(labels, BatchSpec(2, 3))
        assert isinstance(index, PKIndex)
        assert [r.tolist() for r in index.class_rows] == [[0, 2, 5], [3, 6, 7]]

    def test_index_is_read_only(self):
        index = pk_index(_pk_labels(3, 4), BatchSpec(2, 2))
        with pytest.raises(ValueError):
            index.class_rows[0][0] = 5
