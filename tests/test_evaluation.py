"""Retrieval and geometry metrics: rank-1 accuracy, hypersphere uniformity,
inter/intra-class distance statistics, and similarity-matrix snapshots.

Vectorized paths are compared against brute-force double loops written in
this file; closed-form values come from single-pair hand arithmetic.
"""

import math

import numpy as np
import pytest

from metriclab import (
    EmbeddingBatch,
    GalleryProbeSplit,
    build_geometry_report,
    rank1,
    snapshot_sim_matrix,
    uniformity,
    variance_ratio,
)
from metriclab import core, evaluation
from metriclab.errors import DegenerateVectorError, NonFiniteError


def _brute_force_rank1(split):
    hits = 0
    for i in range(len(split.probe)):
        best, best_score = None, None
        for j in range(len(split.gallery)):
            if split.metric == "euclidean":
                score = np.linalg.norm(split.probe[i] - split.gallery[j])
                better = best_score is None or score < best_score
            else:
                score = float(split.probe[i] @ split.gallery[j]) / (
                    np.linalg.norm(split.probe[i]) * np.linalg.norm(split.gallery[j]))
                better = best_score is None or score > best_score
            if better:
                best, best_score = j, score
        hits += split.gallery_labels[best] == split.probe_labels[i]
    return hits / len(split.probe)


def _naive_uniformity(embeddings, t):
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    n = len(unit)
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += math.exp(-t * float(np.sum((unit[i] - unit[j]) ** 2)))
                count += 1
    return math.log(total / count)


class TestRank1:
    def test_single_probe_hit(self):
        split = GalleryProbeSplit(
            gallery=np.array([[1.0, 0.0], [0.0, 1.0]]),
            gallery_labels=np.array([0, 1]),
            probe=np.array([[0.9, 0.1]]),
            probe_labels=np.array([0]))
        assert rank1(split) == 1.0

    def test_absent_labels_score_zero(self):
        split = GalleryProbeSplit(
            gallery=np.eye(3), gallery_labels=np.array([0, 1, 2]),
            probe=np.eye(3), probe_labels=np.array([5, 6, 7]))
        assert rank1(split) == 0.0

    def test_matches_brute_force(self):
        """200-row random splits agree exactly with a double-loop scorer."""
        rng = np.random.default_rng(201)
        for metric in ("euclidean", "cosine"):
            gallery = rng.standard_normal((120, 6))
            probe = rng.standard_normal((80, 6))
            split = GalleryProbeSplit(
                gallery, rng.integers(0, 10, 120), probe, rng.integers(0, 10, 80),
                metric=metric)
            assert rank1(split) == _brute_force_rank1(split)

    def test_ties_go_to_the_lowest_gallery_index(self):
        gallery = np.array([[1.0, 0.0], [1.0, 0.0]])
        split = GalleryProbeSplit(gallery, np.array([3, 4]),
                                  np.array([[1.0, 0.0]]), np.array([4]))
        assert rank1(split) == 0.0  # index 0 (label 3) wins the tie

    def test_scale_invariance(self):
        rng = np.random.default_rng(202)
        gallery = rng.standard_normal((30, 4))
        probe = rng.standard_normal((20, 4))
        g_labels = rng.integers(0, 5, 30)
        p_labels = rng.integers(0, 5, 20)
        for metric in ("euclidean", "cosine"):
            base = rank1(GalleryProbeSplit(gallery, g_labels, probe, p_labels, metric=metric))
            scaled = rank1(GalleryProbeSplit(3.7 * gallery, g_labels, 3.7 * probe,
                                             p_labels, metric=metric))
            assert base == scaled

    def test_orthogonal_invariance_euclidean(self):
        rng = np.random.default_rng(203)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        gallery = rng.standard_normal((30, 4))
        probe = rng.standard_normal((20, 4))
        g_labels = rng.integers(0, 5, 30)
        p_labels = rng.integers(0, 5, 20)
        base = rank1(GalleryProbeSplit(gallery, g_labels, probe, p_labels))
        rotated = rank1(GalleryProbeSplit(gallery @ q, g_labels, probe @ q, p_labels))
        assert base == rotated

    def test_zero_norm_rows_rejected_for_cosine(self):
        split = GalleryProbeSplit(np.array([[0.0, 0.0]]), np.array([0]),
                                  np.array([[1.0, 0.0]]), np.array([0]),
                                  metric="cosine")
        with pytest.raises(DegenerateVectorError):
            rank1(split)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            GalleryProbeSplit(np.zeros((0, 2)), np.zeros(0, dtype=int),
                              np.ones((1, 2)), np.array([0]))

    def test_metric_name_checked(self):
        with pytest.raises(ValueError):
            GalleryProbeSplit(np.eye(2), np.array([0, 1]),
                              np.eye(2), np.array([0, 1]), metric="manhattan")


class TestUniformity:
    def test_antipodal_pair(self):
        """One pair at squared distance 4 with t=2: log exp(-8) = -8 exactly."""
        emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(uniformity(emb, t=2.0), -8.0, atol=1e-12)

    def test_identical_rows_give_zero(self):
        emb = np.tile(np.array([0.6, 0.8]), (5, 1))
        np.testing.assert_allclose(uniformity(emb, t=2.0), 0.0, atol=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(211)
        emb = rng.standard_normal((40, 5))
        np.testing.assert_allclose(uniformity(emb, t=2.0),
                                   _naive_uniformity(emb, 2.0), atol=1e-9)

    def test_blocking_does_not_change_the_value(self, monkeypatch):
        rng = np.random.default_rng(212)
        emb = rng.standard_normal((50, 4))
        whole = uniformity(emb, t=2.0)  # one block of all 50 rows
        monkeypatch.setattr(evaluation, "_UNIFORMITY_BLOCK_ROWS", 7)
        np.testing.assert_allclose(uniformity(emb, t=2.0), whole, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(213)
        emb = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        np.testing.assert_allclose(uniformity(emb), uniformity(emb[perm]), atol=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(214)
        emb = rng.standard_normal((30, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(uniformity(emb), uniformity(emb @ q), atol=1e-10)

    def test_uniform_sphere_matches_quadrature(self):
        """1e4 uniform draws in d=8 land within 2% of the analytic limit
        computed by quadrature over the pair-angle density sin^6."""
        rng = np.random.default_rng(215)
        d, t = 8, 2.0
        draws = rng.standard_normal((10000, d))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        observed = uniformity(draws, t=t)
        theta = (np.arange(200000) + 0.5) * math.pi / 200000
        weight = np.sin(theta) ** (d - 2)
        expected = math.log(
            float(np.sum(np.exp(-2 * t * (1 - np.cos(theta))) * weight) / np.sum(weight)))
        assert abs(observed - expected) <= 0.02 * abs(expected)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            uniformity(np.ones((1, 3)))


class TestVarianceRatio:
    def test_duplicate_classes_at_unit_distance(self):
        """Two classes of duplicated points: intra 0 (flagged), inter 1."""
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        stats = variance_ratio(emb, np.array([0, 0, 1, 1]))
        assert stats.intra_class_dist == 0.0
        np.testing.assert_allclose(stats.inter_class_dist, 1.0, atol=1e-12)
        assert stats.degenerate_classes == (0, 1)
        assert math.isinf(stats.inter_intra_ratio)

    def test_tight_far_clusters_have_large_ratio(self):
        rng = np.random.default_rng(221)
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        emb = np.vstack([c + 0.01 * rng.standard_normal((10, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 10)
        stats = variance_ratio(emb, labels)
        assert stats.inter_intra_ratio > 100

    @pytest.mark.parametrize("size", [25, 48], ids=["explicit", "gram"])
    def test_matches_brute_force(self, size):
        """Both sides of the distance kernel's Gram crossover, against a per-pair
        loop.  Class 4's three members coincide: their distances stay exact
        zeros, so the class is reported degenerate."""
        assert (size >= core._DIST_GRAM_MIN_ROWS) == (size == 48)
        rng = np.random.default_rng(222)
        emb = rng.standard_normal((size, 3))
        labels = rng.integers(0, 4, size)
        labels[-3:], emb[-3:] = 4, emb[0] + 0.5
        stats = variance_ratio(emb, labels)
        assert stats.degenerate_classes == (4,)
        intra, inter = [], []
        for i in range(size):
            for j in range(i + 1, size):
                dist = np.linalg.norm(emb[i] - emb[j])
                (intra if labels[i] == labels[j] else inter).append(dist)
        np.testing.assert_allclose(stats.intra_class_dist, np.mean(intra), atol=1e-12)
        np.testing.assert_allclose(stats.inter_class_dist, np.mean(inter), atol=1e-12)
        np.testing.assert_allclose(stats.inter_intra_ratio,
                                   np.mean(inter) / np.mean(intra), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            variance_ratio(np.eye(3), np.array([1, 1, 1]))


class TestGeometryReport:
    def test_fields_are_consistent(self):
        rng = np.random.default_rng(231)
        emb = rng.standard_normal((40, 6))
        labels = np.repeat(np.arange(4), 10)
        report = build_geometry_report(emb, labels, t=2.0)
        np.testing.assert_allclose(report.uniformity, uniformity(emb, t=2.0), atol=1e-12)
        stats = variance_ratio(emb, labels)
        assert report.intra_class_dist == stats.intra_class_dist
        assert report.inter_class_dist == stats.inter_class_dist
        assert report.kappa_hat >= 0.0

    def test_overflowing_row_norm_is_named(self):
        """A row with no finite norm has no direction to report on: the error
        names the first such row and whether its squares overflowed."""
        emb = np.random.default_rng(233).standard_normal((8, 3))
        emb[5] *= 1e200
        labels = np.repeat(np.arange(2), 4)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="embedding row 5 has norm inf: float64 overflow"):
                build_geometry_report(emb, labels)
        emb[5] = [1.0, np.nan, 0.0]
        with pytest.raises(NonFiniteError, match=r"embedding row 5 has norm nan \(inf or nan entries\)"):
            build_geometry_report(emb, labels)


class TestSnapshotSimMatrix:
    def test_full_batch_layout(self, tmp_path):
        """A (8,8) batch snapshot is 64x64 with class-contiguous blocks, so
        the 8 diagonal blocks hold exactly the intra-class similarities."""
        rng = np.random.default_rng(241)
        data = rng.standard_normal((64, 5))
        labels = np.repeat(np.arange(8), 8)
        batch = EmbeddingBatch(data, labels)
        path = tmp_path / "sim.csv"
        snapshot_sim_matrix(batch, path)
        sim = np.loadtxt(path, delimiter=",")
        assert sim.shape == (64, 64)
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        expected_block = np.clip(unit[:8] @ unit[:8].T, -1.0, 1.0)
        np.fill_diagonal(expected_block, 1.0)
        np.testing.assert_allclose(sim[:8, :8], expected_block, atol=1e-12)

    def test_rows_are_grouped_by_label_even_if_shuffled(self, tmp_path):
        """Snapshot order is by label, not by row position in the batch."""
        data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([1, 0, 1, 0])
        batch = EmbeddingBatch(data, labels)
        path = tmp_path / "sim.csv"
        snapshot_sim_matrix(batch, path)
        sim = np.loadtxt(path, delimiter=",")
        # label-0 rows (both (0,1)) come first: their block is all ones
        np.testing.assert_array_equal(sim[:2, :2], np.ones((2, 2)))
        np.testing.assert_array_equal(sim[2:, 2:], np.ones((2, 2)))
        np.testing.assert_array_equal(sim[:2, 2:], np.zeros((2, 2)))

    def test_identical_rows_give_all_ones(self, tmp_path):
        data = np.tile(np.array([0.6, 0.8]), (4, 1))
        batch = EmbeddingBatch(data, np.array([0, 0, 1, 1]))
        path = tmp_path / "sim.csv"
        snapshot_sim_matrix(batch, path)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), np.ones((4, 4)))

    def test_io_error_names_the_path(self, tmp_path):
        batch = EmbeddingBatch(np.eye(2), np.array([0, 1]))
        target = tmp_path / "missing" / "sim.csv"
        with pytest.raises(OSError, match="sim.csv"):
            snapshot_sim_matrix(batch, target)
