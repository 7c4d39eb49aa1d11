"""Loss family: hinge triplets, similarity-weighted triplets, contrastive
cross-entropy over similarities, classifier cross-entropy, and their sums.

Every loss value is checked against a brute-force per-triplet (or per-pair)
recomputation, the loop oracles of ``loop_oracles.py``, and every gradient
against central finite differences.  The fast paths of the pair losses are
forced both ways in ``test_fast_paths.py``.  Hand-computed constants are
stated in the docstrings of the tests that freeze them.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from metriclab import (
    ClassifierHead,
    EmbeddingBatch,
    LossConfig,
    LossResult,
    batch_gradcheck,
    ce_loss,
    combined_loss,
    m_simce_loss,
    s_triplet_loss,
    sample_gradcheck_batch,
    simce_loss,
    triplet_loss,
    losses,
    weight_from_sim,
)
from metriclab.batching import anchor_layout
from metriclab.core import _unchecked_batch
from metriclab.errors import InvalidConfigError, InvalidLabelError, NoNegativesError, NonFiniteError
from metriclab.losses import COMBINED_VARIANTS, LOSSES, REDUCTIONS

from test_fast_paths import _LABELS, LAYOUTS
from loop_oracles import (
    brute_loss,
    brute_triplets,
    central_differences,
    cosine,
    hinge_args,
    m_simce_terms,
    reduce_terms,
    simce_terms,
)


# ---------------------------------------------------------------------------
# brute-force reference implementations beside loop_oracles.py


def _plain_hinge_terms(data, labels, cfg):
    return np.maximum(hinge_args(data, labels, cfg), 0.0)


def _weighted_hinge_terms(data, labels, cfg):
    return np.maximum(hinge_args(data, labels, cfg, weighted=True), 0.0)


def _ce_value(data, labels, head):
    logits = data @ head.weight.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-np.mean(log_probs[np.arange(len(labels)), labels]))


def _pk_batch(rng, n_classes, samples_per_class, dim):
    data = rng.standard_normal((n_classes * samples_per_class, dim))
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    return EmbeddingBatch(data, labels)


class TestWeightFromSim:
    def test_endpoints(self):
        """Perfect similarity gets zero weight, antipodal gets full weight."""
        assert weight_from_sim(1.0) == 0.0
        assert weight_from_sim(-1.0) == 1.0
        assert weight_from_sim(0.0) == 0.5

    def test_strictly_decreasing(self):
        s = np.linspace(-1.0, 1.0, 101)
        w = np.array([weight_from_sim(x) for x in s])
        assert np.all(np.diff(w) < 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            weight_from_sim(1.5)
        with pytest.raises(ValueError):
            weight_from_sim(-1.0001)
        with pytest.raises(ValueError):
            weight_from_sim(np.nan)
        with pytest.raises(ValueError):
            weight_from_sim(np.array([0.5, 1.5]))


class TestTripletLoss:
    def test_inactive_hinge_is_zero(self):
        """Negative farther than positive by more than the margin: loss 0.

        With rows a=(0,0), p=(0.3,0), n=(1,0) and m=0.2 both enumerated
        triplets have hinge argument < 0 (-0.5 and -0.2).
        """
        data = np.array([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1]))
        result = triplet_loss(batch, LossConfig(margin=0.2))
        assert result.value == 0.0
        assert result.n_non == 0
        assert result.n_total == 2
        np.testing.assert_array_equal(result.grad, 0.0)

    def test_active_hinge_value(self):
        """Rows a=(0,0), p=(0.3,0), n=(0.4,0), m=0.2: the (a,p,n) triplet
        contributes 0.2+0.3-0.4 = 0.1 and the (p,a,n) triplet 0.2+0.3-0.1 = 0.4."""
        data = np.array([[0.0, 0.0], [0.3, 0.0], [0.4, 0.0]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1]))
        cfg = LossConfig(margin=0.2)
        terms = _plain_hinge_terms(data, batch.labels, cfg)
        np.testing.assert_allclose(terms, [0.1, 0.4], atol=1e-12)
        result = triplet_loss(batch, cfg)
        np.testing.assert_allclose(result.value, 0.25, atol=1e-12)
        assert result.n_non == 2

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            batch = _pk_batch(rng, 3, 2, 4)
            for reduction in ("mean_over_nonzero", "mean_over_all"):
                cfg = LossConfig(margin=0.3, reduction=reduction)
                result = triplet_loss(batch, cfg)
                terms = _plain_hinge_terms(batch.data, batch.labels, cfg)
                np.testing.assert_allclose(result.value, reduce_terms(terms, cfg), atol=1e-12)
                assert result.n_non == int(np.sum(terms > 0))
                assert result.n_total == len(terms)

    def test_reduction_modes_agree_through_counters(self):
        """value(nonzero) * n_non == value(all) * n_total == sum of terms."""
        rng = np.random.default_rng(42)
        batch = _pk_batch(rng, 4, 2, 3)
        res_nz = triplet_loss(batch, LossConfig(reduction="mean_over_nonzero"))
        res_all = triplet_loss(batch, LossConfig(reduction="mean_over_all"))
        np.testing.assert_allclose(
            res_nz.value * res_nz.n_non, res_all.value * res_all.n_total, atol=1e-12)

    @pytest.mark.parametrize("sort_min_p", [1, 10**9], ids=["sorted", "grid"])
    def test_near_tied_hinges_never_sum_below_zero(self, monkeypatch, sort_min_p):
        """Rows of a rotation scaled by 1e3 are all about 1414 apart, so every active
        hinge is a few ulps: the value, a difference of two sums near 1414 n_non, may
        round below 0 (it does on three of these twelve batches) and must clamp to 0 on either path."""
        monkeypatch.setattr(losses, "_HINGE_SORT_MIN_P", sort_min_p)
        for sizes in ([7, 7, 7], [14, 14]):
            labels = np.repeat(np.arange(len(sizes)), sizes)
            for seed in range(6):
                rows = np.linalg.qr(np.random.default_rng(seed).standard_normal((labels.size,) * 2))[0]
                batch = EmbeddingBatch(1e3 * rows, labels)
                for loss in (triplet_loss, s_triplet_loss):
                    for reduction in REDUCTIONS:
                        result = loss(batch, LossConfig(margin=0.0, reduction=reduction))
                        assert result.n_non > 0 and result.value >= 0.0, (sizes, seed, loss.__name__)

    def test_translation_invariance(self):
        """Distances ignore a common shift, so the value must too."""
        rng = np.random.default_rng(43)
        batch = _pk_batch(rng, 3, 2, 5)
        shifted = EmbeddingBatch(batch.data + 7.5, batch.labels)
        cfg = LossConfig(margin=0.4)
        np.testing.assert_allclose(
            triplet_loss(batch, cfg).value, triplet_loss(shifted, cfg).value, atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        cfg = LossConfig()
        for _ in range(5):
            batch = sample_gradcheck_batch(rng, 2, 4, 8, cfg)
            assert batch_gradcheck(lambda b: triplet_loss(b, cfg), batch) <= 1e-6


class TestSTripletLoss:
    def test_hand_worked_triplet(self):
        """a=(1,0), p=(0.8,0.6), n=(0.6,0.8), m=0.2.

        S_ap=0.8 so w_ap=0.1, d_ap=sqrt(0.4); S_an=0.6 so w_an=0.2,
        d_an=sqrt(0.8); the (a,p,n) term is 0.2 + 0.1*sqrt(0.4) -
        0.2*sqrt(0.8) = 0.08436.  The second enumerated triplet (p,a,n)
        has S_an=0.96, d_an=sqrt(0.08), giving 0.25759.  The reported
        value is the mean of both active terms.
        """
        data = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1]))
        cfg = LossConfig(margin=0.2)
        terms = _weighted_hinge_terms(data, batch.labels, cfg)
        np.testing.assert_allclose(terms[0], 0.0843601, atol=1e-4)
        np.testing.assert_allclose(terms[1], 0.2575887, atol=1e-4)
        result = s_triplet_loss(batch, cfg)
        np.testing.assert_allclose(result.value, np.mean(terms), atol=1e-12)
        assert result.n_non == 2

    def test_colinear_positive_drops_its_term(self):
        """S_ap = 1 zeroes the positive weight: term = max(0, m - w_an*d_an)."""
        data = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1]))
        cfg = LossConfig(margin=0.2)
        w_an = weight_from_sim(cosine(data[0], data[2]))
        d_an = np.linalg.norm(data[0] - data[2])
        expected_first = max(0.0, cfg.margin - w_an * d_an)
        terms = _weighted_hinge_terms(data, batch.labels, cfg)
        np.testing.assert_allclose(terms[0], expected_first, atol=1e-12)
        result = s_triplet_loss(batch, cfg)
        np.testing.assert_allclose(result.value, reduce_terms(terms, cfg), atol=1e-12)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            batch = _pk_batch(rng, 2, 3, 4)
            for reduction in ("mean_over_nonzero", "mean_over_all"):
                cfg = LossConfig(margin=0.5, reduction=reduction)
                result = s_triplet_loss(batch, cfg)
                terms = _weighted_hinge_terms(batch.data, batch.labels, cfg)
                np.testing.assert_allclose(result.value, reduce_terms(terms, cfg), atol=1e-12)
                assert result.n_non == int(np.sum(terms > 0))

    def test_weight_monotonicity_in_similarity(self):
        """At fixed distances the term is non-increasing in S_ap and
        non-decreasing in S_an (harder pairs get more weight)."""
        d_ap, d_an, margin = 0.9, 0.7, 0.3
        grid = np.linspace(-1.0, 1.0, 41)
        term_in_sap = [max(0.0, margin + weight_from_sim(s) * d_ap - 0.5 * d_an) for s in grid]
        term_in_san = [max(0.0, margin + 0.5 * d_ap - weight_from_sim(s) * d_an) for s in grid]
        assert np.all(np.diff(term_in_sap) <= 1e-15)
        assert np.all(np.diff(term_in_san) >= -1e-15)

    def test_gradient_matches_finite_differences(self):
        """Gradient flows through the distances AND the similarity entries."""
        rng = np.random.default_rng(46)
        cfg = LossConfig()
        for _ in range(5):
            batch = sample_gradcheck_batch(rng, 4, 2, 8, cfg)
            assert batch_gradcheck(lambda b: s_triplet_loss(b, cfg), batch) <= 1e-6

    def test_detach_similarity_freezes_the_weights(self):
        """With detach_similarity the gradient treats each w as a constant:
        it must match finite differences of the loss recomputed with weights
        pinned at their unperturbed values."""
        rng = np.random.default_rng(47)
        cfg = LossConfig(detach_similarity=True)
        batch = sample_gradcheck_batch(rng, 2, 2, 6, cfg)
        base = batch.data
        labels = batch.labels
        triplets = brute_triplets(labels)
        frozen_w = [
            (weight_from_sim(cosine(base[a], base[p])),
             weight_from_sim(cosine(base[a], base[n])))
            for a, p, n in triplets
        ]

        def frozen_weight_loss(data):
            terms = []
            for (a, p, n), (w_ap, w_an) in zip(triplets, frozen_w):
                d_ap = np.linalg.norm(data[a] - data[p])
                d_an = np.linalg.norm(data[a] - data[n])
                terms.append(max(0.0, cfg.margin + w_ap * d_ap - w_an * d_an))
            return reduce_terms(np.array(terms), cfg)

        analytic = s_triplet_loss(batch, cfg).grad
        h = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                up, down = base.copy(), base.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric[i, j] = (frozen_weight_loss(up) - frozen_weight_loss(down)) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_detached_and_attached_gradients_differ(self):
        rng = np.random.default_rng(48)
        batch = sample_gradcheck_batch(rng, 2, 2, 5, LossConfig())
        g_live = s_triplet_loss(batch, LossConfig()).grad
        g_frozen = s_triplet_loss(batch, LossConfig(detach_similarity=True)).grad
        assert np.max(np.abs(g_live - g_frozen)) > 1e-6


class TestSimceLoss:
    def test_equal_similarities_give_log_two(self):
        """Orthonormal rows make every anchor dot product zero, so each
        triplet contributes exactly ln 2."""
        batch = EmbeddingBatch(np.eye(4), np.array([0, 0, 1, 1]))
        result = simce_loss(batch, LossConfig())
        np.testing.assert_allclose(result.value, math.log(2.0), atol=1e-12)
        assert result.n_non == result.n_total == 8

    def test_log_two_gap_gives_log_three_halves(self):
        """When a.p - a.n = T*ln 2 for every triplet the value is ln(3/2).

        Two identical rows per class with squared norm ln 2 and orthogonal
        class subspaces give a.p = ln 2 and a.n = 0 everywhere.
        """
        c = math.sqrt(math.log(2.0))
        data = np.array([[c, 0.0], [c, 0.0], [0.0, c], [0.0, c]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1, 1]))
        result = simce_loss(batch, LossConfig(temperature=1.0))
        np.testing.assert_allclose(result.value, math.log(1.5), atol=1e-12)

    def test_saturation_decreases_to_zero(self):
        """Scaling up the anchor-positive advantage drives the value to 0
        monotonically."""
        values = []
        for c in (1.0, 2.0, 4.0, 8.0, 16.0):
            data = np.array([[c, 0.0], [c, 0.0], [0.0, c], [0.0, c]])
            batch = EmbeddingBatch(data, np.array([0, 0, 1, 1]))
            values.append(simce_loss(batch, LossConfig()).value)
        assert all(v > 0 for v in values)
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-100

    def test_no_overflow_for_huge_gaps(self):
        """Dot-product gaps near +-800 stay finite via the stable softplus."""
        c = 30.0
        data = np.array([[c, 0.0], [-c, 0.0], [0.0, c], [0.0, -c]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1, 1]))
        result = simce_loss(batch, LossConfig())
        assert np.isfinite(result.value)
        assert np.all(np.isfinite(result.grad))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        for normalize in (False, True):
            cfg = LossConfig(temperature=0.7, normalize_for_simce=normalize)
            for _ in range(10):
                batch = _pk_batch(rng, 3, 2, 4)
                result = simce_loss(batch, cfg)
                terms = simce_terms(batch.data, batch.labels, cfg)
                np.testing.assert_allclose(result.value, np.mean(terms), atol=1e-12)
                assert result.n_non == result.n_total == len(terms)

    def test_normalize_flag_equals_prenormalized_batch(self):
        rng = np.random.default_rng(52)
        batch = _pk_batch(rng, 2, 3, 5)
        unit = batch.data / np.linalg.norm(batch.data, axis=1, keepdims=True)
        pre = EmbeddingBatch(unit, batch.labels)
        np.testing.assert_allclose(
            simce_loss(batch, LossConfig(normalize_for_simce=True)).value,
            simce_loss(pre, LossConfig()).value, atol=1e-12)

    def test_not_translation_invariant(self):
        """Dot products change under a common shift, unlike distances."""
        rng = np.random.default_rng(53)
        batch = _pk_batch(rng, 2, 2, 4)
        shifted = EmbeddingBatch(batch.data + 2.0, batch.labels)
        cfg = LossConfig()
        assert abs(simce_loss(batch, cfg).value - simce_loss(shifted, cfg).value) > 1e-6

    def test_temperature_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            LossConfig(temperature=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(54)
        for cfg in (LossConfig(), LossConfig(normalize_for_simce=True, temperature=0.5)):
            for _ in range(5):
                batch = sample_gradcheck_batch(rng, 2, 4, 8, cfg)
                assert batch_gradcheck(lambda b: simce_loss(b, cfg), batch) <= 1e-6


class TestMSimceLoss:
    def test_equal_similarities_give_log_one_plus_negatives(self):
        """Orthonormal rows: each pair sees 2 negatives at equal score, so
        the value is ln(1 + 2)."""
        batch = EmbeddingBatch(np.eye(4), np.array([0, 0, 1, 1]))
        result = m_simce_loss(batch, LossConfig())
        np.testing.assert_allclose(result.value, math.log(3.0), atol=1e-12)
        assert result.n_total == 4

    def test_single_negative_reduces_to_pairwise_form(self):
        """With exactly one negative per anchor the pair and triplet
        enumerations coincide, so both losses agree to machine precision."""
        rng = np.random.default_rng(61)
        for _ in range(10):
            data = rng.standard_normal((3, 5))
            batch = EmbeddingBatch(data, np.array([0, 0, 1]))
            cfg = LossConfig(temperature=0.8)
            a = m_simce_loss(batch, cfg)
            b = simce_loss(batch, cfg)
            np.testing.assert_allclose(a.value, b.value, atol=1e-14)
            np.testing.assert_allclose(a.grad, b.grad, atol=1e-14)

    def test_dominates_pairwise_form_on_full_batches(self):
        """Adding more positive exponentials to the denominator can only
        raise the per-pair value, so the mean dominates the pairwise mean."""
        rng = np.random.default_rng(62)
        for _ in range(10):
            batch = _pk_batch(rng, 3, 2, 4)
            cfg = LossConfig()
            assert m_simce_loss(batch, cfg).value >= simce_loss(batch, cfg).value - 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(63)
        for normalize in (False, True):
            cfg = LossConfig(temperature=1.3, normalize_for_simce=normalize)
            for _ in range(10):
                batch = _pk_batch(rng, 2, 3, 4)
                result = m_simce_loss(batch, cfg)
                terms = m_simce_terms(batch.data, batch.labels, cfg)
                np.testing.assert_allclose(result.value, np.mean(terms), atol=1e-12)
                assert result.n_total == len(terms)

    def test_single_class_rejected(self):
        batch = EmbeddingBatch(np.eye(3), np.array([0, 0, 0]))
        with pytest.raises(NoNegativesError):
            m_simce_loss(batch, LossConfig())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(64)
        for cfg in (LossConfig(), LossConfig(normalize_for_simce=True)):
            for _ in range(5):
                batch = sample_gradcheck_batch(rng, 4, 2, 8, cfg)
                assert batch_gradcheck(lambda b: m_simce_loss(b, cfg), batch) <= 1e-6


class TestCeLoss:
    def test_zero_head_gives_log_c(self):
        """Zero weights and bias produce uniform logits, so the loss is ln C."""
        rng = np.random.default_rng(71)
        batch = _pk_batch(rng, 4, 2, 5)
        head = ClassifierHead(np.zeros((4, 5)), np.zeros(4))
        result = ce_loss(batch, head)
        np.testing.assert_allclose(result.value, math.log(4.0), atol=1e-12)

    def test_confident_correct_head_drives_loss_down(self):
        """A bias pushing every row's true class to +30 sends the loss to ~0."""
        batch = EmbeddingBatch(np.zeros((2, 3)), np.array([0, 0]))
        head = ClassifierHead(np.zeros((2, 3)), np.array([30.0, 0.0]))
        assert ce_loss(batch, head).value < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            batch = _pk_batch(rng, 3, 2, 4)
            head = ClassifierHead.init(rng, n_classes=3, dim=4)
            np.testing.assert_allclose(
                ce_loss(batch, head).value,
                _ce_value(batch.data, batch.labels, head), atol=1e-12)

    def test_embedding_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        cfg = LossConfig()
        for _ in range(5):
            batch = sample_gradcheck_batch(rng, 4, 2, 8, cfg)
            head = ClassifierHead.init(rng, n_classes=4, dim=8)
            assert batch_gradcheck(lambda b: ce_loss(b, head), batch) <= 1e-6

    def test_head_gradients_match_finite_differences(self):
        rng = np.random.default_rng(74)
        batch = _pk_batch(rng, 3, 2, 4)
        head = ClassifierHead.init(rng, n_classes=3, dim=4)
        result = ce_loss(batch, head)
        h = 1e-6

        numeric_w = np.zeros_like(head.weight)
        for i in range(head.weight.shape[0]):
            for j in range(head.weight.shape[1]):
                up, down = head.weight.copy(), head.weight.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric_w[i, j] = (
                    _ce_value(batch.data, batch.labels, ClassifierHead(up, head.bias))
                    - _ce_value(batch.data, batch.labels, ClassifierHead(down, head.bias))
                ) / (2 * h)
        np.testing.assert_allclose(result.head_grad_weight, numeric_w, atol=1e-8)

        numeric_b = np.zeros_like(head.bias)
        for i in range(head.bias.shape[0]):
            up, down = head.bias.copy(), head.bias.copy()
            up[i] += h
            down[i] -= h
            numeric_b[i] = (
                _ce_value(batch.data, batch.labels, ClassifierHead(head.weight, up))
                - _ce_value(batch.data, batch.labels, ClassifierHead(head.weight, down))
            ) / (2 * h)
        np.testing.assert_allclose(result.head_grad_bias, numeric_b, atol=1e-8)

    def test_label_out_of_range_rejected(self):
        batch = EmbeddingBatch(np.eye(2), np.array([0, 1]))
        head = ClassifierHead(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(InvalidLabelError):
            ce_loss(batch, head)


class TestCombinedLoss:
    def test_value_is_exact_sum_of_constituents(self):
        rng = np.random.default_rng(81)
        batch = _pk_batch(rng, 3, 2, 4)
        head = ClassifierHead.init(rng, n_classes=3, dim=4)
        cfg = LossConfig(margin=0.3)
        for variant, contrastive in (("simce", simce_loss), ("m_simce", m_simce_loss)):
            total = combined_loss(batch, head, cfg, variant)
            parts = (s_triplet_loss(batch, cfg), ce_loss(batch, head),
                     contrastive(batch, cfg))
            assert total.value == parts[0].value + parts[1].value + parts[2].value
            np.testing.assert_array_equal(
                total.grad, parts[0].grad + parts[1].grad + parts[2].grad)

    def test_counters_come_from_the_weighted_hinge_term(self):
        rng = np.random.default_rng(82)
        batch = _pk_batch(rng, 2, 3, 5)
        head = ClassifierHead.init(rng, n_classes=2, dim=5)
        cfg = LossConfig()
        total = combined_loss(batch, head, cfg, "simce")
        hinge = s_triplet_loss(batch, cfg)
        assert total.n_non == hinge.n_non
        assert total.n_total == hinge.n_total

    def test_head_gradients_are_passed_through(self):
        rng = np.random.default_rng(83)
        batch = _pk_batch(rng, 2, 2, 3)
        head = ClassifierHead.init(rng, n_classes=2, dim=3)
        total = combined_loss(batch, head, LossConfig(), "simce")
        ce = ce_loss(batch, head)
        np.testing.assert_array_equal(total.head_grad_weight, ce.head_grad_weight)
        np.testing.assert_array_equal(total.head_grad_bias, ce.head_grad_bias)

    def test_variants_agree_when_enumerations_coincide(self):
        """On a three-row batch each anchor has exactly one negative, so the
        two contrastive terms (and hence both combined variants) coincide."""
        rng = np.random.default_rng(84)
        data = rng.standard_normal((3, 4))
        batch = EmbeddingBatch(data, np.array([0, 0, 1]))
        head = ClassifierHead.init(rng, n_classes=2, dim=4)
        cfg = LossConfig()
        a = combined_loss(batch, head, cfg, "simce")
        b = combined_loss(batch, head, cfg, "m_simce")
        np.testing.assert_allclose(a.value, b.value, atol=1e-14)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-14)

    def test_unknown_variant_rejected(self):
        rng = np.random.default_rng(85)
        batch = _pk_batch(rng, 2, 2, 3)
        head = ClassifierHead.init(rng, n_classes=2, dim=3)
        with pytest.raises(InvalidConfigError):
            combined_loss(batch, head, LossConfig(), "both")

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(86)
        cfg = LossConfig()
        for variant in ("simce", "m_simce"):
            for _ in range(3):
                batch = sample_gradcheck_batch(rng, 2, 4, 8, cfg)
                head = ClassifierHead.init(rng, n_classes=2, dim=8)
                err = batch_gradcheck(lambda b: combined_loss(b, head, cfg, variant), batch)
                assert err <= 1e-6


class TestLossConfigAndResult:
    def test_margin_must_be_nonnegative(self):
        with pytest.raises(InvalidConfigError):
            LossConfig(margin=-0.1)

    def test_reduction_name_checked(self):
        with pytest.raises(InvalidConfigError):
            LossConfig(reduction="sum")

    def test_result_counter_invariant(self):
        with pytest.raises(ValueError):
            LossResult(value=0.0, grad=np.zeros((2, 2)), n_non=3, n_total=2)

    def test_result_requires_finite_gradient(self):
        grad = np.zeros((2, 2))
        grad[0, 0] = np.inf
        with pytest.raises(ValueError):
            LossResult(value=0.0, grad=grad, n_non=0, n_total=1)


class TestBoundaryChecks:
    """Each public loss validates once, at its boundary, over unchecked kernels:
    label range against the head, and finiteness of the value and gradient."""

    def _batch(self, scale=1.0):
        data = np.random.default_rng(95).standard_normal((6, 3)) * scale
        return EmbeddingBatch(data, [0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize("call", [
        lambda b, h: ce_loss(b, h),
        lambda b, h: combined_loss(b, h, LossConfig(), "simce"),
        lambda b, h: combined_loss(b, h, LossConfig(), "m_simce"),
    ], ids=["ce", "combined_simce", "combined_m_simce"])
    @pytest.mark.parametrize("labels", [[0, 0, 1, 1, 2, 2], [0, 0, 1, 1, -1, -1]],
                             ids=["at_n_classes", "negative"])
    def test_label_outside_the_head_rejected(self, call, labels):
        """The head has 2 classes, so label 2 (and -1) is out of range."""
        batch = EmbeddingBatch(self._batch().data, labels)
        head = ClassifierHead.init(np.random.default_rng(96), n_classes=2, dim=3)
        bad = labels[-1]
        with pytest.raises(InvalidLabelError, match=rf"label {bad} outside \[0, 2\)"):
            call(batch, head)

    @pytest.mark.parametrize("name, call", [
        # on rows of about 1e150: 1e308 margins sum past the largest double
        ("triplet", lambda b, h: triplet_loss(b, LossConfig(margin=1e308))),
        ("s_triplet", lambda b, h: s_triplet_loss(b, LossConfig(margin=1e308))),
        # raw inner products of about 1e300 overflow once divided by 1e-10
        ("simce", lambda b, h: simce_loss(b, LossConfig(temperature=1e-10))),
        ("m_simce", lambda b, h: m_simce_loss(b, LossConfig(temperature=1e-10))),
        # head weights of about 1e199 overflow the logits
        ("ce", lambda b, h: ce_loss(b, ClassifierHead(h.weight * 1e200, h.bias))),
        ("combined_simce",
         lambda b, h: combined_loss(b, h, LossConfig(temperature=1e-10), "simce")),
        ("combined_m_simce",
         lambda b, h: combined_loss(b, h, LossConfig(temperature=1e-10), "m_simce")),
    ])
    def test_overflowing_result_rejected(self, name, call):
        """Finite embeddings whose loss overflows: the kernel runs unchecked,
        the public boundary refuses the non-finite result."""
        batch = self._batch(scale=1e150)
        assert np.all(np.isfinite(batch.data))
        head = ClassifierHead.init(np.random.default_rng(97), n_classes=3, dim=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                call(batch, head)


class TestNoPositivePair:
    """A batch of singleton classes has no triplet and no positive pair."""

    def _batch(self):
        return EmbeddingBatch(np.random.default_rng(91).standard_normal((3, 4)), [0, 1, 2])

    @pytest.mark.parametrize("loss", [triplet_loss, s_triplet_loss, simce_loss, m_simce_loss])
    def test_pair_losses_are_zero(self, loss):
        result = loss(self._batch(), LossConfig())
        assert result.value == 0.0
        assert result.n_non == result.n_total == 0
        np.testing.assert_array_equal(result.grad, 0.0)

    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_combined_loss_reduces_to_ce(self, variant):
        batch = self._batch()
        head = ClassifierHead.init(np.random.default_rng(92), n_classes=3, dim=4)
        result = combined_loss(batch, head, LossConfig(), variant)
        ce = ce_loss(batch, head)
        assert result.value == ce.value
        assert result.n_non == result.n_total == 0
        np.testing.assert_array_equal(result.grad, ce.grad)


# ---------------------------------------------------------------------------
# property tests: every pair loss against the loop oracles above on
# arbitrary label layouts (unbalanced, shuffled, singleton classes, no
# positive pair at all), both reductions and every flag


PAIR_LOSSES = {"triplet": triplet_loss, "s_triplet": s_triplet_loss,
               "simce": simce_loss, "m_simce": m_simce_loss}


@st.composite
def _labelled_data(draw):
    size = draw(st.integers(2, 7))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    assume(np.unique(labels).size >= 2)
    dim = draw(st.integers(2, 4))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((size, dim))
    diff = data[:, None, :] - data[None, :, :]
    off_diag = ~np.eye(size, dtype=bool)
    # coincident rows pin the distance subgradient, which differences cannot see
    assume(np.sqrt((diff**2).sum(axis=2))[off_diag].min() >= 1e-3)
    return data, labels


_loss_configs = st.builds(
    LossConfig,
    margin=st.sampled_from([0.0, 0.3, 1.0]),
    temperature=st.sampled_from([0.5, 1.0, 2.0]),
    reduction=st.sampled_from(REDUCTIONS),
    normalize_for_simce=st.booleans(),
    detach_similarity=st.booleans(),
)


@pytest.mark.parametrize("name", sorted(PAIR_LOSSES))
@given(drawn=_labelled_data(), cfg=_loss_configs)
def test_pair_losses_match_loop_oracles_on_arbitrary_layouts(name, drawn, cfg):
    data, labels = drawn
    if name in ("triplet", "s_triplet"):
        # central differences straddle the relu kink within h of zero
        args = hinge_args(data, labels, cfg, name == "s_triplet")
        assume(np.abs(args).min(initial=1.0) >= 1e-4)
    result = PAIR_LOSSES[name](EmbeddingBatch(data, labels), cfg)
    value, n_non, n_total = brute_loss(name, data, labels, cfg)
    np.testing.assert_allclose(result.value, value, rtol=1e-12, atol=1e-12)
    assert (result.n_non, result.n_total) == (n_non, n_total)

    # a detached weighted hinge differentiates with its weights held fixed
    frozen = data if name == "s_triplet" and cfg.detach_similarity else None
    numeric = central_differences(lambda d: brute_loss(name, d, labels, cfg, frozen)[0], data)
    scale = max(1.0, float(np.abs(numeric).max()))
    np.testing.assert_allclose(result.grad, numeric, rtol=0.0, atol=1e-6 * scale)


@pytest.mark.parametrize("variant", COMBINED_VARIANTS)
@pytest.mark.parametrize("detach", [False, True], ids=["attached", "detached"])
@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "cosine"])
@given(drawn=_labelled_data(), head_seed=st.integers(0, 2**32 - 1))
def test_combined_loss_is_the_bitwise_sum_of_the_public_losses(variant, detach, normalize,
                                                               drawn, head_seed):
    """combined_loss runs the three private kernels and checks once; its value,
    gradient, counters and head gradients must still equal, bit for bit, what
    the public s_triplet_loss + ce_loss + contrastive loss give, on unbalanced,
    singleton-class and no-pair layouts alike."""
    data, labels = drawn
    cfg = LossConfig(margin=0.3, normalize_for_simce=normalize, detach_similarity=detach)
    batch = EmbeddingBatch(data, labels)
    rng = np.random.default_rng(head_seed)
    head = ClassifierHead.init(rng, int(labels.max()) + 1, data.shape[1])
    total = combined_loss(batch, head, cfg, variant)
    hinge, ce = s_triplet_loss(batch, cfg), ce_loss(batch, head)
    contrastive = (simce_loss if variant == "simce" else m_simce_loss)(batch, cfg)
    bits = lambda x: np.asarray(x, dtype=np.float64).tobytes()  # noqa: E731 - signed zeros too
    assert bits(total.value) == bits(hinge.value + ce.value + contrastive.value)
    assert bits(total.grad) == bits(hinge.grad + ce.grad + contrastive.grad)
    assert (total.n_non, total.n_total) == (hinge.n_non, hinge.n_total)
    assert bits(total.head_grad_weight) == bits(ce.head_grad_weight)
    assert bits(total.head_grad_bias) == bits(ce.head_grad_bias)


@pytest.mark.parametrize("temperature", [0.05, 0.7, 3.0])
@given(drawn=_labelled_data(), normalize=st.booleans())
def test_simce_matches_the_loop_oracle_at_every_temperature(temperature, drawn, normalize):
    """Value and gradient against the per-triplet logaddexp loop, on unbalanced,
    singleton-class and no-pair layouts, raw and cosine scores."""
    data, labels = drawn
    cfg = LossConfig(temperature=temperature, normalize_for_simce=normalize)
    result = simce_loss(EmbeddingBatch(data, labels), cfg)
    value, _, n_total = brute_loss("simce", data, labels, cfg)
    np.testing.assert_allclose(result.value, value, rtol=1e-12, atol=1e-12)
    assert result.n_total == n_total
    numeric = central_differences(lambda d: brute_loss("simce", d, labels, cfg)[0], data)
    scale = max(1.0, float(np.abs(numeric).max()))
    np.testing.assert_allclose(result.grad, numeric, rtol=0.0, atol=1e-6 * scale)


# ---------------------------------------------------------------------------
# row-wise stacks: one call on a (k, B, D) stack against the loop of its k
# 2-D calls, for every LOSSES entry


EPS = np.finfo(np.float64).eps
# raw scores at T = 1 and 0.05 (where the 8x batches of _stacks stop factoring) and cosines
_STACK_CONFIGS = (LossConfig(), LossConfig(temperature=0.05),
                  LossConfig(margin=1.0, reduction="mean_over_all", normalize_for_simce=True,
                             detach_similarity=True))


def _loss_or_none(name, cfg, data, labels, head):
    with np.errstate(all="ignore"):
        try:
            return LOSSES[name](_unchecked_batch(data, labels), cfg, head)
        except NonFiniteError:
            return None


def _check_stack_against_loop(stack, labels):
    """The stacked call raises NonFiniteError exactly when some batch's own call
    does; on the batches whose calls return, its counters are the sums of
    theirs, its gradients and head gradients are their bits, and each value
    is within (2 n + 4) eps |value| of theirs, n = max(B P M, B).

    The bound: per batch, a stacked call makes the 2-D call's operations on
    operands of the same memory layout (elementwise maps, reductions along
    one trailing axis, one matrix product per batch, the geometry blocks
    taken C-ordered at the same offsets), so its counters, gradients and
    hinge values keep the 2-D bits.  Three values may add their terms in
    another order: simce sizes its anchor blocks for the whole stack, and
    m_simce and ce gather theirs by fancy indexing, which lays a stack's axis
    innermost.  Each adds at most n nonnegative terms (softplus terms, per-pair
    and per-row negative log-likelihoods), and each order of such a sum is
    within (n - 1) eps of the exact sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 4.2), so two orders differ by at most
    2 (n - 1) eps times the sum.  Dividing by the term count and adding a
    combined loss's other terms, nonnegative too, round each of the two sides
    at most 3 times more, by eps |value| each.
    """
    head = ClassifierHead.init(np.random.default_rng(0), int(labels.max()) + 1, stack.shape[-1])
    n = max(anchor_layout(labels).grid.size, labels.size)
    for name in LOSSES:
        for cfg in _STACK_CONFIGS:
            where = f"{name} on {cfg}"
            loop = [_loss_or_none(name, cfg, data, labels, head) for data in stack]
            returned = [i for i, result in enumerate(loop) if result is not None]
            stacked = _loss_or_none(name, cfg, stack, labels, head)
            assert (stacked is None) == (len(returned) < len(loop)), where
            if not returned:
                continue
            stacked = _loss_or_none(name, cfg, stack[returned], labels, head)
            loop = [loop[i] for i in returned]
            assert stacked.n_non == sum(r.n_non for r in loop), where
            assert stacked.n_total == sum(r.n_total for r in loop), where
            values = np.array([r.value for r in loop])
            assert np.all(np.abs(stacked.value - values) <= (2 * n + 4) * EPS * np.abs(values)), where
            for field in ("grad", "head_grad_weight", "head_grad_bias"):
                if getattr(loop[0], field) is None:
                    assert getattr(stacked, field) is None, where
                else:
                    got, want = getattr(stacked, field), np.stack([getattr(r, field) for r in loop])
                    assert got.tobytes() == want.tobytes(), f"{where}: {field}"


@pytest.mark.parametrize("labelling", [labelling for labelling, _, _ in _LABELS])
def test_stacked_calls_agree_with_the_loop_of_their_batches(labelling):
    """The fast-path table's layouts of one labelling as one stack: every data
    kind (ties, close pairs, huge norms, NaN, offset and wide-spanning scores)
    side by side, so batches of one stack take different paths, and the 32-
    and 72-row stacks take the Gram distances."""
    stack = np.stack([layout.data for layout in LAYOUTS if layout.labelling == labelling])
    _check_stack_against_loop(stack, next(layout.labels for layout in LAYOUTS
                                          if layout.labelling == labelling))


@st.composite
def _stacks(draw):
    """Shuffled labels of 2 to 5 classes of 1 to 4 rows (singletons and no-pair
    batches included) and a stack of 1 to 4 batches, some with raw scores
    spanning past simce's factoring range at T = 0.05."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    k, dim = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    scale = np.array(draw(st.lists(st.sampled_from([1.0, 8.0]), min_size=k, max_size=k)))
    return rng.standard_normal((k, labels.size, dim)) * scale[:, None, None], labels


@given(drawn=_stacks())
def test_stacked_calls_agree_with_the_loop_on_arbitrary_layouts(drawn):
    _check_stack_against_loop(*drawn)
