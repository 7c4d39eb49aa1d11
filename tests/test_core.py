"""Containers and kernels: embedding batches and similarity matrices.

Each test class covers one type or kernel.  Derived values are checked
against independent brute-force recomputations inside the tests; exact
constants come from hand arithmetic noted in the docstrings.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from metriclab import (
    EmbeddingBatch,
    SimMatrix,
    similarity_matrix,
    write_sim_matrix_csv,
)
from metriclab.batching import BatchSpec, anchor_layout, pk_index
from metriclab.core import (_DIST_GRAM_MIN_ROWS, _DIST_RECOMPUTE_RATIO, _cosine_values, _pairwise_dist,
                            _unchecked_batch, _unit_rows)
from metriclab.errors import DegenerateVectorError, InvalidLabelError
from metriclab.evaluation import GalleryProbeSplit, variance_ratio
from metriclab.losses import BatchGeometry, LossConfig
from metriclab.synth import SynthDataset
from metriclab.training import holdout_split


def _random_pk_batch(rng, n_classes, samples_per_class, dim):
    data = rng.standard_normal((n_classes * samples_per_class, dim))
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    return EmbeddingBatch(data, labels)


_EPS = Fraction(np.finfo(np.float64).eps)


def _exact_rows(X):
    """The rows of a (B, D) binary64 array as lists of exact Fractions."""
    return [[Fraction(v) for v in row] for row in X.tolist()]


def _dist(*rows):
    """The pairwise Euclidean distances every hinge loss reads, of the given rows."""
    data = np.array(rows, dtype=np.float64)
    return BatchGeometry(EmbeddingBatch(data, np.arange(len(rows)) % 2)).dist


class TestEuclideanDist:
    """The one Euclidean distance kernel, ``core._pairwise_dist``, as the hinge
    losses read it through ``BatchGeometry.dist``; its Gram form is forced both
    ways against the per-pair loop oracle in ``test_fast_paths.py``."""

    def test_identical_points(self):
        """Distance of a point to itself, or to an equal row, is exactly zero."""
        D = _dist([0.5, -2.0], [0.5, -2.0])
        assert D[0, 1] == 0.0 and np.all(np.diag(D) == 0.0)

    def test_pythagorean_triple(self):
        """(0,0) to (3,4) is the classic 3-4-5 hypotenuse, both ways round."""
        D = _dist([0.0, 0.0], [3.0, 4.0])
        assert D[0, 1] == 5.0 and D[1, 0] == 5.0

    def test_unit_diagonal(self):
        """(1,1) to (2,2) is the square-root of two."""
        np.testing.assert_allclose(_dist([1.0, 1.0], [2.0, 2.0])[0, 1], math.sqrt(2.0), atol=1e-8)

    def test_triangle_inequality(self):
        """d(x,z) <= d(x,y) + d(y,z) over every triple of 12 random rows."""
        rng = np.random.default_rng(11)
        D = _dist(*rng.standard_normal((12, 5)))
        assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :] + 1e-9)

    @pytest.mark.parametrize("rows, dim, offset", [(32, 3, 0.0), (32, 16, 0.0), (64, 16, 0.0), (48, 8, 3.5)])
    def test_gram_form_is_within_its_bound_of_the_exact_squares(self, rows, dim, offset):
        """From _DIST_GRAM_MIN_ROWS rows each squared distance is within rho (D + 2) eps_mach
        of the exact sum of squared differences of the binary64 rows, relative, as the
        _pairwise_dist docstring states; the returned distance adds one correctly rounded
        square root, a further relative 2u + u^2 (u = eps_mach / 2) of the computed square.
        The offset rows cancel: n_i + n_j sits near rho d^2, on both sides of the recompute."""
        X = np.random.default_rng(60 + rows + dim).standard_normal((rows, dim)) + offset
        assert rows >= _DIST_GRAM_MIN_ROWS
        d = _pairwise_dist(X)
        rel = _DIST_RECOMPUTE_RATIO * (dim + 2) * _EPS
        u = _EPS / 2
        F = _exact_rows(X)
        for i, j in itertools.combinations_with_replacement(range(rows), 2):
            exact = sum((a - b) ** 2 for a, b in zip(F[i], F[j]))
            bound = (rel + (2 * u + u * u) * (1 + rel)) * exact
            assert abs(Fraction(d[i, j]) ** 2 - exact) <= bound, (i, j)


class TestEmbeddingBatch:
    def test_accepts_any_label_layout(self):
        """The [N, K] layout is the PK sampler's promise; the batch takes any labels."""
        batch = EmbeddingBatch(np.zeros((6, 4)), np.array([0, 0, 0, 1, 2, 2]))
        assert batch.size == 6
        assert batch.dim == 4

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.zeros((4, 2)), np.array([0, 0, 1]))

    def test_rejects_non_finite(self):
        data = np.zeros((4, 2))
        data[1, 1] = np.nan
        with pytest.raises(ValueError):
            EmbeddingBatch(data, np.array([0, 0, 1, 1]))

    def test_rejects_one_dimensional_data(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.zeros(4), np.array([0, 0, 1, 1]))


class TestSimilarityMatrix:
    def test_identical_unit_rows(self):
        """Two copies of the same direction give the all-ones matrix."""
        batch = EmbeddingBatch(np.array([[0.6, 0.8], [0.6, 0.8]]), np.array([0, 0]))
        np.testing.assert_array_equal(similarity_matrix(batch).values, np.ones((2, 2)))

    def test_orthogonal_rows(self):
        batch = EmbeddingBatch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        np.testing.assert_array_equal(similarity_matrix(batch).values, np.eye(2))

    def test_matches_pairwise_loop(self):
        """64-row batch agrees with an O(B^2 D) per-pair recomputation."""
        rng = np.random.default_rng(21)
        batch = _random_pk_batch(rng, 8, 8, 5)
        sim = similarity_matrix(batch)
        expected = np.ones((64, 64))
        for i in range(64):
            for j in range(64):
                if i != j:
                    x, y = batch.data[i], batch.data[j]
                    expected[i, j] = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
        np.testing.assert_allclose(sim.values, expected, atol=1e-12)

    def test_exact_symmetry(self):
        """values equals its transpose bit for bit, not just within tolerance."""
        batch = _random_pk_batch(np.random.default_rng(22), 4, 4, 7)
        values = similarity_matrix(batch).values
        assert np.array_equal(values, values.T)

    def test_unit_diagonal(self):
        batch = _random_pk_batch(np.random.default_rng(23), 3, 3, 4)
        np.testing.assert_array_equal(np.diag(similarity_matrix(batch).values), 1.0)

    def test_zero_row_names_the_row(self):
        data = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        batch = EmbeddingBatch(data, np.array([0, 0, 1, 1]))
        with pytest.raises(DegenerateVectorError, match="row 3"):
            similarity_matrix(batch)

    def test_over_max_normalization(self):
        """cosine_over_max divides every entry by the largest off-diagonal."""
        batch = _random_pk_batch(np.random.default_rng(24), 3, 2, 5)
        raw = similarity_matrix(batch, kind="cosine").values
        off_diag_max = np.max(raw[~np.eye(6, dtype=bool)])
        scaled = similarity_matrix(batch, kind="cosine_over_max")
        assert scaled.kind == "cosine_over_max"
        np.testing.assert_allclose(scaled.values, raw / off_diag_max, atol=1e-12)

    def test_unknown_kind_rejected(self):
        batch = _random_pk_batch(np.random.default_rng(25), 2, 2, 3)
        with pytest.raises(ValueError):
            similarity_matrix(batch, kind="dot")


def _nearly(rng, base, rows, eps):
    return base + eps * rng.standard_normal((rows, base.size))


_AXES = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0], [0.0, -0.0, -3.0], [-0.0, 5.0, 0.0]])


def _signed_zero_rows(rng, rows, dim):
    """Rows whose entries are mostly +0.0 or -0.0, one +-1 each so no row is zero."""
    X = np.where(rng.random((rows, dim)) < 0.3, rng.standard_normal((rows, dim)), 0.0)
    X[np.arange(rows), rng.integers(dim, size=rows)] = 1.0
    return X * rng.choice([-1.0, 1.0], size=(rows, dim))


_GRAM_ROWS = {f"{rows}x{dim}": np.random.default_rng(50 + rows * dim).standard_normal((rows, dim))
              for rows in (1, 2, 4, 12, 16, 31, 32, 64, 256) for dim in (3, 16)}
_GRAM_ROWS.update({"stack_3x12x16": np.random.default_rng(51).standard_normal((3, 12, 16)),
                   "signed_zeros_12x3": _signed_zero_rows(np.random.default_rng(52), 12, 3),
                   "signed_zeros_32x16": _signed_zero_rows(np.random.default_rng(53), 32, 16),
                   # exact zeros in the rows: zero and +-1 cosines come out exactly
                   "axis_aligned": _AXES,
                   "zeros_mixed": np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0], [-0.8, 0.0, 0.6],
                                            [0.0, 0.0, -1.0], [0.3, -0.0, 0.0]]),
                   # rounding pushes cosines of nearly (anti)parallel rows past +-1 before the clip
                   "nearly_parallel": _nearly(np.random.default_rng(41), np.arange(1.0, 6.0), 7, 1e-9),
                   "nearly_antiparallel": np.vstack([
                       _nearly(np.random.default_rng(42), np.ones(4), 3, 1e-12),
                       -_nearly(np.random.default_rng(43), np.ones(4), 3, 1e-12)]),
                   "single_row": np.array([[3.0, -4.0]])})


def _fsum_products(X):
    """Each pair's sum of products of X's rows by math.fsum, and the sum of the products' sizes."""
    prods = X[..., :, None, :] * X[..., None, :, :]
    rows = prods.reshape(-1, X.shape[-1]).tolist()
    return (np.array([math.fsum(r) for r in rows]).reshape(prods.shape[:-1]),
            np.array([math.fsum(map(abs, r)) for r in rows]).reshape(prods.shape[:-1]))


class TestGramScores:
    """The one Gram product under the pairwise scores the losses read: the cosines
    and the raw inner products of ``BatchGeometry.scores``."""

    @pytest.mark.parametrize("name", sorted(_GRAM_ROWS))
    def test_symmetric_to_the_bit_and_near_the_loop_oracle(self, name):
        """Each score is symmetric to the bit and within (D + 2) eps_mach sum_k |x_k y_k|
        of the fsum of its rounded products: the product's rounding is at most about D
        half-ulps of that sum, the oracle's and the averaging's one more each, and the
        clip and the unit diagonal only move a cosine toward the exact value."""
        X = _GRAM_ROWS[name]
        geo = BatchGeometry(_unchecked_batch(X, np.arange(X.shape[-2]) % 2))
        for rows, normalize in ((X, False), (geo.unit_norms[0], True)):
            scores = geo.scores(LossConfig(normalize_for_simce=normalize))
            bits = scores.view(np.int64)
            np.testing.assert_array_equal(bits, bits.swapaxes(-1, -2))
            exact, size = _fsum_products(rows)
            assert np.all(np.abs(scores - exact) <= (X.shape[-1] + 2) * np.finfo(float).eps * size)

    @pytest.mark.parametrize("name", sorted(n for n, X in _GRAM_ROWS.items() if X[..., 0].size <= 64))
    def test_near_the_exact_sum_of_the_binary64_products(self, name):
        """The same (D + 2) eps_mach sum_k |x_k y_k| bound, against the exact sum of
        the products of the binary64 rows the Gram product reads, by Fraction: the fsum
        oracle above adds up products that are rounded themselves."""
        X = _GRAM_ROWS[name]
        geo = BatchGeometry(_unchecked_batch(X, np.arange(X.shape[-2]) % 2))
        for rows, normalize in ((X, False), (geo.unit_norms[0], True)):
            scores = geo.scores(LossConfig(normalize_for_simce=normalize))
            for batch, got in zip(rows.reshape(-1, *rows.shape[-2:]), scores.reshape(-1, *scores.shape[-2:])):
                F = _exact_rows(batch)
                for i, j in itertools.combinations_with_replacement(range(len(F)), 2):
                    products = [a * b for a, b in zip(F[i], F[j])]
                    bound = (X.shape[-1] + 2) * _EPS * sum(map(abs, products))
                    assert abs(Fraction(got[i, j]) - sum(products)) <= bound, (normalize, i, j)

    @pytest.mark.parametrize("name", sorted(_GRAM_ROWS))
    def test_cosines_are_valid(self, name):
        """A unit diagonal, every entry in [-1, 1], and no -0.0, signed-zero rows included."""
        X = _GRAM_ROWS[name]
        cos = BatchGeometry(_unchecked_batch(X, np.arange(X.shape[-2]) % 2)).sim
        assert np.all(np.einsum("...ii->...i", cos) == 1.0)
        assert cos.min() >= -1.0 and cos.max() <= 1.0
        assert not np.any(np.signbit(cos) & (cos == 0.0))

    def test_the_cases_reach_zeros_and_the_clip(self):
        """The rows above do produce exact zero cosines, off-diagonal cosines of
        exactly 1, and products past -1 that the clip has to bring back."""
        for name in ("signed_zeros_12x3", "axis_aligned"):
            assert np.count_nonzero(_cosine_values(_unit_rows(_GRAM_ROWS[name])[0]) == 0.0) >= 10
        unit = _unit_rows(_GRAM_ROWS["nearly_parallel"])[0]
        assert np.count_nonzero(_cosine_values(unit) == 1.0) > len(unit)
        unit = _unit_rows(_GRAM_ROWS["nearly_antiparallel"])[0]
        assert np.any(unit @ unit.T < -1.0)


class TestSimMatrixType:
    def test_rejects_asymmetry(self):
        values = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            SimMatrix(values)

    def test_rejects_out_of_range_cosine(self):
        values = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError):
            SimMatrix(values)

    def test_rejects_bad_diagonal(self):
        values = np.array([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError):
            SimMatrix(values)


class TestSimMatrixCsv:
    def test_round_trip(self, tmp_path):
        """The header names the kind, and the body reads back to bit-identical values."""
        batch = _random_pk_batch(np.random.default_rng(31), 4, 2, 6)
        sim = similarity_matrix(batch)
        path = tmp_path / "sim.csv"
        write_sim_matrix_csv(sim, path)
        assert path.read_text().splitlines()[0] == f"# kind={sim.kind} B={sim.size}"
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), sim.values)

    def test_header_line(self, tmp_path):
        batch = _random_pk_batch(np.random.default_rng(32), 2, 2, 3)
        path = tmp_path / "sim.csv"
        write_sim_matrix_csv(similarity_matrix(batch), path)
        first = path.read_text().splitlines()[0]
        assert first == "# kind=cosine B=4"

    def test_write_is_deterministic(self, tmp_path):
        batch = _random_pk_batch(np.random.default_rng(33), 3, 2, 4)
        sim = similarity_matrix(batch)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sim_matrix_csv(sim, a)
        write_sim_matrix_csv(sim, b)
        assert a.read_bytes() == b.read_bytes()


# every public entry point that takes class labels, fed 4 rows of them
_LABEL_ENTRY_POINTS = {
    "EmbeddingBatch": lambda y: EmbeddingBatch(np.ones((4, 2)), y),
    "anchor_layout": anchor_layout,
    "pk_index": lambda y: pk_index(y, BatchSpec(2, 2)),
    "gallery-labels": lambda y: GalleryProbeSplit(np.ones((4, 2)), y, np.ones((1, 2)), [0]),
    "probe-labels": lambda y: GalleryProbeSplit(np.ones((1, 2)), [0], np.ones((4, 2)), y),
    "variance_ratio": lambda y: variance_ratio(np.eye(4), y),
    "holdout_split": lambda y: holdout_split(y, 0.2, np.random.default_rng(0)),
    "SynthDataset": lambda y: SynthDataset(np.ones((4, 2)), y, np.zeros(4), np.zeros(4, dtype=bool)),
}


class TestLabels:
    """Class labels are integers wherever they enter, checked by one rule."""

    @pytest.mark.parametrize("labels, message", [
        ([0, 0.5, 1, 1], "label 1 must be an integer, got 0.5"),
        ([0.2, 0.9, 1.5, 1.1], "label 0 must be an integer, got 0.2"),
        ([0, 0, 1, math.nan], "label 3 must be an integer, got nan"),
        (["0", "0", "1", "1"], "label 0 must be an integer, got '0'"),
        ([0, 0, 1, None], "label 3 must be an integer, got None"),
    ], ids=["half", "all-fractional", "nan", "strings", "none"])
    @pytest.mark.parametrize("entry", _LABEL_ENTRY_POINTS)
    def test_labels_that_are_no_integers_are_refused(self, entry, labels, message):
        """An int64 cast truncated 0.5 to 0, so [0.2, 0.9, 1.5, 1.1] made two
        classes; it parsed digit strings and failed on nan and None in NumPy's words."""
        with pytest.raises(InvalidLabelError, match=re.escape(message)):
            _LABEL_ENTRY_POINTS[entry](labels)

    def test_integral_labels_are_taken_and_int64_ones_are_not_copied(self):
        labels = np.array([0, 0, 1, 1])
        assert np.shares_memory(EmbeddingBatch(np.ones((4, 2)), labels).labels, labels)
        for same in ([0.0, 0.0, 1.0, 1.0], np.array([0, 0, 1, 1], dtype=np.uint8), [0, 0, 1, np.int32(1)]):
            np.testing.assert_array_equal(EmbeddingBatch(np.ones((4, 2)), same).labels, labels)
