"""Directional synthetic data: density, sampler, concentration estimator,
and the clustered dataset generator.

The density is checked against the d=3 closed form and against numerical
quadrature over the sphere; the sampler against direct statistics of its
draws; the estimator against a generator round trip.
"""

import math
import re

import numpy as np
import pytest

from metriclab import (
    DatasetSpec,
    VmfParams,
    estimate_kappa,
    gen_dataset,
    sample_vmf,
    vmf_density,
    write_dataset_csv,
)
from metriclab.errors import DegenerateConcentrationError, DimensionMismatchError, InvalidSpecError


def _unit(v):
    return v / np.linalg.norm(v)


class TestVmfParams:
    def test_requires_unit_mean_direction(self):
        with pytest.raises(ValueError):
            VmfParams(np.array([1.0, 1.0]), 1.0)

    def test_requires_nonnegative_concentration(self):
        with pytest.raises(ValueError):
            VmfParams(np.array([1.0, 0.0]), -0.5)

    @pytest.mark.parametrize("kappa", [True, "2", math.inf], ids=["bool", "string", "inf"])
    def test_concentration_must_be_a_finite_real_number(self, kappa):
        """A boolean kappa drew at concentration 1 and a string one ended in a TypeError."""
        with pytest.raises(ValueError, match=re.escape(f"kappa must be a finite real number, got {kappa!r}")):
            VmfParams(np.array([1.0, 0.0]), kappa)


class TestVmfDensity:
    def test_zero_concentration_is_uniform_on_sphere(self):
        """kappa = 0 in d=3 gives the uniform density 1/(4*pi) everywhere."""
        params = VmfParams(np.array([0.0, 0.0, 1.0]), 0.0)
        for x in (np.array([1.0, 0.0, 0.0]), _unit(np.array([1.0, 2.0, -2.0]))):
            np.testing.assert_allclose(vmf_density(x, params), 1.0 / (4 * math.pi),
                                       atol=1e-12)

    def test_matches_three_dimensional_closed_form(self):
        """In d=3 the normalizer reduces to kappa/(2*pi*(e^k - e^-k))/e^-k...
        evaluated at the mode: kappa*e^kappa / (2*pi*(e^kappa - e^-kappa)).
        At kappa=1 this is 0.1840655."""
        mu = _unit(np.array([0.3, -0.5, 0.8]))
        kappa = 1.0
        expected = kappa * math.exp(kappa) / (2 * math.pi * (math.exp(kappa) - math.exp(-kappa)))
        np.testing.assert_allclose(vmf_density(mu, VmfParams(mu, kappa)), expected,
                                   rtol=1e-12)
        np.testing.assert_allclose(expected, 0.1840655, atol=5e-7)

    def test_mode_is_the_mean_direction(self):
        rng = np.random.default_rng(151)
        mu = _unit(rng.standard_normal(5))
        params = VmfParams(mu, 3.0)
        peak = vmf_density(mu, params)
        for _ in range(50):
            x = _unit(rng.standard_normal(5))
            assert vmf_density(x, params) <= peak + 1e-15

    def test_rejects_off_sphere_points(self):
        params = VmfParams(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            vmf_density(np.array([2.0, 0.0]), params)

    @pytest.mark.parametrize("d", [3, 8, 16])
    @pytest.mark.parametrize("kappa", [0.0, 1.0, 20.0, 80.0])
    def test_stack_matches_single_points(self, kappa, d):
        """A (k, d) stack gives k values, each bit for bit the single-point
        density of its row, which is a float."""
        rng = np.random.default_rng([d, int(kappa), 152])
        params = VmfParams(_unit(rng.standard_normal(d)), kappa)
        X = rng.standard_normal((200, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        stacked = vmf_density(X, params)
        assert stacked.shape == (200,)
        singles = [vmf_density(x, params) for x in X]
        assert all(type(v) is float for v in singles)
        np.testing.assert_array_equal(stacked, singles)
        np.testing.assert_array_equal(vmf_density(X.reshape(10, 20, d), params),
                                      stacked.reshape(10, 20))

    def test_off_sphere_row_in_a_stack_is_named(self):
        params = VmfParams(np.array([0.0, 0.0, 1.0]), 5.0)
        X = np.eye(3)
        X[2] *= 1.5
        with pytest.raises(ValueError, match="row 2 has norm 1.5"):
            vmf_density(X, params)

    def test_rejects_a_stack_of_the_wrong_dimension(self):
        params = VmfParams(np.array([0.0, 0.0, 1.0]), 5.0)
        with pytest.raises(DimensionMismatchError):
            vmf_density(np.eye(4), params)

    def test_integrates_to_one_on_the_sphere(self):
        """Midpoint latitude-longitude quadrature of the d=3 density is
        1 within 1e-3."""
        mu = np.array([0.0, 0.0, 1.0])
        for kappa in (0.0, 1.0, 10.0):
            params = VmfParams(mu, kappa)
            n_theta, n_phi = 400, 800
            thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
            phis = (np.arange(n_phi) + 0.5) * 2 * math.pi / n_phi
            total = 0.0
            for theta in thetas:
                ring = np.stack([
                    np.sin(theta) * np.cos(phis),
                    np.sin(theta) * np.sin(phis),
                    np.full_like(phis, np.cos(theta)),
                ], axis=1)
                # density depends only on the angle to mu, constant per ring
                total += vmf_density(_unit(ring[0]), params) * np.sin(theta) * len(phis)
            total *= (math.pi / n_theta) * (2 * math.pi / n_phi)
            np.testing.assert_allclose(total, 1.0, atol=1e-3)


class TestSampleVmf:
    def test_outputs_are_unit_vectors(self):
        rng = np.random.default_rng(161)
        params = VmfParams(_unit(np.ones(6)), 12.0)
        for _ in range(200):
            assert abs(np.linalg.norm(sample_vmf(params, rng)) - 1.0) <= 1e-9

    def test_zero_concentration_is_directionless(self):
        """1e5 uniform draws have mean resultant length below 0.02."""
        rng = np.random.default_rng(162)
        params = VmfParams(np.array([0.0, 0.0, 1.0]), 0.0)
        draws = np.array([sample_vmf(params, rng) for _ in range(100000)])
        assert np.linalg.norm(draws.mean(axis=0)) <= 0.02

    def test_concentrated_draws_point_at_the_mean(self):
        """kappa=50 in d=8: the average of 1e4 draws is within 0.05 rad of mu."""
        rng = np.random.default_rng(163)
        mu = _unit(np.arange(1.0, 9.0))
        params = VmfParams(mu, 50.0)
        draws = np.array([sample_vmf(params, rng) for _ in range(10000)])
        mean_dir = _unit(draws.mean(axis=0))
        angle = math.acos(min(1.0, float(mean_dir @ mu)))
        assert angle <= 0.05

    def test_deterministic_given_seed(self):
        params = VmfParams(_unit(np.ones(4)), 7.0)
        a = np.array([sample_vmf(params, np.random.default_rng(9)) for _ in range(10)])
        b = np.array([sample_vmf(params, np.random.default_rng(9)) for _ in range(10)])
        np.testing.assert_array_equal(a, b)


class TestEstimateKappa:
    def test_formula_at_half_resultant(self):
        """Two unit vectors at angle 2*pi/3 have mean length 1/2; the
        estimator returns 0.5*(3 - 0.25)/(1 - 0.25) = 1.8333... in d=3."""
        phi = 2 * math.pi / 3
        samples = np.array([[1.0, 0.0, 0.0],
                            [math.cos(phi), math.sin(phi), 0.0]])
        np.testing.assert_allclose(estimate_kappa(samples), 0.5 * 2.75 / 0.75,
                                   rtol=1e-12)

    def test_uniform_draws_give_near_zero(self):
        rng = np.random.default_rng(171)
        draws = rng.standard_normal((100000, 8))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        assert estimate_kappa(draws) <= 0.05

    def test_round_trip_at_moderate_concentration(self):
        """Draws at kappa=20 in d=8 estimate back inside [17, 23]."""
        rng = np.random.default_rng(172)
        params = VmfParams(_unit(np.ones(8)), 20.0)
        draws = np.array([sample_vmf(params, rng) for _ in range(10000)])
        assert 17.0 <= estimate_kappa(draws) <= 23.0

    def test_identical_samples_rejected(self):
        samples = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
        with pytest.raises(DegenerateConcentrationError):
            estimate_kappa(samples)

    def test_non_unit_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_kappa(np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestDatasetSpec:
    def test_subclusters_must_be_tighter_than_classes(self):
        with pytest.raises(InvalidSpecError):
            DatasetSpec(2, 2, 2, 4, class_kappa=30.0, subcluster_kappa=20.0)

    def test_noise_fraction_range(self):
        with pytest.raises(InvalidSpecError):
            DatasetSpec(2, 2, 2, 4, 5.0, 10.0, noise_fraction=1.0)
        with pytest.raises(InvalidSpecError):
            DatasetSpec(2, 2, 2, 4, 5.0, 10.0, noise_fraction=-0.1)

    def test_noise_needs_a_second_class(self):
        with pytest.raises(InvalidSpecError):
            DatasetSpec(1, 2, 2, 4, 5.0, 10.0, noise_fraction=0.1)

    def test_zero_classes_rejected(self):
        with pytest.raises(InvalidSpecError):
            DatasetSpec(0, 2, 2, 4, 5.0, 10.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpecError, match="seed must be >= 0, got -2"):
            DatasetSpec(2, 2, 2, 4, 5.0, 10.0, seed=-2)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.bool_(False), "3"],
                             ids=["float", "integral-float", "bool", "numpy-bool", "string"])
    def test_non_integer_seed_rejected(self, seed):
        """A float or a string would reach the generator as a TypeError, and a
        boolean would run silently as seed 0 or 1."""
        message = f"seed must be an integer, got {re.escape(repr(seed))}"
        with pytest.raises(InvalidSpecError, match=message):
            DatasetSpec(2, 2, 2, 4, 5.0, 10.0, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = DatasetSpec(2, 2, 2, 4, 5.0, 10.0, seed=np.int64(4))
        assert np.array_equal(gen_dataset(spec).features,
                              gen_dataset(DatasetSpec(2, 2, 2, 4, 5.0, 10.0, seed=4)).features)

    def test_sample_count(self):
        assert DatasetSpec(32, 2, 50, 32, 20.0, 80.0).n_samples == 3200


class TestGenDataset:
    def test_row_counts_and_balance(self):
        """32 classes x 2 subclusters x 50 samples: 3200 rows, 100 per class."""
        spec = DatasetSpec(32, 2, 50, 32, 20.0, 80.0, seed=1)
        data = gen_dataset(spec)
        assert data.n_samples == 3200
        assert data.dim == 32
        labels, counts = np.unique(data.labels, return_counts=True)
        np.testing.assert_array_equal(labels, np.arange(32))
        np.testing.assert_array_equal(counts, 100)

    def test_classes_cohere_without_noise(self):
        """Mean within-class cosine exceeds mean between-class cosine."""
        spec = DatasetSpec(8, 2, 20, 16, 15.0, 60.0, noise_fraction=0.0, seed=2)
        data = gen_dataset(spec)
        unit = data.features / np.linalg.norm(data.features, axis=1, keepdims=True)
        sims = unit @ unit.T
        same = data.labels[:, None] == data.labels[None, :]
        off_diag = ~np.eye(len(unit), dtype=bool)
        within = sims[same & off_diag].mean()
        between = sims[~same].mean()
        assert within > between

    def test_deterministic_given_seed(self):
        spec = DatasetSpec(4, 2, 5, 8, 10.0, 40.0, noise_fraction=0.1, seed=3)
        a, b = gen_dataset(spec), gen_dataset(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.subclusters, b.subclusters)
        np.testing.assert_array_equal(a.noise_flags, b.noise_flags)

    def test_noise_flag_count_matches_fraction(self):
        spec = DatasetSpec(5, 2, 10, 8, 10.0, 40.0, noise_fraction=0.13, seed=4)
        data = gen_dataset(spec)
        assert int(data.noise_flags.sum()) == round(0.13 * data.n_samples)

    def test_noisy_rows_keep_their_labels(self):
        """Label noise re-draws features near a wrong class but does not
        change the label column, so flagged rows sit far from their class."""
        spec = DatasetSpec(4, 2, 25, 16, 10.0, 80.0, noise_fraction=0.2, seed=5)
        noisy = gen_dataset(spec)
        clean = gen_dataset(DatasetSpec(4, 2, 25, 16, 10.0, 80.0,
                                        noise_fraction=0.0, seed=5))
        np.testing.assert_array_equal(noisy.labels, clean.labels)
        flagged = noisy.noise_flags
        assert flagged.any()
        assert not np.array_equal(noisy.features[flagged], clean.features[flagged])
        np.testing.assert_array_equal(noisy.features[~flagged], clean.features[~flagged])

    def test_rows_lie_on_the_sphere(self):
        data = gen_dataset(DatasetSpec(3, 2, 4, 6, 5.0, 20.0, seed=6))
        np.testing.assert_allclose(np.linalg.norm(data.features, axis=1), 1.0,
                                   atol=1e-9)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        spec = DatasetSpec(3, 2, 4, 5, 8.0, 30.0, noise_fraction=0.1, seed=7)
        data = gen_dataset(spec)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 3:], data.features)
        np.testing.assert_array_equal(back[:, 0], data.labels)
        np.testing.assert_array_equal(back[:, 1], data.subclusters)
        np.testing.assert_array_equal(back[:, 2], data.noise_flags)

    def test_header_names_columns(self, tmp_path):
        data = gen_dataset(DatasetSpec(2, 2, 2, 3, 5.0, 20.0, seed=8))
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "label,subcluster,noise,f0,f1,f2"
