"""Numerical oracles: finite-difference gradients, Hessian traces, the
Monte-Carlo robustness expansion, and the dynamic-margin identity.

The closed forms under test are classical calculus facts; each one is
cross-checked against an independent numerical scheme inside the test.
"""

import math
import re

import numpy as np
import pytest

from metriclab import (
    ClassifierHead,
    HessianReport,
    LossConfig,
    RobustnessProbe,
    batch_gradcheck,
    dynamic_margin,
    enumerate_triplets,
    finite_diff_grad,
    numeric_hessian_trace,
    robustness_gap,
    s_triplet_loss,
    sample_gradcheck_batch,
    simce_loss,
    simce_trace_closed,
    triplet_trace_closed,
)
from metriclab import analysis
from metriclab.errors import EvaluationError, InvalidConfigError, SingularityError


class TestFiniteDiffGrad:
    def test_square_function(self):
        """Central differences are exact (to rounding) on x -> x^2."""
        grad = finite_diff_grad(lambda x: (x * x).sum(-1), np.array([1.0]), h=1e-3)
        np.testing.assert_allclose(grad, [2.0], atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: np.full(x.shape[:-1], 4.2), np.zeros(5))
        np.testing.assert_array_equal(grad, 0.0)

    def test_matches_analytic_contrastive_gradient(self):
        """d/dn softplus((a.n - a.p)/T) = sigmoid(z)/T * a."""
        rng = np.random.default_rng(91)
        temperature = 0.7
        for _ in range(20):
            a, p, n = rng.standard_normal((3, 6))
            fn = lambda x: np.logaddexp(0.0, (x @ a - a @ p) / temperature)
            z = (a @ n - a @ p) / temperature
            analytic = a / (temperature * (1.0 + math.exp(-z)))
            numeric = finite_diff_grad(fn, n)
            np.testing.assert_allclose(
                numeric, analytic, rtol=1e-6, atol=1e-9)

    def test_non_finite_value_names_the_coordinate(self):
        def bad(x):
            return np.where(x[..., 1] > 0.5, np.nan, 0.0)

        with pytest.raises(EvaluationError, match="coordinate 1"):
            finite_diff_grad(bad, np.array([0.0, 0.5]))


class TestNumericHessianTrace:
    def test_squared_norm_gives_twice_dimension(self):
        for d in (2, 5, 9):
            trace = numeric_hessian_trace(lambda x: (x * x).sum(-1), np.ones(d))
            np.testing.assert_allclose(trace, 2.0 * d, atol=1e-4)

    def test_linear_function_gives_zero(self):
        c = np.arange(1.0, 5.0)
        trace = numeric_hessian_trace(lambda x: x @ c, np.ones(4))
        np.testing.assert_allclose(trace, 0.0, atol=1e-4)

    def test_norm_at_radius_two(self):
        """Laplacian of ||v|| is (d-1)/||v||: 1.0 at d=3, ||v||=2."""
        v = np.array([2.0, 0.0, 0.0])
        trace = numeric_hessian_trace(lambda x: np.linalg.norm(x, axis=-1), v)
        np.testing.assert_allclose(trace, 1.0, atol=1e-3)


def _per_coordinate_grad(fn, point, h=1e-5):
    """The per-coordinate loop finite_diff_grad used to run, kept as its reference."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(point)
    for i in range(point.size):
        step = np.zeros_like(point)
        step.flat[i] = h
        grad.flat[i] = (float(fn(point + step)) - float(fn(point - step))) / (2.0 * h)
    return grad


def _per_coordinate_trace(fn, point, h=1e-4):
    """The per-coordinate loop numeric_hessian_trace used to run, kept as its reference."""
    point = np.asarray(point, dtype=np.float64)
    f0 = float(fn(point))
    trace = 0.0
    for i in range(point.size):
        step = np.zeros_like(point)
        step.flat[i] = h
        trace += (float(fn(point + step)) - 2.0 * f0 + float(fn(point - step))) / (h * h)
    return trace


class TestRowWiseContract:
    """The stacked ±h oracles against the per-coordinate loops they replaced."""

    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("kind", ["quadratic", "softplus", "sin"])
    def test_matches_the_per_coordinate_loops(self, kind, d):
        """On a function whose stacked and single evaluations agree, both
        oracles give the old loops' numbers bit for bit."""
        fn = _row_fn(kind, d)
        point = np.random.default_rng([d, 33]).standard_normal(d)
        np.testing.assert_array_equal(finite_diff_grad(fn, point), _per_coordinate_grad(fn, point))
        assert numeric_hessian_trace(fn, point) == _per_coordinate_trace(fn, point)

    def test_one_call_per_side(self):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return (x * x).sum(-1)

        finite_diff_grad(counted, np.ones(5))
        assert calls == [(5, 5), (5, 5)]
        calls.clear()
        numeric_hessian_trace(counted, np.ones(5))
        assert calls == [(5,), (5, 5), (5, 5)]

    @pytest.mark.parametrize("short_call", [0, 1], ids=["+h-stack", "-h-stack"])
    @pytest.mark.parametrize("oracle", [finite_diff_grad, numeric_hessian_trace])
    def test_one_value_per_point_is_enforced(self, oracle, short_call):
        stacks = []

        def fn(x):
            if x.ndim == 1:
                return (x * x).sum(-1)
            stacks.append(x)
            values = (x * x).sum(-1)
            return values[1:] if len(stacks) - 1 == short_call else values

        with pytest.raises(EvaluationError, match=r"expected shape \(4,\), got \(3,\)"):
            oracle(fn, np.ones(4))

    def test_non_finite_trace_term_names_the_coordinate(self):
        def blows_up(x):
            # coordinates 2 and 3 both blow up on their -h side; the first is named
            return np.where((x[..., 2] < 0.0) | (x[..., 3] < 1.0), np.inf, (x * x).sum(-1))

        with pytest.raises(EvaluationError, match="perturbing coordinate 2$"):
            numeric_hessian_trace(blows_up, np.array([1.0, 1.0, 0.0, 1.0]))

    def test_non_finite_base_value_is_named(self):
        with pytest.raises(EvaluationError, match="base point"):
            numeric_hessian_trace(lambda x: np.full(x.shape[:-1], np.nan), np.ones(3))


class TestTripletTraceClosed:
    def test_reference_point(self):
        """(d-1)/||v|| = 1 at d=3, ||v||=2."""
        assert triplet_trace_closed(np.array([2.0, 0.0, 0.0])) == 1.0

    def test_unbounded_growth_near_origin(self):
        """The curvature scale blows up as 1/||v||: 1000 at ||v||=0.001, d=2."""
        np.testing.assert_allclose(
            triplet_trace_closed(np.array([0.001, 0.0])), 1000.0, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(SingularityError):
            triplet_trace_closed(np.zeros(3))

    def test_matches_numeric_trace_of_active_hinge(self):
        """On the active branch the term is affine minus ||v||, so the numeric
        trace in v equals -(d-1)/||v|| within 1e-3 relative."""
        rng = np.random.default_rng(101)
        for d in (3, 8):
            for scale in (1.0, 0.1, 0.01):
                v = rng.standard_normal(d)
                v *= scale / np.linalg.norm(v)
                numeric = numeric_hessian_trace(lambda x: 10.0 - np.linalg.norm(x, axis=-1), v)
                closed = triplet_trace_closed(v)
                assert abs(abs(numeric) - closed) / closed <= 1e-3
                assert numeric < 0


class TestSimceTraceClosed:
    def test_balanced_point_quarter_trace(self):
        """At z=0 with a unit anchor and T=1 the trace is exactly 1/4 and the
        1/2 bound holds."""
        a = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])
        n = np.array([0.0, -1.0])  # a.p == a.n == 0
        report = simce_trace_closed(a, p, n, 1.0)
        np.testing.assert_allclose(report.closed_form_trace, 0.25, atol=1e-12)
        np.testing.assert_allclose(report.numeric_trace, 0.25, atol=1e-4)
        assert report.bound == 0.5
        assert report.bound_satisfied

    def test_saturated_point_vanishes(self):
        a = np.array([1.0, 0.0])
        p = np.array([20.0, 0.0])
        n = np.array([-20.0, 0.0])
        report = simce_trace_closed(a, p, n, 1.0)
        assert report.closed_form_trace < 1e-12
        assert abs(report.numeric_trace) < 1e-6

    def test_non_unit_anchor_scales_quadratically(self):
        """Doubling the anchor quadruples the trace to 1.0, breaking the
        unit-anchor bound; the report must say so."""
        a = np.array([2.0, 0.0])
        p = np.array([0.0, 1.0])
        n = np.array([0.0, -1.0])
        report = simce_trace_closed(a, p, n, 1.0)
        np.testing.assert_allclose(report.closed_form_trace, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.anchor_sq_norm, 4.0, atol=1e-12)
        assert not report.bound_satisfied

    def test_closed_and_numeric_agree_at_random_points(self):
        rng = np.random.default_rng(111)
        for _ in range(50):
            d = int(rng.choice((3, 8, 16)))
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            p, n = rng.standard_normal((2, d))
            report = simce_trace_closed(a, p, n, 1.0)
            rel = abs(report.numeric_trace - report.closed_form_trace)
            rel /= abs(report.closed_form_trace)
            assert rel <= 1e-3
            assert report.bound_satisfied

    def test_temperature_validated(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(InvalidConfigError):
            simce_trace_closed(a, a, a, 0.0)


class TestHessianReportType:
    def test_bound_flag_is_derived(self):
        report = HessianReport(numeric_trace=0.3, closed_form_trace=0.3,
                               bound=0.5, anchor_sq_norm=1.0)
        assert report.bound_satisfied
        report = HessianReport(numeric_trace=0.7, closed_form_trace=0.7,
                               bound=0.5, anchor_sq_norm=1.0)
        assert not report.bound_satisfied


class TestRobustnessGap:
    def test_quadratic_control_is_exact(self):
        """For f(v)=||v||^2 both the MC mean and the trace prediction equal
        d*eps^2/3; paired antithetic draws kill the odd-order noise."""
        probe = RobustnessProbe(epsilon=0.01, n_samples=100000, seed=7)
        v = np.random.default_rng(121).standard_normal(6)
        mc, predicted = robustness_gap(lambda x: (x * x).sum(-1), v, probe)
        exact = 6 * probe.epsilon**2 / 3.0
        np.testing.assert_allclose(predicted, exact, rtol=1e-4)
        # the MC mean's own standard error is ~0.17% relative at 1e5 draws
        np.testing.assert_allclose(mc, predicted, rtol=5e-3)

    def test_linear_function_cancels_exactly(self):
        """A linear f has zero gap; the antithetic pairing makes the MC side
        exactly zero, not just small."""
        c = np.arange(1.0, 6.0)
        probe = RobustnessProbe(epsilon=0.05, n_samples=1000, seed=8)
        mc, predicted = robustness_gap(lambda x: (x * c).sum(-1), np.ones(5), probe)
        assert mc == 0.0
        np.testing.assert_allclose(predicted, 0.0, atol=1e-10)

    def test_contrastive_term_within_five_percent(self):
        rng = np.random.default_rng(122)
        probe = RobustnessProbe(epsilon=0.01, n_samples=100000, seed=9)
        for _ in range(5):
            d = 8
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            p, n = rng.standard_normal((2, d))
            sp = float(a @ p)
            fn = lambda v: np.logaddexp(0.0, a @ a - v @ a - sp)
            mc, predicted = robustness_gap(fn, a - n, probe)
            assert abs(mc - predicted) / abs(predicted) <= 0.05

    def test_probe_validation(self):
        with pytest.raises(InvalidConfigError):
            RobustnessProbe(epsilon=0.0)
        with pytest.raises(InvalidConfigError):
            RobustnessProbe(n_samples=0)
        with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
            RobustnessProbe(seed=-1)
        with pytest.raises(InvalidConfigError, match=re.escape("n_samples must be an integer, got 4.0")):
            RobustnessProbe(n_samples=4.0)

    @pytest.mark.parametrize("n_samples", [-2, 0, 1, 3, 5, 99_999])
    def test_probe_needs_an_even_draw_count(self, n_samples):
        """Draws come in antithetic pairs, so an odd count (or fewer than one
        pair) would be rounded rather than honoured; it is refused instead."""
        with pytest.raises(InvalidConfigError, match="even count >= 2 .*antithetic pairs"):
            RobustnessProbe(n_samples=n_samples)

    def test_fixed_seed_reproduces(self):
        probe = RobustnessProbe(epsilon=0.02, n_samples=2000, seed=5)
        v = np.ones(4)
        fn = lambda x: np.sin(x).sum(-1)
        assert robustness_gap(fn, v, probe) == robustness_gap(fn, v, probe)


def _per_pair_gap(scalar_fn, v, probe):
    """The per-pair scalar loop robustness_gap used to run, kept as its reference."""
    v = np.asarray(v, dtype=np.float64)
    rng = np.random.default_rng(probe.seed)
    f0 = float(scalar_fn(v))
    n_pairs = probe.n_samples // 2
    acc = 0.0
    for _ in range(n_pairs):
        delta = rng.uniform(-probe.epsilon, probe.epsilon, size=v.shape)
        fp = float(scalar_fn(v + delta))
        fm = float(scalar_fn(v - delta))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError("non-finite function value at a perturbed point")
        acc += 0.5 * (fp + fm) - f0
    predicted = probe.epsilon**2 / 6.0 * numeric_hessian_trace(scalar_fn, v, h=1e-4)
    return acc / n_pairs, predicted


def _row_fn(kind, d):
    """A smooth row-wise function of points (..., d), written so that a block
    of rows gives bit for bit the values of the same rows one at a time."""
    rng = np.random.default_rng([d, 31])
    a = rng.standard_normal(d)
    a /= np.linalg.norm(a)
    sp = float(a @ rng.standard_normal(d))
    return {
        "quadratic": lambda x: (x * x).sum(-1),
        "softplus": lambda x: np.logaddexp(0.0, ((a - x) * a).sum(-1) - sp),
        "sin": lambda x: np.sin(x).sum(-1),
    }[kind]


BLOCK = analysis._MC_BLOCK_PAIRS


class TestRobustnessGapBlocks:
    """The blocked estimator against the per-pair loop it replaced."""

    @pytest.mark.parametrize("n_samples", [2, 4, 2 * BLOCK - 2, 2 * BLOCK, 2 * BLOCK + 2, 100_000])
    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("kind", ["quadratic", "softplus", "sin"])
    def test_matches_the_per_pair_loop(self, kind, d, n_samples):
        fn = _row_fn(kind, d)
        v = np.random.default_rng([d, 32]).standard_normal(d)
        probe = RobustnessProbe(epsilon=0.01, n_samples=n_samples, seed=d + n_samples)
        mc, predicted = robustness_gap(fn, v, probe)
        ref_mc, ref_predicted = _per_pair_gap(fn, v, probe)
        if ref_mc == 0.0:
            assert abs(mc) <= 1e-18
        else:
            assert abs(mc - ref_mc) <= 1e-12 * abs(ref_mc)
        assert predicted == ref_predicted

    def test_blocks_draw_the_per_pair_sequence(self):
        d, n_pairs = 3, BLOCK + 1
        v = np.linspace(-1.0, 1.0, d)
        probe = RobustnessProbe(epsilon=0.05, n_samples=2 * n_pairs, seed=13)
        blocks = []

        def recording(x):
            if x.ndim == 2:
                blocks.append(x.copy())
            return (x * x).sum(-1)

        robustness_gap(recording, v, probe)
        rng = np.random.default_rng(probe.seed)
        deltas = np.array([rng.uniform(-probe.epsilon, probe.epsilon, size=d)
                           for _ in range(n_pairs)])
        # the prediction's trace then makes its two (d, d) coordinate-step calls
        assert [len(b) for b in blocks] == [BLOCK, BLOCK, 1, 1, d, d]
        blocks = blocks[:4]
        np.testing.assert_array_equal(np.concatenate(blocks[0::2]), v + deltas)
        np.testing.assert_array_equal(np.concatenate(blocks[1::2]), v - deltas)

    @pytest.mark.parametrize("fn, expected, received", [
        (lambda x: float(np.sum(x * x)), r"\(500,\)", r"\(\)"),
        (lambda x: (x * x).sum(-1) if x.ndim == 1 else (x * x).sum(-1)[1:], r"\(500,\)", r"\(499,\)"),
        (lambda x: (x * x).sum(-1, keepdims=True), r"\(\)", r"\(1,\)"),
    ], ids=["one-scalar-per-block", "short-block", "keepdims"])
    def test_one_value_per_point_is_enforced(self, fn, expected, received):
        probe = RobustnessProbe(epsilon=0.01, n_samples=1000, seed=3)
        with pytest.raises(EvaluationError, match=rf"expected shape {expected}, got {received}"):
            robustness_gap(fn, np.ones(3), probe)

    @pytest.mark.parametrize("side, sign", [("+delta", 1.0), ("-delta", -1.0)])
    def test_non_finite_value_names_the_pair_and_side(self, side, sign):
        d, pair = 4, BLOCK + 476
        v = np.ones(d)
        probe = RobustnessProbe(epsilon=0.01, n_samples=4000, seed=21)
        rng = np.random.default_rng(probe.seed)
        target = v + sign * rng.uniform(-probe.epsilon, probe.epsilon, size=(pair + 1, d))[pair]

        def blows_up_at_target(x):
            return np.where(np.all(x == target, axis=-1), np.inf, (x * x).sum(-1))

        with pytest.raises(EvaluationError, match=re.escape(f"pair {pair} ({side} side)")):
            robustness_gap(blows_up_at_target, v, probe)


class TestDynamicMargin:
    def test_balanced_point(self):
        """a.n == a.p at T=1: margin (a.n-a.p)^2/T + 2T = 2 and the
        softplus-vs-exponential residual is |ln 2 - 1|."""
        a = np.array([1.0, 0.0])
        p = np.array([0.6, 0.8])
        n = np.array([0.6, -0.8])
        margin, residual = dynamic_margin(a, p, n, 1.0)
        np.testing.assert_allclose(margin, 2.0, atol=1e-12)
        np.testing.assert_allclose(residual, abs(math.log(2.0) - 1.0), atol=1e-12)

    def test_margin_formula_at_known_gap(self):
        """Gap a.n - a.p = -1 at T=0.5 gives 1/0.5 + 2*0.5 = 3."""
        a = np.array([1.0, 0.0])
        p = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])  # gap = 0 - 1 = -1
        margin, _ = dynamic_margin(a, p, n, 0.5)
        np.testing.assert_allclose(margin, 1.0 / 0.5 + 2 * 0.5, atol=1e-12)

    def test_residual_shrinks_like_the_square(self):
        """|softplus(z) - e^z| <= e^{2z}/2 at z = -5 and z = -2."""
        rng = np.random.default_rng(131)
        for gap in (-5.0, -2.0):
            d = 4
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            # place p,n so that a.n - a.p equals the target gap exactly
            p = a * (1.0 - gap / 2.0)
            n = a * (1.0 + gap / 2.0)
            _, residual = dynamic_margin(a, p, n, 1.0)
            assert residual <= math.exp(2 * gap) / 2.0

    def test_residual_bound_on_grid(self):
        """|softplus(z) - e^z| <= e^{2z}/2 on z in [-20, 0] step 0.1."""
        zs = np.arange(-20.0, 0.0 + 1e-9, 0.1)
        residual = np.abs(np.logaddexp(0.0, zs) - np.exp(zs))
        assert np.all(residual <= np.exp(2 * zs) / 2.0 + 1e-18)

    def test_temperature_validated(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(InvalidConfigError):
            dynamic_margin(a, a, a, -1.0)


def _flat_triplet_screen(rng, n_classes, samples_per_class, dim, cfg):
    """sample_gradcheck_batch as it was before it read BatchGeometry: distances,
    cosines and (1 - s) / 2 weights recomputed over the flat triplet arrays."""
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    tri = enumerate_triplets(labels)
    a, p, n = tri.anchors, tri.positives, tri.negatives
    size = labels.size
    off_diag = ~np.eye(size, dtype=bool)
    while True:
        X = rng.standard_normal((size, dim))
        diff = X[:, None, :] - X[None, :, :]
        D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if D[off_diag].min() < 1e-3:
            continue
        unit = X / np.linalg.norm(X, axis=1)[:, None]
        S = np.clip(unit @ unit.T, -1.0, 1.0)
        plain = cfg.margin + D[a, p] - D[a, n]
        w = (1.0 - S) / 2.0
        weighted = cfg.margin + w[a, p] * D[a, p] - w[a, n] * D[a, n]
        if min(np.abs(plain).min(), np.abs(weighted).min()) >= 1e-4:
            return X


class TestGradcheckHarness:
    def test_sampled_batches_respect_shape_and_margins(self):
        """A PK batch whose hinge arguments all keep 1e-4 clear of the kink."""
        rng = np.random.default_rng(141)
        cfg = LossConfig()
        batch = sample_gradcheck_batch(rng, 3, 2, 4, cfg)
        assert batch.data.shape == (6, 4)
        np.testing.assert_array_equal(batch.labels, np.repeat(np.arange(3), 2))
        tri = enumerate_triplets(batch.labels)
        a, p, n = tri.anchors, tri.positives, tri.negatives
        D = np.linalg.norm(batch.data[:, None, :] - batch.data[None, :, :], axis=2)
        assert np.all(np.abs(cfg.margin + D[a, p] - D[a, n]) >= 1e-4)

    @pytest.mark.parametrize("cfg", [LossConfig(), LossConfig(margin=0.6)], ids=["default", "margin0.6"])
    def test_screen_matches_the_flat_triplet_screen(self, cfg):
        """Screening on BatchGeometry accepts the batches the flat-triplet
        screen accepted and leaves the generator where it left it, over every
        (2|4) x (2|4) layout and dims 3, 5, 8 and 16."""
        for n in (2, 4):
            for k in (2, 4):
                for dim in (3, 5, 8, 16):
                    seed = [n, k, dim, int(cfg.margin * 10)]
                    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    for _ in range(10):
                        old = _flat_triplet_screen(old_rng, n, k, dim, cfg)
                        new = sample_gradcheck_batch(new_rng, n, k, dim, cfg)
                        assert new.data.tobytes() == old.tobytes(), (n, k, dim)
                    assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_screen_matches_the_flat_triplet_screen_on_the_acceptance_stream(self):
        """The 700 batches of acceptance criterion 1, with its head draws in between."""
        cfg = LossConfig()

        def replay(sample):
            rng = np.random.default_rng(101)
            drawn = []
            for _ in range(700):
                n, k, dim = int(rng.choice((2, 4))), int(rng.choice((2, 4))), int(rng.choice((3, 8, 16)))
                drawn.append(sample(rng, n, k, dim, cfg).tobytes())
                ClassifierHead.init(rng, n, dim)
            return drawn, rng.bit_generator.state

        old = replay(_flat_triplet_screen)
        assert replay(lambda *args: sample_gradcheck_batch(*args).data) == old

    def test_detects_a_corrupted_gradient(self):
        """The checker must flag a gradient that is wrong by one percent.

        The contrastive loss is used because its gradient never vanishes,
        so the one-percent corruption cannot hide behind an inactive hinge.
        """
        rng = np.random.default_rng(142)
        cfg = LossConfig()
        batch = sample_gradcheck_batch(rng, 2, 2, 5, cfg)

        def corrupted(b):
            result = simce_loss(b, cfg)
            return type(result)(value=result.value, grad=result.grad * 1.01,
                                n_non=result.n_non, n_total=result.n_total)

        assert batch_gradcheck(corrupted, batch) > 1e-3

    def test_accepts_a_correct_gradient(self):
        rng = np.random.default_rng(143)
        cfg = LossConfig()
        batch = sample_gradcheck_batch(rng, 2, 2, 5, cfg)
        assert batch_gradcheck(lambda b: s_triplet_loss(b, cfg), batch) <= 1e-6
