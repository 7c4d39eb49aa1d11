"""Independent numerical oracles for the loss family.

Finite differences, Hessian-trace probes, a Monte-Carlo robustness gap, and
the dynamic-margin identities.  Nothing here reuses a loss gradient: the
whole point is to check those gradients from the value function alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .batching import BatchSpec, enumerate_triplets
from .core import EmbeddingBatch
from .errors import EvaluationError, InvalidConfigError, SingularityError


# antithetic pairs per robustness_gap block; larger blocks only add peak memory
_MC_BLOCK_PAIRS = 1024


@dataclass(frozen=True)
class RobustnessProbe:
    """How to probe E[L(v + delta)] - L(v) with delta uniform per coordinate."""

    epsilon: float = 0.01
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise InvalidConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_samples < 1:
            raise InvalidConfigError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class HessianReport:
    """Numeric Hessian trace next to its closed form and the unit-regime bound.

    bound is the constant 1/2, which presumes a unit anchor and unit
    temperature; anchor_sq_norm is carried along so a violation outside that
    regime explains itself.  bound_satisfied is derived, never supplied.
    """

    numeric_trace: float
    closed_form_trace: float
    bound: float
    anchor_sq_norm: float
    bound_satisfied: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bound_satisfied", bool(self.numeric_trace <= self.bound + 1e-6))


def finite_diff_grad(fn, point, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h."""
    if h <= 0.0:
        raise InvalidConfigError(f"step must be > 0, got {h}")
    point = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(point)
    for i in range(point.size):
        step = np.zeros_like(point)
        step.flat[i] = h
        fp = float(fn(point + step))
        fm = float(fn(point - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite function value while perturbing coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


def numeric_hessian_trace(fn, point, h: float = 1e-4) -> float:
    """Sum of second central differences (f(x+h e_i) - 2 f(x) + f(x-h e_i)) / h^2."""
    if h <= 0.0:
        raise InvalidConfigError(f"step must be > 0, got {h}")
    point = np.asarray(point, dtype=np.float64)
    f0 = float(fn(point))
    if not np.isfinite(f0):
        raise EvaluationError("non-finite function value at the base point")
    trace = 0.0
    for i in range(point.size):
        step = np.zeros_like(point)
        step.flat[i] = h
        fp = float(fn(point + step))
        fm = float(fn(point - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite function value while perturbing coordinate {i}")
        trace += (fp - 2.0 * f0 + fm) / (h * h)
    return trace


def triplet_trace_closed(v) -> float:
    """Closed-form trace of the Hessian of ||v|| in dimension d: (d - 1) / ||v||.

    The hinge branch of the triplet loss is -||a - n|| plus terms constant
    in n, so this is the trace magnitude an active triplet contributes.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise SingularityError("the distance Hessian is singular at v = 0")
    return (v.size - 1) / norm


def simce_trace_closed(a, p, n, temperature: float = 1.0) -> HessianReport:
    """Hessian trace of the two-way softmax loss in its negative, both ways.

    With z = (<a,n> - <a,p>) / T the closed form is
    sigmoid(z) * sigmoid(-z) * ||a||^2 / T^2.  The numeric column probes
    softplus along v = a - n with second differences.  The reported bound is
    the constant 1/2, which the closed form attains only when ||a|| = 1 and
    T = 1 (there 1/4 is the true peak, at z = 0).
    """
    if temperature <= 0.0:
        raise InvalidConfigError(f"temperature must be > 0, got {temperature}")
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    z = float((a @ n - a @ p) / temperature)
    sig = float(expit(z))
    closed = sig * (1.0 - sig) * float(a @ a) / temperature**2

    def value(v):
        return float(np.logaddexp(0.0, (a @ (a - v) - a @ p) / temperature))

    numeric = numeric_hessian_trace(value, a - n, h=1e-4)
    return HessianReport(
        numeric_trace=numeric,
        closed_form_trace=closed,
        bound=0.5,
        anchor_sq_norm=float(a @ a),
    )


def robustness_gap(scalar_fn, v, probe: RobustnessProbe) -> tuple[float, float]:
    """Monte-Carlo estimate of E[f(v + delta)] - f(v) next to its prediction.

    delta is uniform on [-epsilon, epsilon] per coordinate.  Draws come in
    antithetic pairs (delta, -delta): the pair average cancels the odd-order
    terms exactly, which is what makes the quadratic prediction
    epsilon^2 / 6 * trace(H) visible at all; plain averaging would drown it
    in first-order noise at any affordable sample count.  The prediction's
    trace is the numeric probe, so this stays a pure oracle.

    scalar_fn is row-wise: it maps an array of points (..., d) to values
    (...), so a single point gives a scalar (which is how
    numeric_hessian_trace calls it) and a (k, d) block gives k values; any
    other result shape raises EvaluationError.  The draws are made in blocks
    of _MC_BLOCK_PAIRS rows, one (k, d) uniform draw and two scalar_fn calls
    per block.  A (k, d) draw yields the rows of k sequential size-d draws,
    so the seed stream is the one a per-pair loop would consume.  The block
    size is fixed, not n_pairs, to keep peak memory flat: one block of all
    50,000 pairs at d = 16 would hold 6.4 MB in each array of points.
    """
    v = np.asarray(v, dtype=np.float64)
    rng = np.random.default_rng(probe.seed)
    f0 = float(_values(scalar_fn, v, ()))
    if not np.isfinite(f0):
        raise EvaluationError("non-finite function value at the base point")
    n_pairs = max(probe.n_samples // 2, 1)
    acc = 0.0
    for start in range(0, n_pairs, _MC_BLOCK_PAIRS):
        k = min(_MC_BLOCK_PAIRS, n_pairs - start)
        delta = rng.uniform(-probe.epsilon, probe.epsilon, size=(k,) + v.shape)
        fp = _values(scalar_fn, v + delta, (k,))
        fm = _values(scalar_fn, v - delta, (k,))
        bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
        if bad.size:
            i = int(bad[0])
            side = "-delta" if np.isfinite(fp[i]) else "+delta"
            raise EvaluationError(
                f"non-finite function value at antithetic pair {start + i} ({side} side)")
        acc += float(np.sum(0.5 * (fp + fm) - f0))
    mc_estimate = acc / n_pairs
    predicted = probe.epsilon**2 / 6.0 * numeric_hessian_trace(scalar_fn, v, h=1e-4)
    return mc_estimate, predicted


def _values(scalar_fn, points: np.ndarray, shape: tuple) -> np.ndarray:
    """scalar_fn at points, checked to give one value per point (shape ``shape``)."""
    values = np.asarray(scalar_fn(points), dtype=np.float64)
    if values.shape != shape:
        raise EvaluationError(
            f"scalar_fn must return one value per point: expected shape {shape}, "
            f"got {values.shape}")
    return values


def dynamic_margin(a, p, n, temperature: float = 1.0) -> tuple[float, float]:
    """Margin the two-way softmax loss implies, plus the Taylor residual.

    Expanding -log sigmoid(-z) to second order around separated scores
    turns the loss into a squared-difference hinge with an effective margin
    of (<a,n> - <a,p>)^2 / T + 2T.  The residual is
    |softplus(z) - e^z| at z = (<a,n> - <a,p>) / T, which for z <= 0 is
    bounded by e^{2z} / 2.
    """
    if temperature <= 0.0:
        raise InvalidConfigError(f"temperature must be > 0, got {temperature}")
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    gap = float(a @ n - a @ p)
    margin = gap**2 / temperature + 2.0 * temperature
    z = gap / temperature
    residual = float(abs(np.logaddexp(0.0, z) - np.exp(z)))
    return margin, residual


def sample_gradcheck_batch(rng: np.random.Generator, n_classes: int, samples_per_class: int,
                           dim: int, cfg, min_gap: float = 1e-4) -> EmbeddingBatch:
    """Standard-normal PK batch resampled until no hinge argument sits near zero.

    Central differences straddle a relu kink whenever a hinge argument lies
    within the step of zero, so such batches are rejected; both the plain
    and the similarity-weighted hinge are screened with cfg.margin.
    """
    spec = BatchSpec(n_classes, samples_per_class)
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    tri = enumerate_triplets(labels)
    a, p, n = tri.anchors, tri.positives, tri.negatives
    off_diag = ~np.eye(spec.batch_size, dtype=bool)
    while True:
        X = rng.standard_normal((spec.batch_size, dim))
        diff = X[:, None, :] - X[None, :, :]
        D = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if D[off_diag].min() < 1e-3:
            continue
        unit = X / np.linalg.norm(X, axis=1)[:, None]
        S = np.clip(unit @ unit.T, -1.0, 1.0)
        plain = cfg.margin + D[a, p] - D[a, n]
        w = (1.0 - S) / 2.0
        weighted = cfg.margin + w[a, p] * D[a, p] - w[a, n] * D[a, n]
        if min(np.abs(plain).min(), np.abs(weighted).min()) >= min_gap:
            return EmbeddingBatch(X, labels, spec)


def batch_gradcheck(loss_fn, batch: EmbeddingBatch, h: float = 1e-5) -> float:
    """Worst relative disagreement between a loss gradient and finite differences.

    loss_fn takes a batch and returns something with .value and .grad.  The
    error is max |analytic - numeric| over all batch coordinates, divided by
    the larger of the two gradients' max magnitudes (or 0 when both vanish).
    """
    base = loss_fn(batch)
    shape = batch.data.shape

    def value_at(flat):
        # the base batch's layout is already checked; only finiteness can change
        rebuilt = EmbeddingBatch(flat.reshape(shape), batch.labels)
        return loss_fn(rebuilt).value

    numeric = finite_diff_grad(value_at, batch.data.ravel(), h)
    analytic = np.asarray(base.grad, dtype=np.float64).ravel()
    scale = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    if scale == 0.0:
        return 0.0
    return float(np.abs(analytic - numeric).max() / scale)
