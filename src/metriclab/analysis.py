"""Independent numerical oracles for the loss family.

Finite differences, Hessian-trace probes, a Monte-Carlo robustness gap, and
the dynamic-margin identities.  Nothing here reuses a loss gradient: the
whole point is to check those gradients from the value function alone.

Every oracle takes its function in one row-wise form: fn maps a stack of
points (k, *point.shape) to k values, so a single point gives a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .batching import BatchSpec, anchor_layout
from .core import EmbeddingBatch, _unchecked_batch
from .errors import EvaluationError, InvalidConfigError, SingularityError, _check_fields
from .losses import BatchGeometry, weight_from_sim


# antithetic pairs per robustness_gap block; larger blocks only add peak memory
_MC_BLOCK_PAIRS = 1024
# closest a gradcheck batch's hinge argument may sit to its kink: 10x batch_gradcheck's step
_KINK_GAP = 1e-4
# doubles in the largest temporary of one batch_gradcheck loss call: 512 KB, in L2
_GRADCHECK_BLOCK_ELEMS = 65536


@dataclass(frozen=True)
class RobustnessProbe:
    """How to probe E[L(v + delta)] - L(v) with delta uniform per coordinate."""

    epsilon: float = 0.01
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, least={"seed": 0})
        if self.epsilon <= 0.0:
            raise InvalidConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.n_samples < 2 or self.n_samples % 2:
            raise InvalidConfigError(
                f"n_samples must be an even count >= 2 (draws come in antithetic pairs), "
                f"got {self.n_samples}")


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
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h; fn is row-wise."""
    if h <= 0.0:
        raise InvalidConfigError(f"step must be > 0, got {h}")
    point = np.asarray(point, dtype=np.float64)
    fp, fm = _coordinate_steps(fn, point, h)
    return ((fp - fm) / (2.0 * h)).reshape(point.shape)


def numeric_hessian_trace(fn, point, h: float = 1e-4) -> float:
    """Sum of second central differences (f(x+h e_i) - 2 f(x) + f(x-h e_i)) / h^2; fn is row-wise."""
    if h <= 0.0:
        raise InvalidConfigError(f"step must be > 0, got {h}")
    point = np.asarray(point, dtype=np.float64)
    f0 = float(_values(fn, point, ()))
    if not np.isfinite(f0):
        raise EvaluationError("non-finite function value at the base point")
    fp, fm = _coordinate_steps(fn, point, h)
    # a running sum in coordinate order, so a stack-consistent fn gives its single-point trace
    return sum(((fp - 2.0 * f0 + fm) / (h * h)).tolist())


def _coordinate_steps(fn, point: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """fn at point + h e_i and at point - h e_i for every coordinate i: one fn call per side."""
    n = point.size
    steps = (h * np.eye(n)).reshape((n,) + point.shape)
    fp = _values(fn, point + steps, (n,))
    fm = _values(fn, point - steps, (n,))
    bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
    if bad.size:
        raise EvaluationError(f"non-finite function value while perturbing coordinate {bad[0]}")
    return fp, fm


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
    sig = float(scipy.special.expit(z))
    closed = sig * (1.0 - sig) * float(a @ a) / temperature**2

    def value(v):
        return np.logaddexp(0.0, ((a - v) @ a - a @ p) / temperature)

    # h = 1e-3: truncation <= h^2 / 12 relative, round-off ~ 4 d eps |f| / h^2 absolute, so a
    # trace near 2.5e-3 keeps ~1e-5; at h = 1e-4 round-off passed the 1e-3 tolerance (CHANGES.md)
    numeric = numeric_hessian_trace(value, a - n, h=1e-3)
    return HessianReport(
        numeric_trace=numeric,
        closed_form_trace=closed,
        bound=0.5,
        anchor_sq_norm=float(a @ a),
    )


def robustness_gap(fn, v, probe: RobustnessProbe) -> tuple[float, float]:
    """Monte-Carlo estimate of E[f(v + delta)] - f(v) next to its prediction.

    delta is uniform on [-epsilon, epsilon] per coordinate.  Draws come in
    antithetic pairs (delta, -delta): the pair average cancels the odd-order
    terms exactly, which is what makes the quadratic prediction
    epsilon^2 / 6 * trace(H) visible at all; plain averaging would drown it
    in first-order noise at any affordable sample count.  The prediction's
    trace is the numeric probe, so this stays a pure oracle.

    fn is row-wise, like every oracle's here: a (k, d) block gives k values
    and any other result shape raises EvaluationError.  The draws are made in
    blocks of _MC_BLOCK_PAIRS rows, one (k, d) uniform draw and two fn calls
    per block.  A (k, d) draw yields the rows of k sequential size-d draws,
    so the seed stream is the one a per-pair loop would consume.  The block
    size is fixed, not n_pairs, to keep peak memory flat: one block of all
    50,000 pairs at d = 16 would hold 6.4 MB in each array of points.
    """
    v = np.asarray(v, dtype=np.float64)
    rng = np.random.default_rng(probe.seed)
    f0 = float(_values(fn, v, ()))
    if not np.isfinite(f0):
        raise EvaluationError("non-finite function value at the base point")
    n_pairs = probe.n_samples // 2
    acc = 0.0
    for start in range(0, n_pairs, _MC_BLOCK_PAIRS):
        k = min(_MC_BLOCK_PAIRS, n_pairs - start)
        delta = rng.uniform(-probe.epsilon, probe.epsilon, size=(k,) + v.shape)
        fp = _values(fn, v + delta, (k,))
        fm = _values(fn, v - delta, (k,))
        bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
        if bad.size:
            i = int(bad[0])
            side = "-delta" if np.isfinite(fp[i]) else "+delta"
            raise EvaluationError(
                f"non-finite function value at antithetic pair {start + i} ({side} side)")
        acc += float(np.sum(0.5 * (fp + fm) - f0))
    mc_estimate = acc / n_pairs
    predicted = probe.epsilon**2 / 6.0 * numeric_hessian_trace(fn, v, h=1e-4)
    return mc_estimate, predicted


def _values(fn, points: np.ndarray, shape: tuple) -> np.ndarray:
    """fn at points, checked to give one value per point (shape ``shape``)."""
    values = np.asarray(fn(points), dtype=np.float64)
    if values.shape != shape:
        raise EvaluationError(
            f"fn must return one value per point: expected shape {shape}, "
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
                           dim: int, cfg) -> EmbeddingBatch:
    """Standard-normal PK batch resampled until no hinge argument sits near zero.

    Central differences straddle a relu kink whenever a hinge argument lies
    within the step of zero, so batches with any argument closer than
    _KINK_GAP are rejected; both the plain and the similarity-weighted hinge
    are screened with cfg.margin, over the batch geometry the losses read.
    """
    spec = BatchSpec(n_classes, samples_per_class)
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    off_diag = ~np.eye(spec.batch_size, dtype=bool)
    while True:
        X = rng.standard_normal((spec.batch_size, dim))
        geo = BatchGeometry(_unchecked_batch(X, labels))
        if geo.dist[off_diag].min() < 1e-3:
            continue
        d_ap, d_an = geo.blocks(geo.dist)
        w_ap, w_an = map(weight_from_sim, geo.blocks(geo.sim))
        plain = cfg.margin + d_ap[:, :, None] - d_an[:, None, :]
        weighted = cfg.margin + (w_ap * d_ap)[:, :, None] - (w_an * d_an)[:, None, :]
        grid = geo.layout.grid
        if min(np.abs(plain)[grid].min(), np.abs(weighted)[grid].min()) >= _KINK_GAP:
            return EmbeddingBatch(X, labels)


def batch_gradcheck(loss_fn, batch: EmbeddingBatch, h: float = 1e-5) -> float:
    """Worst relative disagreement between a loss gradient and finite differences.

    loss_fn takes a batch and returns something with .value and .grad.  The
    error is max |analytic - numeric| over all batch coordinates, divided by
    the larger of the two gradients' max magnitudes (or 0 when both vanish).
    loss_fn must be row-wise (else EvaluationError), as the losses are: each side is one call per
    (k, B, D) block of the perturbed copies whose (k, B, B, D) differences and (k, B, P, M) grid
    fit _GRADCHECK_BLOCK_ELEMS, a one-copy block being one 2-D batch.
    """
    base = loss_fn(batch)
    per_copy = max(batch.size * batch.data.size, anchor_layout(batch.labels).grid.size)
    copies = max(1, _GRADCHECK_BLOCK_ELEMS // per_copy)
    shape = batch.data.shape if copies == 1 else (-1,) + batch.data.shape

    def value_at(stack):
        # unchecked: the base batch is checked, a +-h copy of its finite rows is finite,
        # and finite_diff_grad refuses a non-finite loss value
        return np.concatenate([np.atleast_1d(loss_fn(_unchecked_batch(stack[i:i + copies].reshape(shape),
                                                                      batch.labels)).value)
                               for i in range(0, len(stack), copies)])

    numeric = finite_diff_grad(value_at, batch.data.ravel(), h)
    analytic = np.asarray(base.grad, dtype=np.float64).ravel()
    scale = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    if scale == 0.0:
        return 0.0
    return float(np.abs(analytic - numeric).max() / scale)
