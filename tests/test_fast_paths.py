"""The loss layer's fast paths: one table row each, forced both ways over one layout generator.

A row of ``PATHS`` names the module constant or function that selects a fast
path, a value that forces the fast path on every layout and one that forces
the reference path it stands in for, where the default takes the fast path,
how to see that it did, and the path's promise: bit-identical outputs,
bit-identical counts and gradients, or values within the bound the code
states.  Every row runs over
every layout of ``LAYOUTS``, sizes on both sides of every crossover (a kernel
may skip layouts its reference path makes too slow), and on
each the forced fast run keeps the promise against the forced reference run;
the default run is the reference run bit for bit short of the crossover, and
past it keeps the promise and took the fast path: it is the forced fast run
bit for bit or, where forcing changes the fast path's own shape (simce's
anchor blocks, batch_gradcheck's blocks of copies), a spy counts its calls
in the default run or the check counts its loss calls; and, on the label
layouts the row names, the default run agrees with the loop oracles of
``loop_oracles.py``; one test case per row and labelling, so a failure names
both.  Across all layouts, a second test per row checks that past the
crossover every call leaves the reference's bits on some layout, so no
promise holds vacuously.  The three runs of a row on a layout and the spy's
count are computed once and shared by both tests.  The rows but the stacked
gradcheck also run on drawn arbitrary layouts, and the hinge, which has one
path, is checked against its loop oracle on drawn layouts too.
"""

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metriclab import ClassifierHead, LossConfig, analysis, core, losses
from metriclab.batching import anchor_layout
from metriclab.core import _unchecked_batch
from metriclab.errors import EvaluationError, NonFiniteError
from metriclab.losses import REDUCTIONS

from loop_oracles import brute_loss, central_differences, hinge_args, loop_dist

EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)  # hashed by identity, so oracle values can be cached
class Layout:
    labelling: str
    kind: str
    labels: np.ndarray
    data: np.ndarray


# (labelling, labels, dim): 8, 16, 31, 32, 42 and 72 rows around the Gram form's 32;
# P up to 13 on unbalanced shuffled classes; simce grids of one anchor block (up to
# (72, 7, 64)), of two, and of 29 at (16, 16)
_LABELS = [
    ("pk-2x4", np.repeat(np.arange(2), 4), 3),
    ("pk-4x4", np.repeat(np.arange(4), 4), 3),
    ("pk-2x8", np.repeat(np.arange(2), 8), 16),
    ("singleton-31", np.random.default_rng(61).permutation(np.repeat(np.arange(5), [9, 8, 7, 6, 1])), 3),
    ("pk-4x8", np.repeat(np.arange(4), 8), 16),
    ("no-pair-32", np.arange(32), 4),
    ("pk-9x8", np.repeat(np.arange(9), 8), 16),
    ("pk-8x9", np.repeat(np.arange(8), 9), 3),
    ("pk-16x16", np.repeat(np.arange(16), 16), 16),
    ("singleton-42", np.random.default_rng(64).permutation(np.repeat(np.arange(5), [14, 12, 9, 6, 1])), 3),
]
_KINDS = ("gauss", "ties", "close", "norm-1e160", "overflow-1e200", "nan", "offset-30", "span-900")
_WIDE_KINDS = ("gauss", "overflow-1e200", "nan")  # (16, 16) runs path against path only


def _rows(kind, size, dim, rng):
    data = rng.standard_normal((size, dim))
    if kind == "ties":  # distances are roots of integers: hinge arguments tie at margins 0 and 1
        data = rng.integers(1, 4, (size, dim)) * 1.0
    elif kind == "close":
        data[[3, 7, size - 2]] = data[1]
        data[4], data[5] = data[2] + 1e-9 * rng.standard_normal((2, dim))
    elif kind == "norm-1e160":
        # squared norms overflow, so the Gram form cannot take the batch; the
        # explicit form is finite between the two huge rows, inf from them to the rest
        data[0] *= 1e160 / np.linalg.norm(data[0])
        data[1] = data[0] * (1.0 + 1e-9)
    elif kind == "overflow-1e200":
        data[size // 2] *= 1e200
    elif kind == "nan":
        data[2, 0] = np.nan
    elif kind == "offset-30":  # raw scores near 900, a few tens apart: only simce's shift saves them
        data = 30.0 * np.eye(dim)[0] + 0.2 * data
    elif kind == "span-900":  # raw scores span +-900, past simce's factoring range at T <= 2.5
        data[:4] = 30.0 * np.eye(dim)[[0, 0, 1, 2]] * [[1.0], [-1.0], [1.0], [-1.0]]
    return data


_rng = np.random.default_rng(63)
LAYOUTS = [Layout(name, kind, labels, _rows(kind, labels.size, dim, _rng))
           for name, labels, dim in _LABELS for kind in (_WIDE_KINDS if labels.size > 72 else _KINDS)]


# ---------------------------------------------------------------------------
# kernels: a layout -> {call: a function of no arguments that returns the call's
# output}, a loss output being its LossResult or the message of the NonFiniteError
# it raised


_HINGE_CALLS = {
    f"{name}{'-detached' if detach else ''}-m{margin}-{reduction}":
        (name, LossConfig(margin=margin, reduction=reduction, detach_similarity=detach))
    for name, detach in (("triplet", False), ("s_triplet", False), ("s_triplet", True))
    for margin in (0.0, 0.3, 1.0) for reduction in REDUCTIONS
}
_SIMCE_CALLS = {
    f"{'cosine' if normalize else 'raw'}-T{temperature}":
        ("simce", LossConfig(temperature=temperature, normalize_for_simce=normalize))
    for normalize in (False, True) for temperature in (0.05, 0.7, 1.0, 3.0)
}
# (16, 16) runs one temperature
_WIDE_CALLS = {"raw-T0.7", "cosine-T0.7"}


def _losses(calls):
    def kernel(layout):
        batch = _unchecked_batch(layout.data, layout.labels)
        head = ClassifierHead.init(np.random.default_rng(0), int(layout.labels.max()) + 1,
                                   layout.data.shape[1])

        def run(name, cfg):
            with np.errstate(all="ignore"):
                try:
                    return losses.LOSSES[name](batch, cfg, head)
                except NonFiniteError as exc:
                    return str(exc)
        return {key: functools.partial(run, name, cfg) for key, (name, cfg) in calls.items()
                if layout.labels.size <= 72 or key in _WIDE_CALLS}
    return kernel


def _gradcheck_copies(layout):
    """Perturbed copies a default batch_gradcheck puts in one loss call on the layout."""
    size, dim = layout.data.shape
    per_copy = max(size * size * dim, anchor_layout(layout.labels).grid.size)
    return max(1, analysis._GRADCHECK_BLOCK_ELEMS // per_copy)


def _gradchecks(layout):
    """{loss: run of [error, loss calls, largest |value| of a call, largest |analytic gradient
    entry|]} of batch_gradcheck, default LossConfig, or the message of the error it raised.

    Each check counts its loss calls (the spy of the stacked-gradcheck row), so
    a stacked check differs from the reference in its call count even where
    its values keep the reference's bits, as the hinge losses' do (see the
    stacked-call test of test_losses.py).  The reference path makes two loss calls per coordinate, so the row keeps
    to batches of at most 256 coordinates: every kind up to 64, the Gaussian
    kind above; every loss up to 32 rows, and the plain hinge on pk-8x9 and
    singleton-42.
    """
    rows, coordinates = layout.labels.size, layout.data.size
    if coordinates > 256 or coordinates > 64 and layout.kind != "gauss":
        return {}
    head = ClassifierHead.init(np.random.default_rng(0), int(layout.labels.max()) + 1,
                               layout.data.shape[1])

    def run(name):
        seen = []

        def spy(batch):
            seen.append(losses.LOSSES[name](batch, LossConfig(), head))
            return seen[-1]

        with np.errstate(all="ignore"):
            try:
                error = analysis.batch_gradcheck(spy, _unchecked_batch(layout.data, layout.labels))
            except (EvaluationError, NonFiniteError) as exc:
                return str(exc)
        return np.array([error, len(seen), max(np.abs(r.value).max() for r in seen),
                         np.abs(seen[0].grad).max()])
    return {name: functools.partial(run, name) for name in (("triplet",) if rows > 32 else losses.LOSSES)}


def _bits(out):
    if isinstance(out, losses.LossResult):
        return np.float64(out.value).tobytes(), out.grad.tobytes(), out.n_non, out.n_total
    return out.tobytes() if isinstance(out, np.ndarray) else out  # distances, or an error message


# ---------------------------------------------------------------------------
# promises, (fast, slow, layout) -> None, called when neither run raised


def _gram_bound(fast, slow, layout):
    """Close pairs, d^2 <= (n_i + n_j) / (2 rho), carry the explicit form's bits;
    every finite entry is within rho (D + 2) eps_mach of its d^2, plus (D + 4)
    eps_mach for the explicit form's and the square root's rounding; an entry
    is finite exactly where the explicit form's is."""
    data, dim, rho = layout.data, layout.data.shape[1], core._DIST_RECOMPUTE_RATIO
    finite = np.isfinite(slow)
    assert np.array_equal(np.isfinite(fast), finite)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(data * data, axis=1)
        close = finite & (slow ** 2 <= (norms[:, None] + norms) / (2.0 * rho))
    assert fast[close].tobytes() == slow[close].tobytes()
    d2, s2 = fast[finite] ** 2, slow[finite] ** 2
    assert np.all(np.abs(d2 - s2) <= (rho * (dim + 2) + dim + 4) * EPS * s2)


def _same_counts_and_gradient_bits(fast, slow, layout):
    """Counts and gradients bit-identical, the value within 1e-13: simce's total
    is summed block by block."""
    assert (fast.n_non, fast.n_total) == (slow.n_non, slow.n_total)
    assert fast.grad.tobytes() == slow.grad.tobytes()
    np.testing.assert_allclose(fast.value, slow.value, rtol=1e-13, atol=0.0)


def _within_1e13(fast, slow, layout):
    """Value and gradient within 1e-13 of the exp(-|z|) form."""
    assert fast.n_total == slow.n_total
    np.testing.assert_allclose(fast.value, slow.value, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(fast.grad, slow.grad, rtol=0.0, atol=1e-13 * np.abs(slow.grad).max())


def _same_verdict_and_error_within_rounding(fast, slow, layout):
    """The same verdict at 1e-6, and errors within 3 s / (A - s) of each other, s =
    (2 n + 6) eps F / h, n = max(B P M, B), F the largest |value| of either
    check, A the largest |analytic gradient entry|, h = 1e-5 batch_gradcheck's step.

    A stacked value is within (2 n + 4) eps of its copy's own call, relative
    (the stacked-call test of test_losses.py derives this), so a central
    difference moves by at most 2 (2 n + 4) eps F / 2h, plus its subtraction's
    and division's rounding on both sides, 2 eps F / h: s in all.  The error
    e = |a - num| / max(A, |num|), with e <= 2, then moves by at most
    (1 + e) s / (A - s).
    """
    verdicts = [error <= 1e-6 for error in (fast[0], slow[0])]
    assert verdicts[0] == verdicts[1]
    n = max(anchor_layout(layout.labels).grid.size, layout.labels.size)
    s = (2 * n + 6) * EPS * max(fast[2], slow[2]) / 1e-5
    a = fast[3] - s
    assert fast[0] == slow[0] or (a > 0.0 and abs(fast[0] - slow[0]) <= 3.0 * s / a)


# ---------------------------------------------------------------------------
# (fast, default, spied, layout, call, taken) -> None: where taken, the default
# took the fast path; spied counts the default's calls of the row's spy


def _same_bits_as_forced(fast, default, spied, layout, call, taken):
    if taken:
        assert _bits(default) == _bits(fast), "the default left the fast path"


def _simce_slabs_of_the_block_rule(fast, default, slabs, layout, call, taken):
    """Where taken, the default call ran _simce_slab once per block of the fewest anchor
    blocks of at most _SIMCE_BLOCK_ELEMS grid elements (one anchor a block when larger)."""
    if taken:
        n_rows, p, m = anchor_layout(layout.labels).grid.shape
        blocks = -(-n_rows // max(1, losses._SIMCE_BLOCK_ELEMS // (p * m)))
        assert slabs == blocks, f"{slabs} simce slabs, the block rule makes {blocks}"


def _stacked_loss_calls(fast, default, spied, layout, call, taken):
    """Where taken, the default check called the loss on the base batch and then once
    per block of the block rule's copies on each side: 1 + 2 ceil(B D / copies) calls.
    A check that stopped at the base batch made no block call to count."""
    if taken and not isinstance(default, str):
        blocks = -(-layout.data.size // _gradcheck_copies(layout))
        assert default[1] == 1 + 2 * blocks, f"{default[1]:.0f} loss calls, the block rule makes {1 + 2 * blocks}"


# ---------------------------------------------------------------------------
# loop oracles, (default output, layout, call) -> None, run on finite rows
# (the distances on every row)


def _dist_oracle(dist, layout, call):
    """Exactly symmetric, a zero diagonal on finite rows, non-finite exactly
    where the per-pair loop is, and within the Gram bound of its d^2."""
    data, dim, rho = layout.data, layout.data.shape[1], core._DIST_RECOMPUTE_RATIO
    oracle = loop_dist(data)
    finite = np.isfinite(oracle)
    assert np.array_equal(dist, dist.T, equal_nan=True)
    assert np.array_equal(np.isfinite(dist), finite)
    assert np.all(np.diag(dist)[np.all(np.isfinite(data), axis=1)] == 0.0)
    d2, o2 = dist[finite] ** 2, oracle[finite] ** 2
    assert np.all(np.abs(d2 - o2) <= (rho * (dim + 2) + dim + 4) * EPS * o2)


@functools.lru_cache(maxsize=6)  # one layout's three margins, plain and weighted
def _oracle_hinge_args(layout, margin, weighted):
    return hinge_args(layout.data, layout.labels, LossConfig(margin=margin), weighted)


def _hinge_oracle(result, layout, call):
    name, cfg = _HINGE_CALLS[call]
    args = _oracle_hinge_args(layout, cfg.margin, name == "s_triplet")
    assert result.n_total == args.size
    # at an exact tie, whether the weighted argument rounds to 0 or to +-1 ulp
    # depends on how its cosine was computed, so n_non is the oracle's for the
    # plain hinge only; the hinge sum is continuous there
    if name == "triplet":
        assert result.n_non == np.count_nonzero(args > 0.0)
    denom = result.n_non if cfg.reduction == "mean_over_nonzero" else args.size
    assert abs(result.value - np.maximum(args, 0.0).sum() / max(denom, 1)) <= 1e-12


def _simce_oracle(result, layout, call):
    """Value within 1e-12 of the per-triplet loop; on 8 rows the gradient within
    1e-6 of the loop's central differences too."""
    cfg, labels, data = _SIMCE_CALLS[call][1], layout.labels, layout.data
    value, _, n_total = brute_loss("simce", data, labels, cfg)
    assert result.n_total == n_total
    np.testing.assert_allclose(result.value, value, rtol=1e-12, atol=1e-12)
    if labels.size <= 8:
        numeric = central_differences(lambda d: brute_loss("simce", d, labels, cfg)[0], data)
        scale = max(1.0, float(np.abs(numeric).max()))
        np.testing.assert_allclose(result.grad, numeric, rtol=0.0, atol=1e-6 * scale)


# ---------------------------------------------------------------------------
# the table


def _factored(layout, call):
    """Whether the layout has triplets and simce's scores span at most
    _SIMCE_FACTOR_SPAN temperatures: where its factors stay in range."""
    cfg, X = _SIMCE_CALLS[call][1], layout.data
    with np.errstate(all="ignore"):
        X = X / np.linalg.norm(X, axis=1, keepdims=True) if cfg.normalize_for_simce else X
        scores = X @ X.T
        span = (scores.max() - scores.min()) / cfg.temperature
    return anchor_layout(layout.labels).n_triplets > 0 and span <= losses._SIMCE_FACTOR_SPAN


@dataclass(frozen=True)
class FastPath:
    owner: object          # the module holding the switch
    switch: str            # the constant or function that selects the path
    fast: object           # forces the fast path on every layout (None: the default does)
    slow: object           # forces the reference path on every layout
    kernel: Callable       # layout -> {call: run}
    taken: Callable        # (layout, call) -> whether the default takes the fast path
    spy: str | None        # the function of owner whose calls the default run counts
    took_path: Callable    # (fast, default, spied, layout, call, taken) -> None
    promise: Callable      # (fast, slow, layout) -> None
    oracle: Callable       # (default, layout, call) -> None
    oracle_labellings: tuple  # the labellings just past the crossover


PATHS = {
    "gram-dist": FastPath(
        core, "_DIST_GRAM_MIN_ROWS", 1, 10**9,
        lambda layout: {"dist": functools.partial(core._pairwise_dist, layout.data)},
        lambda layout, call: layout.labels.size >= core._DIST_GRAM_MIN_ROWS, None,
        _same_bits_as_forced, _gram_bound, _dist_oracle, ("pk-4x8", "no-pair-32", "pk-9x8", "pk-8x9")),
    "factored-simce": FastPath(
        losses, "_simce_factors", None, lambda *args: None, _losses(_SIMCE_CALLS), _factored, None,
        _same_bits_as_forced, _within_1e13, _simce_oracle, ("pk-2x4", "pk-4x4")),
    "blocked-simce": FastPath(
        losses, "_SIMCE_BLOCK_ELEMS", 1, 2**62, _losses(_SIMCE_CALLS),
        lambda layout, call: (_factored(layout, call) and
                              anchor_layout(layout.labels).grid.size > losses._SIMCE_BLOCK_ELEMS),
        "_simce_slab", _simce_slabs_of_the_block_rule, _same_counts_and_gradient_bits, _simce_oracle, ("pk-8x9",)),
    "stacked-gradcheck": FastPath(
        analysis, "_GRADCHECK_BLOCK_ELEMS", 2**62, 1, _gradchecks,
        lambda layout, call: _gradcheck_copies(layout) > 1, None,
        _stacked_loss_calls, _same_verdict_and_error_within_rounding, lambda *args: None, ()),
}


def _forced(path, value, run):
    """run() with the row's switch set to value (None: as it is)."""
    with pytest.MonkeyPatch.context() as patched:
        if value is not None:
            patched.setattr(path.owner, path.switch, value)
        return run()


def _spied(path, run):
    """run() and the number of calls it made of the row's spy (0 without one)."""
    calls = 0
    with pytest.MonkeyPatch.context() as patched:
        if path.spy is not None:
            spied = getattr(path.owner, path.spy)

            def counted(*args):
                nonlocal calls
                calls += 1
                return spied(*args)

            patched.setattr(path.owner, path.spy, counted)
        output = run()
    return output, calls


@functools.cache
def _runs(name, layout):
    """{call: (forced fast, forced reference, default output, the default's calls of
    the row's spy)} of the row's kernel on the layout."""
    path = PATHS[name]
    return {call: (_forced(path, path.fast, run), _forced(path, path.slow, run), *_spied(path, run))
            for call, run in path.kernel(layout).items()}


def _check_layout(name, layout, oracle_here):
    path = PATHS[name]
    for call, (fast, slow, default, spied) in _runs(name, layout).items():
        taken = path.taken(layout, call)
        try:
            for run in (fast, default) if taken else (fast,):
                if isinstance(run, str) or isinstance(slow, str):
                    assert run == slow
                else:
                    path.promise(run, slow, layout)
            if not taken:
                assert _bits(default) == _bits(slow), "the default left the reference path"
            path.took_path(fast, default, spied, layout, call, taken)
            if oracle_here:
                path.oracle(default, layout, call)
        except AssertionError as exc:
            raise AssertionError(f"{name} on {layout.labelling}-{layout.kind}, {call}: {exc}") from exc


@pytest.mark.parametrize("labelling", [labelling for labelling, _, _ in _LABELS])
@pytest.mark.parametrize("name", PATHS)
def test_fast_path_forced_both_ways(name, labelling):
    for layout in (layout for layout in LAYOUTS if layout.labelling == labelling):
        with np.errstate(over="ignore"):
            finite = bool(np.all(np.isfinite(np.sum(layout.data ** 2, axis=1))))
        _check_layout(name, layout, labelling in PATHS[name].oracle_labellings and (finite or name == "gram-dist"))


@pytest.mark.parametrize("name", PATHS)
def test_fast_path_straddles_its_crossover_and_moves_bits(name):
    """The layouts fall on both sides of the row's crossover, and every call the
    default sends down the fast path leaves the reference run's bits on some
    layout, so no promise of the table holds vacuously."""
    path = PATHS[name]
    sides, taken_calls, moved_calls = set(), set(), set()
    for layout in LAYOUTS:
        for call, (fast, slow, default, spied) in _runs(name, layout).items():
            taken = path.taken(layout, call)
            sides.add(taken)
            if taken:
                taken_calls.add(call)
                if _bits(default) != _bits(slow):
                    moved_calls.add(call)
    assert sides == {False, True}, f"{name}: the layouts do not straddle its crossover"
    assert taken_calls == moved_calls, f"{name}: never off the reference bits on {taken_calls - moved_calls}"


# the hinge has one path, so it has no row: on every labelling the losses run
# (up to 72 rows) its default run meets the loop oracle on every finite kind


@pytest.mark.parametrize("labelling", [labelling for labelling, labels, _ in _LABELS if labels.size <= 72])
def test_hinge_matches_the_loop_oracle_on_every_finite_layout(labelling):
    """Both hinges, both similarity gradients of the weighted one, margins 0, 0.3 and 1
    and both reductions: the triplet count, the plain hinge's active count and the
    value agree with the per-triplet loop on the fixed layouts."""
    layouts = [layout for layout in LAYOUTS if layout.labelling == labelling]
    with np.errstate(over="ignore"):
        finite = [layout for layout in layouts if np.all(np.isfinite(np.sum(layout.data ** 2, axis=1)))]
    assert finite
    for layout in finite:
        for call, run in _losses(_HINGE_CALLS)(layout).items():
            try:
                _hinge_oracle(run(), layout, call)
            except AssertionError as exc:
                raise AssertionError(f"{layout.labelling}-{layout.kind}, {call}: {exc}") from exc


# ---------------------------------------------------------------------------
# arbitrary layouts: shuffled, unbalanced, singleton classes, no pair at all,
# P up to 12


@st.composite
def _drawn_layouts(draw, max_classes=5):
    sizes = draw(st.lists(st.integers(1, 13), min_size=2, max_size=max_classes))
    labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(
        np.repeat(np.arange(len(sizes)), sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (labels.size, draw(st.integers(2, 4)))
    # integer rows tie distances, so hinge arguments tie at margins 0 and 1
    data = rng.integers(1, 4, shape) * 1.0 if draw(st.booleans()) else rng.standard_normal(shape)
    return Layout("drawn", "drawn", labels, data)


@given(layout=_drawn_layouts())
def test_hinge_count_and_value_match_the_loop_oracle_on_arbitrary_layouts(layout):
    """Both hinges, both similarity gradients of the weighted one, margins 0, 0.3 and 1
    and both reductions: the triplet count, the plain hinge's active count and the
    value agree with the per-triplet loop."""
    for call, run in _losses(_HINGE_CALLS)(layout).items():
        try:
            _hinge_oracle(run(), layout, call)
        except AssertionError as exc:
            raise AssertionError(f"{call}: {exc}") from exc


# up to 8 classes, 104 rows: 5 classes of at most 13 rows seldom pass the blocked
# simce's 32,768 grid elements; the stacked gradcheck is left out, since its
# reference path makes 2 B D + 1 loss calls a check
@pytest.mark.parametrize("name", ["gram-dist", "factored-simce", "blocked-simce"])
@given(layout=_drawn_layouts(max_classes=8))
def test_fast_path_keeps_its_promise_on_arbitrary_layouts(name, layout):
    """Forced fast, forced reference and default runs keep the row's promise, the
    default is the reference run bit for bit short of the crossover, and it took
    the fast path past it."""
    _check_layout(name, layout, oracle_here=False)
