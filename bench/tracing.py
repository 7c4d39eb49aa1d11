"""Span recording around the calls between metriclab's modules.

The benchmark installs wrappers from outside the package: in every module
namespace it replaces each public function that some metriclab module
defines, whether the name was imported from another module or is the
module's own, plus the constructors listed in ``CONSTRUCTORS``.  Calls
that go through those names (cross-module imports, intra-module calls
such as ``combined_loss`` -> ``s_triplet_loss``, and the benchmark's own
calls through module attributes) each record one span.  Methods and
private helpers are not wrapped, so their time is the caller's self time.

Spans live in memory as ``[name, layer, start_ns, end_ns, parent, attrs]``
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

import numpy as np

# classes whose construction is a layer boundary worth timing (validation)
CONSTRUCTORS = ("EmbeddingBatch", "SimMatrix")
# functions whose first argument is a callable the oracle evaluates many
# times; the wrapper counts those evaluations into the span's attrs
COUNTED_CALLABLE_ARG = ("robustness_gap",)
BENCH_LAYER = "bench"


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("metriclab."):
        return None
    return module.split(".")[1]


def _traceable(name: str, obj) -> bool:
    if name.startswith("_") or _layer_of(obj) is None:
        return False
    if inspect.isclass(obj):
        return obj.__name__ in CONSTRUCTORS
    return inspect.isfunction(obj)


class Tracer:
    """Records spans; ``install`` patches module namespaces, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counted = fn.__name__ in COUNTED_CALLABLE_ARG

        def traced(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, None]
            calls = None
            if counted and args:
                calls = [0]
                inner = args[0]

                def counting(*a, **k):
                    calls[0] += 1
                    return inner(*a, **k)

                args = (counting,) + args[1:]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if calls is not None:
                rec[5] = {"calls": calls[0]}
            elif hasattr(out, "n_total") and hasattr(out, "n_non"):
                rec[5] = {"n_non": int(out.n_non), "n_total": int(out.n_total)}
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one piece of its work."""
        rec = [name, BENCH_LAYER, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, modules) -> None:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if _traceable(attr, obj):
                    layer = _layer_of(obj)
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(obj, f"{layer}.{obj.__name__}", layer))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def write(self, path) -> None:
        """One JSON object per line: name, layer, start and end (ns), parent index, attrs."""
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


_CALL_ROWS = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_CALL_INDEX = np.arange(8)
_CALL_LABELS = np.repeat(np.arange(4), 4)
_DRAW_RNG = np.random.default_rng(0)
_DRAW_AXIS = np.full(8, 8 ** -0.5)


def _array_calls() -> None:
    """NumPy calls of several kinds on tiny arrays: indexing, einsum, masks, reductions."""
    for _ in range(10):
        rows = _CALL_ROWS[_CALL_INDEX]
        sims = np.einsum("ij,kj->ik", rows, rows)
        hinge = np.maximum(np.where(sims > 0, sims, 0.0) - 0.1, 0.0).sum(axis=1)
        _ = _CALL_LABELS[:8] == _CALL_LABELS[8:]
        np.exp(-hinge).mean()


def _random_draws() -> None:
    """An interpreted loop of small random draws, projections and norms."""
    for _ in range(40):
        g = _DRAW_RNG.standard_normal(8)
        g -= float(g @ _DRAW_AXIS) * _DRAW_AXIS
        float(np.linalg.norm(g))


# The reference computations, each with its usual thread time in ms (the
# speed every time it scales is reported at) on the 2-vCPU Xeon VM (2.0 GHz)
# it was sized on.  A shared machine slows different kinds of work by
# different factors, so each metric is scaled by the computation most like
# its own work: "calls" for training steps and gradchecks, which are runs of
# NumPy calls on small arrays; "draws" for the vMF sampler and the
# Monte-Carlo probes, which draw small random vectors in interpreted loops.
REFERENCES = {"calls": (_array_calls, 0.3), "draws": (_random_draws, 0.4)}


def reference_ms(kind: str) -> float:
    """Thread time, in ms, of the reference computation ``kind``: the machine's current speed for it.

    A shared machine runs the benchmark at speeds up to twice apart, and
    switches between them within a second.  Timing a fixed computation
    beside each measured piece of work gives the speed that piece ran at.
    """
    compute = REFERENCES[kind][0]
    start = time.thread_time_ns()
    compute()
    return (time.thread_time_ns() - start) * 1e-6


class SpeedClock:
    """Thread-time stamps, each taken right after a timing of the reference computation ``kind``.

    The time from one stamp to the next, less the reference computation
    just before the next, is a segment of measured work; the mean of the
    two reference times is the speed it ran at.  ``span`` adds up segments
    as timed and at the reference speed (the reference's time in
    ``REFERENCES``, ``nominal``).  The stamps are
    the thread's CPU time (``time.thread_time_ns``): all the work runs on
    this one thread, and the clock leaves out stretches when a shared
    machine did not run it.
    """

    def __init__(self, kind: str):
        self.kind, self.nominal = kind, REFERENCES[kind][1]
        self.stamps: list[tuple[int, float]] = []  # (thread time ns, reference ms)

    def tick(self) -> int:
        """Time the reference computation, stamp, and return the stamp's index."""
        ref = reference_ms(self.kind)
        self.stamps.append((time.thread_time_ns(), ref))
        return len(self.stamps) - 1

    def span(self, first: int, last: int) -> tuple[float, float]:
        """``(ms as timed, ms at the reference speed)`` from stamp ``first`` to stamp ``last``."""
        raw = scaled = 0.0
        for (a, ref_a), (b, ref_b) in zip(self.stamps[first:last], self.stamps[first + 1:last + 1]):
            ms = (b - a) * 1e-6 - ref_b
            raw += ms
            scaled += ms * 2.0 * self.nominal / (ref_a + ref_b)
        return raw, scaled

    def ticking(self, fn, every: int):
        """``fn`` with a tick before every ``every``-th call, for speed readings inside long work."""
        count = 0

        def ticked(*args, **kwargs):
            nonlocal count
            count += 1
            if count % every == 0:
                self.tick()
            return fn(*args, **kwargs)

        return ticked


class StepClock:
    """Blocks of training steps on a speed clock, from a hook on the first call every step makes.

    The only instrumentation of training in an untraced run: one tick at
    the start of every ``block``-th step of a training run, which gives
    per-step times without the set-up and write-out around the steps.  A
    block of several short steps keeps the reference computation, and the
    caches it disturbs, out of most steps.  Steps after the run's last
    tick have no closing tick, so they are not timed.
    """

    def __init__(self, module, name: str, speed: SpeedClock, block: int = 1):
        self.module, self.name, self.speed, self.block = module, name, speed, block
        self.starts: list[int] = []  # speed-clock stamp of each block start
        self.count = 0               # steps of the current training run

    def __enter__(self):
        self.original = original = getattr(self.module, self.name)

        def clocked(*args, **kwargs):
            if self.count % self.block == 0:
                self.starts.append(self.speed.tick())
            self.count += 1
            return original(*args, **kwargs)

        setattr(self.module, self.name, clocked)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)
        return False

    def begin(self) -> int:
        """Start counting the steps of a new training run; returns its first block's index."""
        self.count = 0
        return len(self.starts)

    def steps(self, first: int) -> list[tuple[float, float]]:
        """``(ms as timed, ms at the reference speed)`` per step, one pair per block from ``first`` on."""
        s = self.starts[first:]
        return [tuple(ms / self.block for ms in self.speed.span(a, b)) for a, b in zip(s, s[1:])]
