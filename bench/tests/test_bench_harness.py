"""Tests of the benchmark harness: arithmetic, counting and the metric schema.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the repo root.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import Tally, self_times, tail_percentile  # noqa: E402
from layers import LAYER_METRICS, layer_metrics, segments  # noqa: E402
from tracing import REFERENCES, SpeedClock, StepClock, Tracer  # noqa: E402


def _span(name, layer, start, end, parent, attrs=None):
    return [name, layer, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("bench.train", "bench", 0, 100, -1),
        _span("cli.run", "cli", 10, 90, 0),
        _span("training.run_training", "training", 20, 80, 1),
        _span("batching.sample_pk", "batching", 25, 35, 2),
        _span("losses.triplet_loss", "losses", 40, 70, 2),
    ]
    assert self_times(spans) == [20, 20, 20, 10, 30]
    assert sum(self_times(spans)) == 100  # self times of a tree add up to its root


def test_tracer_records_nesting_and_loss_counts():
    class Result:
        n_non, n_total = 3, 8

    tracer = Tracer()
    inner = tracer.wrap(lambda: Result(), "losses.triplet_loss", "losses")
    outer = tracer.wrap(lambda: inner(), "training.run_training", "training")
    with tracer.span("bench.train"):
        outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.train", "training.run_training", "losses.triplet_loss"]
    assert [s[4] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[2][5] == {"n_non": 3, "n_total": 8}
    assert all(s[2] <= s[3] for s in tracer.spans)
    assert segments(tracer.spans) == ["bench.train"] * 3


def test_tracer_counts_oracle_callable_evaluations():
    def robustness_gap(fn, x):
        return sum(fn(x) for _ in range(5))

    tracer = Tracer()
    traced = tracer.wrap(robustness_gap, "analysis.robustness_gap", "analysis")
    assert traced(lambda v: v * 2, 1) == 10
    assert tracer.spans[0][5] == {"calls": 5}


def test_step_clock_times_between_step_starts_and_restores_the_name():
    class Module:
        @staticmethod
        def sample_pk():
            return "rows"

    original = Module.sample_pk
    with StepClock(Module, "sample_pk", SpeedClock("calls")) as clock:
        assert Module.sample_pk() == "rows"
        first = clock.begin()
        for _ in range(4):
            Module.sample_pk()
    assert Module.sample_pk is original
    steps = clock.steps(first)
    assert len(steps) == 3 and all(raw >= 0.0 and scaled >= 0.0 for raw, scaled in steps)


def test_step_clock_times_blocks_of_steps_from_each_run_start():
    class Module:
        @staticmethod
        def sample_pk():
            return "rows"

    speed = SpeedClock("calls")
    with StepClock(Module, "sample_pk", speed, block=2) as clock:
        first = clock.begin()
        for _ in range(5):  # ticks before steps 0, 2 and 4: two whole blocks
            Module.sample_pk()
        assert len(clock.steps(first)) == 2
        second = clock.begin()
        for _ in range(3):  # a new run ticks before its own steps 0 and 2
            Module.sample_pk()
        assert len(clock.steps(second)) == 1
    assert (first, second) == (0, 3) and len(speed.stamps) == 5
    ref = speed.nominal
    speed.stamps = [(0, ref), (int((8 + ref) * 1e6), ref)]
    clock.starts = [0, 1]
    assert clock.steps(0) == [pytest.approx((4.0, 4.0))]  # ms per step of the block


def test_speed_clock_scales_each_segment_by_the_reference_beside_it():
    clock = SpeedClock("draws")
    ref = REFERENCES["draws"][1]
    # stamps (ns, reference ms): segments of 10 ms at the reference speed and
    # 10 ms at half of it; the reference before a stamp is not measured work
    clock.stamps = [(0, ref), (int((10 + ref) * 1e6), ref), (int((20 + 3 * ref) * 1e6), 2 * ref)]
    raw, scaled = clock.span(0, 2)
    assert raw == pytest.approx(20.0)
    assert scaled == pytest.approx(10.0 + 10.0 / 1.5)
    calls = []
    ticked = clock.ticking(lambda x: calls.append(x) or x, every=2)
    assert [ticked(i) for i in range(5)] == list(range(5)) and calls == list(range(5))
    assert len(clock.stamps) == 3 + 2


def test_interleave_spreads_every_stream_over_the_run():
    pytest.importorskip("metriclab")
    import workloads

    order = [name for name, _ in workloads.interleave({"a": [1, 2], "b": list(range(6))})]
    assert order == ["b", "a", "b", "b", "b", "a", "b", "b"]
    assert sorted(order) == ["a"] * 2 + ["b"] * 6


@pytest.mark.parametrize("n, expected", [
    (200, 95),   # nearest rank 190 leaves exactly 10 beyond; p96 would leave 8
    (600, 98),   # rank 588 leaves 12; p99 (rank 594) leaves 6
    (24, 58),    # rank 14 leaves 10
    (11, 9),     # rank 1 leaves 10
])
def test_tail_percentile_leaves_at_least_ten_beyond(n, expected):
    values = list(range(n, 0, -1))  # unsorted input
    p, value = tail_percentile(values)
    assert p == expected
    assert sum(v > value for v in values) >= 10
    rank = -(-(p + 1) * n // 100)
    assert n - rank < 10  # the next percentile up would not


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile([]) is None


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.check(True, "fine")
    assert not tally.check(False, "gradcheck triplet: rel error 2e-06")
    tally.check(True, "also fine")
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_ratio == pytest.approx(1 / 3)
    assert tally.failures == ["gradcheck triplet: rel error 2e-06"]
    assert Tally().failed_ratio == 0.0


def test_layer_metrics_reconcile_with_wall_time():
    spans = [
        _span("bench.train", "bench", 0, 1_000_000, -1),
        _span("cli.run", "cli", 0, 1_000_000, 0),
        _span("training.run_training", "training", 100_000, 900_000, 1),
        _span("batching.sample_pk", "batching", 200_000, 300_000, 2),
        _span("training.sgd_update", "training", 400_000, 500_000, 2),
        _span("batching.sample_pk", "batching", 500_000, 600_000, 2),
        _span("training.sgd_update", "training", 700_000, 800_000, 2),
        _span("synth.gen_dataset", "synth", 50_000, 90_000, 1),
    ]
    m = layer_metrics(spans, wall_traced_s=1e-3, wall_plain_s=0.8e-3,
                      bytes_per_command=10.0, cache_hits=3, cache_misses=1)
    assert set(m) == set(LAYER_METRICS)
    assert m["training.step_count"] == 2
    assert m["training.step_p50_ms"] == pytest.approx(0.3)
    assert m["synth.gen_dataset_calls"] == 1
    assert m["batching.enumerate_hit_ratio"] == 0.75
    assert m["cli.self_ms"] == pytest.approx(0.16)
    assert m["trace.harness_share"] == pytest.approx(0.0)
    assert m["trace.overhead_share"] == pytest.approx(0.25)


# -- the metric-name schema of BENCHMARK.json ------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"][1] == "bench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in every]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_what_the_harness_reports(spec):
    pytest.importorskip("metriclab")
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_config_seed_zero_reproduces_the_reference_config():
    pytest.importorskip("metriclab")
    import workloads

    reference = json.loads((ROOT / "configs" / "reference.json").read_text(encoding="utf-8"))
    assert workloads.experiment_config(reference, 0, (8, 8), "triplet_only", 5000) == reference
    seeded = workloads.experiment_config(reference, 3, (16, 16), "combined_simce", 6)
    assert (seeded["seed"], seeded["dataset"]["seed"]) == (3, 3017)
    assert reference["seed"] == 0  # the reference payload itself is left alone
