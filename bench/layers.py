"""Per-layer metrics of one traced run, computed from its spans.

Every span belongs to the benchmark segment that encloses it:
``bench.train`` (one ``metriclab train`` call), ``bench.gradcheck`` (one
checked batch), ``bench.robustness``, ``bench.hessian`` or ``bench.vmf`` (one
block of draws).  Each metric reads one kind of segment, so a number means
the same thing on every workload; the workload only changes the batch shape
and how much work there was.  The enumeration-cache counts cover the whole
traced work.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import self_times, tail_percentile

LAYERS = ("cli", "training", "losses", "batching", "core", "evaluation", "synth", "analysis")
LOSS_TERMS = ("triplet", "s_triplet", "simce", "m_simce", "ce")
INDEX_BYTES_PER_TRIPLET = 24  # three int64 index arrays: anchor, positive, negative

# name: (unit, better)
LAYER_METRICS = {
    "cli.self_ms": ("ms", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "synth.gen_dataset_ms": ("ms", "lower"),
    "synth.gen_dataset_calls": ("count", "lower"),
    "synth.sample_vmf_us": ("us", "lower"),
    "synth.estimate_kappa_ms": ("ms", "lower"),
    "batching.sample_pk_ms": ("ms", "lower"),
    "batching.enumerate_ms": ("ms", "lower"),
    "batching.enumerate_hit_ratio": ("ratio", "higher"),
    "batching.enumerate_hits": ("count", "higher"),
    "batching.enumerate_misses": ("count", "lower"),
    "core.embedding_batch_ms": ("ms", "lower"),
    "core.embedding_batch_calls": ("count", "lower"),
    "core.similarity_matrix_ms": ("ms", "lower"),
    **{f"losses.{term}_ms": ("ms", "lower") for term in LOSS_TERMS},
    "losses.combined_self_ms": ("ms", "lower"),
    "losses.oracle_call_us": ("us", "lower"),
    "losses.triplets_per_call": ("count", "lower"),
    "losses.active_ratio": ("ratio", "lower"),
    "losses.bytes_computed": ("B", "lower"),
    "training.self_ms_per_iter": ("ms", "lower"),
    "training.sgd_update_ms": ("ms", "lower"),
    "training.holdout_split_ms": ("ms", "lower"),
    "training.step_p50_ms": ("ms", "lower"),
    "training.step_tail_ms": ("ms", "lower"),
    "training.step_tail_pct": ("pct", "higher"),
    "training.step_count": ("count", "higher"),
    "evaluation.rank1_ms": ("ms", "lower"),
    "evaluation.geometry_ms": ("ms", "lower"),
    "evaluation.calls": ("count", "lower"),
    "analysis.finite_diff_grad_ms": ("ms", "lower"),
    "analysis.loss_evals_per_check": ("count", "lower"),
    "analysis.robustness_gap_ms": ("ms", "lower"),
    "analysis.scalar_calls_per_probe": ("count", "lower"),
    "analysis.hessian_trace_ms": ("ms", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.harness_share": ("ratio", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.span_count": ("count", "lower"),
}


def segments(spans) -> list[str]:
    """Name of the enclosing benchmark segment for every span ('' outside any)."""
    out: list[str] = []
    for name, layer, _, _, parent, _ in spans:
        out.append(name if layer == "bench" else (out[parent] if parent >= 0 else ""))
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, wall_traced_s: float, wall_plain_s: float,
                  bytes_per_command: float, cache_hits: int, cache_misses: int) -> dict[str, float]:
    own = self_times(spans)
    seg = segments(spans)
    by = defaultdict(list)  # (segment, span name) -> span indices
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by[seg[i], s[0]].append(i)
        if s[4] >= 0:
            children[s[4]].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def mean_ms(segment, name, scale=1e-6):
        return _mean(dur(i) for i in by[segment, name]) * scale

    def count(segment, name):
        return len(by[segment, name])

    m: dict[str, float] = {}
    train, grad, rob, hess, vmf = ("bench.train", "bench.gradcheck", "bench.robustness",
                                   "bench.hessian", "bench.vmf")

    commands = max(count(train, "cli.run"), 1)
    cli_self = sum(own[i] for i, s in enumerate(spans) if seg[i] == train and s[1] == "cli")
    m["cli.self_ms"] = cli_self * 1e-6 / commands
    m["cli.bytes_written"] = float(bytes_per_command)

    m["synth.gen_dataset_ms"] = mean_ms(train, "synth.gen_dataset")
    m["synth.gen_dataset_calls"] = count(train, "synth.gen_dataset") / commands
    m["synth.sample_vmf_us"] = mean_ms(vmf, "synth.sample_vmf", 1e-3)
    m["synth.estimate_kappa_ms"] = mean_ms(vmf, "synth.estimate_kappa")

    m["batching.sample_pk_ms"] = mean_ms(train, "batching.sample_pk")
    enum = by[train, "batching.enumerate_triplets"] + by[train, "batching.enumerate_pos_pairs"]
    m["batching.enumerate_ms"] = _mean(dur(i) for i in enum) * 1e-6
    lookups = cache_hits + cache_misses
    m["batching.enumerate_hit_ratio"] = cache_hits / lookups if lookups else 0.0
    m["batching.enumerate_hits"] = float(cache_hits)
    m["batching.enumerate_misses"] = float(cache_misses)

    checks = max(count(grad, "analysis.batch_gradcheck"), 1)
    m["core.embedding_batch_ms"] = mean_ms(train, "core.EmbeddingBatch")
    m["core.embedding_batch_calls"] = count(grad, "core.EmbeddingBatch") / checks
    m["core.similarity_matrix_ms"] = mean_ms(train, "core.similarity_matrix")

    for term in LOSS_TERMS:
        m[f"losses.{term}_ms"] = mean_ms(train, f"losses.{term}_loss")
    m["losses.combined_self_ms"] = _mean(own[i] for i in by[train, "losses.combined_loss"]) * 1e-6
    top_loss = [i for i, s in enumerate(spans) if seg[i] == grad and s[1] == "losses"
                and (s[4] < 0 or spans[s[4]][1] != "losses")]
    m["losses.oracle_call_us"] = _mean(dur(i) for i in top_loss) * 1e-3
    hinge = [spans[i][5] for i in by[train, "losses.triplet_loss"] + by[train, "losses.s_triplet_loss"]
             if spans[i][5]]
    total = sum(a["n_total"] for a in hinge)
    m["losses.triplets_per_call"] = total / len(hinge) if hinge else 0.0
    m["losses.active_ratio"] = sum(a["n_non"] for a in hinge) / total if total else 0.0
    m["losses.bytes_computed"] = INDEX_BYTES_PER_TRIPLET * m["losses.triplets_per_call"]

    steps = []
    for r in by[train, "training.run_training"]:
        kids = children[r]
        starts = [spans[c][2] for c in kids if spans[c][0] == "batching.sample_pk"]
        ends = [spans[c][3] for c in kids if spans[c][0] == "training.sgd_update"]
        steps.extend((e - s) * 1e-6 for s, e in zip(starts, ends))
    run_self = sum(own[i] for i in by[train, "training.run_training"])
    m["training.self_ms_per_iter"] = run_self * 1e-6 / len(steps) if steps else 0.0
    m["training.sgd_update_ms"] = mean_ms(train, "training.sgd_update")
    m["training.holdout_split_ms"] = mean_ms(train, "training.holdout_split")
    m["training.step_p50_ms"] = statistics.median(steps) if steps else 0.0
    tail = tail_percentile(steps)
    m["training.step_tail_pct"], m["training.step_tail_ms"] = tail if tail else (0.0, 0.0)
    m["training.step_count"] = float(len(steps))

    m["evaluation.rank1_ms"] = mean_ms(train, "evaluation.rank1")
    m["evaluation.geometry_ms"] = mean_ms(train, "evaluation.build_geometry_report")
    m["evaluation.calls"] = count(train, "evaluation.rank1") / commands

    m["analysis.finite_diff_grad_ms"] = mean_ms(grad, "analysis.finite_diff_grad")
    m["analysis.loss_evals_per_check"] = len(top_loss) / checks
    m["analysis.robustness_gap_ms"] = mean_ms(rob, "analysis.robustness_gap")
    m["analysis.scalar_calls_per_probe"] = _mean(
        spans[i][5]["calls"] for i in by[rob, "analysis.robustness_gap"] if spans[i][5])
    m["analysis.hessian_trace_ms"] = mean_ms(hess, "analysis.numeric_hessian_trace")

    wall_ns = wall_traced_s * 1e9
    layer_self = defaultdict(int)
    for i, s in enumerate(spans):
        layer_self[s[1]] += own[i]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall_ns
    m["trace.harness_share"] = 1.0 - sum(layer_self[layer] for layer in LAYERS) / wall_ns
    m["trace.overhead_ms"] = (wall_traced_s - wall_plain_s) * 1e3
    m["trace.overhead_share"] = (wall_traced_s - wall_plain_s) / wall_plain_s
    m["trace.span_count"] = float(len(spans))
    return m
