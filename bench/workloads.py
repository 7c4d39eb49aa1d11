"""The workloads: what each one runs, how it is timed and how its outputs are checked.

Every run is a closed loop with one caller: each step starts after the
previous one returned.  A run has two kinds of work, so that every
end-to-end metric is measured on every workload:

* training through the in-process CLI (``metriclab.cli.run``): each round
  trains every variant for a fixed number of iterations on one generated
  config.  A step clock (``tracing.StepClock``) stamps the start of every
  block of training steps, so the per-iteration time is a median over
  blocks, with set-up and write-out excluded.  Round ``r`` of workload seed ``s`` uses
  config seed ``100 * s + r``, so rank-1 is averaged over several datasets.
  Many short rounds rather than a few long ones spread each variant's
  steps over the whole run.
* oracle units: gradcheck of all seven losses on a fixed grid of small PK
  batches and a vMF round trip on the grid of acceptance criterion 9, plus
  a few runs of ``metriclab robustness-check`` (1e5 draws per probe)
  and one ``metriclab hessian-check``.

In-process work is timed in the thread's CPU time, which leaves out the
stretches when a shared machine did not run the benchmark; the set-up
probe, a separate process, is timed on the wall clock.  A shared machine
also runs the benchmark at speeds up to twice apart and switches between
them within a second, so every timed piece of work (a block of training
steps, a gradcheck batch, a vMF block, a robustness check, a set-up probe)
is timed between two timings of a reference computation
(``tracing.reference_ms``), with more of them inside the long gradcheck and
robustness items, and is reported at the reference speed: each stretch of
its time scaled by the reference's usual time over its time beside that
stretch (see ``tracing.SpeedClock``).  Each metric uses the reference most
like its work (``METRIC_REFERENCE``).  The times as measured are recorded
too.

Each piece of work is one item of a stream (set-up probes, train calls,
gradcheck batches, robustness checks, vMF draw blocks); the streams are
interleaved evenly, so every metric samples the whole run rather than one
stretch of it, which steadies the medians on a shared machine.  A workload
fixes the training batch shape, iterations and the number of oracle units;
``--seconds`` scales the numbers of rounds, probes, checks and units, so the
same seed and seconds always do the same work and produce the same
fingerprints.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metriclab import analysis, batching, cli, core, evaluation, losses, synth, training

from harness import Tally
from layers import layer_metrics
from tracing import REFERENCES, SpeedClock, StepClock, Tracer, reference_ms

VARIANTS = ("triplet_only", "combined_simce", "combined_m_simce")
SHORT = {"triplet_only": "triplet", "combined_simce": "simce", "combined_m_simce": "m_simce"}
MODULES = (analysis, batching, cli, core, evaluation, losses, synth, training)

ROUND_STRIDE = 100          # config seed of round r is ROUND_STRIDE * seed + r
REFERENCE_SECONDS = 30      # round and unit counts below are sized for this run length
PROBES = 5                  # set-up probes per run
ROUNDS = 6                  # training rounds per run
TRACE_ROUNDS = 2            # training rounds of a traced run: >= 18 steps on every workload
GRADCHECK_LOSSES = ("triplet", "s_triplet", "simce", "m_simce", "ce",
                    "combined_simce", "combined_m_simce")
# the shape choices of `metriclab gradcheck`, as a fixed grid: random shapes
# would make the time per batch depend on the seed
ORACLE_CELLS = tuple((name, n, k, d) for name in GRADCHECK_LOSSES
                     for n in (2, 4) for k in (2, 4) for d in (3, 8, 16))
MC_SAMPLES = 100_000        # fewer draws fail the 5% tolerance
MC_POINTS = 1               # contrastive probes per robustness-check, after its quadratic control
TRACE_FD_FLOOR = 1e-5      # round-off of a second-difference trace at h = 1e-4, d <= 16
VMF_GRID = tuple((kappa, d) for kappa in (5.0, 20.0, 80.0) for d in (3, 8, 16))
VMF_DRAWS = 5000
VMF_BLOCK = 500             # draws per timing sample
VMF_TOLERANCE = 0.15        # acceptance criterion 9
# speed-clock ticks inside long items, every so many calls: a few ms apart
GRADCHECK_TICK_CALLS = 32   # loss evaluations of a gradcheck
MC_TICK_CALLS = 1000        # scalar evaluations of a robustness probe
HARNESS_SHARE_LIMIT = 0.05  # layer self times must cover the traced wall time within this share
# averaged rather than the median: rank-1 over the rounds' datasets, and the
# gradcheck time over its grid, whose batch sizes differ too much for a median
MEAN_METRICS = ("rank1_triplet", "rank1_simce", "rank1_m_simce", "gradcheck_batch_ms")
# the reference computation (tracing.REFERENCES) each timed metric is scaled by:
# the one whose slowdown on a busy shared machine tracks the metric's own best
METRIC_REFERENCE = {"setup_s": "calls", "triplet_iter_ms": "calls", "simce_iter_ms": "calls",
                    "m_simce_iter_ms": "calls", "gradcheck_batch_ms": "calls",
                    "mc_probe_s": "draws", "vmf_draw_us": "draws"}

E2E_METRICS = {
    "setup_s": "s",
    "triplet_iter_ms": "ms",
    "simce_iter_ms": "ms",
    "m_simce_iter_ms": "ms",
    "rank1_triplet": "ratio",
    "rank1_simce": "ratio",
    "rank1_m_simce": "ratio",
    "gradcheck_batch_ms": "ms",
    "mc_probe_s": "s",
    "vmf_draw_us": "us",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Plan:
    shape: tuple[int, int]   # PK batch of the training rounds
    iters: int               # training iterations per variant per round
    block: int               # training steps per timing sample (6 ms or more)
    checks: int              # robustness checks per run (about 2 s each)
    oracle_units: int        # gradcheck grids and vMF grids per run


PLANS = {
    # the paper's (8, 8) batches: 25,088 triplets, index arrays fit in L2
    "train-ref": Plan(shape=(8, 8), iters=100, block=4, checks=4, oracle_units=1),
    # (16, 16) batches: 921,600 triplets, index arrays far past L2
    "train-wide": Plan(shape=(16, 16), iters=6, block=1, checks=3, oracle_units=1),
    # mostly oracles on <= 16-row batches; training on 16-row (4, 4) batches
    "verify": Plan(shape=(4, 4), iters=150, block=16, checks=6, oracle_units=2),
}


def experiment_config(reference: dict, config_seed: int, shape, variant: str, iters: int) -> dict:
    """The reference config with seed ``s``: seed = s, dataset.seed = 1000 s + 17.

    This is the rule of ``reference_train_config``, so seed 0 with (8, 8),
    triplet_only and 5000 iterations gives back ``configs/reference.json``.
    """
    payload = copy.deepcopy(reference)
    payload["seed"] = config_seed
    payload["dataset"]["seed"] = 1000 * config_seed + 17
    payload["batch"] = {"n_classes": shape[0], "samples_per_class": shape[1]}
    payload["train"]["variant"] = variant
    payload["train"]["total_iters"] = iters
    return payload


def enumeration_cache() -> tuple[int, int]:
    """Hits and misses summed over every cached function in metriclab.batching."""
    hits = misses = 0
    for obj in vars(batching).values():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def interleave(streams: dict[str, list]) -> list[tuple[str, object]]:
    """Merge the streams so each one's items are spread evenly over the sequence."""
    keyed = [((i + 0.5) / len(items), order, name, item)
             for order, (name, items) in enumerate(streams.items())
             for i, item in enumerate(items)]
    return [(name, item) for _, _, name, item in sorted(keyed, key=lambda k: k[:2])]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.is_dir() else 0


class Run:
    """One run of one workload: its work items, their timings, output checks and failures."""

    def __init__(self, workload: str, seed: int, seconds: int, root: Path, out_dir: Path):
        self.plan = PLANS[workload]
        self.seed = seed
        scale = seconds / REFERENCE_SECONDS
        self.rounds = max(ROUNDS, round(ROUNDS * scale))
        self.probes = max(PROBES, round(PROBES * scale))
        self.checks = max(self.plan.checks, round(self.plan.checks * scale))
        self.units = max(self.plan.oracle_units, round(self.plan.oracle_units * scale))
        self.root = root
        self.work = out_dir / "work"
        self.work.mkdir(parents=True)
        self.reference = json.loads((root / "configs" / "reference.json").read_text(encoding="utf-8"))
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)  # at the reference speed
        self.raw: dict[str, list[float]] = defaultdict(list)      # as timed
        self.speeds: dict[str, SpeedClock] = {}  # by reference, while an untraced run times its work
        self.trains: list[dict] = []     # every CLI train call, checked after the timed work
        self.known_defects: list[str] = []
        self.worst_gradcheck = 0.0
        self.clock: StepClock | None = None  # set while an untraced run times training steps
        self._vmf: dict[tuple, tuple] = {}   # (prefix, cell) -> (params, rng, draws so far)

    def items(self, rounds: int, probes: int, checks: int, units: int,
              prefix: str) -> list[tuple[str, object]]:
        """The run's work as (segment, callable) pairs, streams interleaved."""
        part = functools.partial
        streams = {
            "setup": [part(self.setup_probe, i) for i in range(probes)],
            "train": [part(self.train_variant, r, v, prefix) for r in range(rounds)
                      for v in VARIANTS[r % 3:] + VARIANTS[:r % 3]],
            "gradcheck": [part(self.gradcheck, i, cell)
                          for i, cell in enumerate(ORACLE_CELLS * units)],
            "robustness": [part(self.robustness, r) for r in range(checks)],
            "hessian": [part(self.hessian, 0)],
            "vmf": [part(self.vmf_block, (prefix, c), cell, b)
                    for c, cell in enumerate(VMF_GRID * units) for b in range(VMF_DRAWS // VMF_BLOCK)],
        }
        return interleave({name: items for name, items in streams.items() if items})

    def add(self, name: str, raw: float, scaled: float) -> None:
        """One sample, as timed and at the reference speed."""
        self.raw[name].append(raw)
        self.samples[name].append(scaled)

    @contextlib.contextmanager
    def timed(self, name: str, per_ms: float = 1.0):
        """Time the block on the speed clock of ``name`` as its sample, in ms times ``per_ms``.

        Outside an untraced run's timing (no speed clocks) the block just runs.
        """
        speed = self.speeds.get(METRIC_REFERENCE[name])
        if speed is None:
            yield
            return
        first = speed.tick()
        yield
        raw, scaled = speed.span(first, speed.tick())
        self.add(name, raw * per_ms, scaled * per_ms)

    def ticking(self, fn, every: int, name: str):
        """``fn``, ticking the speed clock of metric ``name`` every ``every`` calls while one runs."""
        speed = self.speeds.get(METRIC_REFERENCE[name])
        return speed.ticking(fn, every) if speed else fn

    # -- calls into the program ---------------------------------------------

    def _cli(self, argv):
        text = io.StringIO()
        try:
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                rc = cli.run(argv)
        except Exception:  # counted as a failed operation when the outputs are checked
            rc = None
            text.write(traceback.format_exc())
        return rc, text.getvalue()

    def train(self, tag: str, payload: dict) -> list[tuple[float, float]]:
        """One `metriclab train`; returns ``(step ms, reference ms)`` pairs when a step clock runs."""
        cfg_path = self.work / f"{tag}.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        out = self.work / tag
        first = self.clock.begin() if self.clock else 0
        rc, text = self._cli(["train", "--config", str(cfg_path), "--out", str(out)])
        self.trains.append({"tag": tag, "out": out, "payload": payload, "rc": rc, "text": text})
        if rc != 0 or self.clock is None:
            return []
        return self.clock.steps(first)

    def train_variant(self, r: int, variant: str, prefix: str) -> None:
        payload = experiment_config(self.reference, ROUND_STRIDE * self.seed + r, self.plan.shape,
                                    variant, self.plan.iters)
        for raw, scaled in self.train(f"{prefix}r{r}-{variant}", payload):
            self.add(f"{SHORT[variant]}_iter_ms", raw, scaled)

    def warm_up(self) -> None:
        """Fill the enumeration caches and touch the code paths before timing."""
        payload = experiment_config(self.reference, ROUND_STRIDE * self.seed, self.plan.shape,
                                    "combined_m_simce", 1)
        self.train("warmup", payload)

    def setup_probe(self, i: int) -> None:
        """Wall time of a fresh interpreter running a 0-iteration `metriclab train`.

        It runs on the benchmark's CPU, so the reference computation before
        and after it gives the speed it ran at.
        """
        payload = experiment_config(self.reference, ROUND_STRIDE * self.seed, self.plan.shape,
                                    VARIANTS[0], 0)
        cfg_path = self.work / "setup.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = [sys.executable, "-c", "from metriclab.cli import main; main()",
                "train", "--config", str(cfg_path), "--out", str(self.work / f"setup{i}")]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        kind = METRIC_REFERENCE["setup_s"]
        ref_before = reference_ms(kind)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            self.tally.check(False, f"setup run: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        ref = (ref_before + reference_ms(kind)) / 2
        if self.tally.check(proc.returncode == 0, f"setup run exited {proc.returncode}: "
                                                  f"{proc.stderr.decode(errors='replace')[-300:]}"):
            self.add("setup_s", elapsed, elapsed * REFERENCES[kind][1] / ref)

    def gradcheck(self, i: int, cell) -> None:
        """Finite-difference check of one loss on one batch; ms per checked batch."""
        name, n, k, dim = cell
        rng = np.random.default_rng([self.seed, i, 1])
        cfg = losses.LossConfig()
        tol = cli.GRADCHECK_TOLERANCE
        what = f"gradcheck {name} ({n}, {k}) dim {dim}"
        try:
            with self.timed("gradcheck_batch_ms"):
                batch = analysis.sample_gradcheck_batch(rng, n, k, dim, cfg)
                head = losses.ClassifierHead.init(rng, n, dim)
                loss = self.ticking(cli._loss_callable(name, cfg, head), GRADCHECK_TICK_CALLS,
                                     "gradcheck_batch_ms")
                err = analysis.batch_gradcheck(loss, batch)
        except Exception as exc:
            self.tally.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.worst_gradcheck = max(self.worst_gradcheck, err)
        self.tally.check(err <= tol, f"{what}: rel error {err:.3e} > {tol:g}")

    def robustness(self, r: int) -> None:
        """s per 1e5-draw probe of one `metriclab robustness-check`."""
        out = self.work / f"robustness-r{r}"
        seed = ROUND_STRIDE * self.seed + r
        argv = ["robustness-check", "--points", str(MC_POINTS), "--samples", str(MC_SAMPLES),
                "--seed", str(seed), "--out", str(out)]
        gap = cli.robustness_gap
        if self.speeds:  # speed readings inside the probes' long Monte-Carlo loops
            cli.robustness_gap = lambda fn, *args, **kwargs: gap(
                self.ticking(fn, MC_TICK_CALLS, "mc_probe_s"), *args, **kwargs)
        try:
            with self.timed("mc_probe_s", 1e-3 / (MC_POINTS + 1)):
                rc, text = self._cli(argv)
        finally:
            cli.robustness_gap = gap
        try:
            probes = json.loads((out / "report.json").read_text(encoding="ascii"))["probes"]
        except (OSError, ValueError, KeyError):
            self.tally.check(False, f"robustness-check exited {rc} without a report: {text[-300:]}")
            return
        contrastive = [p for p in probes if p["kind"] != "quadratic"]
        control_missed = [p for p in probes if p["kind"] == "quadratic" and not p["pass"]]
        ok = (rc == 0 or (rc == 2 and bool(control_missed))) and len(contrastive) == MC_POINTS \
            and all(p["pass"] for p in contrastive)
        self.tally.check(ok, f"robustness-check seed {seed} exited {rc}: contrastive probes {contrastive}")
        for p in control_missed:
            self.known_defects.append(
                f"robustness-check seed {seed}: quadratic control rel error "
                f"{p['rel_error']:.2e} > 1e-3 (Monte-Carlo noise at 1e5 draws)")

    def hessian(self, r: int) -> None:
        """One `metriclab hessian-check`; every failed probe counts, bar one known defect.

        The known defect: a simce probe whose closed-form trace is so small
        that the second-difference round-off (below ``TRACE_FD_FLOOR``)
        exceeds the relative tolerance, although the bound holds.
        """
        out = self.work / f"hessian-r{r}"
        seed = ROUND_STRIDE * self.seed + r
        rc, text = self._cli(["hessian-check", "--seed", str(seed), "--out", str(out)])
        try:
            probes = json.loads((out / "report.json").read_text(encoding="ascii"))["probes"]
        except (OSError, ValueError, KeyError):
            self.tally.check(False, f"hessian-check exited {rc} without a report: {text[-300:]}")
            return
        rounded = False
        for p in probes:
            rounding = (not p["pass"] and p["kind"] == "simce" and p["bound_satisfied"]
                        and abs(p["numeric_trace"] - p["closed_form"]) <= TRACE_FD_FLOOR)
            if rounding:
                rounded = True
                self.known_defects.append(
                    f"hessian-check seed {seed}: simce trace {p['closed_form']:.3e} off by "
                    f"{abs(p['numeric_trace'] - p['closed_form']):.1e} (round-off), rel {p['rel_error']:.2e}")
            self.tally.check(p["pass"] or rounding, f"hessian-check seed {seed}: probe {p}")
        self.tally.check(rc == 0 or (rc == 2 and rounded), f"hessian-check exited {rc}: {text[-300:]}")

    def vmf_block(self, key: tuple, cell, b: int) -> None:
        """One block of draws for one vMF grid cell; after its last block, re-estimate kappa.

        The estimate must land within 15% of the cell's kappa.
        """
        kappa, dim = cell
        what = f"vMF round trip kappa {kappa:g} dim {dim}"
        try:
            if b == 0:
                rng = np.random.default_rng([self.seed, key[1], 3])
                mu = rng.standard_normal(dim)
                self._vmf[key] = (synth.VmfParams(mu / np.linalg.norm(mu), kappa), rng, [])
            params, rng, draws = self._vmf[key]
            with self.timed("vmf_draw_us", 1e3 / VMF_BLOCK):
                draws.extend(synth.sample_vmf(params, rng) for _ in range(VMF_BLOCK))
            if len(draws) < VMF_DRAWS:
                return
            del self._vmf[key]
            kappa_hat = synth.estimate_kappa(np.stack(draws))
        except Exception as exc:
            self._vmf.pop(key, None)
            self.tally.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        rel = abs(kappa_hat - kappa) / kappa
        self.tally.check(rel <= VMF_TOLERANCE, f"{what}: estimate {kappa_hat:.3f}, rel {rel:.3f}")

    # -- output checks ----------------------------------------------------------

    def check_trains(self) -> dict[str, dict]:
        """Check every train call's artifacts; return the fingerprint of each."""
        fingerprints = {}
        for call in self.trains:
            problems, fp = self._check_train(call)
            fingerprints[call["tag"]] = fp
            self.tally.check(not problems, f"train {call['tag']}: {'; '.join(problems)}")
        return fingerprints

    def _check_train(self, call) -> tuple[list[str], dict]:
        out, iters = call["out"], call["payload"]["train"]["total_iters"]
        sha = cli._sha256_of(call["payload"])
        fp = {"config_sha256": sha}
        if call["rc"] != 0:
            return [f"exit code {call['rc']}: {call['text'][-300:]}"], fp
        problems = []
        try:
            manifest = json.loads((out / "manifest.json").read_text(encoding="ascii"))
            evals = (out / "evals.csv").read_text(encoding="ascii").split()
            curves = (out / "curves.csv").read_text(encoding="ascii").split()
            digest = training.load_model(out / "model.json").digest()
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable artifacts: {exc}"], fp
        if manifest.get("config_sha256") != sha:
            problems.append("manifest config_sha256 differs from the generated config")
        last = evals[-1].split(",")
        rank1, uniformity = float(last[1]), float(last[2])
        if int(last[0]) != iters:
            problems.append(f"last eval at iteration {last[0]}, expected {iters}")
        if not 0.0 <= rank1 <= 1.0 or not np.isfinite(uniformity):
            problems.append(f"rank1 {rank1} or uniformity {uniformity} out of range")
        if len(curves) - 1 != iters:
            problems.append(f"curves.csv has {len(curves) - 1} rows, expected {iters}")
        if f"digest {digest[:12]}" not in call["text"]:
            problems.append("saved model digest differs from the one the run printed")
        fp.update(rank1=rank1, uniformity=uniformity, params_digest=digest,
                  n_non_last=int(curves[-1].split(",")[3]) if iters else None,
                  bytes_written=_dir_bytes(out))
        return problems, fp


def run_e2e(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and the record that explains them."""
    run.warm_up()
    run.speeds = {kind: SpeedClock(kind) for kind in REFERENCES}
    wall_s: dict[str, float] = defaultdict(float)  # wall time per stream, where a run's time goes
    with StepClock(training, "sample_pk", run.speeds[METRIC_REFERENCE["triplet_iter_ms"]],
                   run.plan.block) as run.clock:
        for segment, item in run.items(run.rounds, run.probes, run.checks, run.units, ""):
            start = time.perf_counter()
            item()
            wall_s[segment] += time.perf_counter() - start
    run.clock = None
    fingerprints = run.check_trains()

    samples = dict(run.samples)
    for variant, short in SHORT.items():
        samples[f"rank1_{short}"] = [fp["rank1"] for tag, fp in fingerprints.items()
                                     if tag.endswith(f"-{variant}") and "rank1" in fp]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {}
    for name in E2E_METRICS:
        values = samples.get(name)
        if not values:
            run.tally.check(False, f"no sample for {name}")
            continue
        metrics[name] = sum(values) / len(values) if name in MEAN_METRICS else statistics.median(values)
    reference_ms_stats = {}
    for kind, speed in run.speeds.items():
        ref = sorted(r for _, r in speed.stamps)
        reference_ms_stats[kind] = {"nominal": speed.nominal, "median": statistics.median(ref),
                                    "p10": ref[len(ref) // 10], "p90": ref[9 * len(ref) // 10]}
    run.speeds = {}
    record = {"samples": samples, "raw_samples": dict(run.raw), "fingerprints": fingerprints,
              "reference_ms": reference_ms_stats,
              "fingerprint_sha256": fingerprint_sha256(fingerprints),
              "wall_s": dict(wall_s), "rounds": run.rounds, "probes": run.probes, "checks": run.checks,
              "oracle_units": run.units}
    return metrics, record


def run_traced(run: Run, out_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics of ``TRACE_ROUNDS`` rounds, one robustness check and one oracle unit.

    Each item runs untraced and then traced, back to back, so the
    difference of the two sums (the tracing overhead) sees the same
    machine state on both sides.
    """
    run.warm_up()
    tracer = Tracer()
    wall_plain = wall_traced = 0.0
    hits = misses = 0
    for (segment, plain), (_, traced) in zip(run.items(TRACE_ROUNDS, 0, 1, 1, "plain-"),
                                             run.items(TRACE_ROUNDS, 0, 1, 1, "traced-")):
        start = time.perf_counter()
        plain()
        wall_plain += time.perf_counter() - start
        tracer.install(MODULES)
        try:
            hits0, misses0 = enumeration_cache()
            start = time.perf_counter()
            with tracer.span(f"bench.{segment}"):
                traced()
            wall_traced += time.perf_counter() - start
            hits1, misses1 = enumeration_cache()
        finally:
            tracer.uninstall()
        hits, misses = hits + hits1 - hits0, misses + misses1 - misses0
    tracer.write(out_dir / "spans.jsonl")

    fingerprints = run.check_trains()
    for tag, fp in fingerprints.items():
        if tag.startswith("traced-"):
            plain = fingerprints.get("plain-" + tag[len("traced-"):])
            run.tally.check(plain == fp, f"traced run {tag} differs from the untraced run: {fp} vs {plain}")
    traced_bytes = [fp["bytes_written"] for tag, fp in fingerprints.items()
                    if tag.startswith("traced-") and "bytes_written" in fp]
    metrics = layer_metrics(tracer.spans, wall_traced, wall_plain,
                            sum(traced_bytes) / max(len(traced_bytes), 1), hits, misses)
    run.tally.check(metrics["trace.harness_share"] <= HARNESS_SHARE_LIMIT,
                    f"layer self times cover only {1 - metrics['trace.harness_share']:.3f} "
                    f"of the traced wall time")
    record = {"fingerprints": fingerprints, "wall_plain_s": wall_plain, "wall_traced_s": wall_traced}
    return metrics, record


def fingerprint_sha256(fingerprints: dict) -> str:
    """One digest over every fingerprint except the sizes of written files."""
    core_fp = {tag: {k: v for k, v in fp.items() if k != "bytes_written"}
               for tag, fp in fingerprints.items()}
    return hashlib.sha256(json.dumps(core_fp, sort_keys=True).encode("ascii")).hexdigest()
