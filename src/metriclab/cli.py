"""Command-line front end.

Exit codes: 0 on success, 1 for bad input (flags, config files, capacity),
2 when a numerical check ran fine but exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    RobustnessProbe,
    batch_gradcheck,
    dynamic_margin,
    numeric_hessian_trace,
    robustness_gap,
    sample_gradcheck_batch,
    simce_trace_closed,
    triplet_trace_closed,
)
from .batching import BatchSpec, enumerate_pos_pairs, enumerate_triplets
from .core import EmbeddingBatch, euclidean_dist
from .errors import InvalidConfigError
from .evaluation import snapshot_sim_matrix
from .losses import LOSSES, ClassifierHead, LossConfig
from .synth import DatasetSpec, VmfParams, estimate_kappa, gen_dataset, sample_vmf, vmf_density, write_dataset_csv
from .training import (
    TrainConfig,
    dataset_seed,
    evaluate,
    load_model,
    model_forward,
    run_training,
    save_model,
    snapshot_rows,
    split_rows,
)

GRADCHECK_TOLERANCE = 1e-6
TRACE_TOLERANCE = 1e-3
ROBUSTNESS_TOLERANCE = 0.05

LOSS_NAMES = tuple(LOSSES)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage problems are exit 1 here
        raise UsageError(message)


def _count(minimum: int):
    """argparse type for an integer >= ``minimum``; argparse puts the flag name in the error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # so a non-integer reads "invalid int value", as with type=int
    return parse


# ---------------------------------------------------------------------------
# config plumbing


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment file: dataset, batch shape, loss knobs, training plan."""

    seed: int = 0
    dataset: DatasetSpec | None = None
    batch: BatchSpec | None = None
    loss: LossConfig = LossConfig()
    train: dict = field(default_factory=dict)
    probe: RobustnessProbe | None = None
    raw_payload: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path, seed_override: int | None = None) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidConfigError(f"{path}: top level must be a JSON object")
        known = {"seed", "dataset", "batch", "loss", "train", "probe"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidConfigError(f"{path}: unknown config key {unknown[0]!r}")
        if seed_override is not None:
            # written into the payload, so config_sha256 names the config that ran
            payload["seed"] = int(seed_override)
            if isinstance(payload.get("dataset"), dict):
                payload["dataset"] = dict(payload["dataset"], seed=dataset_seed(payload["seed"]))
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise InvalidConfigError(f"{path}: seed must be an integer")
        dataset = _build_section(DatasetSpec, payload.get("dataset"), "dataset")
        batch = _build_section(BatchSpec, payload.get("batch"), "batch")
        loss = _build_section(LossConfig, payload.get("loss"), "loss") or LossConfig()
        probe = _build_section(RobustnessProbe, payload.get("probe"), "probe")
        train = payload.get("train", {})
        if not isinstance(train, dict):
            raise InvalidConfigError("config section 'train' must be an object")
        own = {"dataset", "batch", "loss", "seed"}
        allowed = {f.name for f in dataclasses.fields(TrainConfig)} - own
        bad = sorted(set(train) - allowed)
        if bad:
            raise InvalidConfigError(f"unknown key {bad[0]!r} in config section 'train'")
        return cls(seed=seed, dataset=dataset, batch=batch, loss=loss,
                   train=dict(train), probe=probe, raw_payload=payload)

    def train_config(self) -> TrainConfig:
        if self.dataset is None or self.batch is None:
            raise InvalidConfigError("training needs both a 'dataset' and a 'batch' section")
        return TrainConfig(dataset=self.dataset, batch=self.batch, loss=self.loss,
                           seed=self.seed, **self.train)

    def sha256(self) -> str:
        return _sha256_of(self.raw_payload)


def _build_section(cls, section, name):
    if section is None:
        return None
    if not isinstance(section, dict):
        raise InvalidConfigError(f"config section {name!r} must be an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise InvalidConfigError(f"unknown key {unknown[0]!r} in config section {name!r}")
    return cls(**section)


def _sha256_of(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, payload: dict, seed, artifacts):
    manifest = {
        "subcommand": subcommand,
        "config_sha256": _sha256_of(payload),
        "seed": seed,
        "artifacts": sorted(artifacts),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _emit_report(args, subcommand: str, payload: dict, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text, encoding="ascii")
        _write_manifest(out, subcommand, payload, payload.get("seed"), ["report.json"])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# check subcommands


def _loss_callable(name: str, cfg: LossConfig, head: ClassifierHead):
    if name not in LOSSES:
        raise InvalidConfigError(f"unknown loss {name!r}; pick from {LOSS_NAMES}")
    loss = LOSSES[name]
    return lambda b: loss(b, cfg, head)


def _cmd_gradcheck(args) -> int:
    names = LOSS_NAMES if args.loss == "all" else (args.loss.replace("-", "_"),)
    cfg = LossConfig()
    rng = np.random.default_rng(args.seed)
    rows = []
    for name in names:
        worst = 0.0
        for _ in range(args.trials):
            n = int(rng.choice((2, 4)))
            k = int(rng.choice((2, 4)))
            dim = int(rng.choice((3, 8, 16)))
            batch = sample_gradcheck_batch(rng, n, k, dim, cfg)
            head = ClassifierHead.init(rng, n, dim)
            err = batch_gradcheck(_loss_callable(name, cfg, head), batch)
            worst = max(worst, err)
        rows.append({"loss": name, "trials": args.trials, "max_rel_error": worst,
                     "pass": worst <= GRADCHECK_TOLERANCE})
    ok = all(r["pass"] for r in rows)
    payload = {"subcommand": "gradcheck", "loss": args.loss, "trials": args.trials,
               "seed": args.seed, "tolerance": GRADCHECK_TOLERANCE}
    _emit_report(args, "gradcheck", payload, {"results": rows, "pass": ok})
    print(f"gradcheck: {'PASS' if ok else 'FAIL'} "
          f"(worst {max(r['max_rel_error'] for r in rows):.3e}, tol {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 2


def _cmd_hessian_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = []
    ok = True
    for dim in (3, 8):
        for scale in (1.0, 0.1, 0.01):
            direction = rng.standard_normal(dim)
            v = direction / np.linalg.norm(direction) * scale
            a = rng.standard_normal(dim)
            p = a + rng.standard_normal(dim) * 0.05
            margin = float(euclidean_dist(a, a - v) - euclidean_dist(a, p) + 0.5)

            def hinge(n_vec, a=a, p=p, margin=margin):
                return max(0.0, margin + euclidean_dist(a, p) - euclidean_dist(a, n_vec))

            numeric = numeric_hessian_trace(hinge, a - v, h=1e-4)
            closed = triplet_trace_closed(v)
            rel = abs(abs(numeric) - closed) / closed
            ok &= rel <= TRACE_TOLERANCE
            reports.append({"kind": "triplet", "dim": dim, "v_norm": scale,
                            "numeric_trace": numeric, "closed_form": closed,
                            "rel_error": rel, "pass": rel <= TRACE_TOLERANCE})
    for _ in range(args.trials):
        dim = int(rng.choice((3, 8, 16)))
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        p = rng.standard_normal(dim)
        n = rng.standard_normal(dim)
        rep = simce_trace_closed(a, p, n, temperature=1.0)
        rel = abs(rep.numeric_trace - rep.closed_form_trace) / max(abs(rep.closed_form_trace), 1e-12)
        good = rep.bound_satisfied and rel <= TRACE_TOLERANCE
        ok &= good
        reports.append({"kind": "simce", "dim": dim,
                        "numeric_trace": rep.numeric_trace,
                        "closed_form": rep.closed_form_trace,
                        "bound": rep.bound, "bound_satisfied": rep.bound_satisfied,
                        "rel_error": rel, "pass": good})
    payload = {"subcommand": "hessian-check", "trials": args.trials, "seed": args.seed,
               "tolerance": TRACE_TOLERANCE}
    _emit_report(args, "hessian-check", payload, {"probes": reports, "pass": ok})
    print(f"hessian-check: {'PASS' if ok else 'FAIL'} ({len(reports)} probes)")
    return 0 if ok else 2


def _cmd_robustness_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    probes = []
    ok = True
    quad_dim = 6
    probe = RobustnessProbe(epsilon=args.epsilon, n_samples=args.samples, seed=args.seed + 1)
    v0 = rng.standard_normal(quad_dim)
    mc, pred = robustness_gap(lambda v: (v * v).sum(-1), v0, probe)
    rel = abs(mc - pred) / abs(pred)
    ok &= rel <= 1e-3  # quadratic: the expansion is exact, only MC noise remains
    probes.append({"kind": "quadratic", "mc": mc, "predicted": pred,
                   "rel_error": rel, "pass": rel <= 1e-3})
    for _ in range(args.points):
        dim = int(rng.choice((3, 8, 16)))
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        p = rng.standard_normal(dim)
        n = rng.standard_normal(dim)

        def simce_value(v, a=a, p=p):
            return np.logaddexp(0.0, (a - v) @ a - a @ p)

        mc, pred = robustness_gap(simce_value, a - n, probe)
        rel = abs(mc - pred) / abs(pred)
        ok &= rel <= ROBUSTNESS_TOLERANCE
        probes.append({"kind": "simce", "dim": dim, "mc": mc, "predicted": pred,
                       "rel_error": rel, "pass": rel <= ROBUSTNESS_TOLERANCE})
    payload = {"subcommand": "robustness-check", "points": args.points,
               "samples": args.samples, "epsilon": args.epsilon, "seed": args.seed}
    _emit_report(args, "robustness-check", payload, {"probes": probes, "pass": ok})
    print(f"robustness-check: {'PASS' if ok else 'FAIL'} ({len(probes)} probes)")
    return 0 if ok else 2


def _cmd_margin_check(args) -> int:
    zs = np.arange(-200, 1) * 0.1
    residuals = np.abs(np.logaddexp(0.0, zs) - np.exp(zs))
    bounds = np.exp(2.0 * zs) / 2.0
    ok = bool(np.all(residuals <= bounds + 1e-12))
    rng = np.random.default_rng(args.seed)
    margins = []
    for _ in range(args.trials):
        a = rng.standard_normal(8)
        a /= np.linalg.norm(a)
        margin, residual = dynamic_margin(a, rng.standard_normal(8), rng.standard_normal(8))
        margins.append({"margin": margin, "residual": residual})
    report = {"grid_points": int(zs.size), "max_excess": float((residuals - bounds).max()),
              "margins": margins, "pass": ok}
    payload = {"subcommand": "margin-check", "trials": args.trials, "seed": args.seed}
    _emit_report(args, "margin-check", payload, report)
    print(f"margin-check: {'PASS' if ok else 'FAIL'} ({zs.size} grid points)")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# data / training subcommands


def _require_out(args) -> Path:
    if not args.out:
        raise InvalidConfigError("this subcommand needs --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_data(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.seed)
    if config.dataset is None:
        raise InvalidConfigError("config has no 'dataset' section")
    out = _require_out(args)
    dataset = gen_dataset(config.dataset)
    write_dataset_csv(dataset, out / "dataset.csv")
    _write_manifest(out, "gen-data", config.raw_payload, config.seed, ["dataset.csv"])
    print(f"gen-data: wrote {dataset.n_samples} rows of dim {dataset.dim} to {out / 'dataset.csv'}")
    return 0


def _cmd_train(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.seed)
    train_cfg = config.train_config()
    out = _require_out(args)
    total = train_cfg.total_iters
    marks = {"start": 0, "mid": total // 2, "end": total}
    report, model, _, _, snapshots = run_training(train_cfg, marks.values())
    report.write_curves_csv(out / "curves.csv")
    report.write_eval_csv(out / "evals.csv")
    save_model(model, out / "model.json")
    artifacts = ["curves.csv", "evals.csv", "model.json"]
    for tag, iteration in marks.items():
        snapshot_sim_matrix(snapshots[iteration], out / f"sim_{tag}.csv")
        artifacts.append(f"sim_{tag}.csv")
    _write_manifest(out, "train", config.raw_payload, config.seed, artifacts)
    print(f"train: {train_cfg.variant} for {total} iterations; "
          f"final rank1 {report.rank1[-1]:.4f}, digest {report.params_digest[:12]}")
    return 0


def _cmd_eval(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.seed)
    train_cfg = config.train_config()
    out = _require_out(args)
    model = load_model(args.model)
    dataset = gen_dataset(train_cfg.dataset)
    _, gallery_rows, probe_rows = split_rows(train_cfg, dataset.labels)
    rank1, geo = evaluate(model, dataset, gallery_rows, probe_rows, train_cfg)
    metrics = {"rank1": rank1, **dataclasses.asdict(geo)}
    (out / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="ascii")
    _write_manifest(out, "eval", config.raw_payload, config.seed, ["metrics.json"])
    print(f"eval: rank1 {metrics['rank1']:.4f}, uniformity {metrics['uniformity']:.4f}")
    return 0


def _cmd_export_sim(args) -> int:
    config = ExperimentConfig.from_file(args.config, args.seed)
    if config.dataset is None or config.batch is None:
        raise InvalidConfigError("export-sim needs 'dataset' and 'batch' sections")
    out = _require_out(args)
    dataset = gen_dataset(config.dataset)
    rows = snapshot_rows(config.seed, config.batch, dataset.labels)
    data = dataset.features[rows]
    if args.model:
        data = model_forward(load_model(args.model), data)[0]
    batch = EmbeddingBatch(data, dataset.labels[rows], config.batch)
    snapshot_sim_matrix(batch, out / "sim.csv", kind=args.kind)
    _write_manifest(out, "export-sim", config.raw_payload, config.seed, ["sim.csv"])
    print(f"export-sim: wrote a {batch.size}x{batch.size} {args.kind} matrix")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(7)
    cfg = LossConfig()
    failures = []

    def check(name, good, detail=""):
        if good:
            print(f"ok {name}")
        else:
            failures.append(name)
            print(f"FAIL {name}: {detail}")

    for name in LOSS_NAMES:
        batch = sample_gradcheck_batch(rng, 2, 2, 5, cfg)
        head = ClassifierHead.init(rng, 2, 5)
        err = batch_gradcheck(_loss_callable(name, cfg, head), batch)
        check(f"gradcheck {name}", err <= GRADCHECK_TOLERANCE, f"rel error {err:.3e}")

    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    closed = triplet_trace_closed(v)
    numeric = numeric_hessian_trace(lambda w: -float(np.linalg.norm(w)), v, h=1e-4)
    check("triplet trace", abs(abs(numeric) - closed) / closed <= TRACE_TOLERANCE,
          f"numeric {numeric:.6f} vs closed {closed:.6f}")

    a = rng.standard_normal(8)
    a /= np.linalg.norm(a)
    rep = simce_trace_closed(a, rng.standard_normal(8), rng.standard_normal(8))
    rel = abs(rep.numeric_trace - rep.closed_form_trace) / max(abs(rep.closed_form_trace), 1e-12)
    check("softmax trace + bound", rep.bound_satisfied and rel <= TRACE_TOLERANCE,
          f"numeric {rep.numeric_trace:.6f} closed {rep.closed_form_trace:.6f}")

    probe = RobustnessProbe(epsilon=0.01, n_samples=20_000, seed=11)
    mc, pred = robustness_gap(lambda w: (w * w).sum(-1), rng.standard_normal(4), probe)
    check("robustness quadratic", abs(mc - pred) / abs(pred) <= 1e-3,
          f"mc {mc:.3e} vs predicted {pred:.3e}")

    zs = np.arange(-200, 1) * 0.1
    residual = np.abs(np.logaddexp(0.0, zs) - np.exp(zs))
    check("margin residual bound", bool(np.all(residual <= np.exp(2 * zs) / 2.0 + 1e-12)),
          "residual exceeded exp(2z)/2")

    labels = np.repeat(np.arange(8), 8)
    tri = enumerate_triplets(labels)
    pairs = enumerate_pos_pairs(labels)
    counts_ok = (len(tri) == 25088 and len(pairs) == 448
                 and bool(np.all(np.diff(pairs.neg_offsets) == 56)))
    check("batch-all counts (8x8)", counts_ok, f"{len(tri)} triplets, {len(pairs)} pairs")

    mu = np.zeros(3)
    mu[2] = 1.0
    draws = np.stack([sample_vmf(VmfParams(mu, 20.0), rng) for _ in range(4000)])
    kappa = estimate_kappa(draws)
    check("vmf round trip", abs(kappa - 20.0) / 20.0 <= 0.15, f"kappa_hat {kappa:.2f}")
    dens = vmf_density(mu, VmfParams(mu, 1.0))
    expected = 1.0 * np.e / (4 * np.pi * np.sinh(1.0))
    check("vmf density d=3", abs(dens - expected) <= 1e-12,
          f"{dens:.9f} vs {expected:.9f}")

    if failures:
        print(f"selftest: FAIL ({len(failures)} of the checks)")
        return 2
    print("selftest: PASS")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metriclab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="directory for reports and the run manifest")
        return p

    p = add("gradcheck", _cmd_gradcheck, help="finite-difference check of every loss gradient")
    p.add_argument("--loss", default="all", help=f"one of {('all',) + LOSS_NAMES}")
    p.add_argument("--trials", type=_count(1), default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("hessian-check", _cmd_hessian_check, help="trace probes against their closed forms")
    p.add_argument("--trials", type=_count(0), default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("robustness-check", _cmd_robustness_check, help="Monte-Carlo noise-gap vs prediction")
    p.add_argument("--points", type=_count(0), default=5)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)

    p = add("margin-check", _cmd_margin_check, help="Taylor-residual bound and dynamic margins")
    p.add_argument("--trials", type=_count(0), default=5)
    p.add_argument("--seed", type=int, default=0)

    def add_configured(name, fn, **kwargs):
        p = add(name, fn, **kwargs)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="run seed S; the dataset seed becomes 1000*S + 17")
        return p

    add_configured("gen-data", _cmd_gen_data, help="generate the configured synthetic dataset")
    add_configured("train", _cmd_train, help="train the configured model and write all curves")
    p = add_configured("eval", _cmd_eval, help="retrieval and geometry metrics for a saved model")
    p.add_argument("--model", required=True)
    p = add_configured("export-sim", _cmd_export_sim, help="similarity matrix of one PK batch")
    p.add_argument("--model", default=None)
    p.add_argument("--kind", default="cosine", choices=("cosine", "cosine_over_max"))

    add("selftest", _cmd_selftest, help="condensed end-to-end invariant sweep")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and leaves
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
