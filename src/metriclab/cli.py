"""Command-line front end.

Exit codes: 0 on success, 1 for bad input (flags, config files, capacity),
2 when a numerical check ran fine but exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
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
from .core import EmbeddingBatch
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage problems are exit 1 here
        # this parser's own usage, so a subcommand's flag error shows that subcommand's flags
        self.exit(1, f"{self.format_usage()}error: {message}\n")


def _count(minimum: int):
    """argparse type for an integer >= ``minimum``; argparse puts the flag name in the error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # so a non-integer reads "invalid int value", as with type=int
    return parse


def _loss_name(text: str) -> str:
    """argparse type for ``--loss``: 'all' or a loss name, '-' allowed for '_'; kept as typed."""
    if text != "all" and text.replace("-", "_") not in LOSSES:
        raise argparse.ArgumentTypeError(f"unknown loss {text!r}; pick from {('all',) + LOSS_NAMES}")
    return text


# ---------------------------------------------------------------------------
# config plumbing


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment file: dataset, batch shape, loss knobs, training plan."""

    seed: int = 0
    dataset: DatasetSpec | None = None
    batch: BatchSpec | None = None
    loss: LossConfig = LossConfig()
    train: TrainConfig | None = None
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
        known = {"seed", "dataset", "batch", "loss", "train"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidConfigError(f"{path}: unknown config key {unknown[0]!r}")
        if seed_override is not None:
            # written into the payload, so config_sha256 names the config that ran
            payload["seed"] = int(seed_override)
            if isinstance(payload.get("dataset"), dict):
                payload["dataset"] = dict(payload["dataset"], seed=dataset_seed(payload["seed"]))
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise InvalidConfigError(f"{path}: seed must be an integer, got {json.dumps(seed)}")
        if seed < 0:
            raise InvalidConfigError(f"{path}: seed must be >= 0, got {seed}")
        sections = (("dataset", DatasetSpec), ("batch", BatchSpec), ("loss", LossConfig))
        dataset, batch, loss = (_build_section(c, payload.get(name), name, path) for name, c in sections)
        loss, train = loss or LossConfig(), payload.get("train")
        # built before any command runs, so a bad value fails first; a null or absent section is empty
        if train is not None or (dataset is not None and batch is not None):
            _require("train", dataset=dataset, batch=batch)
            train = _build_section(TrainConfig, {} if train is None else train, "train", path,
                                   dataset=dataset, batch=batch, loss=loss, seed=seed)
        return cls(seed=seed, dataset=dataset, batch=batch, loss=loss, train=train, raw_payload=payload)


def _require(command: str, **sections) -> None:
    """Refuse a config without one of ``sections``, which ``command`` needs."""
    missing = [name for name, section in sections.items() if section is None]
    if missing:
        raise InvalidConfigError(f"config has no {missing[0]!r} section, which {command!r} needs")


def _build_section(cls, section, name, path, **own):
    """cls(**section, **own), the section's keys checked against cls's fields less ``own``:
    known and present when required; cls checks the values.  Errors name the file and section."""
    if section is None:
        return None
    where = f"{path}: config section {name!r}"
    if not isinstance(section, dict):
        raise InvalidConfigError(f"{where} must be an object")
    fields = [f for f in dataclasses.fields(cls) if f.name not in own]
    unknown = sorted(set(section) - {f.name for f in fields})
    if unknown:
        raise InvalidConfigError(f"{where}: unknown key {unknown[0]!r}")
    for f in fields:
        if section.get(f.name, f.default) is dataclasses.MISSING:
            raise InvalidConfigError(f"{where}: missing key {f.name!r}")
    try:
        return cls(**section, **own)
    except ValueError as exc:
        raise InvalidConfigError(f"{where}: {exc}") from exc


def _sha256_of(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, payload: dict, seed, artifacts):
    manifest = {
        "subcommand": subcommand,
        "config_sha256": _sha256_of(payload),
        "seed": seed,
        "artifacts": sorted(artifacts),
        "versions": {"metriclab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# probes, each shared by its check command and selftest


def _loss_callable(name: str, cfg: LossConfig, head: ClassifierHead):
    if name not in LOSSES:
        raise InvalidConfigError(f"unknown loss {name!r}; pick from {LOSS_NAMES}")
    loss = LOSSES[name]
    return lambda b: loss(b, cfg, head)


def _gradcheck_error(rng, name: str, n: int, k: int, dim: int) -> float:
    cfg = LossConfig()
    batch = sample_gradcheck_batch(rng, n, k, dim, cfg)
    head = ClassifierHead.init(rng, n, dim)
    return batch_gradcheck(_loss_callable(name, cfg, head), batch)


def _gradcheck_row(name: str, errors: list) -> dict:
    worst = max(errors)
    return {"loss": name, "trials": len(errors), "max_rel_error": worst,
            "pass": worst <= GRADCHECK_TOLERANCE}


def _triplet_trace_probe(rng, dim: int, scale: float) -> dict:
    """The hinge's trace in its negative at distance ``scale`` from the anchor."""
    direction = rng.standard_normal(dim)
    v = direction / np.linalg.norm(direction) * scale
    a = rng.standard_normal(dim)
    p = a + rng.standard_normal(dim) * 0.05
    d_ap = float(np.linalg.norm(a - p))
    margin = float(np.linalg.norm(a - (a - v))) - d_ap + 0.5

    def hinge(n_vec):
        return np.maximum(0.0, margin + d_ap - np.linalg.norm(a - n_vec, axis=-1))

    numeric = numeric_hessian_trace(hinge, a - v, h=1e-4)
    closed = triplet_trace_closed(v)
    rel = abs(abs(numeric) - closed) / closed
    return {"kind": "triplet", "dim": dim, "v_norm": scale, "numeric_trace": numeric,
            "closed_form": closed, "rel_error": rel, "pass": rel <= TRACE_TOLERANCE}


def _simce_trace_probe(rng, dim: int) -> dict:
    a = rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    rep = simce_trace_closed(a, rng.standard_normal(dim), rng.standard_normal(dim), temperature=1.0)
    rel = abs(rep.numeric_trace - rep.closed_form_trace) / max(abs(rep.closed_form_trace), 1e-12)
    return {"kind": "simce", "dim": dim, "numeric_trace": rep.numeric_trace,
            "closed_form": rep.closed_form_trace, "bound": rep.bound,
            "bound_satisfied": rep.bound_satisfied, "rel_error": rel,
            "pass": rep.bound_satisfied and rel <= TRACE_TOLERANCE}


def _gap_row(fn, v, probe: RobustnessProbe, tol: float, **row) -> dict:
    mc, pred = robustness_gap(fn, v, probe)  # looked up per call, so a caller may wrap it
    rel = abs(mc - pred) / abs(pred)
    return {**row, "mc": mc, "predicted": pred, "rel_error": rel, "pass": rel <= tol}


def _quadratic_control(v0, probe: RobustnessProbe, tol: float) -> dict:
    """The gap of |v|^2: its expansion is exact, so only Monte-Carlo noise remains."""
    return _gap_row(lambda v: (v * v).sum(-1), v0, probe, tol, kind="quadratic")


def _simce_gap_probe(rng, dim: int, probe: RobustnessProbe) -> dict:
    a = rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    p, n = rng.standard_normal(dim), rng.standard_normal(dim)
    return _gap_row(lambda v: np.logaddexp(0.0, (a - v) @ a - a @ p), a - n, probe,
                    ROBUSTNESS_TOLERANCE, kind="simce", dim=dim)


def _margin_excess() -> dict:
    """|softplus(z) - exp(z)| against its bound exp(2z)/2 on z in [-20, 0]."""
    zs = np.arange(-200, 1) * 0.1
    residuals = np.abs(np.logaddexp(0.0, zs) - np.exp(zs))
    bounds = np.exp(2.0 * zs) / 2.0
    return {"grid_points": int(zs.size), "max_excess": float((residuals - bounds).max()),
            "pass": bool(np.all(residuals <= bounds + 1e-12))}


# ---------------------------------------------------------------------------
# check subcommands


def _check_command(fn):
    """Run ``fn(args, rng)`` on a generator seeded with ``--seed``; write the report.

    ``fn`` returns the report, the verdict detail and any payload keys beyond
    the flags. The report goes to ``--out``, beside its manifest, or to stdout.
    """
    def command(args) -> int:
        report, detail, extra = fn(args, np.random.default_rng(args.seed))
        payload = {k: v for k, v in vars(args).items() if k not in ("out", "func")} | extra
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(text, encoding="ascii")
            _write_manifest(out, args.subcommand, payload, args.seed, ["report.json"])
        else:
            sys.stdout.write(text)
        print(f"{args.subcommand}: {'PASS' if report['pass'] else 'FAIL'} ({detail})")
        return 0 if report["pass"] else 2
    return command


def _gradcheck(args, rng):
    names = LOSS_NAMES if args.loss == "all" else (args.loss.replace("-", "_"),)
    rows = []
    for name in names:
        errors = [_gradcheck_error(rng, name, int(rng.choice((2, 4))), int(rng.choice((2, 4))),
                                   int(rng.choice((3, 8, 16)))) for _ in range(args.trials)]
        rows.append(_gradcheck_row(name, errors))
    worst = max(r["max_rel_error"] for r in rows)
    return ({"results": rows, "pass": all(r["pass"] for r in rows)},
            f"worst {worst:.3e}, tol {GRADCHECK_TOLERANCE:g}", {"tolerance": GRADCHECK_TOLERANCE})


def _hessian_check(args, rng):
    probes = [_triplet_trace_probe(rng, dim, scale) for dim in (3, 8) for scale in (1.0, 0.1, 0.01)]
    probes += [_simce_trace_probe(rng, int(rng.choice((3, 8, 16)))) for _ in range(args.trials)]
    return ({"probes": probes, "pass": all(p["pass"] for p in probes)},
            f"{len(probes)} probes", {"tolerance": TRACE_TOLERANCE})


def _robustness_check(args, rng):
    probe = RobustnessProbe(epsilon=args.epsilon, n_samples=args.samples, seed=args.seed + 1)
    probes = [_quadratic_control(rng.standard_normal(6), probe, 1e-3)]
    probes += [_simce_gap_probe(rng, int(rng.choice((3, 8, 16))), probe) for _ in range(args.points)]
    return {"probes": probes, "pass": all(p["pass"] for p in probes)}, f"{len(probes)} probes", {}


def _margin_check(args, rng):
    margins = []
    for _ in range(args.trials):
        a = rng.standard_normal(8)
        a /= np.linalg.norm(a)
        margin, residual = dynamic_margin(a, rng.standard_normal(8), rng.standard_normal(8))
        margins.append({"margin": margin, "residual": residual})
    report = dict(_margin_excess(), margins=margins)
    return report, f"{report['grid_points']} grid points", {}


def _cmd_selftest(args) -> int:
    """The check commands' probes at fixed small sizes, plus batch-all counts and vMF."""
    rng = np.random.default_rng(7)
    failures = []

    def check(name, row):
        if not row["pass"]:
            failures.append(name)
        print(f"ok {name}" if row["pass"] else f"FAIL {name}: {row}")

    for name in LOSS_NAMES:
        check(f"gradcheck {name}", _gradcheck_row(name, [_gradcheck_error(rng, name, 2, 2, 5)]))
    check("triplet trace", _triplet_trace_probe(rng, 5, 1.0))
    check("softmax trace + bound", _simce_trace_probe(rng, 8))
    # the gap is the mean of |delta|^2 over n pairs, with relative standard error
    # sqrt(0.8 / (d n)): 3.2e6 pairs put the 1e-3 tolerance at 4 of them for d = 4
    dim, tol = 4, 1e-3
    n_pairs = round(0.8 / dim * (4 / tol) ** 2)
    probe = RobustnessProbe(epsilon=0.01, n_samples=2 * n_pairs, seed=11)
    check("robustness quadratic", _quadratic_control(rng.standard_normal(dim), probe, tol))
    check("margin residual bound", _margin_excess())

    labels = np.repeat(np.arange(8), 8)
    tri, pairs = enumerate_triplets(labels), enumerate_pos_pairs(labels)
    check("batch-all counts (8x8)", {
        "triplets": len(tri), "pairs": len(pairs),
        "pass": len(tri) == 25088 and len(pairs) == 448 and bool(np.all(np.diff(pairs.neg_offsets) == 56))})

    mu = np.zeros(3)
    mu[2] = 1.0
    kappa = estimate_kappa(np.stack([sample_vmf(VmfParams(mu, 20.0), rng) for _ in range(4000)]))
    check("vmf round trip", {"kappa_hat": kappa, "pass": abs(kappa - 20.0) / 20.0 <= 0.15})
    dens = vmf_density(mu, VmfParams(mu, 1.0))
    expected = 1.0 * np.e / (4 * np.pi * np.sinh(1.0))
    check("vmf density d=3", {"density": dens, "expected": expected,
                              "pass": abs(dens - expected) <= 1e-12})

    if failures:
        print(f"selftest: FAIL ({len(failures)} of the checks)")
        return 2
    print("selftest: PASS")
    return 0


# ---------------------------------------------------------------------------
# data / training subcommands


def _data_command(fn):
    """Run ``fn(config, args)`` on the config with ``--seed`` applied; write what it returns.

    ``fn`` checks its inputs and does its work before ``--out`` is created, so a
    refused config leaves no directory; it returns {file name: writer} and a summary line.
    """
    def command(args) -> int:
        config = ExperimentConfig.from_file(args.config, args.seed)
        artifacts, summary = fn(config, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in artifacts.items():
            write(out / name)
        _write_manifest(out, args.subcommand, config.raw_payload, config.seed, artifacts)
        print(summary)
        return 0
    return command


def _gen_data(config, args):
    _require("gen-data", dataset=config.dataset)
    dataset = gen_dataset(config.dataset)
    return ({"dataset.csv": partial(write_dataset_csv, dataset)},
            f"gen-data: wrote {dataset.n_samples} rows of dim {dataset.dim} "
            f"to {Path(args.out) / 'dataset.csv'}")


def _train(config, args):
    _require("train", dataset=config.dataset, batch=config.batch)
    train_cfg = config.train
    total = train_cfg.total_iters
    marks = {"start": 0, "mid": total // 2, "end": total}
    report, model, _, _, snapshots = run_training(train_cfg, marks.values())
    artifacts = {"curves.csv": report.write_curves_csv, "evals.csv": report.write_eval_csv,
                 "model.json": partial(save_model, model)}
    for tag, iteration in marks.items():
        artifacts[f"sim_{tag}.csv"] = partial(snapshot_sim_matrix, snapshots[iteration])
    return artifacts, (f"train: {train_cfg.variant} for {total} iterations; "
                       f"final rank1 {report.rank1[-1]:.4f}, digest {report.params_digest[:12]}")


def _eval(config, args):
    _require("eval", dataset=config.dataset, batch=config.batch)
    train_cfg = config.train
    model = load_model(args.model)
    dataset = gen_dataset(train_cfg.dataset)
    _, gallery_rows, probe_rows = split_rows(train_cfg, dataset.labels)
    rank1, geo = evaluate(model, dataset, gallery_rows, probe_rows, train_cfg)
    metrics = {"rank1": rank1, **dataclasses.asdict(geo)}
    text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    return ({"metrics.json": lambda path: path.write_text(text, encoding="ascii")},
            f"eval: rank1 {metrics['rank1']:.4f}, uniformity {metrics['uniformity']:.4f}")


def _export_sim(config, args):
    _require("export-sim", dataset=config.dataset, batch=config.batch)
    dataset = gen_dataset(config.dataset)
    rows = snapshot_rows(config.seed, config.batch, dataset.labels)
    data = dataset.features[rows]
    if args.model:
        data = model_forward(load_model(args.model), data)
    batch = EmbeddingBatch(data, dataset.labels[rows])
    return ({"sim.csv": partial(snapshot_sim_matrix, batch, kind=args.kind)},
            f"export-sim: wrote a {batch.size}x{batch.size} {args.kind} matrix")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metriclab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_check(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=_check_command(fn))
        p.add_argument("--out", help="directory for the report and its manifest (default: stdout)")
        p.add_argument("--seed", type=_count(0), default=0)
        return p

    p = add_check("gradcheck", _gradcheck, help="finite-difference check of every loss gradient")
    p.add_argument("--loss", type=_loss_name, default="all", help=f"one of {('all',) + LOSS_NAMES}")
    p.add_argument("--trials", type=_count(1), default=20)

    p = add_check("hessian-check", _hessian_check, help="trace probes against their closed forms")
    p.add_argument("--trials", type=_count(0), default=50)

    p = add_check("robustness-check", _robustness_check, help="Monte-Carlo noise-gap vs prediction")
    p.add_argument("--points", type=_count(0), default=5)
    p.add_argument("--samples", type=_count(2), default=100_000)
    p.add_argument("--epsilon", type=float, default=0.01)

    p = add_check("margin-check", _margin_check, help="Taylor-residual bound and dynamic margins")
    p.add_argument("--trials", type=_count(0), default=5)

    def add_data(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=_data_command(fn))
        p.add_argument("--out", required=True, help="directory for the artifacts and the run manifest")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_count(0), default=None,
                       help="run seed S; the dataset seed becomes 1000*S + 17")
        return p

    add_data("gen-data", _gen_data, help="generate the configured synthetic dataset")
    add_data("train", _train, help="train the configured model and write all curves")
    p = add_data("eval", _eval, help="retrieval and geometry metrics for a saved model")
    p.add_argument("--model", required=True)
    p = add_data("export-sim", _export_sim, help="similarity matrix of one PK batch")
    p.add_argument("--model", default=None)
    p.add_argument("--kind", default="cosine", choices=("cosine", "cosine_over_max"))

    p = sub.add_parser("selftest", help="condensed end-to-end invariant sweep")
    p.set_defaults(func=_cmd_selftest)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except SystemExit as exc:  # --help and usage errors print and leave
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse (no trimming, no mmap below 32 MB), so a
    (16, 16) step does not fault its multi-MB temporaries back in; nothing without mallopt."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def main() -> None:
    """The console entry point: run() in a process whose allocator keeps freed memory."""
    _keep_freed_memory()
    sys.exit(run())


if __name__ == "__main__":
    main()
