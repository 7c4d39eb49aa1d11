"""Desk-scale SGD training of a small embedding model on synthetic data.

The model is one affine map into the embedding space, optionally preceded
by a tanh hidden layer, plus a classifier head for the cross-entropy term.
All backpropagation is written out by hand; the embedding gradient comes
straight from the loss layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import batching
from .batching import BatchSpec, pk_index, sample_pk
from .core import EmbeddingBatch
from .errors import DimensionMismatchError, DivergenceError, InvalidConfigError, NonFiniteError
from .evaluation import METRICS, GalleryProbeSplit, GeometryReport, build_geometry_report, rank1
from .losses import LOSSES, ClassifierHead, LossConfig
from .synth import DatasetSpec, gen_dataset

# training variant -> the LOSSES entry it trains on
_VARIANT_LOSSES = {"triplet_only": "triplet", "combined_simce": "combined_simce",
                   "combined_m_simce": "combined_m_simce"}
TRAIN_VARIANTS = tuple(_VARIANT_LOSSES)


@dataclass
class ModelParams:
    """Affine embedding model with an optional tanh hidden layer and a head."""

    embed_weight: np.ndarray
    embed_bias: np.ndarray
    head: ClassifierHead
    hidden_weight: np.ndarray | None = None
    hidden_bias: np.ndarray | None = None

    def __post_init__(self):
        self.embed_weight = np.asarray(self.embed_weight, dtype=np.float64)
        self.embed_bias = np.asarray(self.embed_bias, dtype=np.float64).reshape(-1)
        if self.embed_weight.ndim != 2:
            raise DimensionMismatchError(f"embed weight must be 2-D, got {self.embed_weight.shape}")
        if self.embed_bias.shape[0] != self.embed_weight.shape[0]:
            raise DimensionMismatchError("embed bias does not match embed weight rows")
        if (self.hidden_weight is None) != (self.hidden_bias is None):
            raise DimensionMismatchError("hidden weight and bias must be given together")
        if self.hidden_weight is not None:
            self.hidden_weight = np.asarray(self.hidden_weight, dtype=np.float64)
            self.hidden_bias = np.asarray(self.hidden_bias, dtype=np.float64).reshape(-1)
            if self.hidden_bias.shape[0] != self.hidden_weight.shape[0]:
                raise DimensionMismatchError("hidden bias does not match hidden weight rows")
            if self.embed_weight.shape[1] != self.hidden_weight.shape[0]:
                raise DimensionMismatchError("embed weight does not accept the hidden output")
        if self.head.dim != self.embed_weight.shape[0]:
            raise DimensionMismatchError("classifier head does not accept the embedding dim")

    @property
    def input_dim(self) -> int:
        first = self.hidden_weight if self.hidden_weight is not None else self.embed_weight
        return first.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embed_weight.shape[0]

    @classmethod
    def init(cls, rng: np.random.Generator, input_dim: int, embed_dim: int, n_classes: int,
             hidden_dim: int | None = None, scale: float = 1.0):
        """Gaussian weights at scale / sqrt(fan_in), zero biases."""
        def layer(n_out, n_in):
            return rng.standard_normal((n_out, n_in)) * (scale / math.sqrt(n_in))

        hidden_w = hidden_b = None
        prev = input_dim
        if hidden_dim is not None:
            hidden_w = layer(hidden_dim, input_dim)
            hidden_b = np.zeros(hidden_dim)
            prev = hidden_dim
        head = ClassifierHead(layer(n_classes, embed_dim), np.zeros(n_classes))
        return cls(layer(embed_dim, prev), np.zeros(embed_dim), head, hidden_w, hidden_b)

    def param_dict(self) -> dict[str, np.ndarray]:
        """Live views of every trainable array, keyed by name."""
        params = {
            "embed_weight": self.embed_weight,
            "embed_bias": self.embed_bias,
            "head_weight": self.head.weight,
            "head_bias": self.head.bias,
        }
        if self.hidden_weight is not None:
            params["hidden_weight"] = self.hidden_weight
            params["hidden_bias"] = self.hidden_bias
        return params

    def flatten(self) -> np.ndarray:
        """Move every trainable array into one contiguous float64 vector, in param_dict order.

        The attributes become views of the returned vector, so one
        elementwise update of it moves them all; values and digest stay.
        """
        params = self.param_dict()
        flat = np.concatenate(list(params.values()), axis=None)
        bounds = np.cumsum([0] + [a.size for a in params.values()])
        views = [flat[lo:hi].reshape(a.shape)
                 for lo, hi, a in zip(bounds[:-1], bounds[1:], params.values())]
        self.embed_weight, self.embed_bias, self.head.weight, self.head.bias, *hidden = views
        if hidden:
            self.hidden_weight, self.hidden_bias = hidden
        return flat

    def digest(self) -> str:
        """sha256 over all parameter bytes in a fixed key order."""
        h = hashlib.sha256()
        for name, arr in sorted(self.param_dict().items()):
            h.update(name.encode("ascii"))
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _forward_cached(model: ModelParams, features: np.ndarray):
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatchError(
            f"features of shape {X.shape} do not fit input dim {model.input_dim}"
        )
    hidden_out = None
    pre_embed = X
    if model.hidden_weight is not None:
        hidden_out = np.tanh(X @ model.hidden_weight.T + model.hidden_bias)
        pre_embed = hidden_out
    embeddings = pre_embed @ model.embed_weight.T + model.embed_bias
    return embeddings, (X, hidden_out, pre_embed)


def model_forward(model: ModelParams, features) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and class logits for a feature matrix.  Pure and deterministic."""
    embeddings, _ = _forward_cached(model, np.asarray(features, dtype=np.float64))
    return embeddings, model.head.logits(embeddings)


def _backward(model: ModelParams, cache, grad_embed: np.ndarray) -> dict[str, np.ndarray]:
    X, hidden_out, pre_embed = cache
    grads = {
        "embed_weight": grad_embed.T @ pre_embed,
        "embed_bias": grad_embed.sum(axis=0),
    }
    if model.hidden_weight is not None:
        d_hidden = (grad_embed @ model.embed_weight) * (1.0 - hidden_out**2)
        grads["hidden_weight"] = d_hidden.T @ X
        grads["hidden_bias"] = d_hidden.sum(axis=0)
    return grads


@dataclass
class OptimState:
    """SGD hyper-parameters plus one momentum buffer per parameter."""

    momentum: float = 0.9
    weight_decay: float = 5e-4
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise InvalidConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def sgd_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimState, lr: float):
    """One coupled-decay momentum step, in place.

    g = grad + weight_decay * param; buf = momentum * buf + g;
    param -= lr * buf.  Buffers appear on first use.
    """
    if lr < 0.0:
        raise InvalidConfigError(f"lr must be >= 0, got {lr}")
    for name, param in params.items():
        if name not in grads:
            raise DimensionMismatchError(f"no gradient supplied for parameter {name!r}")
        grad = grads[name]
        if grad.shape != param.shape:
            raise DimensionMismatchError(
                f"gradient shape {grad.shape} does not match parameter {name!r} {param.shape}"
            )
        g = grad + state.weight_decay * param
        buf = state.buffers.get(name)
        if buf is None:
            buf = np.zeros_like(param)
            state.buffers[name] = buf
        buf *= state.momentum
        buf += g
        param -= lr * buf
    return params, state


def cosine_lr(step: int, total_iters: int, lr0: float = 0.1, lr_min: float = 1e-4) -> float:
    """Half-cosine ramp from lr0 at step 0 down to lr_min at step == total_iters."""
    if total_iters < 1:
        raise InvalidConfigError(f"total_iters must be >= 1, got {total_iters}")
    if not 0 <= step <= total_iters:
        raise ValueError(f"step {step} outside [0, {total_iters}]")
    if lr0 <= 0.0 or lr_min < 0.0 or lr_min > lr0:
        raise InvalidConfigError(f"need 0 <= lr_min <= lr0 and lr0 > 0, got lr0={lr0} lr_min={lr_min}")
    return lr_min + (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total_iters)) / 2.0


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on.  Same config, same bytes out."""

    dataset: DatasetSpec
    batch: BatchSpec
    loss: LossConfig
    variant: str = "triplet_only"
    total_iters: int = 1000
    eval_interval: int = 100
    seed: int = 0
    embed_dim: int = 16
    hidden_dim: int | None = None
    init_scale: float = 1.0
    lr0: float = 0.1
    lr_min: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    holdout_fraction: float = 0.2
    uniformity_t: float = 2.0
    eval_metric: str = "euclidean"

    def __post_init__(self):
        if self.variant not in TRAIN_VARIANTS:
            raise InvalidConfigError(f"variant must be one of {TRAIN_VARIANTS}, got {self.variant!r}")
        if self.eval_metric not in METRICS:
            raise InvalidConfigError(
                f"eval_metric must be one of {METRICS}, got {self.eval_metric!r}"
            )
        if self.total_iters < 0:
            # 0 is legal and means "evaluate the initial model, train nothing"
            raise InvalidConfigError(f"total_iters must be >= 0, got {self.total_iters}")
        if self.eval_interval < 1:
            raise InvalidConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.embed_dim < 2:
            raise InvalidConfigError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise InvalidConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.init_scale <= 0.0:
            raise InvalidConfigError(f"init_scale must be > 0, got {self.init_scale}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise InvalidConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        if self.uniformity_t <= 0.0:
            raise InvalidConfigError(f"uniformity_t must be > 0, got {self.uniformity_t}")
        if self.lr0 <= 0.0 or self.lr_min < 0.0 or self.lr_min > self.lr0:
            raise InvalidConfigError(
                f"need 0 <= lr_min <= lr0 and lr0 > 0, got lr0={self.lr0} lr_min={self.lr_min}"
            )
        OptimState(momentum=self.momentum, weight_decay=self.weight_decay)


def dataset_seed(seed: int) -> int:
    """The one seed rule: run seed s trains on dataset seed 1000 s + 17 (library and CLI)."""
    return 1000 * seed + 17


def reference_train_config(variant: str = "triplet_only", seed: int = 0,
                           total_iters: int = 5000,
                           eval_interval: int = 2500) -> TrainConfig:
    """Desk-scale benchmark configuration shared by the acceptance checks.

    32 classes x 2 subclusters each on the 31-sphere, 25 samples per
    subcluster, 5% of rows re-drawn near a wrong class, a tanh hidden
    layer of width 64 feeding 16-d embeddings, (8, 8) batches, and 5000
    cosine-annealed SGD iterations.  Retrieval is scored with cosine
    distance because the contrastive term shapes directions, not norms.
    The dataset seed is ``dataset_seed(seed)``, so each seed sees fresh
    data as well as fresh batch order and initialization.
    """
    return TrainConfig(
        dataset=DatasetSpec(
            n_classes=32, subclusters_per_class=2, samples_per_subcluster=25,
            input_dim=32, class_kappa=20.0, subcluster_kappa=60.0,
            noise_fraction=0.05, seed=dataset_seed(seed)),
        batch=BatchSpec(n_classes=8, samples_per_class=8),
        loss=LossConfig(margin=0.6, normalize_for_simce=True),
        variant=variant,
        total_iters=total_iters,
        eval_interval=eval_interval,
        seed=seed,
        embed_dim=16,
        hidden_dim=64,
        init_scale=1.0,
        eval_metric="cosine",
    )


@dataclass
class TrainReport:
    """Per-iteration loss curve plus the periodic held-out metrics."""

    iters: np.ndarray
    losses: np.ndarray
    lrs: np.ndarray
    n_non: np.ndarray
    eval_iters: np.ndarray
    rank1: np.ndarray
    uniformity: np.ndarray
    kappa_hat: np.ndarray
    inter_intra: np.ndarray
    params_digest: str

    def __post_init__(self):
        k = len(self.iters)
        if not (len(self.losses) == len(self.lrs) == len(self.n_non) == k):
            raise ValueError("per-iteration series lengths disagree")
        m = len(self.eval_iters)
        if not (len(self.rank1) == len(self.uniformity) == len(self.kappa_hat)
                == len(self.inter_intra) == m):
            raise ValueError("evaluation series lengths disagree")
        if m < 1:
            raise ValueError("a run must evaluate at least once")

    def write_curves_csv(self, path) -> None:
        lines = ["iter,loss,lr,n_non"]
        for i in range(len(self.iters)):
            lines.append(
                f"{int(self.iters[i])},{self.losses[i]:.17g},{self.lrs[i]:.17g},{int(self.n_non[i])}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    def write_eval_csv(self, path) -> None:
        lines = ["iter,rank1,uniformity,kappa_hat,inter_intra"]
        for i in range(len(self.eval_iters)):
            lines.append(
                f"{int(self.eval_iters[i])},{self.rank1[i]:.17g},{self.uniformity[i]:.17g},"
                f"{self.kappa_hat[i]:.17g},{self.inter_intra[i]:.17g}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def holdout_split(labels, fraction: float, rng: np.random.Generator):
    """Per-class split into train / gallery / probe row indices.

    Each class holds out max(2, round(fraction * count)) rows, alternating
    between gallery and probe so both sides see every class.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    train, gallery, probe = [], [], []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        n_hold = max(2, int(round(fraction * rows.size)))
        if n_hold >= rows.size:
            raise InvalidConfigError(
                f"holdout of {n_hold} rows leaves class {c} with no training rows"
            )
        perm = rng.permutation(rows)
        held = perm[:n_hold]
        gallery.append(held[0::2])
        probe.append(held[1::2])
        train.append(perm[n_hold:])
    return (np.sort(np.concatenate(train)),
            np.sort(np.concatenate(gallery)),
            np.sort(np.concatenate(probe)))


def _loss_and_grads(model: ModelParams, features, labels, loss_cfg, variant):
    embeddings, cache = _forward_cached(model, features)
    # no spec: sample_pk rows always form the [N, K] layout, so only shape and finiteness are checked
    batch = EmbeddingBatch(embeddings, labels)
    result = LOSSES[_VARIANT_LOSSES[variant]](batch, loss_cfg, model.head)
    grads = _backward(model, cache, result.grad)
    zeros = lambda a: np.zeros_like(a)  # noqa: E731 - tiny local alias
    grads["head_weight"] = (result.head_grad_weight
                            if result.head_grad_weight is not None else zeros(model.head.weight))
    grads["head_bias"] = (result.head_grad_bias
                          if result.head_grad_bias is not None else zeros(model.head.bias))
    return result, grads


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    """The init, batch and split generators of run seed ``seed``, in their fixed spawn order."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))


def split_rows(config: TrainConfig, labels):
    """The run's (train, gallery, probe) rows, drawn from its split stream."""
    return holdout_split(labels, config.holdout_fraction, _streams(config.seed)[2])


def snapshot_rows(seed: int, spec: BatchSpec, labels) -> np.ndarray:
    """Rows of the one PK batch that ``train`` snapshots and ``export-sim`` writes."""
    # not through training.sample_pk, which the benchmark's step clock hooks per step
    return batching.sample_pk(labels, spec, np.random.default_rng(np.random.SeedSequence([seed, 7])))


def evaluate(model: ModelParams, dataset, gallery_rows, probe_rows,
             config: TrainConfig) -> tuple[float, GeometryReport]:
    """Held-out rank-1 and the geometry of the gallery + probe embeddings."""
    gal, _ = model_forward(model, dataset.features[gallery_rows])
    pro, _ = model_forward(model, dataset.features[probe_rows])
    gal_labels, pro_labels = dataset.labels[gallery_rows], dataset.labels[probe_rows]
    split = GalleryProbeSplit(gal, gal_labels, pro, pro_labels, metric=config.eval_metric)
    geo = build_geometry_report(np.vstack([gal, pro]), np.concatenate([gal_labels, pro_labels]),
                                config.uniformity_t)
    return rank1(split), geo


def run_training(config: TrainConfig, snapshot_iters=()):
    """Full training run.

    Returns (report, model, dataset, (train_rows, gallery_rows, probe_rows),
    snapshots) where snapshots maps each requested iteration to the
    ``EmbeddingBatch`` of the ``snapshot_rows`` batch at that point.  The
    generator streams all derive from config.seed, so every run with the
    same config replays exactly.
    """
    dataset = gen_dataset(config.dataset)
    init_rng, batch_rng, _ = _streams(config.seed)
    train_rows, gallery_rows, probe_rows = split_rows(config, dataset.labels)
    model = ModelParams.init(
        init_rng, dataset.dim, config.embed_dim, config.dataset.n_classes,
        config.hidden_dim, config.init_scale)
    names = list(model.param_dict())
    params = {"params": model.flatten()}
    state = OptimState(momentum=config.momentum, weight_decay=config.weight_decay)
    pk = pk_index(dataset.labels[train_rows], config.batch)
    snap_set = set(int(s) for s in snapshot_iters)
    snap_rows = snapshot_rows(config.seed, config.batch, dataset.labels) if snap_set else None
    snapshots: dict[int, EmbeddingBatch] = {}

    losses, lrs, n_non = [], [], []
    eval_rows = []

    def record_eval(iteration: int):
        r1, geo = evaluate(model, dataset, gallery_rows, probe_rows, config)
        eval_rows.append((iteration, r1, geo.uniformity, geo.kappa_hat, geo.inter_intra_ratio))

    def maybe_snapshot(iteration: int):
        if iteration in snap_set:
            emb = model_forward(model, dataset.features[snap_rows])[0]
            snapshots[iteration] = EmbeddingBatch(emb, dataset.labels[snap_rows], config.batch)

    record_eval(0)
    maybe_snapshot(0)
    for step in range(config.total_iters):
        lr = cosine_lr(step, config.total_iters, config.lr0, config.lr_min)
        pick = sample_pk(pk, config.batch, batch_rng)
        rows = train_rows[pick]
        try:
            result, grads = _loss_and_grads(
                model, dataset.features[rows], dataset.labels[rows], config.loss, config.variant)
        except NonFiniteError as exc:
            raise DivergenceError(f"non-finite loss at iteration {step}: {exc}") from exc
        sgd_update(params, {"params": np.concatenate([grads[n] for n in names], axis=None)},
                   state, lr)
        losses.append(result.value)
        lrs.append(lr)
        n_non.append(result.n_non)
        done = step + 1
        if done % config.eval_interval == 0 or done == config.total_iters:
            record_eval(done)
        maybe_snapshot(done)

    report = TrainReport(
        iters=np.arange(config.total_iters, dtype=np.int64),
        losses=np.asarray(losses, dtype=np.float64),
        lrs=np.asarray(lrs, dtype=np.float64),
        n_non=np.asarray(n_non, dtype=np.int64),
        eval_iters=np.asarray([r[0] for r in eval_rows], dtype=np.int64),
        rank1=np.asarray([r[1] for r in eval_rows], dtype=np.float64),
        uniformity=np.asarray([r[2] for r in eval_rows], dtype=np.float64),
        kappa_hat=np.asarray([r[3] for r in eval_rows], dtype=np.float64),
        inter_intra=np.asarray([r[4] for r in eval_rows], dtype=np.float64),
        params_digest=model.digest(),
    )
    return report, model, dataset, (train_rows, gallery_rows, probe_rows), snapshots


def train(config: TrainConfig) -> TrainReport:
    """Run the configured training and return its report."""
    return run_training(config)[0]


def save_model(model: ModelParams, path) -> None:
    """Model parameters as JSON; float repr keeps every bit."""
    payload = {
        "embed_weight": model.embed_weight.tolist(),
        "embed_bias": model.embed_bias.tolist(),
        "head_weight": model.head.weight.tolist(),
        "head_bias": model.head.bias.tolist(),
        "hidden_weight": model.hidden_weight.tolist() if model.hidden_weight is not None else None,
        "hidden_bias": model.hidden_bias.tolist() if model.hidden_bias is not None else None,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="ascii")


def load_model(path) -> ModelParams:
    payload = json.loads(Path(path).read_text(encoding="ascii"))
    head = ClassifierHead(np.array(payload["head_weight"]), np.array(payload["head_bias"]))
    hidden_w = payload.get("hidden_weight")
    hidden_b = payload.get("hidden_bias")
    return ModelParams(
        np.array(payload["embed_weight"]),
        np.array(payload["embed_bias"]),
        head,
        None if hidden_w is None else np.array(hidden_w),
        None if hidden_b is None else np.array(hidden_b),
    )
