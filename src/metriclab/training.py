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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import batching
from .batching import BatchSpec, pk_index, sample_pk
from .core import EmbeddingBatch, _unchecked_batch, _write_csv
from .errors import (DimensionMismatchError, DivergenceError, InvalidConfigError, NonFiniteError,
                     _check_fields, _int_labels)
from .evaluation import METRICS, GalleryProbeSplit, GeometryReport, build_geometry_report, rank1
from .losses import LOSSES, ClassifierHead, LossConfig
from .synth import DatasetSpec, gen_dataset

# training variant -> the LOSSES entry it trains on
_VARIANT_LOSSES = {"triplet_only": "triplet", "combined_simce": "combined_simce",
                   "combined_m_simce": "combined_m_simce"}
TRAIN_VARIANTS = tuple(_VARIANT_LOSSES)


@dataclass
class ModelParams:
    """Affine embedding model with an optional tanh hidden layer and a head.

    Construction packs every array into one float64 vector, ``flat``, in param_dict
    order, and every attribute, the head's included, becomes a view of it."""

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
        self.flat = np.concatenate(list(self.param_dict().values()), axis=None)
        views = self.views(self.flat)
        self.embed_weight, self.embed_bias = views["embed_weight"], views["embed_bias"]
        self.head = ClassifierHead(views["head_weight"], views["head_bias"])
        self.hidden_weight, self.hidden_bias = views.get("hidden_weight"), views.get("hidden_bias")

    @property
    def input_dim(self) -> int:
        first = self.hidden_weight if self.hidden_weight is not None else self.embed_weight
        return first.shape[1]

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

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out like ``flat``, keyed and shaped as param_dict."""
        params = self.param_dict()
        bounds = np.cumsum([0] + [a.size for a in params.values()])
        return {name: flat[lo:hi].reshape(a.shape)
                for (name, a), lo, hi in zip(params.items(), bounds[:-1], bounds[1:])}

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


def model_forward(model: ModelParams, features) -> np.ndarray:
    """Embeddings of a feature matrix.  Pure and deterministic."""
    return _forward_cached(model, features)[0]


def _backward(model: ModelParams, cache, grad_embed: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Write the embedding and hidden-layer gradients into the arrays of ``grads``."""
    X, hidden_out, pre_embed = cache
    np.matmul(grad_embed.T, pre_embed, out=grads["embed_weight"])
    grad_embed.sum(axis=0, out=grads["embed_bias"])
    if model.hidden_weight is not None:
        d_hidden = (grad_embed @ model.embed_weight) * (1.0 - hidden_out**2)
        np.matmul(d_hidden.T, X, out=grads["hidden_weight"])
        d_hidden.sum(axis=0, out=grads["hidden_bias"])


@dataclass
class OptimState:
    """SGD hyper-parameters plus the momentum buffer of the one array they update."""

    momentum: float = 0.9
    weight_decay: float = 5e-4
    buffer: np.ndarray | None = None

    def __post_init__(self):
        _check_fields(self, least={"weight_decay": 0})
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_update(param: np.ndarray, grad: np.ndarray, state: OptimState, lr: float) -> None:
    """One coupled-decay momentum step of ``param``, in place.

    g = grad + weight_decay * param; buf = momentum * buf + g;
    param -= lr * buf.  The buffer appears on first use.
    """
    if not lr >= 0.0:  # a NaN fails it too
        raise InvalidConfigError(f"lr must be >= 0, got {lr}")
    if grad.shape != param.shape:
        raise DimensionMismatchError(
            f"gradient shape {grad.shape} does not match parameter shape {param.shape}")
    g = grad + state.weight_decay * param
    if state.buffer is None:
        state.buffer = np.zeros_like(param)
    state.buffer *= state.momentum
    state.buffer += g
    param -= lr * state.buffer


def cosine_lr(step: int, total_iters: int, lr0: float = 0.1, lr_min: float = 1e-4) -> float:
    """Half-cosine ramp from lr0 at step 0 down to lr_min at step == total_iters."""
    if total_iters < 1:
        raise InvalidConfigError(f"total_iters must be >= 1, got {total_iters}")
    if not 0 <= step <= total_iters:
        raise ValueError(f"step {step} outside [0, {total_iters}]")
    if not (lr0 > 0.0 and 0.0 <= lr_min <= lr0):  # a NaN fails it too
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
        for name, cls in (("dataset", DatasetSpec), ("batch", BatchSpec), ("loss", LossConfig)):
            if not isinstance(getattr(self, name), cls):
                raise InvalidConfigError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        # total_iters 0 only evaluates the initial model
        _check_fields(self, least={"total_iters": 0, "eval_interval": 1, "seed": 0, "embed_dim": 2,
                                   "hidden_dim": 1})
        if self.variant not in TRAIN_VARIANTS:
            raise InvalidConfigError(f"variant must be one of {TRAIN_VARIANTS}, got {self.variant!r}")
        if self.eval_metric not in METRICS:
            raise InvalidConfigError(
                f"eval_metric must be one of {METRICS}, got {self.eval_metric!r}"
            )
        if self.init_scale <= 0.0:
            raise InvalidConfigError(f"init_scale must be > 0, got {self.init_scale}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise InvalidConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        if self.uniformity_t <= 0.0:
            raise InvalidConfigError(f"uniformity_t must be > 0, got {self.uniformity_t}")
        cosine_lr(0, 1, self.lr0, self.lr_min)  # the schedule's and the optimizer's own rules
        OptimState(momentum=self.momentum, weight_decay=self.weight_decay)


def dataset_seed(seed: int) -> int:
    """The one seed rule: run seed s trains on dataset seed 1000 s + 17 (library and CLI)."""
    if seed < 0:
        raise InvalidConfigError(f"run seed must be >= 0, got {seed}")
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
        _write_csv(path, "iter,loss,lr,n_non", "{},{:.17g},{:.17g},{}",
                   zip(*(s.tolist() for s in (self.iters, self.losses, self.lrs, self.n_non))))

    def write_eval_csv(self, path) -> None:
        series = (self.eval_iters, self.rank1, self.uniformity, self.kappa_hat, self.inter_intra)
        _write_csv(path, "iter,rank1,uniformity,kappa_hat,inter_intra",
                   "{}" + ",{:.17g}" * 4, zip(*(s.tolist() for s in series)))


def holdout_split(labels, fraction: float, rng: np.random.Generator):
    """Per-class split into train / gallery / probe row indices.

    Each class holds out max(2, round(fraction * count)) rows, alternating
    between gallery and probe so both sides see every class.
    """
    labels = _int_labels(labels)
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


def _loss_and_grads(model: ModelParams, features, labels, loss_cfg, variant, grads):
    """The step's loss result; the parameter gradients go into the arrays of ``grads``."""
    embeddings, cache = _forward_cached(model, features)
    # unchecked: the forward pass fixes the shapes, sample_pk the [N, K] layout, and the
    # loss result's finiteness check also catches overflow inside a loss on finite rows
    batch = _unchecked_batch(embeddings, labels)
    result = LOSSES[_VARIANT_LOSSES[variant]](batch, loss_cfg, model.head)
    _backward(model, cache, result.grad, grads)
    if result.head_grad_weight is not None:  # a loss without a head term leaves the head's gradient zero
        grads["head_weight"][...], grads["head_bias"][...] = result.head_grad_weight, result.head_grad_bias
    return result


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    """The init, batch and split generators of run seed ``seed``, in their fixed spawn order."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))


def split_rows(config: TrainConfig, labels):
    """The run's (train, gallery, probe) rows, drawn from its split stream."""
    return holdout_split(labels, config.holdout_fraction, _streams(config.seed)[2])


def snapshot_rows(seed: int, spec: BatchSpec, labels) -> np.ndarray:
    """Rows of the one PK batch that ``train`` snapshots and ``export-sim`` writes."""
    # not through training.sample_pk, which the benchmark's step clock hooks per step
    return batching.sample_pk(pk_index(labels, spec),
                              np.random.default_rng(np.random.SeedSequence([seed, 7])))


def evaluate(model: ModelParams, dataset, gallery_rows, probe_rows,
             config: TrainConfig) -> tuple[float, GeometryReport]:
    """Held-out rank-1 and the geometry of the gallery + probe embeddings."""
    gal = model_forward(model, dataset.features[gallery_rows])
    pro = model_forward(model, dataset.features[probe_rows])
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
    grad = np.zeros_like(model.flat)
    grads = model.views(grad)
    state = OptimState(momentum=config.momentum, weight_decay=config.weight_decay)
    pk = pk_index(dataset.labels[train_rows], config.batch)
    snap_set = set(int(s) for s in snapshot_iters)
    snap_rows = snapshot_rows(config.seed, config.batch, dataset.labels) if snap_set else None
    snapshots: dict[int, EmbeddingBatch] = {}
    n = config.total_iters
    losses, lrs, n_non = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    eval_rows = []

    def boundary(iteration: int):
        """Evaluate when the schedule says so and snapshot when asked, after ``iteration`` steps."""
        if iteration % config.eval_interval == 0 or iteration == n:
            try:
                r1, geo = evaluate(model, dataset, gallery_rows, probe_rows, config)
            except NonFiniteError as exc:
                raise DivergenceError(f"non-finite embeddings at iteration {iteration}: {exc}") from exc
            eval_rows.append((iteration, r1, geo.uniformity, geo.kappa_hat, geo.inter_intra_ratio))
        if iteration in snap_set:
            emb = model_forward(model, dataset.features[snap_rows])
            snapshots[iteration] = EmbeddingBatch(emb, dataset.labels[snap_rows])

    boundary(0)
    for step in range(n):
        lrs[step] = lr = cosine_lr(step, n, config.lr0, config.lr_min)
        rows = train_rows[sample_pk(pk, batch_rng)]
        try:
            result = _loss_and_grads(model, dataset.features[rows], dataset.labels[rows],
                                     config.loss, config.variant, grads)
        except NonFiniteError as exc:
            raise DivergenceError(f"non-finite loss at iteration {step}: {exc}") from exc
        sgd_update(model.flat, grad, state, lr)
        losses[step], n_non[step] = result.value, result.n_non
        boundary(step + 1)

    eval_iters, *eval_columns = np.array(eval_rows, dtype=np.float64).T
    report = TrainReport(np.arange(n, dtype=np.int64), losses, lrs, n_non,
                         eval_iters.astype(np.int64), *eval_columns, model.digest())
    return report, model, dataset, (train_rows, gallery_rows, probe_rows), snapshots


def train(config: TrainConfig) -> TrainReport:
    """Run the configured training and return its report."""
    return run_training(config)[0]


def save_model(model: ModelParams, path) -> None:
    """The param_dict arrays as JSON, a missing hidden layer as nulls; float repr keeps every bit."""
    payload = {"hidden_weight": None, "hidden_bias": None}
    payload.update((name, arr.tolist()) for name, arr in model.param_dict().items())
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="ascii")


def load_model(path) -> ModelParams:
    """The model save_model wrote; a null or absent hidden layer reads as none, any other name is refused."""
    try:
        payload = json.loads(Path(path).read_text(encoding="ascii"))
        if not isinstance(payload, dict):
            raise TypeError("top level must be a JSON object")
        arrays = {name: None if value is None else np.array(value) for name, value in payload.items()}
        return ModelParams(head=ClassifierHead(arrays.pop("head_weight"), arrays.pop("head_bias")), **arrays)
    except (KeyError, TypeError, ValueError) as exc:  # no JSON object; a ragged, missing or unknown array
        raise InvalidConfigError(f"{path} is not a saved model: {exc}") from exc
