"""Training loop components: the affine-tanh model, hand-written backprop,
momentum SGD with coupled weight decay, the cosine schedule, holdout
splitting, and bit-exact reproducibility of full runs.

Backprop is checked against central finite differences on every parameter
coordinate; the optimizer against a frozen two-step hand trace.
"""

import json
import math
import re

import numpy as np
import pytest

from metriclab import (
    BatchSpec,
    ClassifierHead,
    DatasetSpec,
    EmbeddingBatch,
    LossConfig,
    ModelParams,
    OptimState,
    TrainConfig,
    cosine_lr,
    gen_dataset,
    holdout_split,
    load_model,
    model_forward,
    pk_index,
    reference_train_config,
    run_training,
    sample_pk,
    save_model,
    sgd_update,
    train,
)
from metriclab import losses
from metriclab.errors import (
    DegenerateVectorError,
    DimensionMismatchError,
    DivergenceError,
    InvalidConfigError,
)
from metriclab.training import (
    _VARIANT_LOSSES,
    _backward,
    _forward_cached,
    _loss_and_grads,
    snapshot_rows,
    split_rows,
)


def _label_scan_loop(config):
    """run_training's step loop as it was built before the per-run PK index
    and the flat parameter and gradient vectors: an index built from the
    labels at every draw, a batch whose [N, K] class-block layout is checked
    here, its own gradient array per parameter (a head gradient the loss does
    not return is zero), and one sgd_update per parameter array, each with its
    own momentum buffer.  Evaluation draws no random numbers, so it is left
    out.  Returns (digest, losses, n_non)."""
    dataset = gen_dataset(config.dataset)
    init_rng, batch_rng, _ = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(config.seed).spawn(3))
    train_rows = split_rows(config, dataset.labels)[0]
    model = ModelParams.init(init_rng, dataset.dim, config.embed_dim, config.dataset.n_classes,
                             config.hidden_dim, config.init_scale)
    params = model.param_dict()
    states = {name: OptimState(momentum=config.momentum, weight_decay=config.weight_decay)
              for name in params}
    losses_, n_non = [], []
    for step in range(config.total_iters):
        lr = cosine_lr(step, config.total_iters, config.lr0, config.lr_min)
        rows = train_rows[sample_pk(pk_index(dataset.labels[train_rows], config.batch), batch_rng)]
        embeddings, cache = _forward_cached(model, dataset.features[rows])
        blocks = dataset.labels[rows].reshape(config.batch.n_classes, config.batch.samples_per_class)
        assert np.all(blocks == blocks[:, :1]) and np.unique(blocks[:, 0]).size == blocks.shape[0]
        batch = EmbeddingBatch(embeddings, dataset.labels[rows])
        result = losses.LOSSES[_VARIANT_LOSSES[config.variant]](batch, config.loss, model.head)
        grads = {name: np.empty_like(param) for name, param in params.items()}
        _backward(model, cache, result.grad, grads)
        grads["head_weight"] = (result.head_grad_weight if result.head_grad_weight is not None
                                else np.zeros_like(model.head.weight))
        grads["head_bias"] = (result.head_grad_bias if result.head_grad_bias is not None
                              else np.zeros_like(model.head.bias))
        for name, param in params.items():
            sgd_update(param, grads[name], states[name], lr)
        losses_.append(result.value)
        n_non.append(result.n_non)
    return model.digest(), np.asarray(losses_), np.asarray(n_non, dtype=np.int64)


def _small_dataset_spec(seed=3):
    return DatasetSpec(n_classes=4, subclusters_per_class=1, samples_per_subcluster=10,
                       input_dim=6, class_kappa=20.0, subcluster_kappa=60.0, seed=seed)


def _small_config(**overrides):
    base = dict(
        dataset=_small_dataset_spec(), batch=BatchSpec(2, 2), loss=LossConfig(margin=0.2),
        variant="triplet_only", total_iters=30, eval_interval=10,
        seed=0, embed_dim=4, init_scale=1.0)
    base.update(overrides)
    return TrainConfig(**base)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        """lr0 at step 0, lr_min at the last step, their average halfway."""
        assert cosine_lr(0, 10000) == 0.1
        np.testing.assert_allclose(cosine_lr(10000, 10000), 1e-4, atol=1e-18)
        np.testing.assert_allclose(cosine_lr(5000, 10000), 0.05005, atol=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 100) for s in range(101)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_step_outside_range_rejected(self):
        with pytest.raises(ValueError, match=r"step 11 outside \[0, 10\]"):
            cosine_lr(11, 10)

    def test_bad_rates_rejected(self):
        with pytest.raises(InvalidConfigError):
            cosine_lr(0, 10, lr0=0.1, lr_min=0.2)

    @pytest.mark.parametrize("step, lr0, lr_min", [(0, math.nan, 1e-4), (3, 0.1, math.nan)],
                             ids=["nan-lr0", "nan-lr-min"])
    def test_nan_rates_rejected(self, step, lr0, lr_min):
        """A NaN failed none of the comparisons the check made, so the schedule returned nan."""
        with pytest.raises(InvalidConfigError, match="need 0 <= lr_min <= lr0 and lr0 > 0"):
            cosine_lr(step, 10, lr0=lr0, lr_min=lr_min)


class TestSgdUpdate:
    def test_two_step_hand_trace(self):
        """Frozen arithmetic: g = grad + wd*p, buf = mom*buf + g, p -= lr*buf."""
        w = np.array([1.0, 2.0])
        grad = np.array([0.5, -1.0])
        state = OptimState(momentum=0.5, weight_decay=0.1)
        sgd_update(w, grad, state, lr=0.1)
        np.testing.assert_allclose(w, [0.94, 2.08], atol=1e-15)
        sgd_update(w, grad, state, lr=0.1)
        np.testing.assert_allclose(w, [0.8506, 2.1992], atol=1e-15)
        np.testing.assert_allclose(state.buffer, [0.894, -1.192], atol=1e-15)

    def test_no_momentum_no_decay_is_plain_gradient_descent(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        moved = w.copy()
        sgd_update(moved, g, OptimState(momentum=0.0, weight_decay=0.0), lr=0.05)
        np.testing.assert_array_equal(moved, w - 0.05 * g)

    def test_updates_happen_in_place(self):
        w = np.array([1.0])
        sgd_update(w, np.array([1.0]), OptimState(0.0, 0.0), lr=1.0)
        assert w[0] == 0.0  # the caller's array moved

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sgd_update(np.ones(2), np.ones(3), OptimState(), lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(InvalidConfigError):
            sgd_update(np.ones(2), np.ones(2), OptimState(), lr=-0.1)

    def test_nan_lr_rejected_before_the_step(self):
        """A NaN lr passed ``lr < 0`` and turned every parameter into NaN."""
        w = np.ones(2)
        with pytest.raises(InvalidConfigError, match="lr must be >= 0, got nan"):
            sgd_update(w, np.ones(2), OptimState(), lr=math.nan)
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_optim_state_validation(self):
        with pytest.raises(InvalidConfigError):
            OptimState(momentum=1.0)
        with pytest.raises(InvalidConfigError):
            OptimState(weight_decay=-0.1)
        with pytest.raises(InvalidConfigError, match="weight_decay must be a finite real number, got nan"):
            OptimState(weight_decay=math.nan)


class TestModelParams:
    def test_init_shapes(self):
        rng = np.random.default_rng(41)
        model = ModelParams.init(rng, input_dim=6, embed_dim=4, n_classes=3, hidden_dim=5)
        assert model.hidden_weight.shape == (5, 6)
        assert model.embed_weight.shape == (4, 5)
        assert model.head.weight.shape == (3, 4)
        assert model.input_dim == 6

    def test_param_dict_exposes_live_views(self):
        rng = np.random.default_rng(42)
        model = ModelParams.init(rng, 3, 2, 2)
        model.param_dict()["embed_bias"][0] = 7.5
        assert model.embed_bias[0] == 7.5

    @pytest.mark.parametrize("hidden_dim", [None, 5])
    def test_construction_packs_the_arrays_into_one_vector(self, hidden_dim, tmp_path):
        """Every param_dict array, the head's included, is a view of model.flat at
        its place in param_dict order, with the values it was built from; a
        saved and reloaded model is packed the same way and keeps the digest."""
        rng = np.random.default_rng(47)
        shapes = {"embed_weight": (4, hidden_dim or 6), "embed_bias": (4,),
                  "head_weight": (3, 4), "head_bias": (3,)}
        if hidden_dim is not None:
            shapes.update(hidden_weight=(5, 6), hidden_bias=(5,))
        given = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        head = ClassifierHead(given["head_weight"], given["head_bias"])
        model = ModelParams(head=head, **{k: v for k, v in given.items() if not k.startswith("head")})
        digest = model.digest()
        save_model(model, tmp_path / "model.json")
        for m in (model, load_model(tmp_path / "model.json")):
            assert m.flat.dtype == np.float64 and m.flat.flags.c_contiguous and m.digest() == digest
            assert list(m.param_dict()) == list(shapes)
            offset = 0
            for name, arr in m.param_dict().items():
                np.testing.assert_array_equal(arr, given[name])
                assert arr.base is m.flat and arr.ctypes.data == m.flat.ctypes.data + 8 * offset, name
                offset += arr.size
            assert offset == m.flat.size
            m.flat += 1.0
            for name, arr in m.param_dict().items():
                np.testing.assert_array_equal(arr, given[name] + 1.0)

    def test_digest_tracks_parameter_changes(self):
        rng = np.random.default_rng(43)
        model = ModelParams.init(rng, 3, 2, 2)
        before = model.digest()
        model.embed_weight[0, 0] += 1.0
        assert model.digest() != before

    def test_hidden_layer_needs_weight_and_bias_together(self):
        head = ClassifierHead(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            ModelParams(np.eye(2), np.zeros(2), head, hidden_weight=np.eye(2))

    def test_head_must_accept_embedding_dim(self):
        head = ClassifierHead(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            ModelParams(np.eye(2), np.zeros(2), head)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(44)
        model = ModelParams.init(rng, 5, 3, 4, hidden_dim=6, scale=0.7)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.digest() == model.digest()
        np.testing.assert_array_equal(loaded.hidden_weight, model.hidden_weight)

    def test_save_load_without_hidden_layer(self, tmp_path):
        rng = np.random.default_rng(45)
        model = ModelParams.init(rng, 3, 2, 2)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).hidden_weight is None

    @pytest.mark.parametrize("name, value, reason", [
        ("extra", [1.0], "extra"), ("embed_bias", "drop", "embed_bias"), ("head_weight", "drop", "head_weight"),
        ("embed_weight", [[1.0, 2.0], [3.0]], "inhomogeneous"),
        (None, "[1.0, 2.0]", "top level must be a JSON object"), (None, "not json", "Expecting value")])
    def test_load_refuses_what_save_model_does_not_write(self, name, value, reason, tmp_path):
        """A missing array, a name ModelParams does not take, a ragged array, a JSON list
        or text that is no JSON is an InvalidConfigError that names the file, so the CLI
        reports it in one line, not a traceback.  With no name, value is the whole file."""
        path = tmp_path / "model.json"
        save_model(ModelParams.init(np.random.default_rng(46), 3, 2, 2), path)
        payload = json.loads(path.read_text(encoding="ascii"))
        if name is None:
            path.write_text(value, encoding="ascii")
        else:
            if value == "drop":
                del payload[name]
            else:
                payload[name] = value
            path.write_text(json.dumps(payload), encoding="ascii")
        with pytest.raises(InvalidConfigError, match=re.escape(f"{path} is not a saved model: ") + f".*{reason}"):
            load_model(path)


class TestModelForward:
    def test_identity_affine_passes_inputs_through(self):
        head = ClassifierHead(np.zeros((3, 2)), np.zeros(3))
        model = ModelParams(np.eye(2), np.zeros(2), head)
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(model_forward(model, features), features)

    def test_wrong_feature_width_rejected(self):
        head = ClassifierHead(np.zeros((3, 2)), np.zeros(3))
        model = ModelParams(np.eye(2), np.zeros(2), head)
        with pytest.raises(DimensionMismatchError):
            model_forward(model, np.ones((4, 5)))

    @pytest.mark.parametrize("variant", ["triplet_only", "combined_simce"])
    def test_parameter_gradients_match_finite_differences(self, variant):
        """Hand-written backprop through tanh-affine agrees with central
        differences on every parameter coordinate.  margin=5 keeps every
        hinge strictly active so the loss is smooth at the test point."""
        rng = np.random.default_rng(46)
        model = ModelParams.init(rng, input_dim=3, embed_dim=3, n_classes=2,
                                 hidden_dim=4, scale=0.8)
        features = rng.standard_normal((4, 3))
        labels = np.array([0, 0, 1, 1])
        cfg = LossConfig(margin=5.0)
        grads = model.views(np.zeros_like(model.flat))
        _loss_and_grads(model, features, labels, cfg, variant, grads)
        scratch = model.views(np.zeros_like(model.flat))
        h = 1e-6
        for name, param in model.param_dict().items():
            numeric = np.zeros_like(param)
            flat = param.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = _loss_and_grads(model, features, labels, cfg, variant, scratch).value
                flat[k] = orig - h
                down = _loss_and_grads(model, features, labels, cfg, variant, scratch).value
                flat[k] = orig
                numeric.reshape(-1)[k] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-5, atol=1e-7,
                                       err_msg=f"{variant}: parameter {name}")


class TestHoldoutSplit:
    def test_partition_properties(self):
        """Train, gallery, and probe are disjoint, sorted, cover every row,
        and gallery and probe both contain every class."""
        rng = np.random.default_rng(51)
        labels = np.repeat(np.arange(4), 10)
        train_rows, gallery_rows, probe_rows = holdout_split(labels, 0.2, rng)
        combined = np.concatenate([train_rows, gallery_rows, probe_rows])
        np.testing.assert_array_equal(np.sort(combined), np.arange(40))
        for part in (train_rows, gallery_rows, probe_rows):
            np.testing.assert_array_equal(part, np.sort(part))
        assert set(labels[gallery_rows]) == set(range(4))
        assert set(labels[probe_rows]) == set(range(4))

    def test_holds_out_at_least_two_rows_per_class(self):
        rng = np.random.default_rng(52)
        labels = np.repeat(np.arange(3), 100)
        _, gallery_rows, probe_rows = holdout_split(labels, 0.01, rng)
        # 1% of 100 rounds to 1, but the floor of 2 applies: 1 gallery + 1 probe
        assert len(gallery_rows) == 3 and len(probe_rows) == 3

    def test_class_with_no_training_rows_left_rejected(self):
        rng = np.random.default_rng(53)
        with pytest.raises(InvalidConfigError, match="class 1"):
            holdout_split(np.array([0, 0, 0, 0, 1, 1]), 0.2, rng)

    def test_split_rows_draw_from_the_third_stream_of_the_run_seed(self):
        """Init, batch, split is the spawn order; eval re-derives the split from it."""
        labels = np.repeat(np.arange(4), 10)
        split_rng = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[2])
        expected = holdout_split(labels, 0.2, split_rng)
        for got, want in zip(split_rows(_small_config(seed=5), labels), expected):
            np.testing.assert_array_equal(got, want)


class TestTrainConfig:
    def test_validation(self):
        good = _small_config()
        assert good.variant == "triplet_only"
        with pytest.raises(InvalidConfigError, match="variant"):
            _small_config(variant="simce_only")
        with pytest.raises(InvalidConfigError, match="eval_metric"):
            _small_config(eval_metric="manhattan")
        with pytest.raises(InvalidConfigError):
            _small_config(total_iters=-1)
        with pytest.raises(InvalidConfigError):
            _small_config(eval_interval=0)
        with pytest.raises(InvalidConfigError):
            _small_config(embed_dim=1)
        with pytest.raises(InvalidConfigError):
            _small_config(init_scale=0.0)
        with pytest.raises(InvalidConfigError):
            _small_config(holdout_fraction=1.0)
        with pytest.raises(InvalidConfigError):
            _small_config(lr0=0.01, lr_min=0.1)
        with pytest.raises(InvalidConfigError):
            _small_config(momentum=1.5)

    def test_negative_seeds_are_refused_naming_the_seed(self):
        """A negative seed is refused where it is set, not deep inside NumPy."""
        with pytest.raises(InvalidConfigError, match="seed must be >= 0, got -1"):
            _small_config(seed=-1)
        with pytest.raises(InvalidConfigError, match="run seed must be >= 0, got -1"):
            reference_train_config(seed=-1)

    @pytest.mark.parametrize("section, value", [("dataset", None), ("batch", (2, 2)),
                                                ("loss", {"margin": 0.2})])
    def test_sections_of_the_wrong_class_are_refused(self, section, value):
        """A None or raw section used to build and fail inside run_training
        with an AttributeError; it is refused where it is set, by name."""
        with pytest.raises(InvalidConfigError, match=f"^{section} must be a "):
            _small_config(**{section: value})
        if section == "dataset":
            with pytest.raises(InvalidConfigError, match="^dataset must be a DatasetSpec, got None"):
                TrainConfig(dataset=None, batch=None, loss=LossConfig(), total_iters=1)

    @pytest.mark.parametrize("field, value", [("total_iters", 4.5), ("embed_dim", 4.0),
                                              ("eval_interval", 2.5), ("seed", True),
                                              ("hidden_dim", 5.0), ("hidden_dim", False)])
    def test_integer_fields_refuse_floats_and_booleans(self, field, value):
        """A float count used to end in a TypeError inside the run, or a
        fractional eval schedule; a boolean seed trained as seed 1."""
        with pytest.raises(InvalidConfigError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            _small_config(**{field: value})

    @pytest.mark.parametrize("field, value", [("uniformity_t", math.inf), ("lr0", math.nan),
                                              ("lr_min", math.nan), ("weight_decay", math.inf),
                                              ("init_scale", True), ("momentum", False),
                                              ("init_scale", "1"), ("holdout_fraction", None)])
    def test_float_fields_refuse_non_finite_boolean_and_non_real_values(self, field, value):
        """An infinite uniformity_t trained with nan in every uniformity cell, a
        nan lr0 diverged at iteration 1, a boolean init_scale trained as 1.0 and
        a string one ended in a TypeError; each is refused where it is set."""
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"{field} must be a finite real number, got {value!r}")):
            _small_config(**{field: value})

    def test_float_fields_take_integers_and_numpy_floats(self):
        config = _small_config(init_scale=1, lr0=np.float64(0.1), uniformity_t=np.float32(2.0))
        assert config.init_scale == 1 and config.uniformity_t == 2.0

    def test_integer_fields_take_numpy_integers(self):
        ints = dict(total_iters=6, eval_interval=3, seed=1, embed_dim=4, hidden_dim=5)
        plain = train(_small_config(**ints))
        numpy_ints = train(_small_config(**{k: np.int64(v) for k, v in ints.items()}))
        assert numpy_ints.params_digest == plain.params_digest
        np.testing.assert_array_equal(numpy_ints.eval_iters, plain.eval_iters)

    def test_reference_config_pins(self):
        """The benchmark configuration is frozen; runs elsewhere must be
        comparable, so the exact numbers are part of the contract."""
        cfg = reference_train_config(variant="combined_simce", seed=3)
        assert cfg.dataset.n_classes == 32
        assert cfg.dataset.subclusters_per_class == 2
        assert cfg.dataset.samples_per_subcluster == 25
        assert cfg.dataset.input_dim == 32
        assert cfg.dataset.noise_fraction == 0.05
        assert cfg.dataset.seed == 3017
        assert cfg.batch == BatchSpec(8, 8)
        assert cfg.loss.margin == 0.6
        assert cfg.loss.normalize_for_simce is True
        assert cfg.variant == "combined_simce"
        assert cfg.total_iters == 5000
        assert cfg.embed_dim == 16 and cfg.hidden_dim == 64
        assert cfg.eval_metric == "cosine"
        assert cfg.seed == 3


class TestRunTraining:
    def test_report_shapes_and_schedule(self):
        config = _small_config()
        report, model, dataset, (train_rows, gallery_rows, probe_rows), _ = run_training(config)
        assert len(report.iters) == 30
        np.testing.assert_array_equal(report.iters, np.arange(30))
        expected_lrs = [cosine_lr(s, 30) for s in range(30)]
        np.testing.assert_array_equal(report.lrs, expected_lrs)
        assert np.all(np.isfinite(report.losses))
        np.testing.assert_array_equal(report.eval_iters, [0, 10, 20, 30])
        assert model.digest() == report.params_digest
        assert len(dataset.labels) == 40
        for got, want in zip((train_rows, gallery_rows, probe_rows),
                             split_rows(config, dataset.labels)):
            np.testing.assert_array_equal(got, want)

    def test_same_config_replays_bit_for_bit(self, tmp_path):
        """Two runs from one config agree in every array, the parameter
        digest, and the bytes of both CSV reports."""
        config = _small_config(variant="combined_simce", total_iters=20, eval_interval=7)
        first = run_training(config)[0]
        second = run_training(config)[0]
        assert first.params_digest == second.params_digest
        np.testing.assert_array_equal(first.losses, second.losses)
        np.testing.assert_array_equal(first.rank1, second.rank1)
        np.testing.assert_array_equal(first.uniformity, second.uniformity)
        for name, report in (("a", first), ("b", second)):
            report.write_curves_csv(tmp_path / f"curves_{name}.csv")
            report.write_eval_csv(tmp_path / f"evals_{name}.csv")
        assert (tmp_path / "curves_a.csv").read_bytes() == (tmp_path / "curves_b.csv").read_bytes()
        assert (tmp_path / "evals_a.csv").read_bytes() == (tmp_path / "evals_b.csv").read_bytes()

    def test_different_seeds_differ(self):
        a = run_training(_small_config(seed=0))[0]
        b = run_training(_small_config(seed=1))[0]
        assert a.params_digest != b.params_digest

    def test_zero_iterations_evaluates_the_initial_model(self):
        report = train(_small_config(total_iters=0))
        assert len(report.iters) == 0
        np.testing.assert_array_equal(report.eval_iters, [0])
        assert len(report.rank1) == 1

    def test_snapshots_at_requested_iterations(self):
        """Snapshots embed the seed's snapshot batch, drawn by the run itself."""
        config = _small_config(total_iters=4, eval_interval=2)
        _, model, dataset, _, snaps = run_training(config, snapshot_iters=(0, 4))
        assert sorted(snaps) == [0, 4]
        rows = snapshot_rows(config.seed, config.batch, dataset.labels)
        final = model_forward(model, dataset.features[rows])
        np.testing.assert_array_equal(snaps[4].data, final)
        np.testing.assert_array_equal(snaps[4].labels, dataset.labels[rows])
        assert not np.array_equal(snaps[0].data, snaps[4].data)

    def test_exploding_run_raises_divergence_error(self):
        """An absurd learning rate overflows the parameters within a few
        steps; the loop reports the iteration instead of emitting NaNs."""
        config = _small_config(loss=LossConfig(margin=10.0), total_iters=10,
                               eval_interval=100, lr0=1e200, lr_min=1e190)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                run_training(config)

    def test_overflow_inside_the_loss_on_finite_embeddings_raises_divergence_error(self):
        """Finite embeddings whose raw inner products (about 1e300) overflow
        once divided by a 1e-10 temperature: the step's batch is finite, so
        only the check on the loss result can stop iteration 0."""
        config = _small_config(variant="combined_simce", loss=LossConfig(temperature=1e-10),
                               init_scale=1e150, total_iters=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration 0: loss value is non-finite"):
                run_training(config)

    def test_overflowing_embeddings_at_the_first_evaluation_raise_divergence_error(self):
        """A 1e155 init scale gives finite embeddings whose squared norms
        overflow; the iteration-0 evaluation names the row and the overflow
        instead of failing a unit-norm check further down."""
        config = _small_config(variant="combined_simce", init_scale=1e155)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"iteration 0: embedding row \d+ has norm "
                                                      r"inf: float64 overflow"):
                run_training(config)

    def test_other_loss_errors_keep_their_type(self, monkeypatch):
        """Only non-finite values become DivergenceError: a zero-norm
        embedding row reaches the caller as itself, message intact."""
        def degenerate(batch, cfg, head):
            raise DegenerateVectorError("row 3 has zero norm; cosine scores are undefined")

        monkeypatch.setitem(losses.LOSSES, "triplet", degenerate)
        with pytest.raises(DegenerateVectorError, match="row 3 has zero norm"):
            run_training(_small_config())

    @pytest.mark.parametrize("variant", ["triplet_only", "combined_simce", "combined_m_simce"])
    @pytest.mark.parametrize("make_config", [
        lambda variant: _small_config(variant=variant, hidden_dim=5, total_iters=40),
        lambda variant: reference_train_config(variant, seed=1, total_iters=25, eval_interval=25),
    ], ids=["small", "reference"])
    def test_step_matches_the_per_step_label_scan_loop_bit_for_bit(self, variant, make_config):
        """The per-run PK index, the spec-free step batch and the flat
        parameter vector change no bit: a loop built the old way (index per
        draw, spec-checked batch, one sgd_update per array) gives the same
        digest, losses and n_non."""
        config = make_config(variant)
        report = run_training(config)[0]
        digest, losses_, n_non = _label_scan_loop(config)
        np.testing.assert_array_equal(report.losses, losses_)
        np.testing.assert_array_equal(report.n_non, n_non)
        assert report.params_digest == digest

    def test_loss_curve_descends_on_easy_data(self):
        """On clean well-separated data the tail of the loss curve should
        sit below the head."""
        config = _small_config(total_iters=200, eval_interval=100, seed=2)
        report = train(config)
        assert report.losses[-50:].mean() < report.losses[:50].mean()
