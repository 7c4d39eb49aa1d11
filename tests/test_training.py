"""Training loop components: the affine-tanh model, hand-written backprop,
momentum SGD with coupled weight decay, the cosine schedule, holdout
splitting, and bit-exact reproducibility of full runs.

Backprop is checked against central finite differences on every parameter
coordinate; the optimizer against a frozen two-step hand trace.
"""

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
    and the flat parameter vector: a label scan per draw, a spec-checked
    batch, and one sgd_update entry per parameter array.  Evaluation draws
    no random numbers, so it is left out.  Returns (digest, losses, n_non)."""
    dataset = gen_dataset(config.dataset)
    init_rng, batch_rng, _ = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(config.seed).spawn(3))
    train_rows = split_rows(config, dataset.labels)[0]
    model = ModelParams.init(init_rng, dataset.dim, config.embed_dim, config.dataset.n_classes,
                             config.hidden_dim, config.init_scale)
    params = model.param_dict()
    state = OptimState(momentum=config.momentum, weight_decay=config.weight_decay)
    losses_, n_non = [], []
    for step in range(config.total_iters):
        lr = cosine_lr(step, config.total_iters, config.lr0, config.lr_min)
        rows = train_rows[sample_pk(dataset.labels[train_rows], config.batch, batch_rng)]
        embeddings, cache = _forward_cached(model, dataset.features[rows])
        batch = EmbeddingBatch(embeddings, dataset.labels[rows], config.batch)
        result = losses.LOSSES[_VARIANT_LOSSES[config.variant]](batch, config.loss, model.head)
        grads = _backward(model, cache, result.grad)
        grads["head_weight"] = (result.head_grad_weight if result.head_grad_weight is not None
                                else np.zeros_like(model.head.weight))
        grads["head_bias"] = (result.head_grad_bias if result.head_grad_bias is not None
                              else np.zeros_like(model.head.bias))
        sgd_update(params, grads, state, lr)
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


class TestSgdUpdate:
    def test_two_step_hand_trace(self):
        """Frozen arithmetic: g = grad + wd*p, buf = mom*buf + g, p -= lr*buf."""
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -1.0])}
        state = OptimState(momentum=0.5, weight_decay=0.1)
        sgd_update(params, grads, state, lr=0.1)
        np.testing.assert_allclose(params["w"], [0.94, 2.08], atol=1e-15)
        sgd_update(params, grads, state, lr=0.1)
        np.testing.assert_allclose(params["w"], [0.8506, 2.1992], atol=1e-15)

    def test_no_momentum_no_decay_is_plain_gradient_descent(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        params = {"w": w.copy()}
        sgd_update(params, {"w": g}, OptimState(momentum=0.0, weight_decay=0.0), lr=0.05)
        np.testing.assert_array_equal(params["w"], w - 0.05 * g)

    def test_updates_happen_in_place(self):
        w = np.array([1.0])
        params = {"w": w}
        sgd_update(params, {"w": np.array([1.0])}, OptimState(0.0, 0.0), lr=1.0)
        assert w[0] == 0.0  # the caller's array moved

    def test_missing_gradient_rejected(self):
        with pytest.raises(DimensionMismatchError, match="w"):
            sgd_update({"w": np.ones(2)}, {}, OptimState(), lr=0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sgd_update({"w": np.ones(2)}, {"w": np.ones(3)}, OptimState(), lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(InvalidConfigError):
            sgd_update({"w": np.ones(2)}, {"w": np.ones(2)}, OptimState(), lr=-0.1)

    def test_optim_state_validation(self):
        with pytest.raises(InvalidConfigError):
            OptimState(momentum=1.0)
        with pytest.raises(InvalidConfigError):
            OptimState(weight_decay=-0.1)


class TestModelParams:
    def test_init_shapes(self):
        rng = np.random.default_rng(41)
        model = ModelParams.init(rng, input_dim=6, embed_dim=4, n_classes=3, hidden_dim=5)
        assert model.hidden_weight.shape == (5, 6)
        assert model.embed_weight.shape == (4, 5)
        assert model.head.weight.shape == (3, 4)
        assert model.input_dim == 6 and model.embed_dim == 4

    def test_param_dict_exposes_live_views(self):
        rng = np.random.default_rng(42)
        model = ModelParams.init(rng, 3, 2, 2)
        model.param_dict()["embed_bias"][0] = 7.5
        assert model.embed_bias[0] == 7.5

    @pytest.mark.parametrize("hidden_dim", [None, 5])
    def test_flatten_keeps_values_and_makes_the_arrays_views(self, hidden_dim):
        rng = np.random.default_rng(47)
        model = ModelParams.init(rng, 6, 4, 3, hidden_dim=hidden_dim)
        before = {name: arr.copy() for name, arr in model.param_dict().items()}
        digest = model.digest()
        flat = model.flatten()
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.size == sum(a.size for a in before.values())
        assert model.digest() == digest
        np.testing.assert_array_equal(
            flat, np.concatenate([before[n].ravel() for n in model.param_dict()]))
        for name, arr in model.param_dict().items():
            np.testing.assert_array_equal(arr, before[name])
            assert np.shares_memory(arr, flat), name
        flat += 1.0
        for name, arr in model.param_dict().items():
            np.testing.assert_array_equal(arr, before[name] + 1.0)

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


class TestModelForward:
    def test_identity_affine_passes_inputs_through(self):
        head = ClassifierHead(np.zeros((3, 2)), np.zeros(3))
        model = ModelParams(np.eye(2), np.zeros(2), head)
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        embeddings, logits = model_forward(model, features)
        np.testing.assert_array_equal(embeddings, features)
        np.testing.assert_array_equal(logits, np.zeros((2, 3)))

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
        _, grads = _loss_and_grads(model, features, labels, cfg, variant)
        h = 1e-6
        for name, param in model.param_dict().items():
            numeric = np.zeros_like(param)
            flat = param.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = _loss_and_grads(model, features, labels, cfg, variant)[0].value
                flat[k] = orig - h
                down = _loss_and_grads(model, features, labels, cfg, variant)[0].value
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
        final, _ = model_forward(model, dataset.features[rows])
        np.testing.assert_array_equal(snaps[4].data, final)
        np.testing.assert_array_equal(snaps[4].labels, dataset.labels[rows])
        assert snaps[4].batch_spec == config.batch
        assert not np.array_equal(snaps[0].data, snaps[4].data)

    def test_exploding_run_raises_divergence_error(self):
        """An absurd learning rate overflows the parameters within a few
        steps; the loop reports the iteration instead of emitting NaNs."""
        config = _small_config(loss=LossConfig(margin=10.0), total_iters=10,
                               eval_interval=100, lr0=1e200, lr_min=1e190)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
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
        parameter vector change no bit: a loop built the old way (label scan
        per draw, spec-checked batch, one sgd_update entry per array) gives
        the same digest, losses and n_non."""
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
