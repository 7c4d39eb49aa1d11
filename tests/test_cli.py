"""Command-line interface: subcommand exit codes, emitted artifacts, run
manifests, config-file validation, and byte-level reproducibility of the
train/eval round trip.

Commands run in-process through ``metriclab.cli.run`` so exit codes and
artifacts can be asserted directly; one subprocess test covers the
installed console script.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import metriclab
from metriclab import (cli, core, errors, gen_dataset, losses, reference_train_config, training,
                       write_dataset_csv)
from metriclab.analysis import RobustnessProbe
from metriclab.batching import BatchSpec
from metriclab.cli import ExperimentConfig, run
from metriclab.losses import LossConfig
from metriclab.synth import DatasetSpec, VmfParams
from metriclab.training import OptimState, TrainConfig, dataset_seed

TINY_CONFIG = {
    "seed": 0,
    "dataset": {
        "n_classes": 4, "subclusters_per_class": 1, "samples_per_subcluster": 10,
        "input_dim": 6, "class_kappa": 20.0, "subcluster_kappa": 60.0, "seed": 3,
    },
    "batch": {"n_classes": 2, "samples_per_class": 2},
    "loss": {"margin": 0.2},
    "train": {"variant": "triplet_only", "total_iters": 6, "eval_interval": 3,
              "embed_dim": 4, "init_scale": 1.0},
}


_SECTIONS = {"dataset": DatasetSpec, "batch": BatchSpec, "loss": LossConfig, "train": TrainConfig}
_PAST_FLOAT = 10**400  # an integer JSON carries and no float holds
# a wrong kind of value for a field of each declared type, each of which JSON carries
_WRONG_KINDS = {"int": (True, 4.0, "4", None), "int | None": (True, 4.0, "4"),
                "float": (True, "0.5", math.nan, math.inf, None, _PAST_FLOAT, -_PAST_FLOAT),
                "bool": (1, "no", None), "str": (1, None)}
# the TrainConfig fields the CLI fills from the other sections and the top-level seed
_TRAIN_OWN = ("dataset", "batch", "loss", "seed")
_WRONG_KIND_CASES = [(name, f.name, value) for name, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
                     if not (name == "train" and f.name in _TRAIN_OWN) for value in _WRONG_KINDS[f.type]]


def _value_id(value) -> str:
    """A case id's value: its repr, or the 401-digit _PAST_FLOAT as a power of ten."""
    return {_PAST_FLOAT: "10**400", -_PAST_FLOAT: "-10**400"}.get(value, repr(value))


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="ascii")
    return path


def _manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestCheckCommands:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out

    def test_gradcheck_covers_every_loss(self, tmp_path, capsys):
        out = tmp_path / "grad"
        assert run(["gradcheck", "--trials", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert [r["loss"] for r in report["results"]] == [
            "triplet", "s_triplet", "simce", "m_simce", "ce",
            "combined_simce", "combined_m_simce"]
        assert all(r["max_rel_error"] <= 1e-6 for r in report["results"])
        manifest = _manifest(out)
        assert manifest["subcommand"] == "gradcheck"
        assert manifest["artifacts"] == ["report.json"]
        assert len(manifest["config_sha256"]) == 64

    def test_gradcheck_single_loss(self, tmp_path):
        out = tmp_path / "grad"
        assert run(["gradcheck", "--loss", "simce", "--trials", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["loss"] for r in report["results"]] == ["simce"]

    def test_gradcheck_unknown_loss_is_usage_error(self, capsys):
        """The parser refuses the name, with the subcommand's usage and every
        name it takes, 'all' included."""
        assert run(["gradcheck", "--loss", "nosuch", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: metriclab gradcheck")
        assert "error: argument --loss: unknown loss 'nosuch'" in err
        assert all(f"'{name}'" in err for name in ("all",) + cli.LOSS_NAMES)

    def test_hessian_check(self, tmp_path, capsys):
        out = tmp_path / "hess"
        assert run(["hessian-check", "--trials", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        kinds = {p["kind"] for p in report["probes"]}
        assert kinds == {"triplet", "simce"}

    def test_hessian_check_seed_1(self, tmp_path):
        """Seed 1 draws a simce probe whose closed-form trace is 2.52e-3; second
        differences at h = 1e-4 missed it by 3.7e-6 of round-off, 1.47e-3 relative,
        and failed the run.  The probe's step keeps round-off inside the 1e-3
        tolerance without widening it."""
        out = tmp_path / "hess"
        assert run(["hessian-check", "--seed", "1", "--out", str(out)]) == 0
        probes = json.loads((out / "report.json").read_text())["probes"]
        closest = min((p for p in probes if p["kind"] == "simce"), key=lambda p: p["closed_form"])
        assert abs(closest["closed_form"] - 2.52e-3) < 5e-5
        assert closest["rel_error"] <= 1e-4

    def test_robustness_check_passes_at_full_sample_count(self, tmp_path):
        out = tmp_path / "rob"
        assert run(["robustness-check", "--points", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True

    def test_robustness_check_starved_of_samples_exits_2(self, capsys):
        """50 Monte-Carlo draws cannot hit the 0.1% quadratic tolerance, so
        the command reports a numerical failure, not a usage error."""
        code = run(["robustness-check", "--points", "1", "--samples", "50", "--seed", "5"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_selftest_runs_the_shared_probes(self, monkeypatch, capsys):
        """A failing simce trace probe fails hessian-check and selftest alike,
        and selftest names that check and counts it."""
        probe = cli._simce_trace_probe
        monkeypatch.setattr(cli, "_simce_trace_probe",
                            lambda rng, dim: {**probe(rng, dim), "pass": False})
        assert run(["hessian-check", "--trials", "1"]) == 2
        assert "hessian-check: FAIL" in capsys.readouterr().out
        assert run(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL softmax trace + bound"]
        assert lines[-1] == "selftest: FAIL (1 of the checks)"

    @pytest.mark.parametrize("argv, payload", [
        (["gradcheck", "--loss", "combined-simce", "--trials", "2", "--seed", "3"],
         {"subcommand": "gradcheck", "loss": "combined-simce", "trials": 2, "seed": 3,
          "tolerance": 1e-6}),
        (["hessian-check", "--trials", "4", "--seed", "5"],
         {"subcommand": "hessian-check", "trials": 4, "seed": 5, "tolerance": 1e-3}),
        (["robustness-check", "--points", "1", "--samples", "2000", "--epsilon", "0.02",
          "--seed", "2"],
         {"subcommand": "robustness-check", "points": 1, "samples": 2000, "epsilon": 0.02,
          "seed": 2}),
        (["margin-check", "--trials", "2", "--seed", "9"],
         {"subcommand": "margin-check", "trials": 2, "seed": 9}),
    ], ids=["gradcheck", "hessian-check", "robustness-check", "margin-check"])
    def test_manifest_hashes_the_flags_the_check_ran_with(self, argv, payload, tmp_path):
        """config_sha256 is the hash of the subcommand, its flags bar --out, and
        the tolerance where the command records one; --loss is hashed as typed."""
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) in (0, 2)  # 2000 draws may miss the 1e-3 control
        manifest = _manifest(out)
        assert manifest["config_sha256"] == cli._sha256_of(payload)
        assert manifest["seed"] == payload["seed"]

    def test_margin_check(self, tmp_path):
        out = tmp_path / "margin"
        assert run(["margin-check", "--trials", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["max_excess"] <= 1e-12  # rounding slack near z = -20
        assert len(report["margins"]) == 2
        assert all(m["margin"] >= 2.0 for m in report["margins"])


class TestDataCommands:
    def test_gen_data_writes_dataset_and_manifest(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header == "label,subcluster,noise," + ",".join(f"f{i}" for i in range(6))
        assert _manifest(out)["artifacts"] == ["dataset.csv"]
        assert "40 rows" in capsys.readouterr().out

    def test_gen_data_is_deterministic(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["gen-data", "--config", str(tiny_config), "--out", str(out_a)])
        run(["gen-data", "--config", str(tiny_config), "--out", str(out_b)])
        assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()

    def test_gen_data_seed_override_reaches_the_dataset(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["gen-data", "--config", str(tiny_config), "--out", str(out_a)])
        run(["gen-data", "--config", str(tiny_config), "--seed", "9", "--out", str(out_b)])
        assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()
        assert _manifest(out_b)["seed"] == 9
        assert _manifest(out_b)["config_sha256"] != _manifest(out_a)["config_sha256"]

    def test_gen_data_writes_the_dataset_train_trains_on(self, tiny_config, tmp_path, monkeypatch):
        """One seed rule: `gen-data --seed 3` and `train --seed 3` see the same
        data, and `train` generates it once."""
        made = []

        def recording(spec):
            made.append((spec, gen_dataset(spec)))
            return made[-1][1]

        monkeypatch.setattr(training, "gen_dataset", recording)
        monkeypatch.setattr(cli, "gen_dataset", recording)
        data_dir, run_dir = tmp_path / "data", tmp_path / "run"
        assert run(["gen-data", "--config", str(tiny_config), "--seed", "3",
                    "--out", str(data_dir)]) == 0
        assert len(made) == 1
        assert run(["train", "--config", str(tiny_config), "--seed", "3",
                    "--out", str(run_dir)]) == 0
        assert len(made) == 2  # train generated its dataset exactly once
        spec, trained_on = made[1]
        assert spec.seed == dataset_seed(3)
        write_dataset_csv(trained_on, tmp_path / "trained_on.csv")
        assert (tmp_path / "trained_on.csv").read_bytes() == (data_dir / "dataset.csv").read_bytes()
        for out in (data_dir, run_dir):
            assert _manifest(out)["seed"] == 3
        assert _manifest(data_dir)["config_sha256"] == _manifest(run_dir)["config_sha256"]


class TestTrainEvalRoundTrip:
    def test_train_writes_all_artifacts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
        expected = ["curves.csv", "evals.csv", "manifest.json", "model.json",
                    "sim_end.csv", "sim_mid.csv", "sim_start.csv"]
        assert sorted(p.name for p in out.iterdir()) == expected
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "iter,loss,lr,n_non"
        assert len(curves) == 1 + 6
        evals = (out / "evals.csv").read_text().splitlines()
        assert evals[0] == "iter,rank1,uniformity,kappa_hat,inter_intra"
        assert [int(line.split(",")[0]) for line in evals[1:]] == [0, 3, 6]
        assert "train: triplet_only for 6 iterations" in capsys.readouterr().out
        # deterministic, so the manifest stays byte-identical across reruns
        assert _manifest(out)["versions"] == {
            "metriclab": metriclab.__version__, "numpy": np.__version__, "scipy": scipy.__version__}

    def test_train_is_byte_reproducible(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["train", "--config", str(tiny_config), "--out", str(out_a)])
        run(["train", "--config", str(tiny_config), "--out", str(out_b)])
        for name in ("curves.csv", "evals.csv", "model.json",
                     "sim_start.csv", "sim_mid.csv", "sim_end.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_eval_reads_a_trained_model(self, tiny_config, tmp_path):
        for tag, seed_args in (("config", []), ("override", ["--seed", "3"])):
            run_dir, eval_dir = tmp_path / f"run_{tag}", tmp_path / f"eval_{tag}"
            run(["train", "--config", str(tiny_config), "--out", str(run_dir)] + seed_args)
            code = run(["eval", "--config", str(tiny_config), "--model", str(run_dir / "model.json"),
                        "--out", str(eval_dir)] + seed_args)
            assert code == 0
            metrics = json.loads((eval_dir / "metrics.json").read_text())
            assert set(metrics) == {"rank1", "uniformity", "kappa_hat", "intra_class_dist",
                                    "inter_class_dist", "inter_intra_ratio", "degenerate_classes"}
            assert 0.0 <= metrics["rank1"] <= 1.0
            # the final in-run evaluation and the standalone eval see the same
            # data and split, so every number agrees to the last bit
            evals = (run_dir / "evals.csv").read_text().splitlines()[-1].split(",")
            assert [metrics[k] for k in ("rank1", "uniformity", "kappa_hat", "inter_intra_ratio")] \
                == [float(v) for v in evals[1:]], tag

    def test_export_sim_with_and_without_model(self, tiny_config, tmp_path):
        run_dir = tmp_path / "run"
        run(["train", "--config", str(tiny_config), "--out", str(run_dir)])
        raw_dir, emb_dir = tmp_path / "raw", tmp_path / "emb"
        assert run(["export-sim", "--config", str(tiny_config), "--out", str(raw_dir)]) == 0
        assert run(["export-sim", "--config", str(tiny_config), "--out", str(emb_dir),
                    "--model", str(run_dir / "model.json"), "--kind", "cosine_over_max"]) == 0
        raw_header = (raw_dir / "sim.csv").read_text().splitlines()[0]
        emb_header = (emb_dir / "sim.csv").read_text().splitlines()[0]
        assert raw_header == "# kind=cosine B=4"
        assert emb_header == "# kind=cosine_over_max B=4"
        assert (raw_dir / "sim.csv").read_bytes() != (emb_dir / "sim.csv").read_bytes()


class TestUsageAndConfigErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["train"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_train_needs_out(self, tiny_config, capsys):
        assert run(["train", "--config", str(tiny_config)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="ascii")
        assert run(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = dict(TINY_CONFIG, optimizer={"kind": "adam"})
        bad.write_text(json.dumps(payload), encoding="ascii")
        assert run(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'optimizer'" in capsys.readouterr().err

    def test_probe_section_is_an_unknown_key(self, tmp_path, capsys):
        """No command reads a probe section, so a config that sets one is refused."""
        bad = tmp_path / "bad.json"
        payload = dict(TINY_CONFIG, probe={"epsilon": 0.01, "n_samples": 1000, "seed": 0})
        bad.write_text(json.dumps(payload), encoding="ascii")
        assert run(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'probe'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, message", [
        ("gen-data", {k: v for k, v in TINY_CONFIG.items() if k != "dataset"},
         "config has no 'dataset' section"),
        ("train", dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"], total_iters=-1)),
         "total_iters must be >= 0, got -1"),
        # JSON booleans are Python ints; a true seed would train as seed 1
        ("train", dict(TINY_CONFIG, seed=True), "seed must be an integer, got true"),
        ("gen-data", dict(TINY_CONFIG, seed=False), "seed must be an integer, got false"),
        ("train", dict(TINY_CONFIG, seed=-1), "seed must be >= 0, got -1"),
        # gen-data reads the dataset's own seed, so only the config check refuses this one
        ("gen-data", dict(TINY_CONFIG, seed=-3), "seed must be >= 0, got -3"),
        # the dataset's own seed: a float reached the generator as a TypeError traceback
        ("gen-data", dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], seed=1.5)),
         "seed must be an integer, got 1.5"),
        ("train", dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], seed=True)),
         "seed must be an integer, got True"),
        # a train section is checked with the file, so it needs both of the sections it trains on
        ("gen-data", {k: v for k, v in TINY_CONFIG.items() if k != "batch"},
         "config has no 'batch' section, which 'train' needs"),
        ("train", {k: v for k, v in TINY_CONFIG.items() if k != "dataset"},
         "config has no 'dataset' section, which 'train' needs"),
    ], ids=["gen-data-without-dataset", "train-with-negative-iters", "train-with-seed-true",
            "gen-data-with-seed-false", "train-with-negative-seed", "gen-data-with-negative-seed",
            "gen-data-with-dataset-seed-1.5", "train-with-dataset-seed-true",
            "gen-data-with-train-but-no-batch", "train-without-dataset"])
    def test_refused_config_creates_no_out_directory(self, command, payload, message,
                                                     tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="ascii")
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and err.splitlines()[-1].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, section, change, message", [
        ("gen-data", "dataset", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("gen-data", "dataset", {"input_dim": None}, "missing key 'input_dim'"),
        ("train", "batch", {"samples_per_class": None}, "missing key 'samples_per_class'"),
        ("train", "loss", {"margin": "0.6"}, "margin must be a finite real number, got '0.6'"),
        ("train", "loss", {"temperature": 0.0}, "temperature must be finite and > 0, got 0.0"),
        ("train", "train", {"total_iters": "10"}, "total_iters must be an integer, got '10'"),
        # the train section is checked with the file, whatever the command
        ("gen-data", "train", {"variant": "nope"}, "variant must be one of ('triplet_only', "
         "'combined_simce', 'combined_m_simce'), got 'nope'"),
    ], ids=["dataset-seed-1.5", "dataset-without-input-dim", "batch-without-samples-per-class",
            "margin-as-a-string", "zero-temperature", "total-iters-as-a-string", "unknown-variant"])
    def test_section_errors_name_the_file_and_the_section(self, command, section, change, message,
                                                          tmp_path, capsys):
        """One error line and exit 1.  A missing key or a wrongly typed value used
        to end in a TypeError traceback, and a section's own errors did not say
        which file or section they came from.  A None in ``change`` drops the key."""
        changed = {k: v for k, v in dict(TINY_CONFIG[section], **change).items() if v is not None}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, **{section: changed})), encoding="ascii")
        assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: config section '{section}': {message}\n"

    def test_unknown_key_inside_a_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = dict(TINY_CONFIG, batch={"n_classes": 2, "side": "left"})
        bad.write_text(json.dumps(payload), encoding="ascii")
        assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key 'side'" in capsys.readouterr().err

    def test_every_config_field_type_has_a_rule(self):
        """Each config class checks its fields with errors._check_fields, which
        passes over a field whose declared type has no rule in _FIELD_RULES.
        Every field of the seven classes has one, bar the arrays and sections
        that their classes check themselves."""
        classes = (BatchSpec, DatasetSpec, VmfParams, LossConfig, TrainConfig, OptimState, RobustnessProbe)
        own = {"VmfParams.mu", "OptimState.buffer",
               "TrainConfig.dataset", "TrainConfig.batch", "TrainConfig.loss"}
        assert [f"{cls.__name__}.{f.name}: {f.type}" for cls in classes for f in dataclasses.fields(cls)
                if f.type.removesuffix(" | None") not in errors._FIELD_RULES
                and f"{cls.__name__}.{f.name}" not in own] == []

    @pytest.mark.parametrize("section, field, value", _WRONG_KIND_CASES,
                             ids=[f"{s}.{f}={_value_id(v)}" for s, f, v in _WRONG_KIND_CASES])
    def test_library_and_cli_refuse_a_wrong_kind_with_one_message(self, section, field, value,
                                                                  tmp_path, capsys):
        """For every field of the four section classes: a bool for a number, an
        integral float for an integer, a string, nan, inf or an integer past the
        float range for a float, None where None is no value.  The library refuses it naming the field, and
        the CLI exits 1 with the same words after its prefix, before --out exists."""
        values = dict(TINY_CONFIG[section], **{field: value})
        built = {name: cls(**TINY_CONFIG[name]) for name, cls in _SECTIONS.items() if name != "train"}
        with pytest.raises(ValueError) as refused:
            _SECTIONS[section](**values, **(dict(built, seed=0) if section == "train" else {}))
        message = str(refused.value)
        assert message.startswith(f"{field} must be ")
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(dict(TINY_CONFIG, **{section: values})), encoding="ascii")
        assert run(["train", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: config section '{section}': {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("train", [None, "absent"])
    def test_null_or_absent_train_section_reads_as_empty(self, train, tmp_path):
        payload = {k: v for k, v in TINY_CONFIG.items() if k != "train"}
        if train != "absent":
            payload["train"] = train
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="ascii")
        config = ExperimentConfig.from_file(path)
        assert config.train == TrainConfig(dataset=config.dataset, batch=config.batch,
                                           loss=config.loss, seed=0)

    def test_dataset_only_config_generates_data_but_does_not_train(self, tmp_path, capsys):
        """No TrainConfig is built without a batch section: gen-data runs, and
        train is refused by the section guard."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 0, "dataset": TINY_CONFIG["dataset"]}), encoding="ascii")
        assert ExperimentConfig.from_file(path).train is None
        assert run(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert "config has no 'batch' section, which 'train' needs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "export-sim"])
    def test_every_command_names_the_section_it_lacks(self, command, tmp_path, capsys):
        """One guard words every missing section alike, naming the command that needs it."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 0, "dataset": TINY_CONFIG["dataset"]}), encoding="ascii")
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--model", str(tmp_path / "model.json"),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config has no 'batch' section, which '{command}' needs\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export-sim"])
    @pytest.mark.parametrize("text", ["[1.0, 2.0]", "not json", '{"embed_weight": [[1.0, 2.0], [3.0]]}'])
    def test_a_malformed_model_file_is_one_error_line(self, command, text, tiny_config, tmp_path, capsys):
        """A JSON list, text that is no JSON and a ragged array each exit 1 with one
        error line naming the file: no exception escapes run() as a traceback."""
        model = tmp_path / "model.json"
        model.write_text(text, encoding="ascii")
        assert run([command, "--config", str(tiny_config), "--model", str(model),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} is not a saved model: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["gen-data", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path / "o")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_capacity_problems_are_exit_1(self, tmp_path, capsys):
        payload = dict(TINY_CONFIG, batch={"n_classes": 8, "samples_per_class": 2})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="ascii")
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "the batch needs 8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, minimum", [
        (["gradcheck", "--trials", "0"], "--trials", 1),
        (["gradcheck", "--trials", "-1"], "--trials", 1),
        (["hessian-check", "--trials", "-3"], "--trials", 0),
        (["margin-check", "--trials", "-1"], "--trials", 0),
        (["robustness-check", "--points", "-2"], "--points", 0),
        (["robustness-check", "--samples", "0"], "--samples", 2),
        (["robustness-check", "--samples", "1"], "--samples", 2),
        (["gradcheck", "--seed", "-1"], "--seed", 0),
        (["hessian-check", "--seed", "-1"], "--seed", 0),
        (["robustness-check", "--seed", "-1"], "--seed", 0),
        (["margin-check", "--seed", "-1"], "--seed", 0),
        (["gen-data", "--config", "c.json", "--out", "o", "--seed", "-2"], "--seed", 0),
        (["train", "--config", "c.json", "--out", "o", "--seed", "-1"], "--seed", 0),
    ])
    def test_probe_counts_below_their_minimum_are_usage_errors(self, argv, flag, minimum,
                                                               tmp_path, monkeypatch, capsys):
        """A count that checks nothing (gradcheck), runs fewer probes than
        asked (negative counts) or a negative seed is refused before any
        probe runs or any file is read or written."""
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}: must be >= {minimum}, got {argv[-1]}" in captured.err
        assert "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("samples", ["3", "99999"])
    def test_odd_sample_counts_are_refused(self, samples, tmp_path, capsys):
        """Draws come in antithetic pairs; an odd count is refused, not rounded."""
        out = tmp_path / "rob"
        assert run(["robustness-check", "--samples", samples, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"even count >= 2 (draws come in antithetic pairs), got {samples}" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert not out.exists()

    def test_flag_error_prints_the_subcommand_usage(self, capsys):
        """The usage line comes from the subcommand that refused the flag, so
        it names the flag; the top-level usage lists only the subcommands."""
        assert run(["gradcheck", "--trials", "0"]) == 1
        usage = capsys.readouterr().err.split("error:")[0]
        assert usage.startswith("usage: metriclab gradcheck")
        assert "--trials" in usage

    @pytest.mark.parametrize("argv, message", [
        (["selftest", "--out", "selftest-out"], "unrecognized arguments: --out selftest-out"),
        (["gen-data", "--config", "configs/reference.json"],
         "the following arguments are required: --out"),
        (["export-sim", "--config", "configs/reference.json"],
         "the following arguments are required: --out"),
    ], ids=["selftest-takes-no-out", "gen-data-needs-out", "export-sim-needs-out"])
    def test_out_flag_is_taken_only_where_it_is_written(self, argv, message, tmp_path,
                                                        monkeypatch, capsys):
        """The data commands need --out; selftest writes nothing and refuses it.
        Both are refused while parsing, before any file is read or written."""
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_prints_the_top_level_usage(self, capsys):
        assert run(["frobnicate"]) == 1
        usage = capsys.readouterr().err.split("error:")[0]
        assert usage.startswith("usage: metriclab [-h]")
        assert "{gradcheck," in usage

    def test_probe_count_must_be_an_integer(self, capsys):
        assert run(["hessian-check", "--trials", "two"]) == 1
        assert "argument --trials: invalid int value: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, summary", [
        (["hessian-check", "--trials", "0"], "hessian-check: PASS (6 probes)"),
        (["margin-check", "--trials", "0"], "margin-check: PASS (201 grid points)"),
        (["robustness-check", "--points", "0"], "robustness-check: PASS (1 probes)"),
    ])
    def test_zero_extra_probes_still_run_the_fixed_checks(self, argv, summary, capsys):
        """0 is legal where the command has fixed probes besides the counted ones."""
        assert run(argv) == 0
        assert summary in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "metriclab" in capsys.readouterr().out


class TestReferenceConfigFile:
    def test_matches_the_library_factory(self):
        """configs/reference.json and reference_train_config() describe the
        same run, so CLI users and library users train the same model."""
        config = ExperimentConfig.from_file("configs/reference.json")
        assert config.train == reference_train_config(
            variant="triplet_only", seed=0)

    def test_seed_override_follows_the_library_rule(self):
        config = ExperimentConfig.from_file("configs/reference.json", seed_override=3)
        assert config.train == reference_train_config(seed=3)
        # the manifest hash names the config that ran, dataset seed included
        assert config.raw_payload["seed"] == 3
        assert config.raw_payload["dataset"]["seed"] == 3017

    def test_ci_rerun_config_is_the_reference_at_combined_simce(self):
        """configs/ci-combined-simce.json, which CI trains twice and compares
        byte for byte, is the reference run shortened to 200 iterations."""
        config = ExperimentConfig.from_file("configs/ci-combined-simce.json")
        assert config.train == reference_train_config(
            variant="combined_simce", seed=0, total_iters=200, eval_interval=100)

    def test_ci_wide_simce_config_takes_the_gram_and_blocked_paths(self):
        """configs/ci-wide-simce.json, which CI also trains twice and compares, is
        ci-wide-triplet at combined_simce for 20 iterations: its batches take the
        Gram distances and its simce grid spans several anchor blocks."""
        wide = ExperimentConfig.from_file("configs/ci-wide-simce.json").train
        triplet = ExperimentConfig.from_file("configs/ci-wide-triplet.json").train
        assert wide == dataclasses.replace(triplet, variant="combined_simce", total_iters=20,
                                           eval_interval=10)
        spec = wide.batch
        assert spec.batch_size >= core._DIST_GRAM_MIN_ROWS
        grid = (spec.samples_per_class - 1) * (spec.batch_size - spec.samples_per_class)
        assert spec.batch_size * grid >= 3 * losses._SIMCE_BLOCK_ELEMS

    def test_sha256_is_stable_under_key_order(self, tmp_path):
        payload = json.loads(Path("configs/reference.json").read_text(encoding="ascii"))
        reordered = {k: payload[k] for k in reversed(list(payload))}
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(reordered), encoding="ascii")
        a = ExperimentConfig.from_file("configs/reference.json").raw_payload
        b = ExperimentConfig.from_file(shuffled).raw_payload
        assert cli._sha256_of(a) == cli._sha256_of(b)


class TestConsoleScript:
    def test_installed_entry_point(self):
        """The `metriclab` script if it is installed, else the entry point
        pyproject.toml declares for it, run the same way in a fresh interpreter."""
        env = None
        argv = ["metriclab"]
        if shutil.which("metriclab") is None:
            text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
            module, func = re.search(r'^metriclab\s*=\s*"([\w.]+):(\w+)"', text, re.M).groups()
            argv = [sys.executable, "-c", f"from {module} import {func}; {func}()"]
            package_root = str(Path(metriclab.__file__).parents[1])
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv + ["margin-check", "--trials", "1"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "margin-check: PASS" in proc.stdout

    def test_module_entry_point(self):
        """`python -m metriclab.cli` runs the CLI in a fresh interpreter: a passing check
        prints its verdict and exits 0, and a refused option exits 1, not 0 with no output."""
        package_root = str(Path(metriclab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "metriclab.cli", "margin-check", "--trials"]
        proc = subprocess.run(argv + ["1"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "margin-check: PASS" in proc.stdout
        assert subprocess.run(argv + ["-1"], capture_output=True, text=True, env=env).returncode == 1

    def test_scipy_special_loads_only_for_the_commands_that_use_it(self, tmp_path):
        """A 0-iteration train in a fresh interpreter never imports scipy.special (its
        import is about half of a cold start); hessian-check, which calls expit, does load it."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "total_iters": 0}}),
                          encoding="ascii")
        package_root = str(Path(metriclab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))

        def loads_special(argv):
            script = ("import sys, metriclab.cli\n"
                      f"status = metriclab.cli.run({argv!r})\n"
                      "print(status, 'scipy.special' in sys.modules)")
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            status, loaded = proc.stdout.split()[-2:]
            assert status == "0", proc.stdout
            return loaded == "True"

        assert not loads_special(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        assert (tmp_path / "run" / "manifest.json").is_file()
        assert loads_special(["hessian-check", "--trials", "1"])
