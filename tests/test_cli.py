"""Command-line interface: subcommand exit codes, emitted artifacts, run
manifests, config-file validation, and byte-level reproducibility of the
train/eval round trip.

Commands run in-process through ``metriclab.cli.run`` so exit codes and
artifacts can be asserted directly; one subprocess test covers the
installed console script.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metriclab
from metriclab import cli, gen_dataset, reference_train_config, training, write_dataset_csv
from metriclab.cli import ExperimentConfig, run
from metriclab.training import dataset_seed

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
        assert run(["gradcheck", "--loss", "nosuch", "--trials", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_hessian_check(self, tmp_path, capsys):
        out = tmp_path / "hess"
        assert run(["hessian-check", "--trials", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        kinds = {p["kind"] for p in report["probes"]}
        assert kinds == {"triplet", "simce"}

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

    def test_unknown_key_inside_a_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = dict(TINY_CONFIG, batch={"n_classes": 2, "side": "left"})
        bad.write_text(json.dumps(payload), encoding="ascii")
        assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key 'side'" in capsys.readouterr().err

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
    ])
    def test_probe_counts_below_their_minimum_are_usage_errors(self, argv, flag, minimum, capsys):
        """A count that checks nothing (gradcheck) or runs fewer probes than
        asked (negative counts) is refused before any probe runs."""
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}: must be >= {minimum}, got {argv[-1]}" in captured.err
        assert "PASS" not in captured.out

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
        assert config.train_config() == reference_train_config(
            variant="triplet_only", seed=0)

    def test_seed_override_follows_the_library_rule(self):
        config = ExperimentConfig.from_file("configs/reference.json", seed_override=3)
        assert config.train_config() == reference_train_config(seed=3)
        # the manifest hash names the config that ran, dataset seed included
        assert config.raw_payload["seed"] == 3
        assert config.raw_payload["dataset"]["seed"] == 3017

    def test_sha256_is_stable_under_key_order(self, tmp_path):
        payload = json.loads(open("configs/reference.json").read())
        reordered = {k: payload[k] for k in reversed(list(payload))}
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(reordered), encoding="ascii")
        a = ExperimentConfig.from_file("configs/reference.json").sha256()
        b = ExperimentConfig.from_file(shuffled).sha256()
        assert a == b


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
