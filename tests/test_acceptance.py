"""Top-level acceptance checks for the whole package.

Each test covers one release criterion, prints exactly one PASS/FAIL line
with the measured numbers (run ``pytest tests/test_acceptance.py -v -s``
to see them), and then asserts.  The heavy five-seed training comparison
is shared between the two criteria that need it via a module fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from metriclab import (
    ClassifierHead,
    LossConfig,
    RobustnessProbe,
    VmfParams,
    batch_gradcheck,
    ce_loss,
    combined_loss,
    dynamic_margin,
    enumerate_pos_pairs,
    enumerate_triplets,
    estimate_kappa,
    m_simce_loss,
    numeric_hessian_trace,
    reference_train_config,
    robustness_gap,
    s_triplet_loss,
    sample_gradcheck_batch,
    sample_vmf,
    simce_loss,
    simce_trace_closed,
    train,
    triplet_loss,
    triplet_trace_closed,
    vmf_density,
)
from metriclab.cli import run as cli_run

N_SEEDS = 5


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


@pytest.fixture(scope="module")
def reference_runs():
    """Five-seed training runs of both loss variants on the frozen
    reference configuration; shared by the two slowest criteria."""
    results = {}
    for variant in ("triplet_only", "combined_simce"):
        start = time.perf_counter()
        results[variant] = {
            "reports": [train(reference_train_config(variant=variant, seed=s))
                        for s in range(N_SEEDS)],
            "elapsed": time.perf_counter() - start,
        }
    return results


def test_01_loss_gradients_match_finite_differences():
    """Every loss: analytic gradient vs central differences over 100 random
    batches each, max relative error <= 1e-6, within a 60 s budget."""
    cfg = LossConfig()
    rng = np.random.default_rng(101)
    losses = {
        "triplet": lambda b, h: triplet_loss(b, cfg),
        "s_triplet": lambda b, h: s_triplet_loss(b, cfg),
        "simce": lambda b, h: simce_loss(b, cfg),
        "m_simce": lambda b, h: m_simce_loss(b, cfg),
        "ce": lambda b, h: ce_loss(b, h),
        "combined_simce": lambda b, h: combined_loss(b, h, cfg, "simce"),
        "combined_m_simce": lambda b, h: combined_loss(b, h, cfg, "m_simce"),
    }
    start = time.perf_counter()
    worst = 0.0
    n_batches = 0
    for name, fn in losses.items():
        for _ in range(100):
            n = int(rng.choice((2, 4)))
            k = int(rng.choice((2, 4)))
            dim = int(rng.choice((3, 8, 16)))
            batch = sample_gradcheck_batch(rng, n, k, dim, cfg)
            head = ClassifierHead.init(rng, n, dim)
            worst = max(worst, batch_gradcheck(lambda b: fn(b, head), batch))
            n_batches += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    assert _verdict(
        "criterion 1, loss-gradient correctness", ok,
        f"worst rel error {worst:.3e} <= 1e-06 over {n_batches} batches, "
        f"{elapsed:.1f}s <= 60s")


def test_02_contrastive_curvature_bound_and_closed_form():
    """1000 random unit-anchor triples at temperature 1: the numeric
    Hessian trace of the contrastive term never exceeds 1/2 and matches
    sigma(z) * sigma(-z) * ||a||^2 / T^2 to 1e-3 relative."""
    rng = np.random.default_rng(102)
    worst_rel, max_trace = 0.0, -np.inf
    all_bounded = True
    for i in range(1000):
        dim = (3, 8, 16)[i % 3]
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        report = simce_trace_closed(a, rng.standard_normal(dim),
                                    rng.standard_normal(dim), temperature=1.0)
        all_bounded &= report.numeric_trace <= 0.5 + 1e-6
        max_trace = max(max_trace, report.numeric_trace)
        worst_rel = max(worst_rel,
                        abs(report.numeric_trace - report.closed_form_trace)
                        / abs(report.closed_form_trace))
    ok = all_bounded and worst_rel <= 1e-3
    assert _verdict(
        "criterion 2, contrastive curvature bound", ok,
        f"max numeric trace {max_trace:.4f} <= 0.5, worst closed-form "
        f"rel error {worst_rel:.3e} <= 1e-03 over 1000 triples")


def test_03_hinge_curvature_blows_up_as_the_gap_closes():
    """The active-hinge distance term -||v|| has numeric Hessian trace of
    magnitude (d-1)/||v|| to 1e-3 relative at ||v|| in {1, 0.1, 0.01},
    d in {3, 8} -- a 100x growth as v shrinks, with no finite bound."""
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    for dim in (3, 8):
        for scale in (1.0, 0.1, 0.01):
            direction = rng.standard_normal(dim)
            v = direction / np.linalg.norm(direction) * scale

            def active_hinge(x):
                return 10.0 - np.linalg.norm(x, axis=-1)

            numeric = numeric_hessian_trace(active_hinge, v, h=1e-4)
            closed = triplet_trace_closed(v)
            assert numeric < 0  # curvature of the subtracted distance
            np.testing.assert_allclose(closed, (dim - 1) / scale, rtol=1e-12)
            worst_rel = max(worst_rel, abs(abs(numeric) - closed) / closed)
    ok = worst_rel <= 1e-3
    assert _verdict(
        "criterion 3, hinge curvature growth", ok,
        f"worst rel error {worst_rel:.3e} <= 1e-03 over 6 probes, "
        f"|trace| spans 2/1 up to 700/1 as the gap closes")


def test_04_noise_gap_matches_second_order_prediction():
    """Monte-Carlo expected loss increase under coordinate-wise uniform
    noise (1e5 draws, eps 0.01) vs the prediction eps^2/6 * trace(H):
    within 5% for the contrastive loss at 20 random points, and within
    Monte-Carlo error on a quadratic where the expansion is exact."""
    rng = np.random.default_rng(104)
    probe = RobustnessProbe(epsilon=0.01, n_samples=100_000, seed=404)
    mc, predicted = robustness_gap(lambda v: (v * v).sum(-1),
                                   rng.standard_normal(6), probe)
    quad_rel = abs(mc - predicted) / abs(predicted)
    worst_rel = 0.0
    for i in range(20):
        dim = (3, 8, 16)[i % 3]
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        p = rng.standard_normal(dim)
        n = rng.standard_normal(dim)

        def contrastive_term(v, a=a, p=p):
            return np.logaddexp(0.0, (a - v) @ a - a @ p)

        mc, predicted = robustness_gap(contrastive_term, a - n, probe)
        worst_rel = max(worst_rel, abs(mc - predicted) / abs(predicted))
    # 5e-3 is three standard errors of the antithetic estimator at 1e5 draws
    ok = quad_rel <= 5e-3 and worst_rel <= 0.05
    assert _verdict(
        "criterion 4, second-order noise-gap prediction", ok,
        f"quadratic control rel error {quad_rel:.3e} <= 5e-03, worst "
        f"contrastive rel error {worst_rel:.3e} <= 5e-02 over 20 points")


def test_05_softplus_residual_bound_and_dynamic_margin():
    """|softplus(z) - e^z| <= e^(2z)/2 across z in [-20, 0] step 0.1
    (1e-12 absolute slack for double rounding near z = -20), with the
    equivalent dynamic margin z^2*T + 2T evaluated alongside on
    similarity gaps constructed to hit each grid point."""
    zs = np.arange(-200, 1) * 0.1
    residuals = np.abs(np.logaddexp(0.0, zs) - np.exp(zs))
    bounds = np.exp(2.0 * zs) / 2.0
    max_excess = float((residuals - bounds).max())
    a = np.zeros(4)
    a[0] = 1.0
    margins = []
    for z in zs:
        margin, _ = dynamic_margin(a, a * (1.0 - z / 2.0), a * (1.0 + z / 2.0))
        np.testing.assert_allclose(margin, z * z + 2.0, rtol=1e-12, atol=1e-12)
        margins.append(margin)
    ok = max_excess <= 1e-12 and min(margins) == 2.0
    assert _verdict(
        "criterion 5, softplus residual bound", ok,
        f"max excess over e^(2z)/2 is {max_excess:.3e} <= 1e-12 at 201 grid "
        f"points; dynamic margin spans [{min(margins):g}, {max(margins):g}]")


def test_06_active_triplet_counts_collapse_only_for_the_plain_hinge(reference_runs):
    """Five seeds, 5000 iterations, 5% label noise: the margin hinge
    saturates (median final/early active-triplet ratio < 0.1) while the
    similarity-weighted combination keeps strictly more triplets active,
    inside a 10-minute budget per variant."""
    ratios, finals = {}, {}
    for variant, bundle in reference_runs.items():
        per_seed_ratio, per_seed_final = [], []
        for report in bundle["reports"]:
            early = report.n_non[99]  # iteration 100
            final = report.n_non[-1]
            per_seed_ratio.append(final / early)
            per_seed_final.append(final)
        ratios[variant] = float(np.median(per_seed_ratio))
        finals[variant] = float(np.median(per_seed_final))
    t_plain = reference_runs["triplet_only"]["elapsed"]
    t_comb = reference_runs["combined_simce"]["elapsed"]
    ok = (ratios["triplet_only"] < 0.1
          and finals["combined_simce"] > finals["triplet_only"]
          and t_plain <= 600.0 and t_comb <= 600.0)
    assert _verdict(
        "criterion 6, active-triplet dynamics", ok,
        f"median final/early ratio {ratios['triplet_only']:.5f} < 0.1 for the "
        f"plain hinge; median final count {finals['combined_simce']:g} > "
        f"{finals['triplet_only']:g} under the combination; "
        f"{t_plain:.0f}s and {t_comb:.0f}s <= 600s per variant")


def test_07_combined_loss_retrieves_better_and_spreads_wider(reference_runs):
    """On the held-out gallery/probe split, the five-seed median rank-1 of
    the combined loss is at least the plain hinge's, and its uniformity
    is no higher (embeddings spread farther apart on the sphere)."""
    medians = {}
    for variant, bundle in reference_runs.items():
        medians[variant] = {
            "rank1": float(np.median([r.rank1[-1] for r in bundle["reports"]])),
            "uniformity": float(np.median([r.uniformity[-1] for r in bundle["reports"]])),
        }
    plain, combined = medians["triplet_only"], medians["combined_simce"]
    ok = (combined["rank1"] >= plain["rank1"]
          and combined["uniformity"] <= plain["uniformity"])
    assert _verdict(
        "criterion 7, retrieval and spread at desk scale", ok,
        f"median rank-1 {combined['rank1']:.4f} >= {plain['rank1']:.4f}; "
        f"median uniformity {combined['uniformity']:.4f} <= {plain['uniformity']:.4f}")


def test_08_batch_all_combinatorics_on_an_8x8_batch():
    """Exactly 25088 triplets and 448 positive pairs with 56 negatives
    each on an (8, 8) batch, identical to brute-force loops."""
    labels = np.repeat(np.arange(8), 8)
    triplets = enumerate_triplets(labels)
    pairs = enumerate_pos_pairs(labels)
    brute_triplets = [(a, p, n)
                      for a in range(64) for p in range(64) for n in range(64)
                      if a != p and labels[a] == labels[p] and labels[a] != labels[n]]
    got = sorted(triplets.as_tuples())
    pair_negs = {(a, p): sorted(negs.tolist()) for a, p, negs in pairs.pairs()}
    brute_pairs = {}
    for a in range(64):
        for p in range(64):
            if a != p and labels[a] == labels[p]:
                brute_pairs[(a, p)] = [n for n in range(64) if labels[n] != labels[a]]
    ok = (len(triplets) == 25088 and got == sorted(brute_triplets)
          and len(pairs) == 448 and pair_negs == brute_pairs
          and all(len(v) == 56 for v in pair_negs.values()))
    assert _verdict(
        "criterion 8, batch-all combinatorics", ok,
        f"{len(triplets)} triplets == 25088, {len(pairs)} pairs == 448 with "
        f"56 negatives each, both equal to brute force")


def test_09_directional_distribution_round_trip_and_density_mass():
    """Concentration recovery within 15% for kappa in {5, 20, 80} and
    dimension in {3, 8, 16} at 1e4 samples, and the d=3 density
    integrates to 1 +- 1e-3 over the sphere."""
    rng = np.random.default_rng(109)
    worst_rel = 0.0
    for kappa in (5.0, 20.0, 80.0):
        for dim in (3, 8, 16):
            mu = rng.standard_normal(dim)
            mu /= np.linalg.norm(mu)
            params = VmfParams(mu, kappa)
            draws = np.stack([sample_vmf(params, rng) for _ in range(10_000)])
            worst_rel = max(worst_rel, abs(estimate_kappa(draws) - kappa) / kappa)

    worst_mass_err = 0.0
    n_theta, n_phi = 400, 800
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    cell = (math.pi / n_theta) * (2.0 * math.pi / n_phi)
    mu3 = np.array([0.0, 0.0, 1.0])
    for kappa in (1.0, 20.0):
        params = VmfParams(mu3, kappa)
        mass = 0.0
        for th in theta:
            ring = np.stack([np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi),
                             np.full(n_phi, np.cos(th))], axis=1)
            ring /= np.linalg.norm(ring, axis=1, keepdims=True)
            dens = vmf_density(ring, params)
            mass += float(dens.sum()) * math.sin(th) * cell
        worst_mass_err = max(worst_mass_err, abs(mass - 1.0))
    ok = worst_rel <= 0.15 and worst_mass_err <= 1e-3
    assert _verdict(
        "criterion 9, directional-distribution round trip", ok,
        f"worst concentration rel error {worst_rel:.3f} <= 0.15 over 9 "
        f"settings; sphere mass within {worst_mass_err:.2e} <= 1e-03 of 1")


def test_10_trained_artifacts_are_byte_identical_across_reruns(tmp_path):
    """Two CLI training runs from one config file and seed write
    byte-identical loss-curve and evaluation CSVs."""
    payload = {
        "seed": 11,
        "dataset": {"n_classes": 8, "subclusters_per_class": 2,
                    "samples_per_subcluster": 10, "input_dim": 12,
                    "class_kappa": 20.0, "subcluster_kappa": 60.0,
                    "noise_fraction": 0.05, "seed": 17},
        "batch": {"n_classes": 4, "samples_per_class": 4},
        "loss": {"margin": 0.6, "normalize_for_simce": True},
        "train": {"variant": "combined_simce", "total_iters": 100,
                  "eval_interval": 50, "embed_dim": 8, "hidden_dim": 16},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="ascii")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_run(["train", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_run(["train", "--config", str(config), "--out", str(out_b)]) == 0
    names = ("curves.csv", "evals.csv", "model.json", "manifest.json",
             "sim_start.csv", "sim_mid.csv", "sim_end.csv")
    same = {name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in names}
    ok = all(same.values())
    assert _verdict(
        "criterion 10, run-to-run reproducibility", ok,
        f"curves.csv and evals.csv byte-identical across reruns "
        f"(checked {len(names)} artifacts: "
        f"{'all identical' if ok else [k for k, v in same.items() if not v]})")
