"""End-to-end acceptance gate.

One test per release criterion, each asserting its stated tolerance and
time budget; run with ``pytest -v`` for a per-criterion pass/fail line.
"""

import json
import math
import os
import statistics
import time

import numpy as np
from scipy.integrate import quad

from rmtkd.cli import main
from rmtkd.data import sample_noise_matrix, sample_spiked
from rmtkd.distill import combined_loss, kl_divergence, softmax
from rmtkd.errors import InvalidInput
from rmtkd.network import DenseLayer, Network, backward, forward, init_network
from rmtkd.reducer import (CompressionPlan, Projection, apply_projection,
                           run_loop)
from rmtkd.rng import make_rng, normal
from rmtkd.spectral import (MPModel, classify, compute_covariance, eig_sym,
                            fit_sigma2, init_sigma2, mp_bulk_edges,
                            mp_density, wigner_semicircle_density)

TOY_TASK = {"kind": "planted", "input_dim": 32, "intrinsic_dim": 8,
            "num_classes": 10, "n_samples": 5000, "noise_sigma": 0.3}
TOY_DISTILL = {"max_epochs": 40, "accuracy_threshold": 0.95}


def _run_cli(tmp_path, command, cfg, name, extra=()):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), *extra])
    assert rc == 0, f"{command} exited {rc}"


def test_criterion_1_mp_bulk_edges():
    # iid Gaussian activations d=200, n=2000: <= 2% of eigenvalues escape
    # the bulk support computed from the true sigma2; < 5 s
    t0 = time.time()
    am = sample_noise_matrix(200, 2000, 1.0, seed=1)
    spec, _ = eig_sym(compute_covariance(am), n_samples=2000)
    lm, lp = mp_bulk_edges(1.0, spec.q)
    escaped = np.mean((spec.eigenvalues < lm) | (spec.eigenvalues > lp))
    elapsed = time.time() - t0
    assert escaped <= 0.02, f"{escaped:.3%} of eigenvalues escaped the bulk"
    assert elapsed < 5.0
    print(f"criterion 1: escaped={escaped:.3%} elapsed={elapsed:.2f}s")


def test_criterion_2_sigma2_recovery():
    # pure-noise spectra over sigma2 x q grid: fitted sigma2 within +-10%,
    # median over 20 seeds per cell; < 30 s
    t0 = time.time()
    n = 2000
    worst = 0.0
    for s2_true in (0.5, 1.0, 2.0):
        for q in (0.05, 0.1, 0.25):
            fits = []
            for seed in range(20):
                am = sample_noise_matrix(int(q * n), n, s2_true,
                                         seed=seed * 13 + 1)
                spec, _ = eig_sym(compute_covariance(am), n_samples=n)
                s2, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
                fits.append(s2)
            rel = abs(statistics.median(fits) - s2_true) / s2_true
            worst = max(worst, rel)
            assert rel <= 0.10, f"sigma2={s2_true} q={q}: rel error {rel:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"criterion 2: worst rel error={worst:.4f} elapsed={elapsed:.1f}s")


def _fitted_partition(am, n):
    spec, vecs = eig_sym(compute_covariance(am), n_samples=n)
    s2, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
    return classify(spec, vecs, MPModel(sigma2=s2, q=spec.q))


def test_criterion_3_spike_detection_and_alignment():
    # three planted spikes at 5 sigma2 (1 + sqrt(q)), d=100, n=1000:
    # k=3 in >= 95% of 20 seeds, spike eigenvectors land in the planted
    # span; per-direction |cos| >= 0.9 checked on the identifiable
    # (distinct-strength) instance, since equal-strength spikes share a
    # rotation-degenerate eigenspace
    d, n, q = 100, 1000, 0.1
    base = 1.0 * (1.0 + math.sqrt(q))

    hits = 0
    for seed in range(20):
        am, dirs = sample_spiked(d, n, 1.0, [(5.0 * base, None)] * 3,
                                 seed=4000 + seed)
        part = _fitted_partition(am, n)
        hits += part.k == 3
        if part.k:
            span = np.linalg.norm(part.spike_eigenvectors @ dirs.T, axis=1)
            assert span.min() >= 0.9, f"seed {seed}: spike leaves planted span"
    assert hits >= 19, f"k=3 in only {hits}/20 seeds"

    matched = 0
    for seed in range(20):
        am, dirs = sample_spiked(
            d, n, 1.0,
            [(20 * base, None), (10 * base, None), (5 * base, None)],
            seed=3000 + seed)
        part = _fitted_partition(am, n)
        if part.k != 3:
            continue
        cos = np.abs(part.spike_eigenvectors @ dirs.T)
        used = set()
        ok = True
        for i in range(3):
            j = int(np.argmax(cos[i]))
            ok = ok and j not in used and cos[i, j] >= 0.9
            used.add(j)
        matched += ok
    assert matched >= 19, f"distinct alignment in only {matched}/20 seeds"
    print(f"criterion 3: k=3 in {hits}/20, aligned in {matched}/20")


def test_criterion_4_gradient_correctness():
    # analytic gradients (backprop + alpha-weighted CE/KL loss) vs central
    # finite differences, relative error <= 1e-4, nets up to 3 x width 32
    rng = make_rng(5)
    worst = 0.0
    for widths in ([32], [32, 32], [32, 32, 32]):
        net = init_network(widths, 12, 5, lambda s: normal(rng, s))
        teacher = init_network(widths, 12, 5, lambda s: normal(rng, s))
        x = normal(rng, (12, 9))
        labels = (np.arange(9) * 7) % 5
        t_logits, _ = forward(teacher, x)

        def loss():
            logits, _ = forward(net, x)
            return combined_loss(logits, t_logits, labels, alpha=0.4)[0]

        logits, acts = forward(net, x)
        _, g_logits, _, _ = combined_loss(logits, t_logits, labels, alpha=0.4)
        grads = backward(net, acts, g_logits)
        eps = 1e-6
        for i, (gw, gb) in grads.items():
            coords = [(0, 0), (gw.shape[0] // 2, gw.shape[1] // 2),
                      (gw.shape[0] - 1, gw.shape[1] - 1)]
            for idx in coords:
                w0 = net.layers[i].weights[idx]
                net.layers[i].weights[idx] = w0 + eps
                lp = loss()
                net.layers[i].weights[idx] = w0 - eps
                lm = loss()
                net.layers[i].weights[idx] = w0
                fd = (lp - lm) / (2 * eps)
                rel = abs(fd - gw[idx]) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
            b0 = net.layers[i].bias[1]
            net.layers[i].bias[1] = b0 + eps
            lp = loss()
            net.layers[i].bias[1] = b0 - eps
            lm = loss()
            net.layers[i].bias[1] = b0
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - gb[1]) / max(abs(fd), 1e-8))
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"
    print(f"criterion 4: worst rel error={worst:.2e}")


def test_criterion_5_surgery_exactness():
    # k = d identity projection: outputs unchanged within 1e-12; k < d with
    # activations inside row-span(P): outputs preserved within 1e-9
    rng = make_rng(6)
    net = init_network([16, 12], 8, 4, lambda s: normal(rng, s))
    x = normal(rng, (8, 25))
    ident = Projection(matrix=np.eye(16), layer_id=0,
                       retained_eigenvalues=[0.0] * 16)
    a, _ = forward(net, x)
    b, _ = forward(apply_projection(net, ident), x)
    diff_id = np.max(np.abs(a - b))
    assert diff_id <= 1e-12

    # pass-through first layer so its activation equals the input, which we
    # draw from span(P^T) directly
    d, k = 16, 5
    l0 = DenseLayer(weights=np.eye(d), bias=np.zeros(d), activation="identity")
    l1 = DenseLayer(weights=normal(rng, (4, d)), bias=normal(rng, 4),
                    activation="identity")
    tall = Network(layers=[l0, l1], input_dim=d, num_classes=4)
    p, _ = np.linalg.qr(normal(rng, (d, d)))
    proj = Projection(matrix=p[:, :k].T.copy(), layer_id=0,
                      retained_eigenvalues=[0.0] * k)
    x_span = p[:, :k] @ normal(rng, (k, 33))
    a, _ = forward(tall, x_span)
    b, _ = forward(apply_projection(tall, proj), x_span)
    diff_span = np.max(np.abs(a - b))
    assert diff_span <= 1e-9
    print(f"criterion 5: identity diff={diff_id:.1e} span diff={diff_span:.1e}")


def test_criterion_6_end_to_end_compression(tmp_path):
    # planted task (input 32, intrinsic 8, 10 classes, N=5000), widths
    # [64, 64]: cmd_compress reaches >= 40% trainable-parameter reduction
    # with <= 2pp median accuracy drop over 5 seeds; < 5 min
    t0 = time.time()
    reductions, drops = [], []
    for seed in range(5):
        out = tmp_path / f"c6-{seed}"
        cfg = {"task": TOY_TASK, "widths": [64, 64], "distill": TOY_DISTILL,
               "plan": {"quantile": 0.7, "layer_order": [0, 1]},
               "seed": seed, "output_dir": str(out)}
        _run_cli(tmp_path, "compress", cfg, f"c6-{seed}")
        summary = json.loads((out / "summary.json").read_text())
        reductions.append(summary["reduction_fraction"])
        drops.append(summary["baseline_accuracy"] - summary["final_accuracy"])
    med_red = statistics.median(reductions)
    med_drop = statistics.median(drops)
    elapsed = time.time() - t0
    assert med_red >= 0.40, f"median reduction {med_red:.3f}"
    assert med_drop <= 0.02, f"median accuracy drop {med_drop:.4f}"
    assert elapsed < 300.0
    print(f"criterion 6: median reduction={med_red:.3f} "
          f"median drop={med_drop:+.4f} elapsed={elapsed:.1f}s")


def test_criterion_7_quantile_ablation_shape(tmp_path):
    # quantile grid 0.1..0.9, single hidden layer so every cell analyses the
    # same warm-up spectrum: 3-seed median reduction non-decreasing in the
    # quantile, and median accuracy at 0.9 <= accuracy at 0.4
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    accs = {g: [] for g in grid}
    reds = {g: [] for g in grid}
    for seed in range(3):
        out = tmp_path / f"c7-{seed}"
        cfg = {"task": TOY_TASK, "widths": [64], "distill": TOY_DISTILL,
               "plan": {"quantile": 0.5}, "seed": seed,
               "output_dir": str(out)}
        _run_cli(tmp_path, "ablate", cfg, f"c7-{seed}")
        rows = (out / "ablation.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == len(grid)
        for row in rows:
            qv, acc, red = (float(v) for v in row.split(","))
            accs[qv].append(acc)
            reds[qv].append(red)
    med_red = [statistics.median(reds[g]) for g in grid]
    med_acc = {g: statistics.median(accs[g]) for g in grid}
    assert all(a <= b for a, b in zip(med_red, med_red[1:])), \
        f"reduction not monotone: {med_red}"
    assert med_acc[0.9] <= med_acc[0.4], \
        f"acc(0.9)={med_acc[0.9]:.3f} > acc(0.4)={med_acc[0.4]:.3f}"
    print(f"criterion 7: reductions {med_red[0]:.3f}..{med_red[-1]:.3f} "
          f"acc(0.4)={med_acc[0.4]:.3f} acc(0.9)={med_acc[0.9]:.3f}")


def test_criterion_8_determinism_and_rollback(tmp_path):
    # identical config + seed reproduces every output byte-for-byte across
    # all four commands; a rolled-back step restores the pre-step checkpoint
    small_task = {"kind": "planted", "input_dim": 16, "intrinsic_dim": 4,
                  "num_classes": 3, "n_samples": 600, "noise_sigma": 0.3}
    base = {"task": small_task, "widths": [32],
            "distill": {"max_epochs": 25, "accuracy_threshold": 0.93,
                        "batch_size": 32, "lr": 0.1},
            "plan": {"quantile": 0.7},
            "split": {"calibration_fraction": 0.5}, "seed": 3}

    for command, extra in (("train", ()), ("compress", ()),
                           ("ablate", ("--quantiles", "0.3,0.7"))):
        outs = []
        for rep in ("x", "y"):
            out = tmp_path / f"{command}-{rep}"
            cfg = dict(base, output_dir=str(out))
            _run_cli(tmp_path, command, cfg, f"{command}-{rep}", extra)
            outs.append(out)
        for name in os.listdir(outs[0]):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                f"{command}: {name} differs between reruns"
    # spectrum reads the checkpoint the train reruns just wrote
    for rep in ("x", "y"):
        out = tmp_path / f"train-{rep}"
        cfg = dict(base, output_dir=str(out))
        _run_cli(tmp_path, "spectrum", cfg, f"spec-{rep}", ("--layer", "0"))
    for name in ("eigenvalues.csv", "histogram_fit.csv", "mp_model.json"):
        assert (tmp_path / "train-x" / name).read_bytes() == \
            (tmp_path / "train-y" / name).read_bytes()

    # rollback: an accuracy floor no single frozen-lr epoch can reach forces
    # the loop to restore the pre-step network exactly
    from rmtkd.cli import build_task, validate_config, _split_parts, _warm_up
    from rmtkd.cli import _checkpoint_bytes
    from rmtkd.distill import DistillConfig
    cfg = validate_config(dict(base, output_dir=str(tmp_path / "rb")))
    parts = _split_parts(cfg, build_task(cfg))
    net, _, _ = _warm_up(cfg, parts)
    before = _checkpoint_bytes(net, {})
    starved = DistillConfig(max_epochs=1, accuracy_threshold=0.99, lr=0.0)
    plan = CompressionPlan(layer_order=[0], quantile=0.7, accuracy_floor=1.0)
    rolled, history = run_loop(net.copy(), parts, plan, starved, make_rng(1))
    assert len(history) == 1 and history[0].acc_after_finetune < 1.0
    after = _checkpoint_bytes(rolled, {})
    assert before == after, "rollback did not restore the pre-step checkpoint"
    print("criterion 8: 4 commands bit-identical on rerun; rollback exact")


def test_criterion_9_spectral_unit_properties():
    # density quadrature within 1e-3, KL sign/equality law, projection
    # orthonormality within 1e-8; < 60 s
    t0 = time.time()
    for s2, q in ((1.0, 0.25), (0.5, 0.1), (2.0, 0.5), (1.0, 1.0)):
        m = MPModel(sigma2=s2, q=q)
        mass, _ = quad(lambda l: mp_density(l, m), m.lambda_minus,
                       m.lambda_plus, limit=400)
        assert abs(mass - 1.0) <= 1e-3, f"MP mass {mass} at s2={s2} q={q}"
    for s2 in (0.5, 1.0, 2.0):
        edge = 2.0 * math.sqrt(s2)
        mass, _ = quad(lambda x: wigner_semicircle_density(x, s2), -edge,
                       edge, limit=400)
        assert abs(mass - 1.0) <= 1e-3, f"Wigner mass {mass} at s2={s2}"

    rng = make_rng(7)
    for _ in range(50):
        logits = normal(rng, (6, 2))
        p, qd = softmax(logits)[:, 0], softmax(logits)[:, 1]
        assert kl_divergence(p, qd) > 0.0  # distinct almost surely
        assert kl_divergence(p, p.copy()) == 0.0

    for d in (8, 32, 64):
        a = normal(rng, (d, d))
        _, vecs = eig_sym((a + a.T) / 2)
        resid = np.max(np.abs(vecs @ vecs.T - np.eye(d)))
        assert resid <= 1e-8
        Projection(matrix=vecs[: d // 2], layer_id=0,
                   retained_eigenvalues=[0.0] * (d // 2))  # must not raise
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 9: quadrature, KL law, orthonormality ok "
          f"({elapsed:.1f}s)")
