import tracemalloc

import numpy as np
import pytest

from rmtkd import reducer
from rmtkd.data import (Dataset, SplitSpec, planted_subspace_task,
                        sample_noise_matrix, sample_spiked, split)
from rmtkd.distill import DistillConfig, accuracy, train_until
from rmtkd.errors import AlreadyProjected, InvalidInput, NoSpikes
from rmtkd.network import (DenseLayer, Network, forward, init_network,
                           param_count)
from rmtkd.reducer import (CompressionPlan, Projection, _hidden_layer_index,
                           analyse_layer, apply_projection, build_projection, compress_step,
                           quantile_ablation, run_loop)
from rmtkd.rng import make_rng, normal
from rmtkd.spectral import (MPModel, SpectralPartition, Spectrum, classify,
                            compute_covariance, eig_sym, fit_sigma2,
                            init_sigma2)


def _task_parts(seed=0):
    ds, _ = planted_subspace_task(16, 4, 3, 600, 0.3, seed=seed)
    return split(ds, SplitSpec(train_fraction=0.8, calibration_fraction=0.5,
                               seed=seed))


def _warmed_net(parts, seed=1, width=32):
    rng = make_rng(seed)
    net = init_network([width], 16, 3, lambda s: normal(rng, s))
    cfg = DistillConfig(max_epochs=25, accuracy_threshold=0.93, batch_size=32,
                        lr=0.1)
    net, _, acc = train_until(net, (parts[0], parts[1]), cfg,
                              rng=make_rng(seed + 1))
    return net, acc


def _fast_cfg():
    return DistillConfig(max_epochs=8, accuracy_threshold=0.93, batch_size=32,
                         lr=0.1)


def _partition_from(am, n):
    spec, vecs = eig_sym(compute_covariance(am), n_samples=n)
    s2, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
    return classify(spec, vecs, MPModel(sigma2=s2, q=spec.q))


# -------------------------------------------------------------- construction

def test_projection_rejects_nonorthonormal_rows():
    with pytest.raises(InvalidInput):
        Projection(matrix=np.array([[1.0, 1.0], [0.0, 1.0]]), layer_id=0,
                   retained_eigenvalues=[1.0, 1.0])


def test_projection_rejects_bad_k():
    with pytest.raises(InvalidInput):
        Projection(matrix=np.ones((0, 3)), layer_id=0, retained_eigenvalues=[])


def test_plan_validation():
    with pytest.raises(InvalidInput):
        CompressionPlan(layer_order=[0], quantile=1.5)


# ----------------------------------------------------------- build_projection

def _toy_partition(k_spikes, d=6):
    vecs = np.eye(d)
    lam = np.arange(d, 0, -1).astype(np.float64)
    return SpectralPartition(
        spike_indices=list(range(k_spikes)),
        bulk_indices=list(range(k_spikes, d)),
        spike_eigenvectors=vecs[:k_spikes],
        k=k_spikes,
        eigenvalues=lam,
    )


def test_build_projection_spike_rows():
    proj = build_projection(_toy_partition(2), layer_id=1)
    assert proj.matrix.shape == (2, 6)
    assert np.array_equal(proj.matrix, np.eye(6)[:2])
    assert proj.retained_eigenvalues == [6.0, 5.0]
    assert proj.layer_id == 1


def test_build_projection_no_spikes():
    with pytest.raises(NoSpikes):
        build_projection(_toy_partition(0), layer_id=0)


def test_build_projection_rejects_values_only_partition():
    lam = np.arange(6, 0, -1).astype(np.float64)
    spec = Spectrum(eigenvalues=lam, d=6, n=24)
    part = classify(spec, None, MPModel(sigma2=1.0, q=spec.q))
    assert part.k > 0
    with pytest.raises(InvalidInput):
        build_projection(part, layer_id=0)


def test_build_projection_recovers_planted_direction():
    # single spike at 10x the noise floor: the leading projection row should
    # align with the planted direction almost every seed
    hits = 0
    for seed in range(20):
        am, dirs = sample_spiked(50, 1000, 1.0, [(10.0, None)], seed=200 + seed)
        part = _partition_from(am, 1000)
        if part.k == 0:
            continue
        proj = build_projection(part, layer_id=0)
        hits += abs(proj.matrix[0] @ dirs[0]) >= 0.9
    assert hits >= 19


# ----------------------------------------------------------- apply_projection

def _relu_net(seed=3):
    rng = make_rng(seed)
    return init_network([8, 6], 5, 3, lambda s: normal(rng, s))


def _ortho(d, seed=0):
    a = normal(make_rng(seed), (d, d))
    q, _ = np.linalg.qr(a)
    return q


def test_apply_projection_structure():
    net = _relu_net()
    p = _ortho(8)[:4]
    proj = Projection(matrix=p, layer_id=0, retained_eigenvalues=[0.0] * 4)
    old_down = net.layers[1].weights.copy()
    out = apply_projection(net, proj)
    assert len(out.layers) == 4
    ins = out.layers[1]
    assert ins.frozen and ins.bias is None and ins.activation == "identity"
    assert np.array_equal(ins.weights, p)
    assert np.allclose(out.layers[2].weights, old_down @ p.T)
    assert out.history == [(0, 8, 4)]
    # the original network is untouched
    assert len(net.layers) == 3 and net.history == []
    assert np.array_equal(net.layers[1].weights, old_down)


def test_apply_projection_full_rank_preserves_function():
    net = _relu_net(seed=4)
    p = _ortho(8, seed=5)  # square orthonormal: information-lossless
    proj = Projection(matrix=p, layer_id=0, retained_eigenvalues=[0.0] * 8)
    out = apply_projection(net, proj)
    x = normal(make_rng(6), (5, 17))
    a, _ = forward(net, x)
    b, _ = forward(out, x)
    assert np.max(np.abs(a - b)) < 1e-10


def test_apply_projection_twice_rejected():
    net = _relu_net(seed=7)
    p = _ortho(8, seed=8)[:3]
    proj = Projection(matrix=p, layer_id=0, retained_eigenvalues=[0.0] * 3)
    out = apply_projection(net, proj)
    proj2 = Projection(matrix=np.eye(8)[:2], layer_id=0,
                       retained_eigenvalues=[0.0] * 2)
    with pytest.raises(AlreadyProjected):
        apply_projection(out, proj2)


def test_apply_projection_dimension_check():
    net = _relu_net(seed=9)
    proj = Projection(matrix=np.eye(5)[:2], layer_id=0,
                      retained_eigenvalues=[0.0] * 2)
    with pytest.raises(InvalidInput):
        apply_projection(net, proj)  # layer 0 outputs 8, not 5


def test_apply_projection_rejects_output_layer():
    net = _relu_net(seed=10)
    proj = Projection(matrix=np.eye(3)[:1], layer_id=2,
                      retained_eigenvalues=[0.0])
    with pytest.raises(InvalidInput):
        apply_projection(net, proj)


def test_hidden_layer_index_skips_frozen():
    net = _relu_net(seed=11)
    p = _ortho(8, seed=12)[:4]
    out = apply_projection(net, Projection(matrix=p, layer_id=0,
                                           retained_eigenvalues=[0.0] * 4))
    # layers: [h0, P(frozen), h1, final]; ordinal 1 must hit h1 at index 2
    assert _hidden_layer_index(out, 0) == 0
    assert _hidden_layer_index(out, 1) == 2
    with pytest.raises(InvalidInput):
        _hidden_layer_index(out, 2)


# -------------------------------------------------------------- analyse_layer

def test_analyse_layer_values_only_keeps_k():
    parts = _task_parts(seed=33)
    net, _ = _warmed_net(parts, seed=34)
    cal_x = parts[2].x
    spec, model, part, _ = analyse_layer(net, cal_x, 0, 0.7)
    spec_v, model_v, part_v, _ = analyse_layer(net, cal_x, 0, 0.7, vectors=False)
    assert part_v.spike_eigenvectors is None
    assert part.spike_eigenvectors.shape == (part.k, 32)
    assert (part_v.k, part_v.spike_indices) == (part.k, part.spike_indices)
    assert abs(model_v.sigma2 - model.sigma2) <= 1e-12 * model.sigma2
    scale = spec.eigenvalues[0]
    assert np.max(np.abs(spec_v.eigenvalues - spec.eigenvalues)) <= 1e-12 * scale


def _analyse_from_full_forward(net, cal_x, layer_id, quantile):
    """analyse_layer's pipeline on the activations of a whole-network pass."""
    _, acts = forward(net, cal_x)
    x = acts[layer_id + 1]
    spec, vecs = eig_sym(compute_covariance(x), n_samples=x.shape[1])
    sigma2, _ = fit_sigma2(spec, init_sigma2(spec, quantile))
    model = MPModel(sigma2=sigma2, q=spec.q)
    return spec, model, classify(spec, vecs, model)


def test_analyse_layer_matches_full_forward_bits():
    parts = _task_parts(seed=35)
    rng = make_rng(36)
    net = init_network([24, 20, 16], 16, 3, lambda s: normal(rng, s))
    projected = apply_projection(net, Projection(matrix=_ortho(24, seed=37)[:10],
                                                 layer_id=0,
                                                 retained_eigenvalues=[0.0] * 10))
    cal_x = parts[2].x
    # every hidden layer, and the layers behind a frozen projection
    for model_net, layer_ids in ((net, (0, 1, 2)), (projected, (0, 2, 3))):
        for layer_id in layer_ids:
            spec, model, part, _ = analyse_layer(model_net, cal_x, layer_id, 0.5)
            ref_spec, ref_model, ref_part = _analyse_from_full_forward(
                model_net, cal_x, layer_id, 0.5)
            assert (spec.d, spec.n) == (ref_spec.d, ref_spec.n)
            assert np.array_equal(spec.eigenvalues, ref_spec.eigenvalues)
            assert model.sigma2 == ref_model.sigma2
            assert part.k == ref_part.k and part.k > 0
            assert np.array_equal(part.spike_eigenvectors, ref_part.spike_eigenvectors)


def test_analyse_layer_frees_activations_before_eigensolve(monkeypatch):
    rng = make_rng(38)
    net = init_network([256, 8], 16, 3, lambda s: normal(rng, s))
    cal_x = normal(rng, (16, 2000))  # layer 0's activations: 4 MB
    seen = {}

    def spy(cov, **kwargs):
        seen["traced"], _ = tracemalloc.get_traced_memory()
        seen["cov"] = cov.nbytes  # 0.5 MB
        return eig_sym(cov, **kwargs)

    monkeypatch.setattr(reducer, "eig_sym", spy)
    tracemalloc.start()
    try:
        analyse_layer(net, cal_x, 0, 0.5, vectors=False)
    finally:
        tracemalloc.stop()
    assert seen["traced"] <= seen["cov"] + 64 * 1024, seen


# -------------------------------------------------------------- compress_step

def test_compress_step_reduces_and_records():
    parts = _task_parts(seed=30)
    net, base_acc = _warmed_net(parts, seed=31)
    assert base_acc >= 0.9
    before = [l.weights.copy() for l in net.layers]
    plan = CompressionPlan(layer_order=[0], quantile=0.7)
    new_net, rec = compress_step(net, parts, plan, _fast_cfg(), 0,
                                 make_rng(32))
    assert rec.d == 32 and 1 <= rec.k < rec.d
    assert rec.sigma2 > 0 and rec.lambda_plus > 0
    assert rec.params_after < rec.params_before
    assert rec.acc_before >= 0.9
    assert rec.acc_after_finetune >= rec.acc_before - 0.1
    tr, fr = param_count(new_net)
    assert tr == rec.params_after and fr == rec.k * rec.d
    assert new_net.history == [(0, 32, rec.k)]
    # transactional: the input network is untouched
    for w, l in zip(before, net.layers):
        assert np.array_equal(w, l.weights)
    assert len(net.layers) == 2


def test_compress_step_skip_on_pure_noise():
    # identity first layer over isotropic inputs: its activation spectrum is
    # all bulk, so the step must skip without touching the network
    d, n = 16, 400
    rng = make_rng(40)
    l0 = DenseLayer(weights=np.eye(d), bias=np.zeros(d), activation="identity")
    l1 = DenseLayer(weights=normal(rng, (3, d)) * 0.1, bias=np.zeros(3),
                    activation="identity")
    net = Network(layers=[l0, l1], input_dim=d, num_classes=3)
    noise = sample_noise_matrix(d, n, 1.0, seed=41).entries
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 3] = 1
    part = Dataset(x=noise, y=labels, num_classes=3)
    plan = CompressionPlan(layer_order=[0], quantile=0.5)
    new_net, rec = compress_step(net, (part, part, part), plan, _fast_cfg(),
                                 0, make_rng(42))
    assert rec.k == rec.d == d
    assert rec.params_after == rec.params_before
    assert new_net is net


def test_compress_step_rejects_frozen_or_final_layer():
    parts = _task_parts(seed=50)
    net, _ = _warmed_net(parts, seed=51)
    plan = CompressionPlan(layer_order=[0])
    with pytest.raises(InvalidInput):
        compress_step(net, parts, plan, _fast_cfg(), 1, make_rng(52))


# ------------------------------------------------------------------ run_loop

def test_run_loop_two_layers_monotone_params():
    parts = _task_parts(seed=60)
    rng = make_rng(61)
    net = init_network([24, 16], 16, 3, lambda s: normal(rng, s))
    warm_cfg = DistillConfig(max_epochs=30, accuracy_threshold=0.93,
                             batch_size=32, lr=0.1)
    net, _, acc = train_until(net, (parts[0], parts[1]), warm_cfg,
                              rng=make_rng(62))
    assert acc >= 0.9
    plan = CompressionPlan(layer_order=[0, 1], quantile=0.7)
    out, history = run_loop(net, parts, plan, _fast_cfg(), make_rng(63))
    assert len(history) == 2
    assert [r.iteration for r in history] == [0, 1]
    params = [history[0].params_before] + [r.params_after for r in history]
    assert all(a >= b for a, b in zip(params, params[1:]))
    assert sum(l.frozen for l in out.layers) == sum(r.k < r.d for r in history)


def test_run_loop_empty_plan():
    parts = _task_parts(seed=80)
    net, _ = _warmed_net(parts, seed=81)
    plan = CompressionPlan(layer_order=[])
    out, history = run_loop(net, parts, plan, _fast_cfg(), make_rng(82))
    assert history == []
    assert len(out.layers) == len(net.layers)


def test_run_loop_rollback_on_accuracy_floor():
    parts = _task_parts(seed=90)
    net, _ = _warmed_net(parts, seed=91)
    widths_before = [l.out_dim for l in net.layers]
    plan = CompressionPlan(layer_order=[0], quantile=0.7, accuracy_floor=1.0)
    starved = DistillConfig(max_epochs=1, accuracy_threshold=0.99,
                            batch_size=32, lr=0.0)  # lr 0: cannot recover
    out, history = run_loop(net, parts, plan, starved, make_rng(92))
    assert len(history) == 1  # the attempt stays in the audit trail
    assert history[0].acc_after_finetune < 1.0
    assert [l.out_dim for l in out.layers] == widths_before
    assert not any(l.frozen for l in out.layers)


# ---------------------------------------------------------- quantile_ablation

def test_quantile_ablation_rows_and_reuse():
    parts = _task_parts(seed=100)
    net, _ = _warmed_net(parts, seed=101)
    plan = CompressionPlan(layer_order=[0])
    grid = [0.3, 0.7]
    rows = quantile_ablation(net.copy, parts, grid, plan, _fast_cfg(),
                             seed=102)
    assert [r[0] for r in rows] == grid
    for _, acc, red in rows:
        assert 0.0 <= acc <= 1.0
        assert 0.0 <= red < 1.0
    # a stricter (higher) quantile keeps fewer directions
    assert rows[1][2] >= rows[0][2]


def test_quantile_ablation_empty_grid():
    parts = _task_parts(seed=110)
    net, _ = _warmed_net(parts, seed=111)
    with pytest.raises(InvalidInput):
        quantile_ablation(net.copy, parts, [], CompressionPlan(layer_order=[0]),
                          _fast_cfg())
