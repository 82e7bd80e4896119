import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from rmtkd import reducer, spectral
from rmtkd.data import (Dataset, SplitSpec, planted_subspace_task,
                        sample_noise_matrix, sample_spiked, split)
from rmtkd.distill import DistillConfig, accuracy, train_until
from rmtkd.errors import AlreadyProjected, DegenerateSpectrum, InvalidInput
from rmtkd.network import (DenseLayer, Network, forward, init_network,
                           param_count)
from rmtkd.reducer import (CompressionPlan, Projection, _hidden_layer_index,
                           analyse_layer, apply_projection, compress_step,
                           final_accuracy, quantile_ablation, rolled_back, run_loop)
from rmtkd.rng import make_rng, normal
from rmtkd.spectral import (COV_BLOCK, MPModel, SpectralPartition, Spectrum,
                            classify, compute_covariance, eig_sym, fit_sigma2,
                            init_sigma2)

EPS = np.finfo(np.float64).eps


def _task_parts(seed=0, margin=0.3):
    ds, _ = planted_subspace_task(16, 4, 3, 600, 0.3, seed=seed, margin=margin)
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


# ------------------------------------------------------------- spike vectors

def test_spike_eigenvectors_recover_planted_direction():
    # single spike at 10x the noise floor: the leading spike eigenvector
    # (the projection's first row) should align with the planted direction
    # almost every seed
    hits = 0
    for seed in range(20):
        am, dirs = sample_spiked(50, 1000, 1.0, [(10.0, None)], seed=200 + seed)
        part = _partition_from(am, 1000)
        if part.k == 0:
            continue
        hits += abs(part.spike_eigenvectors[0] @ dirs[0]) >= 0.9
    assert hits >= 19


# ---------------------------------------------- projection inside compress_step

def _toy_step(monkeypatch, k_spikes, d=6):
    """compress_step on layer 1 with analyse_layer stubbed to a toy spectrum
    of eigenvalues d..1 whose first ``k_spikes`` are spikes along the axes.

    Returns (input net, result net, record, projections handed to
    apply_projection, number of train_until calls).
    """
    lam = np.arange(d, 0, -1).astype(np.float64)
    spectrum = Spectrum(eigenvalues=lam, d=d, n=24)
    part = SpectralPartition(spike_eigenvectors=np.eye(d)[:k_spikes],
                             k=k_spikes)
    monkeypatch.setattr(
        reducer, "analyse_layer",
        lambda net, x, layer_id, quantile:
            (spectrum, MPModel(sigma2=1.0, q=spectrum.q), part, None))
    projections, fits = [], []

    def spy_apply(net, proj):
        projections.append(proj)
        return apply_projection(net, proj)

    def stub_train(student, data, cfg, teacher=None, rng=None):
        fits.append(student)
        return student, [], 0.5

    monkeypatch.setattr(reducer, "apply_projection", spy_apply)
    monkeypatch.setattr(reducer, "train_until", stub_train)
    net = init_network([8, d], 5, 3, lambda s: normal(make_rng(3), s))
    parts = _task_parts(seed=0)
    new_net, rec = compress_step(net, parts, CompressionPlan(layer_order=[1]),
                                 _fast_cfg(), 1, make_rng(4), 0.75)
    return net, new_net, rec, projections, len(fits)


def test_build_projection_spike_rows(monkeypatch):
    # the projection compress_step builds: the spike eigenvectors as rows,
    # the analysed layer's ordinal
    _, new_net, rec, projections, fits = _toy_step(monkeypatch, 2)
    assert len(projections) == 1 and fits == 1
    proj = projections[0]
    assert proj.matrix.shape == (2, 6)
    assert np.array_equal(proj.matrix, np.eye(6)[:2])
    assert proj.layer_id == 1
    assert np.array_equal(new_net.layers[2].weights, proj.matrix)
    assert rec.k == 2 and rec.d == 6 and rec.acc_after_finetune == 0.5


def test_build_projection_no_spikes(monkeypatch):
    # no spikes: no projection is built, nothing is fine-tuned, and the
    # input network comes back as a recorded skip with k = d
    net, new_net, rec, projections, fits = _toy_step(monkeypatch, 0)
    assert projections == [] and fits == 0
    assert new_net is net
    assert rec.k == rec.d == 6
    assert rec.acc_after_finetune == rec.acc_before == 0.75


def test_build_projection_every_direction_a_spike(monkeypatch):
    # k = d: a projection would reduce nothing, so it is a skip like k = 0,
    # and the accuracy floor cannot be escaped by a k = d record
    net, new_net, rec, projections, fits = _toy_step(monkeypatch, k_spikes=6)
    assert projections == [] and fits == 0
    assert new_net is net
    assert rec.k == rec.d == 6
    assert rec.acc_after_finetune == rec.acc_before == 0.75


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
    assert ins.weights.shape == (4, 8)  # the frozen layer records k x d
    # the original network is untouched
    assert len(net.layers) == 3
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
    assert part_v.k == part.k
    lam = spec.eigenvalues
    assert np.all(lam[:part.k] > model.lambda_plus)
    assert np.all(lam[part.k:] <= model.lambda_plus)
    assert abs(model_v.sigma2 - model.sigma2) <= 1e-12 * model.sigma2
    scale = spec.eigenvalues[0]
    assert np.max(np.abs(spec_v.eigenvalues - spec.eigenvalues)) <= 1e-12 * scale


def _analyse_from_full_forward(net, cal_x, ordinal, quantile):
    """analyse_layer's pipeline on the activations of a whole-network pass,
    with the covariance as one full product."""
    _, acts = forward(net, cal_x)
    x = acts[_hidden_layer_index(net, ordinal) + 1]
    spec, vecs = eig_sym(x @ x.T / x.shape[1], n_samples=x.shape[1])
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
    for model_net in (net, projected):
        for ordinal in (0, 1, 2):
            spec, model, part, _ = analyse_layer(model_net, cal_x, ordinal, 0.5)
            ref_spec, ref_model, ref_part = _analyse_from_full_forward(
                model_net, cal_x, ordinal, 0.5)
            assert (spec.d, spec.n) == (ref_spec.d, ref_spec.n)
            assert np.array_equal(spec.eigenvalues, ref_spec.eigenvalues)
            assert model.sigma2 == ref_model.sigma2
            assert part.k == ref_part.k and part.k > 0
            assert np.array_equal(part.spike_eigenvectors, ref_part.spike_eigenvectors)
    # Layers wider than one block of the covariance: the blocked products
    # may sum in another order than the full ones (BLAS blocking and
    # threads), so the spectrum agrees to a bound set from float64's eps.
    wide = init_network([520, 1100], 16, 3, lambda s: normal(rng, s))
    wide_x = normal(rng, (16, 2500))
    for layer_id in (0, 1):
        spec, model, part, _ = analyse_layer(wide, wide_x, layer_id, 0.5)
        ref_spec, ref_model, ref_part = _analyse_from_full_forward(
            wide, wide_x, layer_id, 0.5)
        assert (spec.d, spec.n) == (ref_spec.d, ref_spec.n)
        bound = 4 * spec.d * spec.n * EPS * ref_spec.eigenvalues[0]
        assert np.max(np.abs(spec.eigenvalues - ref_spec.eigenvalues)) <= bound
        assert part.k == ref_part.k and part.k > 0


def test_layer_rows_match_the_full_activation():
    # d = 1100 over n = 900: three blocks of rows, the last one ragged
    rng = make_rng(39)
    net = init_network([1100], 16, 3, lambda s: normal(rng, s))
    cal_x = normal(rng, (16, 900))
    _, acts = forward(net, cal_x)
    x = acts[1]
    rows = reducer._LayerRows(net, 0, cal_x)
    assert rows.shape == (1100, 900) and 2 * COV_BLOCK < 1100 < 3 * COV_BLOCK
    cov = compute_covariance(rows)
    assert np.array_equal(cov, cov.T)
    bound = 4 * 900 * EPS * np.max(np.diag(cov))
    for ref in (compute_covariance(x), x @ x.T / 900):
        assert np.max(np.abs(cov - ref)) <= bound


def test_layer_rows_check_the_last_block():
    rng = make_rng(40)
    net = init_network([1100], 16, 3, lambda s: normal(rng, s))
    net.layers[0].weights[1099, 0] = np.nan  # only the last block's rows
    with pytest.raises(InvalidInput, match="non-finite"):
        analyse_layer(net, normal(rng, (16, 900)), 0, 0.5)


def test_analyse_layer_without_bias():
    # a non-frozen hidden layer with no bias is a legal checkpoint layer
    parts = _task_parts(seed=41)
    rng = make_rng(42)
    net = init_network([24, 20], 16, 3, lambda s: normal(rng, s))
    net.layers[1].bias = None
    for layer_id in (0, 1):
        spec, model, part, _ = analyse_layer(net, parts[2].x, layer_id, 0.5)
        ref_spec, ref_model, ref_part = _analyse_from_full_forward(
            net, parts[2].x, layer_id, 0.5)
        assert np.array_equal(spec.eigenvalues, ref_spec.eigenvalues)
        assert part.k == ref_part.k


def test_analyse_layer_names_the_layer_of_an_unfittable_spectrum():
    # hidden layer 1 passes [I, I] through unchanged, so its calibration
    # covariance is I / 4: every eigenvalue is identical and the fit fails
    eye = np.eye(4)
    net = Network(layers=[DenseLayer(weights=eye, bias=None, activation="relu"),
                          DenseLayer(weights=eye, bias=None, activation="relu"),
                          DenseLayer(weights=np.ones((2, 4)), bias=np.zeros(2),
                                     activation="identity")],
                  input_dim=4, num_classes=2)
    with pytest.raises(DegenerateSpectrum,
                       match="^hidden layer 1: all eigenvalues identical$"):
        analyse_layer(net, np.hstack([eye, eye]), 1, 0.5)


def test_analyse_layer_makes_one_covariance_of_the_layer_shape(monkeypatch):
    # perfbench/tracing.py reads the covariance's d x n from its first argument
    parts = _task_parts(seed=43)
    rng = make_rng(44)
    net = init_network([24, 20], 16, 3, lambda s: normal(rng, s))
    shapes = []

    def spy(x):
        shapes.append(np.shape(x))
        return compute_covariance(x)

    monkeypatch.setattr(reducer, "compute_covariance", spy)
    n = parts[2].x.shape[1]
    for layer_id, d in ((0, 24), (1, 20)):
        shapes.clear()
        analyse_layer(net, parts[2].x, layer_id, 0.5)
        assert shapes == [(d, n)]


def test_analyse_layer_never_holds_the_whole_activation(monkeypatch):
    # A 512-wide layer over an 8-wide input, with 64-row blocks: the d x n
    # activation (8 MiB) never exists; the covariance, the eigensolver's
    # copy of it and two blocks of rows stay below its size.
    monkeypatch.setattr(spectral, "COV_BLOCK", 64)
    rng = make_rng(45)
    net = init_network([512, 8], 8, 3, lambda s: normal(rng, s))
    cal_x = normal(rng, (8, 2048))
    full = 512 * 2048 * 8
    tracemalloc.start()
    try:
        analyse_layer(net, cal_x, 0, 0.5, vectors=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full, (peak, full)


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

def test_compress_step_reduces_and_records(monkeypatch):
    parts = _task_parts(seed=30)
    net, base_acc = _warmed_net(parts, seed=31)
    assert base_acc >= 0.9
    before = [l.weights.copy() for l in net.layers]
    plan = CompressionPlan(layer_order=[0], quantile=0.7)
    _, _, part, _ = analyse_layer(net, parts[2].x, 0, plan.quantile)
    seen = {}

    def spy(student, data, cfg, teacher=None, rng=None):
        # the student as projected, before the fine-tune updates it
        seen["down"] = student.layers[2].weights.copy()
        seen["teacher"] = teacher
        return train_until(student, data, cfg, teacher=teacher, rng=rng)

    monkeypatch.setattr(reducer, "train_until", spy)
    new_net, rec = compress_step(net, parts, plan, _fast_cfg(), 0,
                                 make_rng(32), base_acc)
    p = part.spike_eigenvectors
    assert rec.k == part.k and p.shape == (rec.k, rec.d)
    assert new_net.layers[1].weights.tobytes() == p.tobytes()  # frozen: untrained
    assert seen["down"].tobytes() == (net.layers[1].weights @ p.T).tobytes()
    teacher = seen["teacher"]
    assert all(l.frozen for l in teacher.layers)
    assert all(np.array_equal(t.weights, w) for t, w in zip(teacher.layers, before))
    assert rec.acc_before == base_acc == accuracy(net, parts[1].x, parts[1].y)
    assert rec.d == 32 and 1 <= rec.k < rec.d
    assert rec.sigma2 > 0 and rec.lambda_plus > 0
    assert rec.params_after < rec.params_before
    assert rec.acc_before >= 0.9
    assert rec.acc_after_finetune >= rec.acc_before - 0.1
    tr, fr = param_count(new_net)
    assert tr == rec.params_after and fr == rec.k * rec.d
    inserted = new_net.layers[1]
    assert inserted.frozen and inserted.weights.shape == (rec.k, rec.d)
    # transactional: the input network is untouched
    for w, l in zip(before, net.layers):
        assert np.array_equal(w, l.weights)
    assert len(net.layers) == 2


def _pure_noise_step():
    """compress_step on an all-bulk layer: (input net, result net, record)."""
    # identity first layer over isotropic inputs: its activation spectrum is
    # all bulk, so the step must skip without touching the network
    d, n = 16, 400
    rng = make_rng(40)
    l0 = DenseLayer(weights=np.eye(d), bias=np.zeros(d), activation="identity")
    l1 = DenseLayer(weights=normal(rng, (3, d)) * 0.1, bias=np.zeros(3),
                    activation="identity")
    net = Network(layers=[l0, l1], input_dim=d, num_classes=3)
    noise = sample_noise_matrix(d, n, 1.0, seed=41)
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 3] = 1
    part = Dataset(x=noise, y=labels, num_classes=3)
    plan = CompressionPlan(layer_order=[0], quantile=0.5)
    assert analyse_layer(net, noise, 0, plan.quantile)[2].k == 0
    acc = accuracy(net, part.x, part.y)
    new_net, rec = compress_step(net, (part, part, part), plan, _fast_cfg(),
                                 0, make_rng(42), acc)
    assert rec.acc_before == acc
    return net, new_net, rec


def test_compress_step_skip_on_pure_noise():
    net, new_net, rec = _pure_noise_step()
    assert new_net is net
    assert rec.k == rec.d == 16
    assert rec.params_after == rec.params_before
    assert rec.acc_after_finetune == rec.acc_before


def test_compress_step_records_python_numbers():
    # history.csv writes each value's repr, and NumPy 2 prints a NumPy
    # scalar's repr as np.float64(x); an applied step and a skipped one
    parts = _task_parts(seed=140)
    net, acc = _warmed_net(parts, seed=141)
    _, applied = compress_step(net, parts, CompressionPlan(layer_order=[0], quantile=0.7),
                               _fast_cfg(), 0, make_rng(142), acc)
    _, _, skipped = _pure_noise_step()
    assert applied.k < applied.d and skipped.k == skipped.d
    for rec in (applied, skipped):
        for f in fields(rec):
            assert type(getattr(rec, f.name)) is f.type, (f.name, getattr(rec, f.name))


def test_compress_step_rejects_frozen_or_final_layer():
    parts = _task_parts(seed=50)
    net, acc = _warmed_net(parts, seed=51)
    plan = CompressionPlan(layer_order=[0])
    with pytest.raises(InvalidInput):
        compress_step(net, parts, plan, _fast_cfg(), 1, make_rng(52), acc)


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


def test_final_accuracy_equals_a_fresh_forward():
    # run_loop's caller reads the result's accuracy from the history instead
    # of running the validation split again; both give the same float.
    parts = _task_parts(seed=140)
    net, acc = _warmed_net(parts, seed=141)
    val = parts[1]
    assert acc == accuracy(net, val.x, val.y)
    starved = DistillConfig(max_epochs=1, accuracy_threshold=0.99,
                            batch_size=32, lr=0.0)
    cases = [(CompressionPlan(layer_order=[0], quantile=0.7), _fast_cfg()),
             (CompressionPlan(layer_order=[0], quantile=0.9, accuracy_floor=1.0),
              starved),  # k = 2 of 32: the fine-tuned accuracy drops
             (CompressionPlan(layer_order=[]), _fast_cfg())]
    outcomes = []
    for plan, cfg in cases:
        out, history = run_loop(net, parts, plan, cfg, make_rng(142), acc)
        _, history_again = run_loop(net, parts, plan, cfg, make_rng(142))
        assert history_again == history  # acc given = acc computed
        assert final_accuracy(history, plan, acc) == accuracy(out, val.x, val.y)
        outcomes.append([(rolled_back(r, plan), r.acc_after_finetune == r.acc_before)
                         for r in history])
    assert outcomes == [[(False, False)], [(True, False)], []]


# ---------------------------------------------------------- quantile_ablation

def test_quantile_ablation_rows_and_reuse():
    parts = _task_parts(seed=100)
    net, acc = _warmed_net(parts, seed=101)
    plan = CompressionPlan(layer_order=[0])
    grid = [0.3, 0.7]
    rows = quantile_ablation(net, acc, parts, grid, plan, _fast_cfg(),
                             seed=102)
    assert [r[0] for r in rows] == grid
    for _, acc, red in rows:
        assert 0.0 <= acc <= 1.0
        assert 0.0 <= red < 1.0
    # a stricter (higher) quantile keeps fewer directions
    assert rows[1][2] >= rows[0][2]


def test_quantile_ablation_empty_grid():
    parts = _task_parts(seed=110)
    net, acc = _warmed_net(parts, seed=111)
    with pytest.raises(InvalidInput):
        quantile_ablation(net, acc, parts, [], CompressionPlan(layer_order=[0]),
                          _fast_cfg())


def test_quantile_ablation_measures_only_fine_tune_epochs(monkeypatch):
    # Every cell starts from the given network and its known accuracy: the
    # only validation passes are the fine-tune epochs', and the shared
    # network is never mutated.  Margin 0 lets every draw count, so the task
    # generates whatever the seed.
    from rmtkd import distill
    parts = _task_parts(seed=130, margin=0.0)
    net, acc = _warmed_net(parts, seed=131)
    before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
    accuracy_calls, epochs = [], []

    def counting_accuracy(*args, **kwargs):
        accuracy_calls.append(1)
        return accuracy(*args, **kwargs)

    def recording_train_until(*args, **kwargs):
        result = train_until(*args, **kwargs)
        epochs.append(result[1])
        return result

    monkeypatch.setattr(distill, "accuracy", counting_accuracy)
    monkeypatch.setattr(reducer, "accuracy", counting_accuracy)
    monkeypatch.setattr(reducer, "train_until", recording_train_until)
    plan = CompressionPlan(layer_order=[0])
    rows = quantile_ablation(net, acc, parts, [0.3, 0.5, 0.7], plan,
                             _fast_cfg(), seed=132)
    assert len(rows) == 3 and len(epochs) == 3
    assert len(accuracy_calls) == sum(epochs)
    assert len(net.layers) == 2
    for (w, b), layer in zip(before, net.layers):
        assert np.array_equal(w, layer.weights) and np.array_equal(b, layer.bias)
