import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtkd import distill
from rmtkd.data import Dataset
from rmtkd.distill import (EVAL_BLOCK, TILE, TRAINING_LOG_HEADER,
                           DistillConfig, accuracy, combined_loss,
                           kl_divergence, snapshot_teacher, softmax,
                           train_until)
from rmtkd.errors import InvalidInput
from rmtkd.network import forward, init_network
from rmtkd.rng import make_rng, normal


def _blobs(n_per_class, seed, noise=0.5):
    """Two linearly separable Gaussian blobs in the plane."""
    rng = make_rng(seed)
    x0 = normal(rng, (2, n_per_class), std=noise) + np.array([[2.0], [0.0]])
    x1 = normal(rng, (2, n_per_class), std=noise) + np.array([[-2.0], [0.0]])
    x = np.concatenate([x0, x1], axis=1)
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(x=x, y=y, num_classes=2)


# -------------------------------------------------------------------- config

def test_config_defaults():
    cfg = DistillConfig()
    assert cfg.alpha == 0.5 and cfg.batch_size == 64 and cfg.max_epochs == 40


@pytest.mark.parametrize("kw", [
    {"alpha": -0.1}, {"alpha": 1.5}, {"lr": -1.0}, {"momentum": 1.0},
    {"batch_size": 0}, {"max_epochs": 0}, {"accuracy_threshold": 1.1},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(InvalidInput):
        DistillConfig(**kw)


# ------------------------------------------------------------------- softmax

def test_softmax_hand_two_logits():
    p = softmax(np.array([[0.0], [math.log(3.0)]]))
    assert np.allclose(p, [[0.25], [0.75]])


def test_softmax_shift_invariance_and_overflow():
    logits = np.array([[1000.0, 3.0], [1001.0, 1.0]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=0), 1.0)
    assert np.allclose(p[:, 0], softmax(np.array([[0.0], [1.0]]))[:, 0])


# ------------------------------------------------------------- kl_divergence

def test_kl_identical_is_zero():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_hand_log2():
    assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) < 1e-12


def test_kl_zero_teacher_entries_contribute_nothing():
    v = kl_divergence([0.5, 0.5, 0.0], [0.25, 0.25, 0.5])
    assert abs(v - math.log(2.0)) < 1e-12


def test_kl_floor_keeps_value_finite():
    v = kl_divergence([0.5, 0.5], [1.0, 0.0])
    assert np.isfinite(v)
    # 0.5 (log .5 - log 1) + 0.5 (log .5 - log 1e-12)
    assert abs(v - (math.log(0.5) - 0.5 * math.log(1e-12))) < 1e-9


def test_kl_is_asymmetric():
    a, b = [0.9, 0.1], [0.5, 0.5]
    assert kl_divergence(a, b) != kl_divergence(b, a)


@pytest.mark.parametrize("p,q", [
    ([0.5, 0.6], [0.5, 0.5]),       # p does not sum to 1
    ([0.5, 0.5], [-0.1, 1.1]),      # negative entry
    ([0.5, 0.5], [0.3, 0.3, 0.4]),  # length mismatch
    ([1.0], [1.0]),                 # single category
])
def test_kl_input_validation(p, q):
    with pytest.raises(InvalidInput):
        kl_divergence(p, q)


@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12),
       st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12))
def test_kl_nonnegative(pw, qw):
    m = min(len(pw), len(qw))
    p = np.array(pw[:m]) / np.sum(pw[:m])
    q = np.array(qw[:m]) / np.sum(qw[:m])
    assert kl_divergence(p, q) >= -1e-9


# ------------------------------------------------------------- combined_loss

def test_combined_loss_alpha_one_is_plain_ce():
    logits = np.array([[2.0, -1.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    loss, grad, ce, kl = combined_loss(logits, None, labels, alpha=1.0)
    p = softmax(logits)
    want = -0.5 * (math.log(p[0, 0]) + math.log(p[1, 1]))
    assert abs(loss - want) < 1e-12
    assert ce == loss and kl == 0.0
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(grad, (p - onehot) / 2)


def test_combined_loss_alpha_zero_is_pure_kl():
    rng = make_rng(0)
    s = normal(rng, (4, 3))
    t = normal(rng, (4, 3))
    labels = np.array([0, 1, 2])
    loss, _, ce, kl = combined_loss(s, t, labels, alpha=0.0)
    ps, pt = softmax(s), softmax(t)
    want = np.mean([kl_divergence(pt[:, j], ps[:, j]) for j in range(3)])
    assert abs(loss - want) < 1e-12
    assert kl == loss
    assert abs(ce - np.mean([-math.log(ps[j, j]) for j in range(3)])) < 1e-12
    mixed, _, ce_m, kl_m = combined_loss(s, t, labels, alpha=0.3)
    assert (ce_m, kl_m) == (ce, kl) and mixed == 0.3 * ce + (1.0 - 0.3) * kl


def test_combined_loss_teacher_match_kills_kl_gradient():
    logits = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.0]])
    labels = np.array([2, 0])
    _, g_half, _, _ = combined_loss(logits, logits.copy(), labels, alpha=0.5)
    _, g_ce, _, _ = combined_loss(logits, None, labels, alpha=1.0)
    assert np.allclose(g_half, 0.5 * g_ce)


def test_combined_loss_gradient_finite_difference():
    rng = make_rng(1)
    s = normal(rng, (5, 4))
    t = normal(rng, (5, 4))
    labels = np.array([0, 2, 4, 1])
    grad = combined_loss(s, t, labels, alpha=0.3)[1]
    eps = 1e-6
    for (i, j) in [(0, 0), (2, 1), (4, 3)]:
        sp = s.copy()
        sp[i, j] += eps
        lp = combined_loss(sp, t, labels, alpha=0.3)[0]
        sp[i, j] -= 2 * eps
        lm = combined_loss(sp, t, labels, alpha=0.3)[0]
        fd = (lp - lm) / (2 * eps)
        assert abs(fd - grad[i, j]) < 1e-6 * max(1.0, abs(fd))


def _reference_combined_loss(new, old, labels, alpha):
    """combined_loss as first written: masked KL gathers and a one-hot array."""
    def soft(logits):
        z = logits - np.max(logits, axis=0, keepdims=True)
        e = np.exp(z)
        return e / np.sum(e, axis=0, keepdims=True)

    b = new.shape[1]
    cols = np.arange(b)
    p_new = soft(new)
    ce = float(-np.mean(np.log(np.maximum(p_new[labels, cols], distill.EPSILON_PROB))))
    kl = 0.0
    if old is not None:
        p_old = soft(old)
        qf = np.maximum(p_new, distill.EPSILON_PROB)
        mask = p_old > 0
        terms = np.zeros_like(p_old)
        terms[mask] = p_old[mask] * (np.log(p_old[mask]) - np.log(qf[mask]))
        kl = float(terms.sum() / b)
    loss = alpha * ce + (1.0 - alpha) * kl
    onehot = np.zeros_like(p_new)
    onehot[labels, cols] = 1.0
    grad = alpha * (p_new - onehot)
    if old is not None:
        grad = grad + (1.0 - alpha) * (p_new - p_old)
    return loss, grad / b, ce, kl


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("teacher", ["none", "plain", "underflow"])
def test_combined_loss_matches_reference_bytes(alpha, teacher):
    rng = make_rng(11)
    new = normal(rng, (10, 67), std=3.0)
    labels = np.arange(67) % 10
    old = None if teacher == "none" else normal(rng, (10, 67), std=3.0)
    if teacher == "underflow":  # exp underflows: teacher probabilities of exactly 0
        old[:, ::2] *= 400.0
    got = combined_loss(new, old, labels, alpha)
    want = _reference_combined_loss(new, old, labels, alpha)
    if teacher == "underflow":
        assert np.count_nonzero(softmax(old) == 0.0) > 100
    for i in (0, 2, 3):  # loss, ce, kl
        assert float(got[i]).hex() == float(want[i]).hex()
    assert got[1].tobytes() == want[1].tobytes()  # the gradient


def test_combined_loss_validates_shapes():
    with pytest.raises(InvalidInput):
        combined_loss(np.ones((3, 2)), None, np.array([0, 1, 2]), alpha=0.5)
    with pytest.raises(InvalidInput):
        combined_loss(np.ones((3, 2)), np.ones((3, 3)), np.array([0, 1]), alpha=0.5)
    with pytest.raises(InvalidInput):
        combined_loss(np.ones((3, 2)), None, np.array([0, 1]), alpha=2.0)


# ------------------------------------------------------------------ teacher

def test_snapshot_teacher_is_frozen_deep_copy():
    net = init_network([4], 3, 2, lambda s: normal(make_rng(2), s))
    teacher = snapshot_teacher(net)
    assert all(l.frozen for l in teacher.layers)
    assert not any(l.frozen for l in net.layers)
    net.layers[0].weights[0, 0] += 10.0
    assert teacher.layers[0].weights[0, 0] != net.layers[0].weights[0, 0]


def test_accuracy_hand():
    net = init_network([], 2, 2, lambda s: normal(make_rng(3), s))
    net.layers[0].weights = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = np.array([[3.0, 0.0], [0.0, 3.0]])
    assert accuracy(net, x, np.array([0, 1])) == 1.0
    assert accuracy(net, x, np.array([1, 1])) == 0.5


def _wide_net_and_columns(n):
    net = init_network([512, 512, 512], 16, 10, lambda s: normal(make_rng(6), s))
    x = normal(make_rng(7), (16, n))
    return net, x, np.arange(n) % 10


def test_accuracy_holds_at_most_two_activations():
    net, x, y = _wide_net_and_columns(4000)
    expected = float(np.mean(np.argmax(forward(net, x)[0], axis=0) == y))
    block_activation = 512 * EVAL_BLOCK * 8
    tracemalloc.start()
    try:
        got = accuracy(net, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    # one pass over all 4000 columns would hold two 512 x 4000 activations
    assert peak <= 2 * block_activation + 2**20, peak


def test_eval_block_is_whole_tiles():
    assert EVAL_BLOCK % TILE == 0


@pytest.mark.parametrize("n", [1, 7, 1000, 1023, 1024, 1025, 2049, 4000, 4100, 5003])
def test_blocked_accuracy_equals_one_pass(n, monkeypatch):
    net, x, y = _wide_net_and_columns(n)
    one_pass = float(np.mean(np.argmax(forward(net, x)[0], axis=0) == y))
    widths = []

    def counting_forward(net, batch, keep_acts=True):
        widths.append(batch.shape[1])
        return forward(net, batch, keep_acts=keep_acts)

    monkeypatch.setattr(distill, "forward", counting_forward)
    assert accuracy(net, x, y) == one_pass
    # plain EVAL_BLOCK strides; only the last block may be narrower
    assert widths == [min(EVAL_BLOCK, n - a) for a in range(0, n, EVAL_BLOCK)]


# --------------------------------------------------------------- train_until

def test_train_until_learns_separable_blobs():
    ds = _blobs(100, seed=10)
    val = _blobs(50, seed=11)
    net = init_network([8], 2, 2, lambda s: normal(make_rng(4), s))
    cfg = DistillConfig(max_epochs=30, accuracy_threshold=0.98, batch_size=32)
    net, epochs, acc = train_until(net, (ds, val), cfg, rng=make_rng(5))
    assert acc >= 0.98
    assert 1 <= epochs <= 30


def test_train_until_stops_at_first_crossing():
    ds = _blobs(100, seed=12)
    val = _blobs(50, seed=13)
    net = init_network([8], 2, 2, lambda s: normal(make_rng(6), s))
    cfg = DistillConfig(max_epochs=30, accuracy_threshold=0.0)
    _, epochs, _ = train_until(net, (ds, val), cfg, rng=make_rng(7))
    assert epochs == 1  # any accuracy clears a zero threshold


def test_train_until_returns_best_validation_weights():
    ds = _blobs(80, seed=14)
    val = _blobs(40, seed=15)
    net = init_network([8], 2, 2, lambda s: normal(make_rng(8), s))
    cfg = DistillConfig(max_epochs=10, accuracy_threshold=1.0, batch_size=16)
    rows = []
    net, _, best = train_until(net, (ds, val), cfg, rng=make_rng(9), log_rows=rows)
    logged = [r[4] for r in rows]
    assert best == max(logged)
    assert accuracy(net, val.x, val.y) == best


def test_train_until_is_deterministic():
    ds = _blobs(60, seed=16)
    val = _blobs(30, seed=17)
    cfg = DistillConfig(max_epochs=5, accuracy_threshold=1.0, batch_size=16)
    out = []
    for _ in range(2):
        net = init_network([6], 2, 2, lambda s: normal(make_rng(20), s))
        net, epochs, acc = train_until(net, (ds, val), cfg, rng=make_rng(21))
        out.append((epochs, acc, [l.weights.copy() for l in net.layers]))
    assert out[0][0] == out[1][0] and out[0][1] == out[1][1]
    for wa, wb in zip(out[0][2], out[1][2]):
        assert np.array_equal(wa, wb)


def test_train_until_log_row_format():
    ds = _blobs(40, seed=18)
    val = _blobs(20, seed=19)
    net = init_network([4], 2, 2, lambda s: normal(make_rng(22), s))
    cfg = DistillConfig(max_epochs=2, accuracy_threshold=1.0, batch_size=16)
    rows = []
    _, epochs, _ = train_until(net, (ds, val), cfg, rng=make_rng(23), log_rows=rows)
    assert len(rows) == epochs >= 1
    for i, row in enumerate(rows, start=1):
        # one Python number per TRAINING_LOG_HEADER column, no NumPy scalars
        assert len(row) == len(TRAINING_LOG_HEADER) == 5 and row[0] == i
        assert type(row[0]) is int
        assert all(type(v) is float for v in row[1:])


def test_train_until_without_teacher_logs_zero_kl():
    ds = _blobs(40, seed=24)
    val = _blobs(20, seed=25)
    net = init_network([4], 2, 2, lambda s: normal(make_rng(26), s))
    cfg = DistillConfig(max_epochs=1, accuracy_threshold=1.0, alpha=0.2)
    rows = []
    train_until(net, (ds, val), cfg, rng=make_rng(27), log_rows=rows)
    assert rows[0][3] == 0.0


def test_train_until_distillation_tracks_teacher():
    # alpha = 0: student trained purely against a competent teacher's
    # soft targets should inherit most of its validation accuracy
    ds = _blobs(100, seed=28)
    val = _blobs(50, seed=29)
    teacher_net = init_network([8], 2, 2, lambda s: normal(make_rng(30), s))
    cfg = DistillConfig(max_epochs=30, accuracy_threshold=0.98, batch_size=32)
    teacher_net, _, teacher_acc = train_until(teacher_net, (ds, val), cfg,
                                              rng=make_rng(31))
    teacher = snapshot_teacher(teacher_net)
    student = init_network([8], 2, 2, lambda s: normal(make_rng(32), s))
    cfg0 = DistillConfig(alpha=0.0, max_epochs=30, accuracy_threshold=0.95,
                         batch_size=32)
    student, _, student_acc = train_until(student, (ds, val), cfg0,
                                          teacher=teacher, rng=make_rng(33))
    assert teacher_acc >= 0.98
    assert student_acc >= teacher_acc - 0.05


def test_train_until_requires_rng():
    ds = _blobs(10, seed=34)
    net = init_network([4], 2, 2, lambda s: normal(make_rng(35), s))
    with pytest.raises(InvalidInput):
        train_until(net, (ds, ds), DistillConfig(), rng=None)
