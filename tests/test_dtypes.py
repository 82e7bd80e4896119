"""A network keeps the dtype of its weights everywhere.

A float32 network keeps every array float32 through init, forward,
backward, the momentum state, training and the restore of the best
weights, the teacher snapshot, copies, projection surgery and a checkpoint
round trip; a float64 network stays float64 along the same path.  An
np.float64 scalar times a float32 array is float64 (NEP 50), so a stray
NumPy scalar anywhere on that path would show here.
"""

import numpy as np
import pytest

from rmtkd.data import Dataset
from rmtkd.distill import DistillConfig, snapshot_teacher, train_until
from rmtkd.errors import InvalidInput
from rmtkd.network import (Checkpoint, DenseLayer, Network, backward, forward,
                           init_network, load_checkpoint, save_checkpoint,
                           sgd_step)
from rmtkd.reducer import Projection, apply_projection
from rmtkd.rng import make_rng, normal

DTYPES = [np.float32, np.float64]


def _net(dtype, seed=3):
    rng = make_rng(seed)
    return init_network([8, 6], 4, 3, lambda s: normal(rng, s).astype(dtype, copy=False))


def _assert_dtype(net, dtype):
    assert net.dtype == dtype
    for layer in net.layers:
        assert layer.weights.dtype == dtype
        assert layer.bias is None or layer.bias.dtype == dtype


def _blobs(n, seed):
    rng = make_rng(seed)
    y = np.arange(n) % 3
    x = normal(rng, (4, n), std=0.5)
    x[y, np.arange(n)] += 2.0
    return Dataset(x=x, y=y, num_classes=3)


@pytest.mark.parametrize("dtype", DTYPES)
def test_init_network_takes_the_draws_dtype(dtype):
    _assert_dtype(_net(dtype), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_forward_backward_sgd_keep_the_dtype(dtype):
    net = _net(dtype)
    x = normal(make_rng(4), (4, 5))  # float64 data is cast to the net's dtype
    logits, acts = forward(net, x)
    assert all(a.dtype == dtype for a in acts)
    assert forward(net, x, keep_acts=False)[0].dtype == dtype
    grads = backward(net, acts, np.ones(logits.shape))  # a float64 gradient
    assert all(a.dtype == dtype for pair in grads.values() for a in pair)
    state = None
    for lr in (0.1, np.float64(0.1)):
        _, state = sgd_step(net, grads, lr, 0.9, state)
    assert all(v.dtype == dtype for pair in state.values() for v in pair)
    _assert_dtype(net, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_training_teacher_and_copy_keep_the_dtype(dtype):
    net = _net(dtype)
    data = (_blobs(60, seed=5), _blobs(30, seed=6))
    # train_until hands back copies of the best epoch's layers
    cfg = DistillConfig(max_epochs=3, accuracy_threshold=1.0, batch_size=16)
    net, _, _ = train_until(net, data, cfg, rng=make_rng(7))
    _assert_dtype(net, dtype)
    teacher = snapshot_teacher(net)
    _assert_dtype(teacher, dtype)
    _assert_dtype(net.copy(), dtype)
    student, _, _ = train_until(net.copy(), data, cfg, teacher=teacher, rng=make_rng(8))
    _assert_dtype(student, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_apply_projection_inserts_in_the_dtype(dtype):
    net = _net(dtype)
    p, _ = np.linalg.qr(normal(make_rng(9), (8, 8)))
    proj = Projection(matrix=p[:3], layer_id=0)
    out = apply_projection(net, proj)
    _assert_dtype(out, dtype)
    assert np.array_equal(out.layers[1].weights, p[:3].astype(dtype))
    assert np.array_equal(out.layers[2].weights,
                          net.layers[1].weights @ p[:3].astype(dtype).T)


@pytest.mark.parametrize("dtype", DTYPES)
def test_checkpoint_round_trip_keeps_the_dtype(tmp_path, dtype):
    net = apply_projection(_net(dtype), Projection(matrix=np.eye(8)[:3], layer_id=0))
    path = tmp_path / "c.rmtk"
    blob = save_checkpoint(Checkpoint(network=net, metrics={}))
    path.write_bytes(blob)
    back = load_checkpoint(path).network
    _assert_dtype(back, dtype)
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weights, b.weights)
    assert save_checkpoint(Checkpoint(network=back, metrics={})) == blob


def test_dense_layer_keeps_float32_and_makes_the_rest_float64():
    layer = DenseLayer(weights=np.ones((2, 3), dtype=np.float32), bias=np.zeros(2))
    assert layer.weights.dtype == layer.bias.dtype == np.float32
    layer = DenseLayer(weights=np.ones((2, 3), dtype=np.int64), bias=[0, 0])
    assert layer.weights.dtype == layer.bias.dtype == np.float64


def test_a_network_of_mixed_dtypes_is_refused():
    l0 = DenseLayer(weights=np.ones((4, 3), dtype=np.float32), bias=np.zeros(4))
    l1 = DenseLayer(weights=np.ones((2, 4)), bias=np.zeros(2), activation="identity")
    with pytest.raises(InvalidInput, match="layer 1 is float64, layer 0 is float32"):
        Network(layers=[l0, l1], input_dim=3, num_classes=2)
    net = _net(np.float32)
    net.layers[2].weights = net.layers[2].weights.astype(np.float64)
    with pytest.raises(InvalidInput, match="layer 2 is float64"):
        net.check_dims()
