import copy
import json
import struct

import numpy as np
import pytest

from rmtkd.errors import CorruptFile, InvalidInput, VersionMismatch
from rmtkd.network import (Checkpoint, DenseLayer, Network, backward, forward,
                           init_network, load_checkpoint, param_count,
                           save_checkpoint, sgd_step)
from rmtkd.reducer import analyse_layer
from rmtkd.rng import make_rng, normal


def _tiny_net():
    """3 -> 2 relu -> 1 logits with hand-picked weights."""
    l0 = DenseLayer(weights=np.array([[1.0, -1.0, 0.0], [0.0, 2.0, 1.0]]),
                    bias=np.array([0.5, -3.0]), activation="relu")
    l1 = DenseLayer(weights=np.array([[1.0, 1.0]]), bias=np.array([0.0]),
                    activation="identity")
    return Network(layers=[l0, l1], input_dim=3, num_classes=1)


def _rnd_normal(seed, dtype=np.float64):
    rng = make_rng(seed)
    return lambda shape: normal(rng, shape).astype(dtype, copy=False)


# ------------------------------------------------------------- construction

def test_dense_layer_rejects_bad_bias_and_activation():
    with pytest.raises(InvalidInput):
        DenseLayer(weights=np.ones((2, 3)), bias=np.ones(3))
    with pytest.raises(InvalidInput):
        DenseLayer(weights=np.ones((2, 3)), bias=None, activation="tanh")


def test_network_checks_chained_dims():
    l0 = DenseLayer(weights=np.ones((4, 3)), bias=np.zeros(4))
    l1 = DenseLayer(weights=np.ones((2, 5)), bias=np.zeros(2))
    with pytest.raises(InvalidInput):
        Network(layers=[l0, l1], input_dim=3, num_classes=2)


def test_network_checks_final_width():
    l0 = DenseLayer(weights=np.ones((4, 3)), bias=np.zeros(4), activation="identity")
    with pytest.raises(InvalidInput):
        Network(layers=[l0], input_dim=3, num_classes=2)


def test_init_network_shapes_and_activations():
    net = init_network([64, 32], 10, 5, _rnd_normal(0))
    assert [(l.out_dim, l.in_dim) for l in net.layers] == [(64, 10), (32, 64), (5, 32)]
    assert [l.activation for l in net.layers] == ["relu", "relu", "identity"]
    assert all(not l.frozen for l in net.layers)
    assert all(np.array_equal(l.bias, np.zeros(l.out_dim)) for l in net.layers)


def test_init_network_he_scale():
    # empirical std of a 256 x 128 He layer should sit near sqrt(2/128)
    net = init_network([256], 128, 2, _rnd_normal(1))
    got = net.layers[0].weights.std()
    assert abs(got - np.sqrt(2.0 / 128)) < 0.01


def test_dense_layer_owns_its_arrays():
    w = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([0.25, -0.75])
    w0, b0 = w.copy(), b.copy()
    layer = DenseLayer(weights=w, bias=b, activation="identity")
    assert layer.weights is not w and layer.bias is not b
    net = Network(layers=[layer], input_dim=2, num_classes=2)
    sgd_step(net, {0: (np.ones((2, 2)), np.ones(2))}, lr=0.1, momentum=0.9)
    assert not np.array_equal(net.layers[0].weights, w0)
    assert np.array_equal(w, w0) and np.array_equal(b, b0)


def test_copy_is_deep():
    net = _tiny_net()
    dup = net.copy()
    dup.layers[0].weights[0, 0] = 99.0
    dup.layers[0].bias[0] = 99.0
    assert net.layers[0].weights[0, 0] == 1.0
    assert net.layers[0].bias[0] == 0.5


# ------------------------------------------------------------------ forward

def test_forward_hand_computed():
    net = _tiny_net()
    x = np.array([[1.0], [2.0], [0.0]])
    # z1 = [1-2+0.5, 4-3] = [-0.5, 1] -> relu -> [0, 1]; logits = [1]
    logits, acts = forward(net, x)
    assert np.allclose(logits, [[1.0]])
    assert len(acts) == 3 and np.array_equal(acts[0], x) and acts[-1] is logits


def test_forward_capture_layer():
    net = _tiny_net()
    x = np.array([[1.0], [2.0], [0.0]])
    _, acts = forward(net, x)
    assert np.allclose(acts[1], [[0.0], [1.0]])


def test_forward_capture_frozen_rejected():
    net = _tiny_net()
    net.layers[0].frozen = True
    with pytest.raises(InvalidInput):
        analyse_layer(net, np.zeros((3, 1)), 0, 0.5)


def test_forward_batch_shape_validated():
    net = _tiny_net()
    with pytest.raises(InvalidInput):
        forward(net, np.zeros((4, 2)))


# ----------------------------------------------------------------- backward

def test_forward_backward_leave_no_state():
    net = init_network([6, 5], 4, 3, _rnd_normal(10))
    net.layers[1].frozen = True
    x = normal(make_rng(11), (4, 7))

    def state():
        return [{k: v.copy() if isinstance(v, np.ndarray) else copy.copy(v)
                 for k, v in vars(obj).items()} for obj in [net] + net.layers]

    before = state()
    logits, acts = forward(net, x)
    backward(net, acts, logits)
    after = state()
    assert len(before) == len(after)
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        for key, value in b.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, a[key]), key
            else:
                assert value == a[key], key


def test_backward_finite_difference():
    # quadratic logit loss L = 0.5 ||logits||^2 so dL/dlogits = logits
    net = init_network([8, 6], 5, 3, _rnd_normal(2))
    rng = make_rng(3)
    x = normal(rng, (5, 7))
    logits, acts = forward(net, x)
    grads = backward(net, acts, logits)
    eps = 1e-6
    worst = 0.0
    for i, (gw, gb) in grads.items():
        for idx in [(0, 0), (gw.shape[0] - 1, gw.shape[1] - 1)]:
            w0 = net.layers[i].weights[idx]
            net.layers[i].weights[idx] = w0 + eps
            lp = 0.5 * np.sum(forward(net, x)[0] ** 2)
            net.layers[i].weights[idx] = w0 - eps
            lm = 0.5 * np.sum(forward(net, x)[0] ** 2)
            net.layers[i].weights[idx] = w0
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - gw[idx]) / max(abs(fd), 1e-12))
        if gb is not None:
            b0 = net.layers[i].bias[0]
            net.layers[i].bias[0] = b0 + eps
            lp = 0.5 * np.sum(forward(net, x)[0] ** 2)
            net.layers[i].bias[0] = b0 - eps
            lm = 0.5 * np.sum(forward(net, x)[0] ** 2)
            net.layers[i].bias[0] = b0
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - gb[0]) / max(abs(fd), 1e-12))
    assert worst < 1e-6


def test_backward_skips_frozen_layers():
    net = init_network([6], 4, 2, _rnd_normal(4))
    net.layers[0].frozen = True
    x = normal(make_rng(5), (4, 3))
    logits, acts = forward(net, x)
    grads = backward(net, acts, logits)
    assert set(grads) == {1}


def test_backward_hand_relu_mask():
    net = _tiny_net()
    x = np.array([[1.0], [2.0], [0.0]])  # hidden pre-act [-0.5, 1]: unit 0 dead
    _, acts = forward(net, x)
    grads = backward(net, acts, np.array([[1.0]]))
    gw0, gb0 = grads[0]
    # dead relu unit blocks the gradient entirely
    assert np.allclose(gw0[0], 0.0) and gb0[0] == 0.0
    assert np.allclose(gw0[1], [1.0, 2.0, 0.0]) and gb0[1] == 1.0
    gw1, gb1 = grads[1]
    assert np.allclose(gw1, [[0.0, 1.0]]) and gb1[0] == 1.0


# ----------------------------------------------------------------- sgd_step

def test_sgd_step_two_steps_momentum_oracle():
    layer = DenseLayer(weights=np.array([[1.0]]), bias=np.array([0.0]),
                       activation="identity")
    net = Network(layers=[layer], input_dim=1, num_classes=1)
    g = {0: (np.array([[2.0]]), np.array([0.0]))}
    net, state = sgd_step(net, g, lr=0.1, momentum=0.9)
    assert np.isclose(net.layers[0].weights[0, 0], 0.8)  # v=2, w=1-0.2
    net, state = sgd_step(net, g, lr=0.1, momentum=0.9, state=state)
    assert np.isclose(net.layers[0].weights[0, 0], 0.42)  # v=3.8, w=0.8-0.38
    assert g[0][0][0, 0] == 2.0  # the gradient passed twice is only read


def test_sgd_step_leaves_frozen_layers():
    net = _tiny_net()
    net.layers[0].frozen = True
    before = net.layers[0].weights.copy()
    g = {0: (np.ones((2, 3)), np.ones(2)), 1: (np.zeros((1, 2)), np.zeros(1))}
    sgd_step(net, g, lr=0.5, momentum=0.0)
    assert np.array_equal(net.layers[0].weights, before)


def test_sgd_step_validates_hyperparams():
    net = _tiny_net()
    with pytest.raises(InvalidInput):
        sgd_step(net, {}, lr=-1.0, momentum=0.0)
    with pytest.raises(InvalidInput):
        sgd_step(net, {}, lr=0.1, momentum=1.0)


# ------------------------------------------- out-of-place reference parity
# The out-of-place forward, backward and sgd_step that the in-place ones
# replaced, kept verbatim: the in-place versions must give the same bits.

def _forward_ref(net, batch):
    a = np.asarray(batch, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != net.input_dim:
        raise InvalidInput(
            f"batch must be {net.input_dim} x b, got {a.shape}"
        )
    acts = [a]
    for layer in net.layers:
        z = layer.weights @ acts[-1]
        if layer.bias is not None:
            z = z + layer.bias[:, None]
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        acts.append(z)
    return acts[-1], acts


def _backward_ref(net, acts, loss_grad_at_logits):
    g = np.asarray(loss_grad_at_logits, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise InvalidInput("gradient shape must match logits")
    grads = {}
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if not layer.frozen:
            gw = g @ acts[i].T
            gb = None if layer.bias is None else g.sum(axis=1)
            grads[i] = (gw, gb)
        if i > 0:
            g = layer.weights.T @ g
            if net.layers[i - 1].activation == "relu":
                g = g * (acts[i] > 0)
    return grads


def _sgd_step_ref(net, gradients, lr, momentum, state=None):
    if lr < 0 or not 0.0 <= momentum < 1.0:
        raise InvalidInput("need lr >= 0 and momentum in [0, 1)")
    if state is None:
        state = {}
    for i, (gw, gb) in gradients.items():
        layer = net.layers[i]
        if layer.frozen:
            continue
        vw, vb = state.get(i, (np.zeros_like(layer.weights),
                               None if layer.bias is None else np.zeros_like(layer.bias)))
        vw = momentum * vw + gw
        layer.weights = layer.weights - lr * vw
        if gb is not None:
            vb = momentum * vb + gb
            layer.bias = layer.bias - lr * vb
        state[i] = (vw, vb)
    return net, state


def _projected_net(seed):
    """relu 6 -> 9, frozen bias-free 9 -> 5 projection, relu 5 -> 7, identity 7 -> 4."""
    net = init_network([9, 7], 6, 4, _rnd_normal(seed))
    p, _ = np.linalg.qr(normal(make_rng(seed + 1), (9, 5)))
    net.layers.insert(1, DenseLayer(weights=p.T, bias=None,
                                    activation="identity", frozen=True))
    net.layers[2].weights = net.layers[2].weights[:, :5].copy()
    net.check_dims()
    return net


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_in_place_training_matches_out_of_place_bits():
    net, ref = _projected_net(20), _projected_net(20)
    assert net.layers[-1].activation == "identity" and net.layers[1].bias is None
    rng = make_rng(21)
    state = ref_state = None
    for step in range(25):
        x = normal(rng, (6, 16))
        target = normal(rng, (4, 16))
        logits, acts = forward(net, x)
        ref_logits, ref_acts = _forward_ref(ref, x)
        assert _same_bits(logits, ref_logits), step
        assert all(_same_bits(a, r) for a, r in zip(acts, ref_acts)), step
        # the batch-mean loss's gradient keeps every step's values finite,
        # so no step compares only infs and NaNs
        assert np.isfinite(logits).all(), step
        grads = backward(net, acts, (logits - target) / 16)
        ref_grads = _backward_ref(ref, ref_acts, (ref_logits - target) / 16)
        assert set(grads) == set(ref_grads) == {0, 2, 3}
        for i, (gw, gb) in grads.items():
            assert _same_bits(gw, ref_grads[i][0]) and _same_bits(gb, ref_grads[i][1])
        _, state = sgd_step(net, grads, lr=0.05, momentum=0.9, state=state)
        _, ref_state = _sgd_step_ref(ref, ref_grads, lr=0.05, momentum=0.9,
                                     state=ref_state)
        for layer, ref_layer in zip(net.layers, ref.layers):
            assert _same_bits(layer.weights, ref_layer.weights), step
            assert (layer.bias is None) == (ref_layer.bias is None)
            if layer.bias is not None:
                assert _same_bits(layer.bias, ref_layer.bias), step
        assert set(state) == set(ref_state)
        for i, (vw, vb) in state.items():
            assert _same_bits(vw, ref_state[i][0]), step
            assert _same_bits(vb, ref_state[i][1]), step
    assert np.array_equal(net.layers[1].weights, _projected_net(20).layers[1].weights)


def test_forward_without_acts_gives_the_same_logit_bits():
    net = _projected_net(24)
    assert net.layers[1].frozen and net.layers[1].bias is None
    rng = make_rng(25)
    for b in (1, 7, 64):
        x = normal(rng, (6, b))
        logits, acts = forward(net, x)
        lean, none = forward(net, x, keep_acts=False)
        assert none is None and len(acts) == len(net.layers) + 1
        assert _same_bits(lean, logits), b
    with pytest.raises(TypeError):
        forward(net, x, False)  # keyword-only


def test_forward_backward_sgd_leave_their_inputs_alone():
    net = _projected_net(22)
    x = normal(make_rng(23), (6, 8))
    x0 = x.copy()
    logits, acts = forward(net, x)
    assert np.array_equal(x, x0)
    acts0 = [a.copy() for a in acts]
    grad = logits - 1.0
    grad0 = grad.copy()
    grads = backward(net, acts, grad)
    assert np.array_equal(grad, grad0)
    assert all(np.array_equal(a, a0) for a, a0 in zip(acts, acts0))
    grads0 = {i: (gw.copy(), None if gb is None else gb.copy())
              for i, (gw, gb) in grads.items()}
    _, state = sgd_step(net, grads, lr=0.1, momentum=0.9)
    sgd_step(net, grads, lr=0.1, momentum=0.9, state=state)
    for i, (gw, gb) in grads.items():
        assert np.array_equal(gw, grads0[i][0])
        assert (gb is None and grads0[i][1] is None) or np.array_equal(gb, grads0[i][1])


# -------------------------------------------------------------- param_count

def test_param_count_hand():
    net = _tiny_net()  # (2*3+2) + (1*2+1) = 8 + 3
    assert param_count(net) == (11, 0)
    net.layers.insert(1, DenseLayer(weights=np.eye(2), bias=None,
                                    activation="identity", frozen=True))
    net.check_dims()
    assert param_count(net) == (11, 4)


# ------------------------------------------------------------- checkpointing

def test_checkpoint_roundtrip_byte_exact(tmp_path):
    net = init_network([5, 4], 3, 2, _rnd_normal(6))
    net.layers.insert(1, DenseLayer(weights=np.eye(5)[:3], bias=None,
                                    activation="identity", frozen=True))
    net.layers[2].weights = net.layers[2].weights[:, :3]
    net.check_dims()
    cp = Checkpoint(network=net, metrics={"val_accuracy": 0.87, "epochs": 4})
    p1 = tmp_path / "a.rmtk"
    p2 = tmp_path / "b.rmtk"
    p1.write_bytes(save_checkpoint(cp))
    back = load_checkpoint(p1)
    p2.write_bytes(save_checkpoint(back))
    assert p1.read_bytes() == p2.read_bytes()
    assert back.metrics == cp.metrics
    assert back.network.layers[1].weights.shape == (3, 5)  # the step's k x d
    for a, b in zip(net.layers, back.network.layers):
        assert np.array_equal(a.weights, b.weights)
        assert (a.bias is None) == (b.bias is None)
        if a.bias is not None:
            assert np.array_equal(a.bias, b.bias)
        assert a.frozen == b.frozen and a.activation == b.activation


@pytest.mark.parametrize("code, dtype", [("f4", np.float32), ("f8", np.float64)])
def test_checkpoint_v4_layout(tmp_path, code, dtype):
    # magic, version 4, header length, JSON header, then only the raw weights
    # at the width the header's dtype names
    net = init_network([3], 2, 2, _rnd_normal(7, dtype))
    blob = save_checkpoint(Checkpoint(network=net, metrics={"val_accuracy": 0.5}))
    assert blob[:4] == b"RMTK" and struct.unpack("<I", blob[4:8])[0] == 4
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hlen])
    assert set(header) == {"input_dim", "num_classes", "layers", "metrics", "dtype"}
    assert header["metrics"] == {"val_accuracy": 0.5} and header["dtype"] == code
    assert blob[12 + hlen:] == b"".join(a.astype("<" + code).tobytes()
                                        for l in net.layers for a in (l.weights, l.bias))
    assert len(blob) - 12 - hlen == (3 * 2 + 3 + 2 * 3 + 2) * np.dtype(dtype).itemsize
    p = tmp_path / "c.rmtk"
    p.write_bytes(blob)
    assert load_checkpoint(p).network.dtype == dtype


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.rmtk"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CorruptFile):
        load_checkpoint(p)


def test_checkpoint_version_mismatch(tmp_path):
    net = init_network([3], 2, 2, _rnd_normal(7))
    blob = save_checkpoint(Checkpoint(network=net, metrics={}))
    p = tmp_path / "v.rmtk"
    # version 1 still held the generator state, version 2 a step history,
    # version 3 float64 weights with no dtype key
    for version in (1, 2, 3):
        p.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(VersionMismatch) as ei:
            load_checkpoint(p)
        assert f"format version {version}, expected 4" in str(ei.value)


def test_checkpoint_truncation(tmp_path):
    p = tmp_path / "t.rmtk"
    for dtype in (np.float64, np.float32):
        net = init_network([3], 2, 2, _rnd_normal(8, dtype))
        blob = save_checkpoint(Checkpoint(network=net, metrics={}))
        width = np.dtype(dtype).itemsize
        p.write_bytes(blob[:-width - 1])
        with pytest.raises(CorruptFile):
            load_checkpoint(p)
        # the last layer is 2 x 3 weights then 2 biases, of ``width`` bytes each
        hlen = struct.unpack("<I", blob[8:12])[0]
        for cut, what in ((blob[:12 + hlen - 1], "header"), (blob[:-width], "bias"),
                          (blob[:-3 * width], "weights")):
            p.write_bytes(cut)
            with pytest.raises(CorruptFile, match=f"truncated {what}$"):
                load_checkpoint(p)


def _with_header(blob, edit):
    """Checkpoint bytes with the JSON header replaced by ``edit(header)``."""
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = edit(json.loads(blob[12:12 + hlen]))
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:]


def _set(key, value, layer=None):
    def edit(header):
        target = header if layer is None else header["layers"][layer]
        target[key] = value
        return header
    return edit


@pytest.mark.parametrize("edit, why", [
    (lambda h: [h], "header has no list of layers"),
    (_set("layers", 5), "header has no list of layers"),
    (lambda h: {**h, "layers": [7] + h["layers"][1:]}, "is not an object"),
    (_set("out", "3", layer=0), "are not positive integers"),
    (_set("in", 2.0, layer=0), "are not positive integers"),
    (_set("out", True, layer=0), "are not positive integers"),
    (_set("out", 0, layer=0), "are not positive integers"),
    (_set("input_dim", 2.0), "input_dim and num_classes"),
    (_set("num_classes", 2.0), "input_dim and num_classes"),
    (_set("num_classes", True), "input_dim and num_classes"),
    (_set("frozen", "no", layer=0), "must be true or false"),
    (_set("has_bias", 1, layer=0), "must be true or false"),
    (_set("input_dim", 9), "expects input"),
    # no layers, even with input_dim == num_classes as here
    (_set("layers", []), "a network needs at least one layer"),
    (_set("activation", "tanh", layer=1), "unknown activation"),
    (_set("metrics", 5), ""),
    # the header's key sets are exact, and metrics is a JSON object
    (lambda h: {**h, "history": []}, "header has unknown key 'history'"),
    (lambda h: {**h, "metrcs": {}}, "header has unknown key 'metrcs'"),
    (lambda h: {k: v for k, v in h.items() if k != "metrics"},
     "header has no key 'metrics'"),
    (_set("bias", True, layer=1), "layer spec 1 has unknown key 'bias'"),
    (_set("metrics", [["val_accuracy", 0.5]]),
     "metrics [['val_accuracy', 0.5]] is not an object"),
    # the weights' width is one of two names
    (lambda h: {k: v for k, v in h.items() if k != "dtype"},
     "header has no key 'dtype'"),
    (_set("dtype", "f2"), "dtype 'f2' is not 'f4' or 'f8'"),
    (_set("dtype", "<f8"), "dtype '<f8' is not 'f4' or 'f8'"),
    (_set("dtype", ["f8"]), "dtype ['f8'] is not 'f4' or 'f8'"),
])
def test_checkpoint_malformed_header(tmp_path, edit, why):
    net = init_network([3], 2, 2, _rnd_normal(8))
    cp = Checkpoint(network=net, metrics={})
    p = tmp_path / "h.rmtk"
    p.write_bytes(_with_header(save_checkpoint(cp), edit))
    with pytest.raises(CorruptFile) as ei:
        load_checkpoint(p)
    assert why in str(ei.value)


def test_checkpoint_trailing_bytes(tmp_path):
    net = init_network([3], 2, 2, _rnd_normal(8))
    cp = Checkpoint(network=net, metrics={})
    p = tmp_path / "x.rmtk"
    blob = save_checkpoint(cp)
    p.write_bytes(_with_header(blob, lambda h: h))
    load_checkpoint(p)  # the re-packing helper itself yields a valid file
    p.write_bytes(blob + b"\x00")
    with pytest.raises(CorruptFile) as ei:
        load_checkpoint(p)
    assert "1 trailing bytes" in str(ei.value)


@pytest.mark.parametrize("layer, name, value", [(0, "weights", np.nan),
                                                (1, "bias", np.inf),
                                                (1, "bias", -np.inf)])
def test_checkpoint_non_finite_parameter(tmp_path, layer, name, value):
    p = tmp_path / "n.rmtk"
    for dtype in (np.float64, np.float32):
        net = init_network([3], 2, 2, _rnd_normal(8, dtype))
        getattr(net.layers[layer], name).flat[0] = value
        p.write_bytes(save_checkpoint(Checkpoint(network=net, metrics={})))
        with pytest.raises(CorruptFile) as ei:
            load_checkpoint(p)
        assert str(ei.value) == f"{p}: layer {layer} {name} are not all finite"
