"""Dense feed-forward networks with manual backpropagation.

A network computes in the dtype of its weights, float32 or float64, and
every layer has the same one.  It is deliberately simple: layers are dense
with an optional bias and a relu or identity activation, batches are
matrices with samples in *columns*, and gradients are computed by hand so
they can be checked against finite differences.  Frozen layers (the
inserted spectral projections) take part in the forward pass but receive
no gradients and are never updated.
"""

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CorruptFile, InvalidInput, VersionMismatch

CHECKPOINT_MAGIC = b"RMTK"
CHECKPOINT_VERSION = 4
# The exact keys of the JSON header and of each of its layer specs.
HEADER_KEYS = {"input_dim", "num_classes", "layers", "metrics", "dtype"}
# The header's "dtype": the width of every stored weight and bias.
CHECKPOINT_DTYPES = ("f4", "f8")
LAYER_KEYS = {"out", "in", "activation", "frozen", "has_bias"}


@dataclass
class DenseLayer:
    weights: np.ndarray  # out x in
    bias: np.ndarray | None  # length out, or None (projection layers)
    activation: str = "relu"  # "relu" | "identity"
    frozen: bool = False

    def __post_init__(self):
        # Own copies: sgd_step updates them in place.  float32 weights stay
        # float32; any other weights become float64, and the bias follows.
        dtype = np.float32 if np.asarray(self.weights).dtype == np.float32 else np.float64
        self.weights = np.array(self.weights, dtype=dtype)
        if self.bias is not None:
            self.bias = np.array(self.bias, dtype=dtype)
            if self.bias.shape != (self.weights.shape[0],):
                raise InvalidInput("bias length must equal output width")
        if self.activation not in ("relu", "identity"):
            raise InvalidInput(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self):
        return self.weights.shape[0]

    @property
    def in_dim(self):
        return self.weights.shape[1]


@dataclass
class Network:
    layers: list
    input_dim: int
    num_classes: int

    def __post_init__(self):
        self.check_dims()

    @property
    def dtype(self):
        """The dtype every layer computes in: float32 or float64."""
        return self.layers[0].weights.dtype

    def check_dims(self):
        if not self.layers:
            raise InvalidInput("a network needs at least one layer")
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.in_dim != prev:
                raise InvalidInput(
                    f"layer {i} expects input {layer.in_dim}, got {prev}"
                )
            if layer.weights.dtype != self.dtype:
                raise InvalidInput(f"layer {i} is {layer.weights.dtype}, "
                                   f"layer 0 is {self.dtype}")
            prev = layer.out_dim
        if prev != self.num_classes:
            raise InvalidInput("final layer width must equal num_classes")

    def copy(self):
        # replace() reruns __post_init__: each layer copies its own arrays
        return replace(self, layers=[replace(l) for l in self.layers])


def init_network(widths, input_dim, num_classes, rng_normal):
    """He-initialized relu MLP; ``rng_normal(shape)`` supplies the Gaussians.

    ``widths`` are the hidden widths; the final identity-activation layer maps
    to ``num_classes`` logits.  The network has the dtype of the draws.
    """
    dims = [input_dim] + list(widths) + [num_classes]
    layers = []
    for i in range(len(dims) - 1):
        # a Python float scale: an np.float64 one would upcast float32 draws
        w = rng_normal((dims[i + 1], dims[i])) * math.sqrt(2.0 / dims[i])
        act = "identity" if i == len(dims) - 2 else "relu"
        layers.append(DenseLayer(weights=w, bias=np.zeros(dims[i + 1], dtype=w.dtype),
                                 activation=act))
    return Network(layers=layers, input_dim=input_dim, num_classes=num_classes)


def forward(net, batch, *, keep_acts=True):
    """Run the network on a dim x b batch.

    Returns ``(logits, acts)``: ``acts[0]`` is the batch and ``acts[i + 1]``
    is layer i's post-activation output, so ``acts[-1]`` is the logits.
    Pass ``acts`` to :func:`backward` to backpropagate through this pass.
    With ``keep_acts=False`` it returns ``(logits, None)`` and drops each
    activation once the next layer has consumed it, so at most two are
    alive at a time; the logits are the same bits.  The batch is cast to
    the network's dtype.
    """
    a = np.asarray(batch, dtype=net.dtype)
    if a.ndim != 2 or a.shape[0] != net.input_dim:
        raise InvalidInput(
            f"batch must be {net.input_dim} x b, got {a.shape}"
        )
    acts = [a] if keep_acts else None
    for layer in net.layers:
        a = layer.weights @ a
        if layer.bias is not None:
            a += layer.bias[:, None]
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        if keep_acts:
            acts.append(a)
    return a, acts


def backward(net, acts, loss_grad_at_logits):
    """Backpropagate a logit-space gradient to per-layer parameter gradients.

    ``acts`` are the activations :func:`forward` returned for the pass whose
    logits the gradient is taken at.  Returns ``{layer_index: (grad_w,
    grad_b)}`` for non-frozen layers only, in the network's dtype.
    """
    g = np.asarray(loss_grad_at_logits, dtype=net.dtype)
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
                g *= acts[i] > 0
    return grads


def sgd_step(net, gradients, lr, momentum, state=None):
    """One momentum-SGD update: v = mu v + g; w -= lr v.

    Updates the layers' weights and biases and the velocity buffers in
    place; the gradients are only read.  ``state`` holds the velocity
    buffers between calls (created at a layer's first update); pass the
    returned state back in to accumulate momentum.  Frozen layers are
    untouched.
    """
    if lr < 0 or not 0.0 <= momentum < 1.0:
        raise InvalidInput("need lr >= 0 and momentum in [0, 1)")
    if state is None:
        state = {}
    for i, (gw, gb) in gradients.items():
        layer = net.layers[i]
        if layer.frozen:
            continue
        if i not in state:
            state[i] = (np.zeros_like(layer.weights),
                        None if layer.bias is None else np.zeros_like(layer.bias))
        vw, vb = state[i]
        vw *= momentum
        vw += gw
        layer.weights -= lr * vw
        if gb is not None:
            vb *= momentum
            vb += gb
            layer.bias -= lr * vb
    return net, state


def param_count(net):
    """(trainable, frozen) parameter totals.

    Trainable counts weights plus biases of non-frozen layers; frozen counts
    the inserted projection entries separately so reductions can be reported
    with or without them.
    """
    trainable = 0
    frozen = 0
    for layer in net.layers:
        size = layer.weights.size + (0 if layer.bias is None else layer.bias.size)
        if layer.frozen:
            frozen += size
        else:
            trainable += size
    return trainable, frozen


@dataclass
class Checkpoint:
    network: Network
    metrics: dict


def save_checkpoint(cp):
    """Checkpoint bytes: magic, version, JSON header, raw little-endian
    weights and biases at the network's width (header ``dtype``)."""
    code = "f4" if cp.network.dtype == np.float32 else "f8"
    header = {
        "dtype": code,
        "input_dim": cp.network.input_dim,
        "num_classes": cp.network.num_classes,
        "layers": [{"out": l.out_dim, "in": l.in_dim, "activation": l.activation,
                    "frozen": l.frozen, "has_bias": l.bias is not None}
                   for l in cp.network.layers],
        "metrics": {k: cp.metrics[k] for k in sorted(cp.metrics)},
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(raw)), raw]
    for layer in cp.network.layers:
        parts.append(np.ascontiguousarray(layer.weights, dtype="<" + code).tobytes())
        if layer.bias is not None:
            parts.append(np.ascontiguousarray(layer.bias, dtype="<" + code).tobytes())
    return b"".join(parts)


def _is_positive_int(value):
    return type(value) is int and value >= 1  # a JSON true is not a dimension


def _check_keys(path, where, given, expected):
    """CorruptFile naming the first key missing from, or foreign to, ``expected``."""
    odd = sorted(set(given) ^ expected)
    if odd:
        kind = "no" if odd[0] in expected else "unknown"
        raise CorruptFile(f"{path}: {where} has {kind} key {odd[0]!r}")


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    off = 8
    try:
        hlen = struct.unpack("<I", blob[off:off + 4])[0]
        off += 4
        raw = blob[off:off + hlen]
        if len(raw) < hlen:
            raise CorruptFile(f"{path}: truncated header")
        header = json.loads(raw.decode("utf-8"))
        off += hlen
        if not isinstance(header, dict) or not isinstance(header.get("layers"), list):
            raise CorruptFile(f"{path}: header has no list of layers")
        _check_keys(path, "header", header, HEADER_KEYS)
        if not isinstance(header["metrics"], dict):
            raise CorruptFile(f"{path}: metrics {header['metrics']!r} is not an object")
        code = header["dtype"]
        if code not in CHECKPOINT_DTYPES:
            raise CorruptFile(f"{path}: dtype {code!r} is not 'f4' or 'f8'")
        dtype, width = "<" + code, int(code[1])
        dims = (header["input_dim"], header["num_classes"])
        if not all(_is_positive_int(dim) for dim in dims):
            raise CorruptFile(f"{path}: input_dim and num_classes {dims!r} are not positive integers")
        layers = []
        for spec in header["layers"]:
            if not isinstance(spec, dict):
                raise CorruptFile(f"{path}: layer spec {spec!r} is not an object")
            _check_keys(path, f"layer spec {len(layers)}", spec, LAYER_KEYS)
            out, inp = spec["out"], spec["in"]
            if not all(_is_positive_int(dim) for dim in (out, inp)):
                raise CorruptFile(f"{path}: layer dims {out!r} x {inp!r} are not positive integers")
            if not all(type(spec[flag]) is bool for flag in ("frozen", "has_bias")):
                raise CorruptFile(f"{path}: layer flags frozen and has_bias must be true or false")
            nbytes = out * inp * width
            w = np.frombuffer(blob[off:off + nbytes], dtype=dtype)
            if w.size != out * inp:
                raise CorruptFile(f"{path}: truncated weights")
            off += nbytes
            w = w.reshape(out, inp)
            bias = None
            if spec["has_bias"]:
                b = np.frombuffer(blob[off:off + out * width], dtype=dtype)
                if b.size != out:
                    raise CorruptFile(f"{path}: truncated bias")
                off += out * width
                bias = b
            for name, arr in (("weights", w), ("bias", bias)):
                if arr is not None and not np.all(np.isfinite(arr)):
                    raise CorruptFile(f"{path}: layer {len(layers)} {name} are not all finite")
            layers.append(DenseLayer(weights=w, bias=bias,
                                     activation=spec["activation"], frozen=spec["frozen"]))
        net = Network(layers=layers, input_dim=dims[0], num_classes=dims[1])
        if off != len(blob):
            raise CorruptFile(f"{path}: {len(blob) - off} trailing bytes after the weights")
        metrics = header["metrics"]
    except (KeyError, TypeError, ValueError, RecursionError, struct.error,
            InvalidInput) as e:
        raise CorruptFile(f"{path}: {e}") from e
    return Checkpoint(network=net, metrics=metrics)
