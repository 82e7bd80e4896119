"""Projection construction, layer surgery, and the compression loop.

One compression step: snapshot the current model as teacher, capture
calibration activations at the target layer, fit the noise bulk of their
covariance spectrum, keep the eigen-directions above the bulk edge, insert
that projection as a frozen layer, warm-start the downstream layer at the
reduced width, and fine-tune against the teacher.  The loop walks the
planned layers in order and stops early on an accuracy floor (with rollback).
"""

from dataclasses import dataclass, replace

import numpy as np

from .distill import accuracy, snapshot_teacher, train_until
from .errors import AlreadyProjected, DegenerateSpectrum, InvalidInput, NoSpikes
from .network import DenseLayer, Network, forward, param_count
from .rng import derive_seed, make_rng
from .spectral import (SYM_TOL, MPModel, classify, compute_covariance,
                       eig_sym, fit_sigma2, init_sigma2)

ORTHO_TOL = 1e-8


@dataclass
class Projection:
    matrix: np.ndarray  # k x d, orthonormal rows, descending eigenvalue order
    layer_id: int
    retained_eigenvalues: list

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        k, d = self.matrix.shape
        if not 1 <= k <= d:
            raise InvalidInput("projection needs 1 <= k <= d")
        gram = self.matrix @ self.matrix.T
        if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
            raise InvalidInput("projection rows are not orthonormal")


@dataclass
class CompressionPlan:
    layer_order: list  # hidden-layer ordinals to reduce, shallow to deep
    quantile: float = 0.5
    accuracy_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.quantile <= 1.0:
            raise InvalidInput("quantile must lie in [0, 1]")


@dataclass
class IterationRecord:
    iteration: int
    layer_id: int
    d: int
    k: int
    sigma2: float
    lambda_plus: float
    acc_before: float
    acc_after_finetune: float
    params_before: int
    params_after: int


def build_projection(partition, layer_id):
    """Projection onto the spike subspace.

    Rows are the spike eigenvectors in descending eigenvalue order.  Raises
    NoSpikes when the partition has no spikes at all, and InvalidInput when
    it carries no eigenvectors.
    """
    if partition.spike_eigenvectors is None:
        raise InvalidInput("partition has no eigenvectors to project onto")
    if partition.k == 0:
        raise NoSpikes("no eigenvalues above the bulk edge")
    return Projection(
        matrix=partition.spike_eigenvectors,
        layer_id=layer_id,
        retained_eigenvalues=[float(v) for v in partition.eigenvalues[:partition.k]],
    )


def apply_projection(net, proj):
    """Insert a frozen projection after its layer and resize downstream.

    Returns a new network: a bias-free identity-activation layer with
    weights P follows layer ``proj.layer_id``, and the next trainable
    layer's weights W (out x d) are warm-started as W P^T (out x k).  The
    original network is left untouched.
    """
    i = proj.layer_id
    if not 0 <= i < len(net.layers) - 1:
        raise InvalidInput(f"layer {i} is not a hidden layer")
    target = net.layers[i]
    k, d = proj.matrix.shape
    if target.out_dim != d:
        raise InvalidInput(f"layer {i} outputs {target.out_dim}, projection expects {d}")
    if net.layers[i + 1].frozen:
        raise AlreadyProjected(f"layer {i} already feeds a projection")
    out = net.copy()
    p_layer = DenseLayer(weights=proj.matrix, bias=None,
                         activation="identity", frozen=True)
    out.layers.insert(i + 1, p_layer)
    down = out.layers[i + 2]
    down.weights = down.weights @ proj.matrix.T
    out.history.append((i, d, k))
    out.check_dims()
    return out


def _hidden_layer_index(net, ordinal):
    """Current index of the ``ordinal``-th non-frozen hidden layer."""
    hidden = [i for i, l in enumerate(net.layers[:-1]) if not l.frozen]
    if not 0 <= ordinal < len(hidden):
        raise InvalidInput(f"no hidden layer ordinal {ordinal}")
    return hidden[ordinal]


def analyse_layer(net, cal_x, layer_id, quantile, vectors=True):
    """Fit the noise bulk of one layer's calibration spectrum.

    ``layer_id`` indexes ``net.layers`` and must name a non-frozen hidden
    layer; ``cal_x`` is the dim x n calibration batch.  Captures the layer's
    activations by running only the layers up to it, eigendecomposes their
    covariance (the activations are freed first, so they never share memory
    with the eigensolver's copy), fits sigma2 from the ``quantile`` init and
    splits the spectrum at the fitted bulk edge.
    Returns ``(spectrum, model, partition, fit)``.  With ``vectors=False``
    only eigenvalues are computed and the partition carries no vectors.

    Raises DegenerateSpectrum, naming the layer, when the spectrum cannot
    be fitted: the quantile init is round-off (too many zero eigenvalues,
    typically d > n) or the fit itself is undefined.
    """
    if not 0 <= layer_id < len(net.layers) - 1 or net.layers[layer_id].frozen:
        raise InvalidInput(f"layer {layer_id} is not a reducible hidden layer")
    prefix = Network(layers=net.layers[:layer_id + 1], input_dim=net.input_dim,
                     num_classes=net.layers[layer_id].out_dim)
    x = forward(prefix, cal_x)[0]  # the acts list is dropped with the tuple
    cov, n = compute_covariance(x), x.shape[1]
    del x
    spectrum, vecs = eig_sym(cov, n_samples=n, vectors=vectors)
    s2_init = init_sigma2(spectrum, quantile)
    floor = SYM_TOL * spectrum.clamped[0]
    if s2_init <= floor:
        zeros = int(np.sum(spectrum.clamped <= floor))
        raise DegenerateSpectrum(
            f"layer {layer_id}: the sigma2 init at quantile {quantile} is round-off "
            f"({s2_init:.3g}); {zeros} of d={spectrum.d} eigenvalues are zero "
            f"with n={spectrum.n} calibration samples; raise plan.quantile or "
            f"split.calibration_fraction"
        )
    try:
        sigma2, fit = fit_sigma2(spectrum, s2_init)
    except DegenerateSpectrum as e:
        raise DegenerateSpectrum(f"layer {layer_id}: {e}") from e
    model = MPModel(sigma2=sigma2, q=spectrum.q)
    return spectrum, model, classify(spectrum, vecs, model), fit


def check_calibration_rank(widths, n, plan, quantiles):
    """Refuse a plan whose spectrum analysis is sure to be degenerate.

    Hidden layer ``o`` of width d = ``widths[o]`` over n < d calibration
    columns has at least d - n zero eigenvalues (the covariance is
    uncentered, so its rank is at most n).  A quantile q with
    q (d - 1) <= d - n - 1, i.e. q <= (d - n - 1) / (d - 1), puts the
    sigma2 init between them, so :func:`analyse_layer` would fail after
    all the training before it.  Checks every planned layer at every
    quantile, and raises DegenerateSpectrum naming the first such pair.
    """
    for o in plan.layer_order:
        d = widths[o]
        for q in quantiles:
            if n < d and q * (d - 1) <= d - n - 1:
                raise DegenerateSpectrum(
                    f"layer {o}: the sigma2 init at quantile {q} is round-off; "
                    f"at least {d - n} of d={d} eigenvalues are zero with n={n} "
                    f"calibration samples; raise plan.quantile or "
                    f"split.calibration_fraction"
                )


def compress_step(net, data, plan, cfg, layer_id, rng, iteration=0):
    """One train -> analyse -> project -> fine-tune cycle at ``layer_id``.

    ``data`` is the (train, val, calibration) triple; ``layer_id`` indexes
    the current network's layers and must name a non-frozen hidden layer.
    Returns ``(new_net, IterationRecord)``; the input network is never
    mutated.  A spectrum with no spikes is a skip: the input network is
    returned unchanged with k = d recorded.  DegenerateSpectrum from
    :func:`analyse_layer` propagates.
    """
    train_part, val_part, cal_part = data
    spectrum, model, partition, _ = analyse_layer(net, cal_part.x, layer_id,
                                                  plan.quantile)
    params_before, _ = param_count(net)
    acc_before = accuracy(net, val_part.x, val_part.y)

    d = spectrum.d
    try:
        proj = build_projection(partition, layer_id)
    except NoSpikes:
        record = IterationRecord(
            iteration=iteration, layer_id=layer_id, d=d, k=d,
            sigma2=model.sigma2, lambda_plus=model.lambda_plus,
            acc_before=acc_before, acc_after_finetune=acc_before,
            params_before=params_before, params_after=params_before,
        )
        return net, record

    teacher = snapshot_teacher(net)
    new_net = apply_projection(net, proj)
    new_net, _, acc_after = train_until(
        new_net, (train_part, val_part), cfg, teacher=teacher, rng=rng
    )
    params_after, _ = param_count(new_net)
    record = IterationRecord(
        iteration=iteration, layer_id=layer_id, d=d, k=proj.matrix.shape[0],
        sigma2=model.sigma2, lambda_plus=model.lambda_plus,
        acc_before=acc_before, acc_after_finetune=acc_after,
        params_before=params_before, params_after=params_after,
    )
    return new_net, record


def run_loop(net, data, plan, cfg, rng):
    """Iterate compress_step over ``plan.layer_order``, one step per ordinal.

    Stops after the last planned layer, or at the first step whose
    fine-tuned validation accuracy falls below plan.accuracy_floor; that
    step is rolled back (compress_step never mutates its input, so the
    pre-step network is simply kept).  Returns ``(net, history)``;
    rolled-back and skipped attempts stay in the history for audit.
    """
    history = []
    for step, ordinal in enumerate(plan.layer_order):
        layer_id = _hidden_layer_index(net, ordinal)
        new_net, record = compress_step(net, data, plan, cfg, layer_id, rng,
                                        iteration=step)
        history.append(record)
        if record.k < record.d and record.acc_after_finetune < plan.accuracy_floor:
            break  # rollback: keep the pre-step network
        net = new_net
    return net, history


def quantile_ablation(net_factory, data, quantile_grid, plan, cfg, seed=0):
    """One full run_loop per quantile from identical initial conditions.

    ``net_factory()`` must return a fresh, identically-initialized (and
    warmed-up) network for every cell.  Returns a list of
    ``(quantile, final_accuracy, reduction_fraction)`` rows, one per grid
    value, in grid order.
    """
    if len(quantile_grid) == 0:
        raise InvalidInput("quantile grid is empty")
    _, val_part, _ = data
    rows = []
    for qv in quantile_grid:
        cell_net = net_factory()
        base_params, _ = param_count(cell_net)
        cell_plan = replace(plan, quantile=float(qv))
        cell_rng = make_rng(derive_seed(seed, f"ablate-{float(qv)!r}"))
        out_net, _ = run_loop(cell_net, data, cell_plan, cfg, cell_rng)
        trainable, _ = param_count(out_net)
        rows.append((
            float(qv),
            accuracy(out_net, val_part.x, val_part.y),
            1.0 - trainable / base_params,
        ))
    return rows
