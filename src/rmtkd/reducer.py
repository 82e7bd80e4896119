"""Layer analysis, projection surgery, and the compression loop.

One compression step: capture calibration activations at the target layer,
fit the noise bulk of their covariance spectrum and keep the eigen-directions
above the bulk edge (analyse), insert that projection as a frozen layer and
warm-start the downstream layer at the reduced width (project), then
fine-tune against a frozen snapshot of the pre-step model (distill).  The loop
walks the planned layers in order and stops early on an accuracy floor (with
rollback).
"""

from dataclasses import dataclass, replace

import numpy as np

from .distill import accuracy, snapshot_teacher, train_until
from .errors import AlreadyProjected, DegenerateSpectrum, InvalidInput
from .network import DenseLayer, Network, forward, param_count
from .rng import derive_seed, make_rng
from .spectral import (SYM_TOL, MPModel, classify, compute_covariance,
                       eig_sym, fit_sigma2, init_sigma2)

ORTHO_TOL = 1e-8


@dataclass
class Projection:
    matrix: np.ndarray  # k x d, orthonormal rows, descending eigenvalue order
    layer_id: int  # hidden-layer ordinal
    retained_eigenvalues: list = None

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
    layer_id: int  # hidden-layer ordinal
    d: int
    k: int
    sigma2: float
    lambda_plus: float
    acc_before: float
    acc_after_finetune: float
    params_before: int
    params_after: int


def apply_projection(net, proj):
    """Insert a frozen projection after its layer and resize downstream.

    Returns a new network: a bias-free identity-activation layer with
    weights P follows hidden layer ``proj.layer_id`` (an ordinal), and the
    next trainable layer's weights W (out x d) are warm-started as W P^T
    (out x k).  The original network is left untouched.
    """
    o = proj.layer_id
    i = _hidden_layer_index(net, o)
    target = net.layers[i]
    d = proj.matrix.shape[1]
    if target.out_dim != d:
        raise InvalidInput(f"hidden layer {o} outputs {target.out_dim}, "
                           f"projection expects {d}")
    if net.layers[i + 1].frozen:
        raise AlreadyProjected(f"hidden layer {o} already feeds a projection")
    out = net.copy()
    p_layer = DenseLayer(weights=proj.matrix, bias=None,
                         activation="identity", frozen=True)
    out.layers.insert(i + 1, p_layer)
    down = out.layers[i + 2]
    down.weights = down.weights @ proj.matrix.T
    out.check_dims()
    return out


def _hidden_layer_index(net, ordinal):
    """Current index in ``net.layers`` of the ``ordinal``-th non-frozen
    hidden layer; the one place that knows a frozen P shifts positions."""
    hidden = [i for i, l in enumerate(net.layers[:-1]) if not l.frozen]
    if not 0 <= ordinal < len(hidden):
        raise InvalidInput(f"no hidden layer ordinal {ordinal}")
    return hidden[ordinal]


class _LayerRows:
    """Row source of the output of ``net.layers[index]`` on ``cal_x``, for
    :func:`compute_covariance`.

    The layers before it run once, at construction.  ``rows[i:j]`` runs
    ``forward`` on the layer restricted to weight and bias rows i:j, so the
    full d x n output never exists; the rows are the same bits.
    """

    def __init__(self, net, index, cal_x):
        self.layer = net.layers[index]
        self.x = cal_x
        if index:
            prefix = Network(layers=net.layers[:index], input_dim=net.input_dim,
                             num_classes=self.layer.in_dim)
            self.x, _ = forward(prefix, cal_x, keep_acts=False)
        self.shape = (self.layer.out_dim,) + np.shape(self.x)[1:]

    def __getitem__(self, rows):
        layer = self.layer
        part = DenseLayer(weights=layer.weights[rows],
                          bias=None if layer.bias is None else layer.bias[rows],
                          activation=layer.activation)
        out, _ = forward(Network(layers=[part], input_dim=part.in_dim,
                                 num_classes=part.out_dim), self.x, keep_acts=False)
        return out


def analyse_layer(net, cal_x, ordinal, quantile, vectors=True):
    """Fit the noise bulk of one hidden layer's calibration spectrum.

    ``ordinal`` counts the non-frozen hidden layers from 0, as
    ``plan.layer_order`` does; ``cal_x`` is the dim x n calibration batch.
    Runs the layers before it once, then builds the covariance of the
    layer's activations from blocks of rows recomputed on demand
    (:class:`_LayerRows`), so the whole d x n activation never exists
    beside it; eigendecomposes that covariance, fits sigma2 from the
    ``quantile`` init and splits the spectrum at the fitted bulk edge.
    Returns ``(spectrum, model, partition, fit)``.  With ``vectors=False``
    only eigenvalues are computed and the partition carries no vectors.

    Raises InvalidInput when ``net`` has no such hidden layer, and
    DegenerateSpectrum, naming the ordinal, when the spectrum cannot be
    fitted: the quantile init is round-off (too many zero eigenvalues,
    typically d > n) or the fit itself is undefined.
    """
    x = _LayerRows(net, _hidden_layer_index(net, ordinal), cal_x)
    cov, n = compute_covariance(x), x.shape[1]
    del x  # the prefix's output, so it never shares memory with the eigensolver's copy
    spectrum, vecs = eig_sym(cov, n_samples=n, vectors=vectors)
    s2_init = init_sigma2(spectrum, quantile)
    floor = SYM_TOL * spectrum.clamped[0]
    if s2_init <= floor:
        raise _round_off(ordinal, quantile, int(np.sum(spectrum.clamped <= floor)),
                         spectrum.d, spectrum.n)
    try:
        sigma2, fit = fit_sigma2(spectrum, s2_init)
    except DegenerateSpectrum as e:
        raise DegenerateSpectrum(f"hidden layer {ordinal}: {e}") from e
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
                raise _round_off(o, q, f"at least {d - n}", d, n)


def _round_off(ordinal, quantile, zeros, d, n):
    """DegenerateSpectrum for a sigma2 init at ``quantile`` that falls among
    the ``zeros`` zero eigenvalues of hidden layer ``ordinal``."""
    return DegenerateSpectrum(
        f"hidden layer {ordinal}: the sigma2 init at quantile {quantile} is round-off; "
        f"{zeros} of d={d} eigenvalues are zero with n={n} calibration samples; "
        f"raise plan.quantile or split.calibration_fraction")


def compress_step(net, data, plan, cfg, ordinal, rng, acc_before, iteration=0):
    """One analyse -> project -> fine-tune step at hidden layer ``ordinal``.

    ``data`` is the (train, val, calibration) triple; ``ordinal`` counts
    the non-frozen hidden layers from 0, as ``plan.layer_order`` does.
    ``acc_before`` is the input network's validation accuracy, which the
    caller already knows.  Returns ``(new_net, IterationRecord)``; the input
    network is never mutated.  A spectrum with no spikes, or with every
    direction a spike (a projection that reduces nothing), is a skip: the
    input network is returned unchanged with k = d recorded.
    DegenerateSpectrum from :func:`analyse_layer` propagates.
    """
    train_part, val_part, cal_part = data
    spectrum, model, partition, _ = analyse_layer(net, cal_part.x, ordinal,
                                                  plan.quantile)
    new_net, acc_after = net, acc_before
    if 0 < partition.k < spectrum.d:
        proj = Projection(partition.spike_eigenvectors, ordinal)
        new_net, _, acc_after = train_until(
            apply_projection(net, proj), (train_part, val_part), cfg,
            teacher=snapshot_teacher(net), rng=rng)
    return new_net, IterationRecord(
        iteration=iteration, layer_id=ordinal, d=spectrum.d,
        k=partition.k or spectrum.d, sigma2=model.sigma2,
        lambda_plus=model.lambda_plus, acc_before=acc_before,
        acc_after_finetune=acc_after, params_before=param_count(net)[0],
        params_after=param_count(new_net)[0])


def rolled_back(record, plan):
    """Whether run_loop rolled this step back: reduced, then below the floor."""
    return record.k < record.d and record.acc_after_finetune < plan.accuracy_floor


def run_loop(net, data, plan, cfg, rng, acc=None):
    """Iterate compress_step over ``plan.layer_order``, one step per ordinal.

    Stops after the last planned layer, or at the first step whose
    fine-tuned validation accuracy falls below plan.accuracy_floor; that
    step is rolled back (compress_step never mutates its input, so the
    pre-step network is simply kept).  Returns ``(net, history)``;
    rolled-back and skipped attempts stay in the history for audit.
    ``acc`` is the input network's validation accuracy, computed here when
    not given; each later step's comes from its fine-tune.
    """
    if acc is None:
        _, val_part, _ = data
        acc = accuracy(net, val_part.x, val_part.y)
    history = []
    for step, ordinal in enumerate(plan.layer_order):
        new_net, record = compress_step(net, data, plan, cfg, ordinal, rng, acc,
                                        iteration=step)
        history.append(record)
        if rolled_back(record, plan):
            break  # keep the pre-step network
        net, acc = new_net, record.acc_after_finetune
    return net, history


def final_accuracy(history, plan, acc):
    """Validation accuracy of the network run_loop returned with ``history``.

    ``acc`` is the accuracy of the network run_loop started from.  Only the
    last step can be rolled back, and that keeps its pre-step network; a
    skip records acc_after_finetune = acc_before.
    """
    if not history:
        return acc
    last = history[-1]
    return last.acc_before if rolled_back(last, plan) else last.acc_after_finetune


def quantile_ablation(net, acc, data, quantile_grid, plan, cfg, seed=0):
    """One full run_loop per quantile, every cell from the same network.

    ``net`` is the warmed-up network and ``acc`` its validation accuracy;
    run_loop never mutates its input, so each cell starts from ``net``
    itself.  Returns a list of ``(quantile, final_accuracy,
    reduction_fraction)`` rows, one per grid value, in grid order.
    """
    if len(quantile_grid) == 0:
        raise InvalidInput("quantile grid is empty")
    base_params, _ = param_count(net)
    rows = []
    for qv in quantile_grid:
        cell_plan = replace(plan, quantile=float(qv))
        cell_rng = make_rng(derive_seed(seed, f"ablate-{float(qv)!r}"))
        out_net, history = run_loop(net, data, cell_plan, cfg, cell_rng, acc)
        trainable, _ = param_count(out_net)
        rows.append((
            float(qv),
            final_accuracy(history, cell_plan, acc),
            1.0 - trainable / base_params,
        ))
    return rows
