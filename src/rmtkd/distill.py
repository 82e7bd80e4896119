"""Self-distillation training.

The student is trained with L = alpha * CE(labels) + (1 - alpha) *
KL(p_teacher || p_student), where the teacher is a frozen snapshot of the
model itself taken just before a compression step.  With no teacher the loss
reduces to plain cross-entropy (warm-up phase).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .network import backward, forward, sgd_step

# Floor on student probabilities before a log, in the CE and KL terms.
EPSILON_PROB = 1e-12


@dataclass
class DistillConfig:
    alpha: float = 0.5
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    max_epochs: int = 40
    accuracy_threshold: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInput("alpha must lie in [0, 1]")
        if self.lr < 0:
            raise InvalidInput("lr must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInput("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise InvalidInput("max_epochs must be >= 1")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise InvalidInput("accuracy_threshold must lie in [0, 1]")


def softmax(logits):
    z = logits - np.max(logits, axis=0, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=0, keepdims=True)


def _kl_terms(p_old, p_new):
    """Elementwise p_old * (log p_old - log max(p_new, EPSILON_PROB)), 0 where p_old = 0."""
    qf = np.maximum(p_new, EPSILON_PROB)
    mask = p_old > 0
    terms = np.zeros_like(p_old)
    terms[mask] = p_old[mask] * (np.log(p_old[mask]) - np.log(qf[mask]))
    return terms


def kl_divergence(p_old, p_new):
    """KL(p_old || p_new) = sum_i p_old(i) * log(p_old(i) / p_new(i)).

    p_new is floored at EPSILON_PROB before the log; terms with
    p_old(i) = 0 contribute 0.
    """
    p = np.asarray(p_old, dtype=np.float64)
    q = np.asarray(p_new, dtype=np.float64)
    if p.shape != q.shape:
        raise InvalidInput("length mismatch between distributions")
    if p.size < 2:
        raise InvalidInput("need at least 2 categories")
    if np.any(p < 0) or np.any(q < 0):
        raise InvalidInput("negative probability entry")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise InvalidInput("distributions must sum to 1")
    return float(_kl_terms(p, q).sum())


def combined_loss(logits_new, logits_old, labels, alpha):
    """L = alpha * CE + (1 - alpha) * KL(p_old || p_new), batch mean.

    Returns ``(loss, grad_at_logits_new, ce, kl)``: the loss, its gradient
    and its two batch-mean terms (kl is 0.0 with no teacher).  No gradient
    flows to the teacher logits.  alpha = 1 is pure CE, alpha = 0 pure
    distillation.
    """
    new = np.asarray(logits_new, dtype=np.float64)
    labels = np.asarray(labels)
    if new.ndim != 2 or labels.shape != (new.shape[1],):
        raise InvalidInput("logits must be num_classes x b with b labels")
    old = None
    if logits_old is not None:
        old = np.asarray(logits_old, dtype=np.float64)
        if old.shape != new.shape:
            raise InvalidInput("teacher/student logit shapes differ")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput("alpha must lie in [0, 1]")
    b = new.shape[1]
    cols = np.arange(b)
    p_new = softmax(new)
    ce = float(-np.mean(np.log(np.maximum(p_new[labels, cols], EPSILON_PROB))))
    kl = 0.0
    if old is not None:
        p_old = softmax(old)
        kl = float(_kl_terms(p_old, p_new).sum() / b)
    loss = alpha * ce + (1.0 - alpha) * kl
    onehot = np.zeros_like(p_new)
    onehot[labels, cols] = 1.0
    grad = alpha * (p_new - onehot)
    if old is not None:
        grad = grad + (1.0 - alpha) * (p_new - p_old)
    return loss, grad / b, ce, kl


def snapshot_teacher(net):
    """A deep copy of ``net`` with every layer frozen: the distillation teacher."""
    teacher = net.copy()
    for layer in teacher.layers:
        layer.frozen = True
    return teacher


def accuracy(net, x, y):
    logits, _ = forward(net, x)
    return float(np.mean(np.argmax(logits, axis=0) == np.asarray(y)))


def train_until(net, data, cfg, teacher=None, rng=None, log_rows=None):
    """Train until validation accuracy reaches the threshold.

    ``data`` is ``(train, val)`` where each part exposes ``x`` (dim x N) and
    ``y`` (length N).  One epoch = one shuffled pass of minibatches.  Stops
    at the first epoch whose validation accuracy >= cfg.accuracy_threshold,
    or after cfg.max_epochs, and restores the best-validation weights seen
    (earliest epoch on ties).  Returns ``(net, epochs_used, val_accuracy)``.
    Raises NumericalFailure, naming the epoch and batch, at the first
    non-finite batch loss.

    ``teacher`` is a frozen network from :func:`snapshot_teacher`.  With no
    teacher, alpha is treated as 1 (pure cross-entropy warm-up).
    ``log_rows``, if given, collects per-epoch CSV rows
    ``epoch,train_loss,ce_term,kl_term,val_accuracy``.
    """
    train_part, val_part = data
    x, y = np.asarray(train_part.x, dtype=np.float64), np.asarray(train_part.y)
    xv, yv = np.asarray(val_part.x, dtype=np.float64), np.asarray(val_part.y)
    if x.size == 0 or xv.size == 0:
        raise InvalidInput("empty dataset")
    if rng is None:
        raise InvalidInput("train_until needs a seeded rng for the shuffle order")
    alpha = cfg.alpha if teacher is not None else 1.0
    n = x.shape[1]
    state = None
    best_acc = -1.0
    best_layers = None
    epochs_used = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        ce_sum = kl_sum = loss_sum = 0.0
        nb = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[:, idx], y[idx]
            logits, acts = forward(net, xb)
            logits_old = None
            if teacher is not None:
                logits_old, _ = forward(teacher, xb)
            loss, grad, ce, kl = combined_loss(logits, logits_old, yb, alpha)
            if not math.isfinite(loss):
                raise NumericalFailure(
                    f"training diverged: batch loss {loss!r} at epoch {epoch}, "
                    f"batch {nb + 1}; try a smaller distill.lr"
                )
            grads = backward(net, acts, grad)
            _, state = sgd_step(net, grads, cfg.lr, cfg.momentum, state)
            loss_sum += loss
            ce_sum += ce
            kl_sum += kl
            nb += 1
        val_acc = accuracy(net, xv, yv)
        epochs_used = epoch
        if log_rows is not None:
            log_rows.append(
                f"{epoch},{loss_sum / nb!r},{ce_sum / nb!r},{kl_sum / nb!r},{val_acc!r}"
            )
        if val_acc > best_acc:
            best_acc = val_acc
            best_layers = net.copy().layers
        if val_acc >= cfg.accuracy_threshold:
            break
    net.layers = best_layers
    return net, epochs_used, best_acc
