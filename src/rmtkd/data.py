"""Synthetic generators, CSV reading and writing, and stratified splitting.

All generators are pure functions of (parameters, seed): every random draw
comes from a counter-based generator seeded explicitly, with Gaussians from
its ``standard_normal`` through :func:`rmtkd.rng.normal`, so a dataset is
reproducible bit-for-bit from its parameters on the same NumPy and BLAS
build and CPU.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailure, InvalidInput, ParseError, SchemaError
from .rng import make_rng, normal

# A CSV feature cell: ASCII decimal with optional sign, point and exponent.
DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# Latent draws per block of the planted generator's rejection sampling, and
# columns per block of its x = B z + noise: no input_dim x N array but x.
Z_BLOCK = 256
X_BLOCK = 4096


@dataclass
class Dataset:
    x: np.ndarray  # dim x N, float64
    y: np.ndarray  # length N, int labels in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[1],):
            raise InvalidInput("x must be dim x N with N labels")

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def dim(self):
        return self.x.shape[0]


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    calibration_fraction: float = 0.1  # fraction *of the train split*
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidInput("train_fraction must lie in (0, 1)")
        if not 0.0 < self.calibration_fraction <= 1.0:
            raise InvalidInput("calibration_fraction must lie in (0, 1]")


def sample_noise_matrix(d, n, sigma2, seed):
    """d x n matrix of iid Gaussian(0, sigma2) entries."""
    if d < 1 or n < 1:
        raise InvalidInput("d and n must be >= 1")
    if sigma2 <= 0:
        raise InvalidInput("sigma2 must be positive")
    rng = make_rng(seed)
    return normal(rng, (d, n), std=math.sqrt(sigma2))


def sample_spiked(d, n, sigma2, spikes, seed):
    """Sample columns iid from N(0, sigma2 I + sum_j theta_j v_j v_j^T).

    ``spikes`` is a list of (theta, direction-or-None); supplied directions
    must be mutually orthonormal, missing ones are drawn orthonormal to the
    rest.  Returns ``(x, directions)``: the d x n samples, and the
    directions as rows.
    """
    if sigma2 <= 0:
        raise InvalidInput("sigma2 must be positive")
    rng = make_rng(seed)
    thetas = []
    given = []
    for theta, direction in spikes:
        if theta < 0:
            raise InvalidInput("spike strengths must be nonnegative")
        thetas.append(float(theta))
        given.append(None if direction is None else np.asarray(direction, dtype=np.float64))
    k = len(thetas)
    if k > d:
        raise InvalidInput("more spikes than dimensions")

    supplied = [v for v in given if v is not None]
    if supplied:
        vs = np.stack(supplied)
        if np.max(np.abs(vs @ vs.T - np.eye(len(supplied)))) > 1e-8:
            raise InvalidInput("supplied spike directions are not orthonormal")

    directions = np.zeros((k, d))
    have = [v for v in supplied]
    for j in range(k):
        if given[j] is not None:
            directions[j] = given[j]
            continue
        # Fresh direction orthogonal to everything chosen so far.
        v = normal(rng, d)
        for u in have:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise GenerationFailure("could not draw an orthogonal direction")
        v = v / norm
        directions[j] = v
        have.append(v)

    z = normal(rng, (d, n))
    x = math.sqrt(sigma2) * z
    for j in range(k):
        scale = math.sqrt(sigma2 + thetas[j]) - math.sqrt(sigma2)
        x = x + scale * np.outer(directions[j], directions[j] @ z)
    return x, directions


def planted_subspace_task(input_dim, intrinsic_dim, num_classes, n_samples,
                          noise_sigma, seed, margin=0.3):
    """Classification task whose signal lives in a planted r-dim subspace.

    Latents z ~ N(0, I_r) are labeled by the argmax of a random linear
    classifier (rows unit-normalized so the argmax cells have comparable
    mass).  Latents are drawn ``Z_BLOCK`` at a time; a draw passes when its
    top-two score gap is at least ``margin`` (so an oracle on the planted
    basis is near-perfect), and passing draws are kept in order while their
    class quota has room, so class counts are balanced within +-1.  The rest
    of the block that fills the last quota is dropped.  The kept draws are
    then permuted, and x = B z + noise_sigma * (complement noise) is built
    ``X_BLOCK`` columns at a time, each block drawing its own noise; the
    remaining input_dim - r directions carry no label information.

    Returns ``(Dataset, planted_basis)`` with the basis as input_dim x r
    orthonormal columns.  Raises GenerationFailure if the quotas cannot be
    filled within 10 * n_samples draws.
    """
    if min(intrinsic_dim, n_samples) < 1:
        raise InvalidInput("intrinsic_dim and n_samples must be >= 1")
    if intrinsic_dim > input_dim:
        raise InvalidInput("intrinsic_dim must be <= input_dim")
    if num_classes < 2:
        raise InvalidInput("need at least 2 classes")
    if noise_sigma < 0:
        raise InvalidInput("noise_sigma must be nonnegative")
    rng = make_rng(seed)
    r = intrinsic_dim
    basis_full, _ = np.linalg.qr(normal(rng, (input_dim, input_dim)))
    basis = basis_full[:, :r]
    complement = basis_full[:, r:]
    scorer = normal(rng, (num_classes, r))
    scorer = scorer / np.linalg.norm(scorer, axis=1, keepdims=True)

    quota = np.array([n_samples // num_classes + (1 if i < n_samples % num_classes else 0)
                      for i in range(num_classes)])
    counts = np.zeros(num_classes, dtype=np.int64)
    latents = np.empty((r, n_samples))
    labels = np.empty(n_samples, dtype=np.int64)
    got = 0
    draws = 0
    limit = 10 * n_samples
    while got < n_samples:
        if draws == limit:
            raise GenerationFailure(f"class balance infeasible within {limit} draws")
        size = min(Z_BLOCK, limit - draws)
        z = normal(rng, (size, r))
        draws += size
        scores = z @ scorer.T
        top2 = np.partition(scores, -2, axis=1)[:, -2:]
        passed = top2[:, 1] - top2[:, 0] >= margin
        cls = np.argmax(scores, axis=1)
        # A passing draw of class c is kept iff fewer than quota[c] draws of
        # c were kept before it: its rank among this block's passing draws
        # of c, added to counts[c], must not exceed quota[c].
        hits = (cls[:, None] == np.arange(num_classes)) & passed[:, None]
        rank = np.cumsum(hits, axis=0)[np.arange(size), cls]
        kept = np.flatnonzero(passed & (counts[cls] + rank <= quota[cls]))
        latents[:, got:got + len(kept)] = z[kept].T
        labels[got:got + len(kept)] = cls[kept]
        counts += np.bincount(cls[kept], minlength=num_classes)
        got += len(kept)

    perm = rng.permutation(n_samples)
    latents = latents[:, perm]
    x = np.empty((input_dim, n_samples))
    for a in range(0, n_samples, X_BLOCK):
        # B z goes straight into x: a block holds no B z or sum temporary
        block = x[:, a:a + X_BLOCK]
        np.matmul(basis, latents[:, a:a + X_BLOCK], out=block)
        block += complement @ normal(rng, (input_dim - r, block.shape[1]),
                                     std=noise_sigma)
    return Dataset(x=x, y=labels[perm], num_classes=num_classes), basis


def split(ds, spec):
    """Stratified (train, val, calibration) split.

    Calibration is a *subset of train* (calibration examples are also train
    examples).  Per-class counts in every split stay within 1 of exact
    proportional allocation; index selection is deterministic per seed.
    """
    rng = make_rng(spec.seed)
    train_idx, val_idx, cal_idx = [], [], []
    for c in range(ds.num_classes):
        idx = np.nonzero(ds.y == c)[0]
        n_train = int(round(spec.train_fraction * len(idx)))
        if n_train == 0 or n_train == len(idx):
            raise InvalidInput(f"class {c} has too few examples to stratify")
        shuffled = idx[rng.permutation(len(idx))]
        tr = shuffled[:n_train]
        train_idx.append(tr)
        val_idx.append(shuffled[n_train:])
        n_cal = int(round(spec.calibration_fraction * len(tr)))
        cal_idx.append(tr[:n_cal])
    train_idx = np.sort(np.concatenate(train_idx))
    val_idx = np.sort(np.concatenate(val_idx))
    cal_idx = np.sort(np.concatenate(cal_idx))

    def take(indices):
        return Dataset(x=ds.x[:, indices], y=ds.y[indices],
                       num_classes=ds.num_classes)

    return take(train_idx), take(val_idx), take(cal_idx)


def load_csv(path, label_column="label"):
    """Load a dataset from CSV: header row, decimal floats, dense labels.

    The features are every non-label column, in file order.  Row order is
    preserved.  Label id i is the i-th distinct label string in sorted
    string order (so "10" comes before "9").  Rows end in LF or CRLF: one
    trailing CR is dropped from each.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start} is not UTF-8 text") from None
    lines = [ln.removesuffix("\r") for ln in text.split("\n")]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = lines[0].split(",")
    repeated = sorted(h for h, count in Counter(header).items() if count > 1)
    if repeated:
        raise SchemaError(f"{path}: repeated column names {repeated}")
    if label_column not in header:
        raise SchemaError(f"{path}: no column named {label_column!r}")
    features = [h for h in header if h != label_column]
    if not features:
        raise SchemaError(f"{path}: no feature columns besides {label_column!r}")
    col_of = {h: i for i, h in enumerate(header)}
    feat_pos = [col_of[c] for c in features]
    label_pos = col_of[label_column]

    rows = []
    raw_labels = []
    for rnum, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {rnum} has {len(cells)} cells, expected {len(header)}")
        feats = []
        for c, pos in zip(features, feat_pos):
            if not DECIMAL.fullmatch(cells[pos]):
                raise ParseError(f"{path}: row {rnum}, column {c!r}: "
                                 f"{cells[pos]!r} is not a decimal number")
            value = float(cells[pos])
            if not math.isfinite(value):
                raise ParseError(f"{path}: row {rnum}, column {c!r}: {cells[pos]!r} is not finite")
            feats.append(value)
        rows.append(feats)
        raw_labels.append(cells[label_pos])
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    uniq = sorted(set(raw_labels))
    remap = {lab: i for i, lab in enumerate(uniq)}
    y = np.array([remap[lab] for lab in raw_labels], dtype=np.int64)
    x = np.array(rows, dtype=np.float64).T
    return Dataset(x=x, y=y, num_classes=len(uniq))


def csv_text(header, rows):
    """A CSV table: the column names, then one line per row with each
    value's repr as a cell.  Rows hold Python ints and floats, whose repr
    is a plain decimal (a NumPy 2 scalar's reads ``np.float64(x)``)."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def save_csv(ds, path):
    """Export a dataset in the package CSV format: f0..f{dim-1},label."""
    header = [f"f{i}" for i in range(ds.dim)] + ["label"]
    rows = (feats + [label] for feats, label in zip(ds.x.T.tolist(), ds.y.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(header, rows))
