"""Random-matrix spectral analysis.

Covariance estimation, symmetric eigendecomposition, the Marchenko-Pastur
and Wigner reference densities, noise-variance fitting against the empirical
eigenvalue histogram, and the bulk/spike split that drives compression.

Conventions
-----------
Activation matrices are d x n: rows are feature dimensions, columns are
calibration samples.  Eigenvalues are kept sorted descending.  Eigenvectors
are returned as matrix *rows*, row i paired with eigenvalue i.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, InvalidInput, NumericalFailure

# Tolerance for accepting a matrix as symmetric, and for the tiny negative
# eigenvalues a symmetric eigensolver may emit on a PSD input.
SYM_TOL = 1e-8
# Side of the square tiles the exact-symmetry test compares with their
# mirrors; a tile pair stays in cache where a whole a.T pass does not.
SYM_TILE = 128
# Rows per block of the covariance; at most two blocks of activations are
# alive at once.
COV_BLOCK = 512


@dataclass
class Spectrum:
    """Eigenvalues of an activation covariance, sorted descending."""

    eigenvalues: np.ndarray
    d: int
    n: int

    @property
    def q(self):
        return self.d / self.n

    @property
    def clamped(self):
        """Eigenvalues with eigensolver round-off negatives set to 0."""
        return np.clip(self.eigenvalues, 0.0, None)


@dataclass
class MPModel:
    """Fitted Marchenko-Pastur parameters with derived bulk edges."""

    sigma2: float
    q: float
    lambda_minus: float = field(init=False)
    lambda_plus: float = field(init=False)

    def __post_init__(self):
        self.lambda_minus, self.lambda_plus = mp_bulk_edges(self.sigma2, self.q)


@dataclass
class HistogramFit:
    """Empirical-vs-model densities on a shared binning, plus the distance."""

    bin_edges: np.ndarray
    empirical_density: np.ndarray
    model_density: np.ndarray
    l2_distance: float


@dataclass
class SpectralPartition:
    """Bulk/spike split of a descending spectrum: the first k are spikes.

    ``spike_eigenvectors`` has orthonormal rows, row i paired with the
    spectrum's eigenvalue i.
    """

    spike_eigenvectors: np.ndarray  # None for a values-only partition
    k: int


def compute_covariance(x):
    """Empirical covariance Sigma = (1/n) X X^T of a d x n activation matrix.

    Uncentered: the mean is *not* subtracted, matching the raw second-moment
    formula.  ``x`` is an array or a row source: an object with ``.shape
    == (d, n)`` whose ``x[i:j]`` returns rows i:j as an array, so the d x n
    matrix need never exist whole.  Both are sliced the same way, into
    blocks of COV_BLOCK rows (d <= COV_BLOCK is one block, one product),
    and each block is made a contiguous float64 array (a copy only when
    the slice is strided or of another dtype).
    Each row of blocks sweeps its off-diagonal blocks from the last one
    back, and the final one it makes is the next row's diagonal block, so
    at most two blocks are alive; for b blocks of rows, ``x`` is sliced
    1 + b (b - 1) / 2 times (7 for d = 2048).  The first row's sweep makes
    every block once, and a block made again has the same bits, so only
    the blocks of that sweep are checked as finite.

    Every block product is written straight into its place in the result
    and divided by n there while it is still in cache, so no pass over the
    whole d x d matrix follows.  The result is exactly symmetric: an
    off-diagonal block is copied to the mirrored one, and for a contiguous
    block ``a`` NumPy computes the diagonal ``a @ a.T`` with a symmetric
    rank-k update and mirrors one triangle.
    """
    if len(x.shape) != 2 or x.shape[1] < 2:
        raise InvalidInput("expected a d x n matrix with n >= 2")
    d, n = x.shape
    step = COV_BLOCK

    def block(r, check):
        rows = np.ascontiguousarray(x[r:r + step], dtype=np.float64)
        if check and not np.all(np.isfinite(rows)):
            raise InvalidInput("non-finite entry in activation matrix")
        return rows

    cov = np.empty((d, d))
    xr = block(0, True)
    for r in range(0, d, step):
        xc = None
        for c in range((d - 1) // step * step, r, -step):
            xc = None  # drop the previous block before making the next
            xc = block(c, r == 0)
            out = np.matmul(xr, xc.T, out=cov[r:r + step, c:c + step])
            out /= n
            cov[c:c + step, r:r + step] = out.T
        out = np.matmul(xr, xr.T, out=cov[r:r + step, r:r + step])
        out /= n
        xr = xc  # block r + step, the next row's diagonal
    return cov


def _exactly_symmetric(a):
    """``np.array_equal(a, a.T)`` for a square ``a``, one tile pair at a time."""
    d = a.shape[0]
    for i in range(0, d, SYM_TILE):
        for j in range(i, d, SYM_TILE):
            if not np.array_equal(a[i:i + SYM_TILE, j:j + SYM_TILE],
                                  a[j:j + SYM_TILE, i:i + SYM_TILE].T):
                return False
    return True


def eig_sym(matrix, n_samples=None, vectors=True):
    """Symmetric eigendecomposition with a deterministic sign convention.

    Returns ``(Spectrum, eigenvectors)`` with eigenvalues sorted descending
    and eigenvectors as rows, row i paired with eigenvalue i.  Each row is
    flipped so that its component of largest magnitude (first such index on
    ties) is positive, making repeated runs bit-identical.  With
    ``vectors=False`` only the eigenvalues are computed (LAPACK's cheaper
    values-only path, whose eigenvalues may differ from the full
    decomposition's in the last bits) and the second item is None.

    ``n_samples`` sets the Spectrum's sample count (for the aspect ratio
    q = d/n); it defaults to d when the matrix does not come from a
    covariance of known sample size.

    The solver is handed ``a.T``: the matrix is exactly symmetric (or has
    just been symmetrized), so that view has ``a``'s bits, and for a
    C-ordered ``a`` it is Fortran-ordered, so NumPy's copy into LAPACK's
    column-major buffer reads memory contiguously.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("expected a square matrix")
    # An exactly symmetric finite matrix already equals (a + a.T) / 2.
    if not _exactly_symmetric(a):
        # entrywise, so a NaN elsewhere cannot hide an asymmetric pair; a
        # NaN pair is left for the non-finite check after the solve
        if np.any(np.abs(a - a.T) > SYM_TOL):
            raise InvalidInput("matrix is not symmetric within tolerance")
        a = (a + a.T) / 2.0
    try:
        w, v = np.linalg.eigh(a.T) if vectors else (np.linalg.eigvalsh(a.T), None)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"eigendecomposition failed: {e}") from e
    if not np.all(np.isfinite(w)):  # an inf entry, e.g. an overflowed covariance
        raise NumericalFailure("eigendecomposition gave non-finite eigenvalues")
    order = np.argsort(w)[::-1]
    w = w[order]
    rows = None
    if vectors:
        rows = v[:, order].T.copy()
        # |rows| goes into v, dead by now, so no third d x d array is made
        j = np.argmax(np.abs(rows, out=v), axis=1)
        rows *= np.where(rows[np.arange(len(j)), j] < 0, -1.0, 1.0)[:, None]
    d = a.shape[0]
    n = d if n_samples is None else int(n_samples)
    return Spectrum(eigenvalues=w, d=d, n=n), rows


def mp_bulk_edges(sigma2, q):
    """Marchenko-Pastur bulk edges lambda_pm = sigma2 * (1 +- sqrt(q))^2."""
    if sigma2 <= 0 or q <= 0:
        raise InvalidInput("sigma2 and q must be positive")
    r = math.sqrt(q)
    return sigma2 * (1.0 - r) ** 2, sigma2 * (1.0 + r) ** 2


def mp_density(lam, model):
    """Marchenko-Pastur density at ``lam`` (scalar or array).

    rho(l) = sqrt((l_plus - l)(l - l_minus)) / (2 pi l q sigma2) on the bulk
    support, 0 outside.  The l = 0 point with a zero lower edge (q = 1) is
    defined as 0 by continuity.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    lm, lp = model.lambda_minus, model.lambda_plus
    out = np.zeros_like(lam_arr)
    inside = (lam_arr > lm) & (lam_arr < lp) & (lam_arr > 0)
    li = lam_arr[inside]
    out[inside] = np.sqrt((lp - li) * (li - lm)) / (2.0 * np.pi * li * model.q * model.sigma2)
    if np.isscalar(lam) or lam_arr.ndim == 0:
        return float(out)
    return out


def wigner_semicircle_density(x, sigma2):
    """Wigner semicircle density on [-2 sigma, 2 sigma]."""
    if sigma2 <= 0:
        raise InvalidInput("sigma2 must be positive")
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x_arr)
    inside = np.abs(x_arr) < 2.0 * math.sqrt(sigma2)
    xi = x_arr[inside]
    out[inside] = np.sqrt(4.0 * sigma2 - xi * xi) / (2.0 * np.pi * sigma2)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def bbp_threshold(sigma2, c):
    """Spike strength above which an outlier detaches: sigma2 * (1 + sqrt(c))."""
    if sigma2 <= 0 or c <= 0:
        raise InvalidInput("sigma2 and c must be positive")
    return sigma2 * (1.0 + math.sqrt(c))


def init_sigma2(spectrum, quantile=0.5):
    """Quantile-of-eigenvalues starting point for the noise-variance fit.

    Linear interpolation between order statistics; quantile 0.5 is the
    median.  Higher quantiles raise the fitted bulk edge and therefore
    compress more aggressively.
    """
    if not 0.0 <= quantile <= 1.0:
        raise InvalidInput("quantile must lie in [0, 1]")
    lam = spectrum.clamped
    if lam.size == 0:
        raise InvalidInput("empty spectrum")
    return float(np.quantile(lam, quantile))


def _histogram(eigs):
    """Shared binning for the fit: B = ceil(sqrt(d)) equal-width bins.

    The range is [0, min(max eigenvalue, 3 * q75) * 1.05].  Capping at three
    times the upper-quartile eigenvalue keeps the bulk resolved when a few
    far outliers would otherwise stretch the bins so wide that every
    candidate density is zero at every bin center (which flattens the
    objective and collapses the fit to the search-window edge).  On
    outlier-free spectra the cap exceeds the maximum and the range is just
    [0, max * 1.05].  The empirical density is normalized by the *total*
    count d, so out-of-range outliers reduce in-range mass rather than
    distort the geometry.
    """
    d = eigs.size
    nbins = math.ceil(math.sqrt(d))
    hi = min(float(np.max(eigs)), 3.0 * float(np.quantile(eigs, 0.75))) * 1.05
    if hi <= 0:
        raise DegenerateSpectrum("spectrum has no positive eigenvalues")
    edges = np.linspace(0.0, hi, nbins + 1)
    width = edges[1] - edges[0]
    counts, _ = np.histogram(eigs, bins=edges)
    empirical = counts / (d * width)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return edges, width, empirical, centers


def fit_sigma2(spectrum, sigma2_init):
    """Fit the MP noise variance to the empirical eigenvalue histogram.

    Minimizes the bin-width-weighted Euclidean distance between the
    empirical density and the MP density at bin centers, over a 64-point
    log-spaced grid on [sigma2_init / 4, 4 * sigma2_init], refined by
    golden-section search to relative tolerance 1e-4.  Ties break toward
    the smaller sigma2.

    Returns ``(sigma2_star, HistogramFit)``.
    """
    if sigma2_init <= 0:
        raise InvalidInput("sigma2_init must be positive")
    eigs = spectrum.clamped
    if np.ptp(eigs) == 0.0:
        raise DegenerateSpectrum("all eigenvalues identical")
    q = spectrum.q
    edges, width, empirical, centers = _histogram(eigs)

    def distance(s2):
        model = MPModel(sigma2=s2, q=q)
        diff = empirical - mp_density(centers, model)
        return math.sqrt(float(np.sum(width * diff * diff)))

    grid = np.geomspace(sigma2_init / 4.0, 4.0 * sigma2_init, 64)
    values = np.array([distance(s) for s in grid])
    best = int(np.argmin(values))  # argmin takes the first (smallest) on ties

    # Golden-section refinement on the bracket around the best grid point.
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d_pt = lo + invphi * (hi - lo)
    fc, fd = distance(c), distance(d_pt)
    while (hi - lo) > 1e-4 * (abs(lo) + abs(hi)) / 2.0:
        if fc <= fd:  # <= keeps ties moving toward smaller sigma2
            hi, d_pt, fd = d_pt, c, fc
            c = hi - invphi * (hi - lo)
            fc = distance(c)
        else:
            lo, c, fc = c, d_pt, fd
            d_pt = lo + invphi * (hi - lo)
            fd = distance(d_pt)
    sigma2_star = lo if distance(lo) <= distance(hi) else hi
    sigma2_star = float(sigma2_star)

    model = MPModel(sigma2=sigma2_star, q=q)
    model_density = mp_density(centers, model)
    fit = HistogramFit(
        bin_edges=edges,
        empirical_density=empirical,
        model_density=model_density,
        l2_distance=distance(sigma2_star),
    )
    return sigma2_star, fit


def classify(spectrum, eigenvectors, model):
    """Split a spectrum into bulk and spikes against a fitted MP model.

    Spikes are eigenvalues strictly greater than the model's lambda_plus
    (ties count as bulk -- conservative on retained directions).  The
    eigenvalues must be sorted descending, as :func:`eig_sym` returns them,
    so the spikes are the first k; an unsorted spectrum is InvalidInput.
    k may be 0; the compression loop treats that as a skip.
    ``eigenvectors`` may be None (a values-only spectrum); the partition
    then carries no vectors.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=np.float64)
    if np.any(np.diff(lam) > 0):
        raise InvalidInput("spectrum eigenvalues are not sorted descending")
    if eigenvectors is not None:
        eigenvectors = np.asarray(eigenvectors, dtype=np.float64)
        if eigenvectors.shape != (lam.size, lam.size):
            raise InvalidInput("eigenvector matrix shape does not match spectrum")
    k = int(np.count_nonzero(lam > model.lambda_plus))
    spikes = None if eigenvectors is None else eigenvectors[:k].copy()
    return SpectralPartition(spike_eigenvectors=spikes, k=k)
