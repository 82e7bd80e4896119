import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rmtkd.data import sample_noise_matrix, sample_spiked
from rmtkd.errors import DegenerateSpectrum, InvalidInput, NumericalFailure
from rmtkd.spectral import (COV_BLOCK, SYM_TILE, MPModel, Spectrum,
                            _exactly_symmetric, bbp_threshold, classify,
                            compute_covariance, eig_sym, fit_sigma2,
                            init_sigma2, mp_bulk_edges, mp_density,
                            wigner_semicircle_density)


# ---------------------------------------------------------------- covariance

def test_covariance_hand_2x2():
    x = np.array([[1.0, -1.0], [1.0, -1.0]])
    assert np.allclose(compute_covariance(x), [[1.0, 1.0], [1.0, 1.0]])


def test_covariance_zero_matrix():
    assert np.array_equal(compute_covariance(np.zeros((3, 5))), np.zeros((3, 3)))


def test_covariance_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 100))
    cov = compute_covariance(x)
    oracle = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            s = 0.0
            for k in range(100):
                s += x[i, k] * x[j, k]
            oracle[i, j] = s / 100
    assert np.max(np.abs(cov - oracle)) < 1e-12
    assert np.max(np.abs(cov - cov.T)) < 1e-12


def test_covariance_rejects_nonfinite():
    x = np.ones((2, 3))
    x[0, 1] = np.nan
    with pytest.raises(InvalidInput):
        compute_covariance(x)


def test_activation_matrix_validates_shape():
    with pytest.raises(InvalidInput):
        compute_covariance(np.ones((3, 1)))  # n must be >= 2
    with pytest.raises(InvalidInput):
        compute_covariance(np.ones(3))  # a d x n matrix, not a vector


class _RowCopies:
    """A row source over an array: each slice is a fresh copy, and the
    slices still alive when the next one is asked for are counted."""

    def __init__(self, x):
        self.x, self.shape = x, x.shape
        self.made, self.most_alive = [], 0

    def __getitem__(self, rows):
        alive = sum(ref() is not None for ref in self.made)
        self.most_alive = max(self.most_alive, alive + 1)
        out = self.x[rows].copy()
        self.made.append(weakref.ref(out))
        return out


def _dot_bound(a, b):
    """Twice the forward-error bound of the length-k dot products in a @ b.T:
    two summation orders of the same products differ by at most this."""
    k = a.shape[1]
    return 2 * k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b).T)


def test_blocked_covariance_matches_full_product():
    # d = 1100 is three blocks of rows, the last one ragged
    assert 2 * COV_BLOCK < 1100 < 3 * COV_BLOCK
    x = np.random.default_rng(23).normal(size=(1100, 900))
    source = _RowCopies(x)
    from_rows = compute_covariance(source)
    # a row source and an array take the same products: the same bits
    assert np.array_equal(from_rows, compute_covariance(x))
    assert np.array_equal(from_rows, from_rows.T)
    # the full product may sum in another order (BLAS blocking and threads)
    assert np.all(np.abs(from_rows - x @ x.T / 900) <= _dot_bound(x, x) / 900)
    # 1 + b (b - 1) / 2 slices for b = 3 blocks, never more than two alive
    assert len(source.made) == 4 and source.most_alive == 2


def _assign_then_mirror_covariance(x):
    """compute_covariance's block loop with each product made as a temporary,
    assigned and mirrored, and one division by n of the whole matrix at the
    end (the construction before ``matmul(out=...)`` and in-block scaling)."""
    d, n = x.shape
    step = COV_BLOCK
    cov = np.empty((d, d))
    for r in range(0, d, step):
        xr = x[r:r + step].copy()
        for c in range((d - 1) // step * step, r, -step):
            cov[r:r + step, c:c + step] = xr @ x[c:c + step].copy().T
            cov[c:c + step, r:r + step] = cov[r:r + step, c:c + step].T
        cov[r:r + step, r:r + step] = xr @ xr.T
    return cov / n


def test_blocked_covariance_writes_the_bits_of_assigned_blocks():
    # three blocks with a ragged last one, and the spectrum workload's four
    for d, n in ((1100, 900), (2048, 600)):
        x = np.random.default_rng(25).normal(size=(d, n))
        want = _assign_then_mirror_covariance(x)
        assert np.array_equal(compute_covariance(x), want), d
        assert np.array_equal(compute_covariance(_RowCopies(x)), want), d


@pytest.mark.parametrize("d", [300, 1100])
def test_covariance_of_a_fortran_or_float32_copy_has_the_bits(d):
    # d = 300 is one block, d = 1100 three with a ragged last one
    x = np.random.default_rng(26).normal(size=(d, 900))
    assert np.array_equal(compute_covariance(np.asfortranarray(x)), compute_covariance(x))
    x32 = x.astype(np.float32)
    want = compute_covariance(x32.astype(np.float64))
    assert np.array_equal(compute_covariance(x32), want)
    assert np.array_equal(compute_covariance(np.asfortranarray(x32)), want)


def test_covariance_converts_a_float32_array_block_by_block():
    x = np.random.default_rng(27).normal(size=(2048, 600)).astype(np.float32)
    tracemalloc.start()
    try:
        compute_covariance(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the covariance and two float64 blocks of rows; every block product
    # is written into the covariance, so a 2 MB temporary diagonal product
    # would not fit, nor would a whole float64 copy of x (9.8 MB)
    block = COV_BLOCK * 600 * 8
    assert peak <= 2048 * 2048 * 8 + 2 * block + 2**20, peak


@pytest.mark.parametrize("row", [0, 700, 1099], ids=["first", "middle", "ragged-last"])
def test_blocked_covariance_checks_every_block(row):
    # only the first row's sweep checks its blocks, and it makes every block
    x = np.random.default_rng(24).normal(size=(1100, 900))
    x[row, 5] = np.nan
    for source in (x, _RowCopies(x)):
        with pytest.raises(InvalidInput, match="non-finite"):
            compute_covariance(source)
    # and the row source is still sliced 1 + b (b - 1) / 2 times, b = 3
    source = _RowCopies(np.random.default_rng(24).normal(size=(1100, 900)))
    compute_covariance(source)
    assert len(source.made) == 4


# ------------------------------------------------------------------- eig_sym

def test_eig_sym_identity():
    spec, _ = eig_sym(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1, 1, 1])


def test_eig_sym_diagonal_with_sign_convention():
    spec, vecs = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])
    assert np.allclose(vecs, np.eye(2))


def test_eig_sym_reconstruction():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    a = (a + a.T) / 2
    spec, vecs = eig_sym(a)
    rec = vecs.T @ np.diag(spec.eigenvalues) @ vecs
    assert np.linalg.norm(rec - a) < 1e-10 * max(np.linalg.norm(a), 1.0)


def test_eig_sym_deterministic_bits():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(16, 16))
    a = (a + a.T) / 2
    s1, v1 = eig_sym(a)
    s2, v2 = eig_sym(a.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(v1, v2)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_sym_rows_orthonormal():
    rng = np.random.default_rng(13)
    for d in (2, 7, 33):
        a = rng.normal(size=(d, d))
        a = (a + a.T) / 2
        _, vecs = eig_sym(a)
        assert np.max(np.abs(vecs @ vecs.T - np.eye(d))) < 1e-10


def _symmetric(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d))
    return (a + a.T) / 2


@pytest.mark.parametrize("d", [1, 2, 64, 513])
def test_eig_sym_values_only_matches_full(d):
    a = _symmetric(d, 14 + d)
    spec, vecs = eig_sym(a, n_samples=3 * d, vectors=False)
    assert vecs is None
    full, _ = eig_sym(a, n_samples=3 * d)
    assert (spec.d, spec.n) == (full.d, full.n)
    lam = spec.eigenvalues
    assert np.all(lam[:-1] >= lam[1:])
    scale = np.max(np.abs(full.eigenvalues))
    assert np.max(np.abs(lam - full.eigenvalues)) <= 1e-12 * scale


def test_eig_sym_hands_lapack_a_fortran_ordered_matrix(monkeypatch):
    seen = []

    def recording(solve):
        def wrapper(a, *args, **kwargs):
            seen.append(a.flags.f_contiguous)
            return solve(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    a = _symmetric(50, 21)
    near = a.copy()
    near[3, 7] += 1e-12
    for matrix in (a, near):
        assert matrix.flags.c_contiguous and not matrix.flags.f_contiguous
        for vectors in (True, False):
            eig_sym(matrix, vectors=vectors)
    assert seen == [True] * 4


@pytest.mark.parametrize("d", [40, 512, 1100])
@pytest.mark.parametrize("exact", [True, False], ids=["symmetric", "symmetrized"])
def test_eig_sym_has_the_bits_of_lapack_on_the_c_ordered_matrix(d, exact):
    a = _symmetric(d, 22 + d)
    if not exact:
        a[1, 0] += 1e-12
    sym = a if exact else (a + a.T) / 2.0
    assert sym.flags.c_contiguous and np.array_equal(sym, sym.T)
    values, _ = eig_sym(a, vectors=False)
    assert np.array_equal(values.eigenvalues, np.linalg.eigvalsh(sym)[::-1])
    spec, vecs = eig_sym(a)
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1]
    rows = v[:, order].T.copy()
    for i in range(d):
        j = int(np.argmax(np.abs(rows[i])))
        if rows[i, j] < 0:
            rows[i] = -rows[i]
    assert np.array_equal(spec.eigenvalues, w[order])
    assert np.array_equal(vecs, rows)


def test_eig_sym_near_symmetric_is_symmetrized():
    a = _symmetric(30, 16)
    near = a.copy()
    near[3, 7] += 1e-12
    assert not np.array_equal(near, near.T)
    for vectors in (True, False):
        spec, vecs = eig_sym(near, vectors=vectors)
        ref_spec, ref_vecs = eig_sym((near + near.T) / 2.0, vectors=vectors)
        assert np.array_equal(spec.eigenvalues, ref_spec.eigenvalues)
        assert np.array_equal(vecs, ref_vecs)
    far = a.copy()
    far[3, 7] += 1e-6
    for vectors in (True, False):
        with pytest.raises(InvalidInput):
            eig_sym(far, vectors=vectors)


def test_eig_sym_nonfinite_is_numerical_failure():
    # finite activations whose covariance overflows in one row
    x = np.ones((3, 4))
    x[0] = 1e160
    with np.errstate(over="ignore"):
        cov = compute_covariance(x)
    assert np.isinf(cov[0, 0]) and np.isfinite(cov[1, 1])
    for vectors in (True, False):
        with pytest.raises(NumericalFailure):
            eig_sym(cov, vectors=vectors)
        with pytest.raises(NumericalFailure):
            eig_sym(np.full((3, 3), np.nan), vectors=vectors)


def test_eig_sym_nan_does_not_hide_an_asymmetry():
    a = np.eye(3)
    a[0, 1] = 5.0
    a[2, 2] = np.nan
    for vectors in (True, False):
        with pytest.raises(InvalidInput, match="not symmetric"):
            eig_sym(a, vectors=vectors)


def test_covariance_is_exactly_symmetric():
    x = np.random.default_rng(17).normal(size=(70, 150))
    cov = compute_covariance(x)
    assert np.array_equal(cov, cov.T)
    # a strided view is made contiguous, so it too takes the symmetric update
    strided = compute_covariance(np.random.default_rng(18).normal(size=(40, 300))[:, ::2])
    assert np.array_equal(strided, strided.T)
    for d in (1, 2, 129, 300):
        x = np.random.default_rng(19 + d).normal(size=(d, 7))
        cov = compute_covariance(np.asfortranarray(x))
        assert np.array_equal(cov, cov.T), d


def _tile_cases():
    t = SYM_TILE
    cases = {}
    for d in (1, 5, t - 1, t, 2 * t + 44):  # d = 1, below a tile, one tile, a partial tile
        cases[f"symmetric-{d}"] = _symmetric(d, 20 + d)
    a = _symmetric(2 * t + 44, 21)
    for name, (i, j) in {"off-diagonal-tile": (5, t + 40),
                         "tile-boundary": (t - 1, t),
                         "last-partial-tile": (2 * t + 43, 3),
                         "first-row": (0, 2 * t + 43)}.items():
        b = a.copy()
        b[i, j] += 1e-9
        cases[name] = b
    b = _symmetric(100, 22)
    b[7, 90] = np.nextafter(b[7, 90], np.inf)  # one ulp, below a tile
    cases["one-ulp-small"] = b
    for d in (1, 2 * t + 44):
        b = _symmetric(d, 23)
        b[d // 2, d // 2] = np.nan  # array_equal calls NaN unequal to itself
        cases[f"nan-diagonal-{d}"] = b
    b = _symmetric(2 * t + 44, 24)
    b[3, t + 3] = b[t + 3, 3] = np.inf  # mirrored infinities are equal
    cases["mirrored-inf"] = b
    return cases


@pytest.mark.parametrize("name", sorted(_tile_cases()))
def test_exactly_symmetric_agrees_with_array_equal(name):
    a = _tile_cases()[name]
    expected = np.array_equal(a, a.T)
    assert expected == (name.startswith("symmetric") or name == "mirrored-inf")
    assert _exactly_symmetric(a) == expected


# ------------------------------------------------------------- closed forms

def test_mp_bulk_edges_quarter():
    assert mp_bulk_edges(1.0, 0.25) == (0.25, 2.25)


def test_mp_bulk_edges_square_case():
    lm, lp = mp_bulk_edges(2.0, 1.0)
    assert lm == 0.0 and lp == 8.0


def test_mp_bulk_edges_independent_arithmetic():
    # sigma2 (1 +- sqrt(q))^2 evaluated separately for sigma2=1.5, q=0.1
    lm, lp = mp_bulk_edges(1.5, 0.1)
    assert abs(lm - 0.7013167019494862) < 1e-12
    assert abs(lp - 2.5986832980505143) < 1e-12


def test_mp_bulk_edges_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        mp_bulk_edges(0.0, 0.5)
    with pytest.raises(InvalidInput):
        mp_bulk_edges(1.0, -1.0)


def test_bbp_threshold_values():
    assert bbp_threshold(1.0, 1.0) == 2.0
    assert bbp_threshold(2.0, 0.25) == 3.0
    assert abs(bbp_threshold(1.0, 0.5) - 1.7071067811865475) < 1e-12
    with pytest.raises(InvalidInput):
        bbp_threshold(-1.0, 0.5)


# ------------------------------------------------------------------ densities

def test_mp_density_vanishes_at_edges_and_outside():
    m = MPModel(sigma2=1.0, q=0.25)
    assert mp_density(m.lambda_plus, m) == 0.0
    assert mp_density(m.lambda_minus, m) == 0.0
    assert mp_density(m.lambda_plus + 1.0, m) == 0.0


def test_mp_density_quadrature_q_half():
    m = MPModel(sigma2=1.0, q=0.5)
    val, _ = quad(lambda l: mp_density(l, m), m.lambda_minus, m.lambda_plus,
                  limit=200)
    assert abs(val - 1.0) < 1e-4


def test_mp_density_zero_at_origin_when_lower_edge_is_zero():
    m = MPModel(sigma2=2.0, q=1.0)
    assert mp_density(0.0, m) == 0.0


def test_mp_density_nonnegative_inside_support():
    m = MPModel(sigma2=1.3, q=0.3)
    lams = np.random.default_rng(3).uniform(0, m.lambda_plus * 1.5, size=1000)
    dens = mp_density(lams, m)
    assert np.all(dens >= 0)
    outside = (lams < m.lambda_minus) | (lams > m.lambda_plus)
    assert np.all(dens[outside] == 0)


def test_wigner_density_edge_and_center():
    assert wigner_semicircle_density(2.0, 1.0) == 0.0
    assert wigner_semicircle_density(-2.0, 1.0) == 0.0
    assert abs(wigner_semicircle_density(0.0, 1.0) - 1.0 / math.pi) < 1e-12


def test_wigner_density_symmetric_and_normalized():
    xs = np.linspace(-3, 3, 301)
    assert np.allclose(wigner_semicircle_density(xs, 2.0),
                       wigner_semicircle_density(-xs, 2.0))
    s = 2.0 * math.sqrt(2.0)
    val, _ = quad(lambda x: wigner_semicircle_density(x, 2.0), -s, s, limit=200)
    assert abs(val - 1.0) < 1e-4


# --------------------------------------------------------------- init_sigma2

def test_init_sigma2_median_odd():
    spec = Spectrum(eigenvalues=np.array([5.0, 4.0, 3.0, 2.0, 1.0]), d=5, n=5)
    assert init_sigma2(spec, 0.5) == 3.0


def test_init_sigma2_extremes():
    spec = Spectrum(eigenvalues=np.array([5.0, 4.0, 3.0, 2.0, 1.0]), d=5, n=5)
    assert init_sigma2(spec, 0.0) == 1.0
    assert init_sigma2(spec, 1.0) == 5.0


def test_init_sigma2_even_interpolation():
    spec = Spectrum(eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]), d=4, n=4)
    assert init_sigma2(spec, 0.5) == 2.5


def test_init_sigma2_clamps_roundoff_negatives():
    spec = Spectrum(eigenvalues=np.array([2.0, 1.0, -1e-15]), d=3, n=3)
    assert init_sigma2(spec, 0.0) == 0.0


@given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=40),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_init_sigma2_monotone_in_quantile(eigs, qa, qb):
    lam = np.sort(np.array(eigs))[::-1]
    spec = Spectrum(eigenvalues=lam, d=len(eigs), n=4 * len(eigs))
    lo, hi = sorted([qa, qb])
    assert init_sigma2(spec, lo) <= init_sigma2(spec, hi)


# ----------------------------------------------------------------- fit_sigma2

def test_fit_sigma2_recovers_wishart_noise():
    # d=200, n=2000 pure noise at sigma2=2: median fit over 20 seeds in +-10%
    fits = []
    for seed in range(20):
        am = sample_noise_matrix(200, 2000, 2.0, seed=100 + seed)
        spec, _ = eig_sym(compute_covariance(am), n_samples=2000)
        s2, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
        fits.append(s2)
    med = float(np.median(fits))
    assert abs(med - 2.0) / 2.0 < 0.10


def test_fit_sigma2_on_exact_mp_histogram():
    # eigenvalues synthesized by inverse-CDF sampling of the MP density
    q = 0.1
    model = MPModel(sigma2=1.0, q=q)
    d = 400
    grid = np.linspace(model.lambda_minus, model.lambda_plus, 4001)
    pdf = mp_density(grid, model)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    lam = np.interp((np.arange(d) + 0.5) / d, cdf, grid)[::-1].copy()
    spec = Spectrum(eigenvalues=lam, d=d, n=int(d / q))
    s2, fit = fit_sigma2(spec, init_sigma2(spec, 0.5))
    assert abs(s2 - 1.0) < 0.05
    assert fit.l2_distance >= 0
    assert len(fit.empirical_density) == len(fit.bin_edges) - 1


def test_fit_sigma2_degenerate_spectrum():
    spec = Spectrum(eigenvalues=np.full(6, 3.0), d=6, n=12)
    with pytest.raises(DegenerateSpectrum):
        fit_sigma2(spec, 1.0)


def test_fit_sigma2_permutation_invariant():
    am = sample_noise_matrix(60, 600, 1.0, seed=42)
    spec, _ = eig_sym(compute_covariance(am), n_samples=600)
    s2a, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
    rng = np.random.default_rng(0)
    shuffled = spec.eigenvalues.copy()
    rng.shuffle(shuffled)
    spec_b = Spectrum(eigenvalues=shuffled, d=spec.d, n=spec.n)
    s2b, _ = fit_sigma2(spec_b, init_sigma2(spec_b, 0.5))
    assert s2a == s2b


def test_fit_sigma2_rejects_bad_init():
    spec = Spectrum(eigenvalues=np.array([3.0, 2.0, 1.0]), d=3, n=9)
    with pytest.raises(InvalidInput):
        fit_sigma2(spec, 0.0)


# ------------------------------------------------------------------- classify

def _partition(eigs, n, sigma2):
    lam = np.asarray(eigs, dtype=np.float64)
    spec = Spectrum(eigenvalues=lam, d=lam.size, n=n)
    vecs = np.eye(lam.size)
    return classify(spec, vecs, MPModel(sigma2=sigma2, q=spec.q))


def test_classify_simple_threshold():
    # lambda_plus = 2.25 for sigma2=1, q=0.25
    part = _partition([3.0, 2.0, 1.0], n=12, sigma2=1.0)
    assert part.k == 1
    assert np.array_equal(part.spike_eigenvectors, np.eye(3)[:1])


def test_classify_no_spikes():
    part = _partition([2.0, 1.0, 0.5], n=12, sigma2=1.0)
    assert part.k == 0
    assert part.spike_eigenvectors.shape == (0, 3)


def test_classify_ties_are_bulk():
    lam = np.array([2.25, 1.0])
    spec = Spectrum(eigenvalues=lam, d=2, n=8)
    part = classify(spec, np.eye(2), MPModel(sigma2=1.0, q=0.25))
    assert part.k == 0  # equality with lambda_plus stays in the bulk


def test_classify_without_eigenvectors():
    lam = np.array([3.0, 2.5, 2.0, 1.0])
    spec = Spectrum(eigenvalues=lam, d=4, n=16)
    model = MPModel(sigma2=1.0, q=0.25)
    full = classify(spec, np.eye(4), model)
    part = classify(spec, None, model)
    assert part.spike_eigenvectors is None
    assert part.k == full.k == 2
    assert np.array_equal(full.spike_eigenvectors, np.eye(4)[:2])


def test_classify_rejects_unsorted_spectrum():
    # the spikes are taken as the first k rows, so an ascending spectrum
    # would silently pair the wrong vectors with the large eigenvalues
    with pytest.raises(InvalidInput, match="not sorted descending"):
        _partition([1.0, 2.0, 3.0], n=12, sigma2=1.0)


def test_classify_first_k_rows_equal_fancy_indexing():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 200))
    spec, vecs = eig_sym(compute_covariance(a), n_samples=200)
    model = MPModel(sigma2=0.5, q=spec.q)  # edge 0.96: several spikes
    part = classify(spec, vecs, model)
    spikes = np.nonzero(spec.eigenvalues > model.lambda_plus)[0]
    assert 0 < part.k == spikes.size < 30
    assert part.spike_eigenvectors.tobytes() == vecs[spikes].tobytes()


def test_classify_three_planted_spikes_monte_carlo():
    # strength 5 sigma2 (1 + sqrt(q)) at d=100, n=1000, full fit pipeline
    q = 0.1
    theta = 5.0 * (1.0 + math.sqrt(q))
    hits = 0
    for seed in range(20):
        am, _ = sample_spiked(100, 1000, 1.0, [(theta, None)] * 3,
                              seed=1000 + seed)
        spec, vecs = eig_sym(compute_covariance(am), n_samples=1000)
        s2, _ = fit_sigma2(spec, init_sigma2(spec, 0.5))
        part = classify(spec, vecs, MPModel(sigma2=s2, q=spec.q))
        hits += (part.k == 3)
    assert hits >= 19  # >= 95% of 20 seeds


def test_classify_k_nonincreasing_in_quantile():
    am, _ = sample_spiked(80, 800, 1.0, [(8.0, None), (6.0, None)], seed=5)
    spec, vecs = eig_sym(compute_covariance(am), n_samples=800)
    ks = []
    for quantile in (0.1, 0.3, 0.5, 0.7, 0.9):
        lp = mp_bulk_edges(init_sigma2(spec, quantile), spec.q)[1]
        ks.append(int(np.sum(spec.eigenvalues > lp)))
    assert all(a >= b for a, b in zip(ks, ks[1:]))


# ------------------------------------------------------------ bulk edge law

def test_pure_noise_eigenvalues_stay_in_bulk():
    am = sample_noise_matrix(200, 2000, 1.0, seed=77)
    spec, _ = eig_sym(compute_covariance(am), n_samples=2000)
    lm, lp = mp_bulk_edges(1.0, spec.q)
    outside = np.sum((spec.eigenvalues < lm) | (spec.eigenvalues > lp))
    assert outside / spec.d <= 0.02
