import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtkd import data as data_module
from rmtkd.data import (Dataset, SplitSpec, load_csv,
                        planted_subspace_task, sample_noise_matrix,
                        sample_spiked, save_csv, split)
from rmtkd.errors import (GenerationFailure, InvalidInput, ParseError,
                          SchemaError)
from rmtkd.rng import make_rng, normal


# ------------------------------------------------------------------- dataset

def test_dataset_validates_label_length():
    with pytest.raises(InvalidInput):
        Dataset(x=np.ones((2, 3)), y=np.array([0, 1]), num_classes=2)


def test_splitspec_validates_fractions():
    with pytest.raises(InvalidInput):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(InvalidInput):
        SplitSpec(calibration_fraction=0.0)


# ------------------------------------------------------------------ sampling

def test_noise_matrix_shape_and_variance():
    x = sample_noise_matrix(50, 4000, 2.0, seed=0)
    assert x.shape == (50, 4000)
    assert abs(x.var() - 2.0) < 0.1


def test_noise_matrix_deterministic():
    a = sample_noise_matrix(10, 20, 1.0, seed=1)
    b = sample_noise_matrix(10, 20, 1.0, seed=1)
    c = sample_noise_matrix(10, 20, 1.0, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spiked_directions_are_orthonormal():
    _, dirs = sample_spiked(20, 100, 1.0, [(5.0, None)] * 4, seed=3)
    assert dirs.shape == (4, 20)
    assert np.max(np.abs(dirs @ dirs.T - np.eye(4))) < 1e-10


def test_spiked_respects_supplied_direction():
    v = np.zeros(10)
    v[0] = 1.0
    x, dirs = sample_spiked(10, 50000, 1.0, [(9.0, v)], seed=4)
    assert np.array_equal(dirs[0], v)
    # coordinate 0 variance should be sigma2 + theta = 10, the rest ~1
    var0 = x[0].var()
    assert abs(var0 - 10.0) < 0.5
    assert abs(x[1:].var() - 1.0) < 0.05


def test_spiked_rejects_nonorthonormal_directions():
    v1 = np.zeros(5)
    v1[0] = 1.0
    v2 = np.full(5, 0.6)
    with pytest.raises(InvalidInput):
        sample_spiked(5, 20, 1.0, [(2.0, v1), (2.0, v2)], seed=5)


def test_spiked_rejects_bad_args():
    with pytest.raises(InvalidInput):
        sample_spiked(5, 20, 1.0, [(-1.0, None)], seed=6)
    with pytest.raises(InvalidInput):
        sample_spiked(3, 20, 1.0, [(1.0, None)] * 4, seed=7)
    with pytest.raises(InvalidInput):
        sample_spiked(5, 20, 0.0, [(1.0, None)], seed=8)


# -------------------------------------------------------------- planted task

def test_planted_task_shapes_and_balance():
    ds, basis = planted_subspace_task(32, 8, 10, 503, 0.3, seed=9)
    assert ds.x.shape == (32, 503) and ds.y.shape == (503,)
    assert basis.shape == (32, 8)
    assert np.max(np.abs(basis.T @ basis - np.eye(8))) < 1e-10
    counts = np.bincount(ds.y, minlength=10)
    assert counts.max() - counts.min() <= 1
    assert set(np.unique(ds.y)) <= set(range(10))


def test_planted_task_margin_holds_on_projected_latents():
    ds, basis = planted_subspace_task(16, 4, 3, 200, 0.0, seed=10, margin=0.3)
    scorer = _planted_block_ref(16, 4, 3, 200, 0.0, seed=10, margin=0.3)[3]
    z = basis.T @ ds.x  # zero ambient noise: exact latent recovery
    scores = scorer @ z
    top2 = np.sort(scores, axis=0)[-2:]
    gaps = top2[1] - top2[0]
    assert np.all(gaps >= 0.3 - 1e-12)
    assert np.array_equal(np.argmax(scores, axis=0), ds.y)


def test_planted_task_signal_confined_to_subspace():
    ds, basis = planted_subspace_task(24, 6, 4, 300, 0.0, seed=12)
    # with zero noise, x has no component outside the planted basis
    residual = ds.x - basis @ (basis.T @ ds.x)
    assert np.max(np.abs(residual)) < 1e-10


def test_planted_task_deterministic():
    a, ba = planted_subspace_task(12, 3, 3, 60, 0.2, seed=12)
    b, bb = planted_subspace_task(12, 3, 3, 60, 0.2, seed=12)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(ba, bb)


def test_planted_task_infeasible_margin():
    with pytest.raises(GenerationFailure):
        planted_subspace_task(16, 4, 3, 100, 0.1, seed=13, margin=50.0)


def test_planted_task_validates_dims():
    with pytest.raises(InvalidInput):
        planted_subspace_task(4, 8, 3, 50, 0.1, seed=14)
    with pytest.raises(InvalidInput):
        planted_subspace_task(8, 4, 1, 50, 0.1, seed=15)
    with pytest.raises(InvalidInput):
        planted_subspace_task(8, 0, 3, 50, 0.1, seed=16)
    with pytest.raises(InvalidInput):
        planted_subspace_task(8, 4, 3, 0, 0.1, seed=17)


# ---------------------------------------------- block generation = per draw

def _planted_block_ref(input_dim, intrinsic_dim, num_classes, n_samples,
                       noise_sigma, seed, margin=0.3):
    """The planted generator's block rule, deciding one draw at a time
    (reference): each draw of a ``Z_BLOCK`` block passes on its own gap and
    is kept while its class quota has room."""
    rng = make_rng(seed)
    r = intrinsic_dim
    basis_full, _ = np.linalg.qr(normal(rng, (input_dim, input_dim)))
    basis = basis_full[:, :r]
    complement = basis_full[:, r:]
    scorer = normal(rng, (num_classes, r))
    scorer = scorer / np.linalg.norm(scorer, axis=1, keepdims=True)

    quota = [n_samples // num_classes + (1 if i < n_samples % num_classes else 0)
             for i in range(num_classes)]
    counts = [0] * num_classes
    kept = []
    draws = 0
    limit = 10 * n_samples
    while len(kept) < n_samples:
        if draws == limit:
            raise GenerationFailure(f"class balance infeasible within {limit} draws")
        z = normal(rng, (min(data_module.Z_BLOCK, limit - draws), r))
        draws += len(z)
        for zi, scores in zip(z, z @ scorer.T):
            top2 = np.partition(scores, -2)[-2:]
            c = int(np.argmax(scores))
            if top2[1] - top2[0] >= margin and counts[c] < quota[c]:
                kept.append((zi, c))
                counts[c] += 1

    perm = rng.permutation(n_samples)
    latents = np.array([zi for zi, _ in kept]).T[:, perm]
    labels = np.array([c for _, c in kept], dtype=np.int64)[perm]
    width = data_module.X_BLOCK
    x = np.hstack([
        basis @ latents[:, a:a + width]
        + complement @ normal(rng, (input_dim - r, min(width, n_samples - a)),
                              std=noise_sigma)
        for a in range(0, n_samples, width)])
    return x, labels, basis, scorer


def _assert_same_task(args, margin):
    """The generator and its per-draw reference give byte-equal x, y and
    basis, or raise the same GenerationFailure."""
    try:
        ds, basis = planted_subspace_task(*args, margin=margin)
    except GenerationFailure as e:
        with pytest.raises(GenerationFailure) as per_draw:
            _planted_block_ref(*args, margin=margin)
        assert str(per_draw.value) == str(e)
        return
    want = _planted_block_ref(*args, margin=margin)
    for got, ref in zip((ds.x, ds.y, basis), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("margin", [0.0, 0.3])
def test_planted_task_matches_per_draw_loop(r, margin):
    # With few latent dims and many classes some class's margin region is too
    # small to fill its quota, so the class count grows with r; where a quota
    # still cannot fill (r = 3 at margin 0.3), both sides fail alike.
    _assert_same_task((r + 5, r, min(r + 1, 4), 400, 0.2, 0), margin)


@pytest.mark.parametrize("n", [1000, 1001])
def test_planted_task_blocked_bz_and_permute_match_per_draw_loop(n, monkeypatch):
    # x is built in ten 96-column blocks and a ragged last one of 40 or 41
    # columns, after the latents are permuted; each block draws its own noise.
    monkeypatch.setattr(data_module, "X_BLOCK", 96)
    _assert_same_task((21, 16, 4, n, 0.2, 0), 0.3)


def test_planted_task_matches_per_draw_loop_full_rank():
    # input_dim == r: each block's noise is 0 x width and adds zeros.
    _assert_same_task((6, 6, 3, 300, 0.1, 21), 0.3)


def test_planted_task_margin_equal_to_a_drawn_gap():
    # A draw whose gap (as the block product computes it) equals the margin
    # passes.
    args = (12, 8, 5, 200, 0.2, 22)
    rng = make_rng(22)
    normal(rng, (12, 12))
    scorer = normal(rng, (5, 8))
    scorer = scorer / np.linalg.norm(scorer, axis=1, keepdims=True)
    top2 = np.partition(normal(rng, (data_module.Z_BLOCK, 8)) @ scorer.T, -2, axis=1)
    gaps = top2[:, -1] - top2[:, -2]
    for margin in sorted(gaps[:40])[::8]:
        _assert_same_task(args, margin)


def test_planted_task_memory_is_x_plus_latents_and_blocks():
    # x is built X_BLOCK columns at a time: no input_dim x N noise draw, B z
    # or permuted copy of x is held beside it.
    input_dim, r, n = 32, 4, 40000
    tracemalloc.start()
    try:
        ds, _ = planted_subspace_task(input_dim, r, 3, n, 0.3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * input_dim * data_module.X_BLOCK
    assert peak <= ds.x.nbytes + 2 * 8 * r * n + 6 * block, peak


def test_planted_task_infeasible_margin_same_failure():
    args = (16, 4, 3, 100, 0.1, 13)
    with pytest.raises(GenerationFailure) as block:
        planted_subspace_task(*args, margin=50.0)
    with pytest.raises(GenerationFailure) as per_draw:
        _planted_block_ref(*args, margin=50.0)
    assert str(block.value) == str(per_draw.value) == \
        "class balance infeasible within 1000 draws"


# The ids keep the size-mean-std form they had when ``normal`` took a mean;
# the mean is always 0.0 now.
@pytest.mark.parametrize("size, std", [
    pytest.param((), 1.0, id="size2-0.0-1.0"),
    pytest.param(1, 1.0, id="1-0.0-1.0"),
    pytest.param(7, 0.5, id="7-0.0-0.5"),
    pytest.param((12, 9), 1.0, id="size5-0.0-1.0"),
    pytest.param((40, 25), 3.0, id="size6-0.0-3.0"),
    pytest.param((3, 0), 1.0, id="size7-0.0-1.0"),
    pytest.param(5000, 1.0, id="5000-0.0-1.0"),
])
def test_normal_matches_out_of_place_reference(size, std):
    # normal scales the generator's standard_normal in place; the reference
    # scales out of place, from a generator on the same seed
    for seed in range(40):
        a, b = make_rng(seed), make_rng(seed)
        for _ in range(25):
            got = normal(a, size, std=std)
            want = b.standard_normal(size) * std
            assert got.tobytes() == want.tobytes()
            assert got.shape == want.shape
        np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)


def test_normal_memory_is_its_output():
    n = 10**6
    rng = make_rng(3)
    tracemalloc.start()
    try:
        normal(rng, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 2**20, peak


# --------------------------------------------------------------------- split

def _labeled(counts, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    x = rng.normal(size=(3, len(y)))
    return Dataset(x=x, y=y, num_classes=len(counts))


def test_split_partitions_and_stratifies():
    ds = _labeled([50, 30, 20])
    tr, va, cal = split(ds, SplitSpec(train_fraction=0.8,
                                      calibration_fraction=0.25, seed=1))
    assert tr.n + va.n == ds.n
    assert np.bincount(tr.y, minlength=3).tolist() == [40, 24, 16]
    assert np.bincount(va.y, minlength=3).tolist() == [10, 6, 4]
    assert np.bincount(cal.y, minlength=3).tolist() == [10, 6, 4]


def test_split_calibration_is_subset_of_train():
    ds = _labeled([40, 40], seed=2)
    tr, va, cal = split(ds, SplitSpec(seed=3))
    tr_cols = {tuple(tr.x[:, j]) for j in range(tr.n)}
    va_cols = {tuple(va.x[:, j]) for j in range(va.n)}
    cal_cols = {tuple(cal.x[:, j]) for j in range(cal.n)}
    assert cal_cols <= tr_cols
    assert not (tr_cols & va_cols)


def test_split_deterministic_per_seed():
    ds = _labeled([30, 30], seed=4)
    a = split(ds, SplitSpec(seed=5))
    b = split(ds, SplitSpec(seed=5))
    c = split(ds, SplitSpec(seed=6))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)
    assert not np.array_equal(a[0].x, c[0].x)


def test_split_rejects_tiny_classes():
    ds = _labeled([50, 1], seed=7)
    with pytest.raises(InvalidInput):
        split(ds, SplitSpec(seed=8))
    # a class whose train allocation would swallow every example also fails
    ds2 = _labeled([50, 2], seed=9)
    with pytest.raises(InvalidInput):
        split(ds2, SplitSpec(train_fraction=0.9, seed=10))


@settings(deadline=None, max_examples=25)
@given(st.integers(6, 60), st.integers(6, 60),
       st.floats(0.3, 0.9), st.integers(0, 10_000))
def test_split_counts_proportional(c0, c1, frac, seed):
    ds = _labeled([c0, c1], seed=seed)
    try:
        tr, va, cal = split(ds, SplitSpec(train_fraction=frac,
                                          calibration_fraction=0.5, seed=seed))
    except InvalidInput:
        return  # degenerate allocation is allowed to refuse
    for c, total in ((0, c0), (1, c1)):
        want = int(round(frac * total))
        assert np.sum(tr.y == c) == want
        assert np.sum(va.y == c) == total - want
    assert tr.n + va.n == ds.n and cal.n <= tr.n


# ----------------------------------------------------------------------- csv

def test_csv_roundtrip(tmp_path):
    ds = _labeled([5, 7], seed=11)
    p = tmp_path / "d.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    assert back.num_classes == 2
    header = p.read_text().split("\n")[0]
    assert header == "f0,f1,f2,label"


def test_csv_roundtrip_exact_floats(tmp_path):
    ds = Dataset(x=np.array([[0.1, 1e-17, -3.5e300]]), y=np.array([0, 1, 0]),
                 num_classes=2)
    p = tmp_path / "e.csv"
    save_csv(ds, p)
    assert np.array_equal(load_csv(p).x, ds.x)


def test_save_csv_bytes(tmp_path):
    # the header, then each feature's and the label's repr, LF line ends
    ds = Dataset(x=np.array([[0.1, -0.0], [1e-17, 3.0]]), y=np.array([1, 0]),
                 num_classes=2)
    p = tmp_path / "b.csv"
    save_csv(ds, p)
    assert p.read_bytes() == b"f0,f1,label\n0.1,1e-17,1\n-0.0,3.0,0\n"


def test_csv_crlf_loads_like_lf(tmp_path):
    ds = _labeled([5, 7], seed=11)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    save_csv(ds, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_csv(lf), load_csv(crlf)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.num_classes == b.num_classes == 2


def test_csv_label_remap_is_dense_sorted(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("f0,label\n1.0,7\n2.0,3\n3.0,7\n")
    ds = load_csv(p)
    # raw labels {3, 7} -> {0, 1} by sorted order
    assert ds.y.tolist() == [1, 0, 1]
    assert ds.num_classes == 2


def test_csv_label_column_anywhere(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("label,f0,f1\n0,1.5,2.5\n1,3.5,4.5\n")
    ds = load_csv(p)
    assert np.array_equal(ds.x, [[1.5, 3.5], [2.5, 4.5]])
    assert ds.y.tolist() == [0, 1]


def test_csv_parse_error_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ParseError) as ei:
        load_csv(p)
    assert "row 2" in str(ei.value) and "f1" in str(ei.value)

    for cell in ("nan", "inf", "-Infinity", "1e999"):
        p.write_text(f"f0,f1,label\n1.0,2.0,0\n{cell},1.0,1\n")
        assert not math.isfinite(float(cell))
        with pytest.raises(ParseError) as ei:
            load_csv(p)
        assert "row 2" in str(ei.value) and "'f0'" in str(ei.value)


def test_csv_cells_must_be_decimal(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,label\n-2.5,0\n+3,1\n.5,0\n1e-3,1\n7.,0\n-0,1\n")
    ds = load_csv(p)
    assert ds.x[0].tolist() == [-2.5, 3.0, 0.5, 1e-3, 7.0, 0.0]
    # float() accepts all of these; a decimal column does not
    for cell in ("1_0", "\u0663", " 7 ", "0x1", "1e", ".", "+", "1.5e3.0"):
        p.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{cell},1\n", encoding="utf-8")
        with pytest.raises(ParseError) as ei:
            load_csv(p)
        assert "row 2" in str(ei.value) and "'f1'" in str(ei.value), cell
        assert "not a decimal number" in str(ei.value), cell


def test_csv_ragged_row_rejected(tmp_path):
    p = tmp_path / "rag.csv"
    p.write_text("f0,f1,label\n1.0,0\n")
    with pytest.raises(ParseError) as ei:
        load_csv(p)
    assert "row 1" in str(ei.value)


def test_csv_schema_errors(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        load_csv(p)  # no label column
    p.write_text("f0,label\n")
    with pytest.raises(SchemaError):
        load_csv(p)  # no data rows
    p.write_text("label\n0\n1\n")
    with pytest.raises(SchemaError) as ei:
        load_csv(p)  # no feature columns
    assert "no feature columns" in str(ei.value)
    p.write_text("a,a,label\n1,2,x\n3,4,y\n")
    with pytest.raises(SchemaError) as ei:
        load_csv(p)  # repeated feature name
    assert "'a'" in str(ei.value)
    p.write_text("f,label,label\n1,x,y\n2,y,x\n")
    with pytest.raises(SchemaError) as ei:
        load_csv(p)  # repeated label column
    assert "'label'" in str(ei.value)


_CELL = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["label", "1", "-2.5e3", "1e400", "nan", "-inf", " 7 ",
                     "1_0", "0x1", ""]),
)


@pytest.fixture(scope="module")
def fuzz_csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csvfuzz") / "f.csv"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_load_csv_random_cells_typed(fuzz_csv_path, data):
    # any cell text ends in a Dataset of finite features or a typed error
    header = data.draw(st.lists(_CELL, min_size=1, max_size=4), label="header")
    if data.draw(st.booleans(), label="add_label"):
        header.append("label")
    rows = data.draw(st.lists(st.lists(_CELL, min_size=len(header),
                                       max_size=len(header)), max_size=4),
                     label="rows")
    text = "\n".join(",".join(cells) for cells in [header] + rows)
    fuzz_csv_path.write_text(text, encoding="utf-8", newline="")
    try:
        ds = load_csv(fuzz_csv_path)
    except (ParseError, SchemaError):
        return
    assert isinstance(ds, Dataset) and ds.n == len(rows)
    assert np.all(np.isfinite(ds.x))
