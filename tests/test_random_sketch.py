import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge import random_sketch
from fdridge.random_sketch import apply_gaussian, realize_gaussian, realize_sjlt

BLOCK_ROWS = 32  # rows per Gaussian block that the block tests budget for


def test_gaussian_zero_input():
    assert not (realize_gaussian(8, 12, 0) @ np.zeros((12, 3))).any()


def test_gaussian_deterministic():
    A = np.random.default_rng(1).standard_normal((12, 4))
    np.testing.assert_array_equal(realize_gaussian(8, 12, 3) @ A,
                                  realize_gaussian(8, 12, 3) @ A)


def test_gaussian_seed_changes_output():
    A = np.random.default_rng(1).standard_normal((12, 4))
    a = realize_gaussian(8, 12, 0) @ A
    b = realize_gaussian(8, 12, 1) @ A
    assert not np.array_equal(a, b)


def test_gaussian_shape_mismatch():
    with pytest.raises(ValueError):
        realize_gaussian(8, 12, 0) @ np.zeros((11, 3))


def test_gaussian_entry_scale():
    # Entries are i.i.d. with variance 1/m.
    S = realize_gaussian(400, 50, 7)
    assert np.asarray(S).var() == pytest.approx(1.0 / 400, rel=0.05)


@pytest.mark.parametrize("m", [5, BLOCK_ROWS, 40, 3 * BLOCK_ROWS + 7])
def test_apply_gaussian_matches_the_realized_product(m, monkeypatch):
    # m below one block, exactly one block, and heights that leave a
    # partial last block: the row-block draw is the same S
    monkeypatch.setattr(random_sketch, "GAUSSIAN_BLOCK_BYTES",
                        8 * 300 * BLOCK_ROWS)
    X = np.random.default_rng(2).standard_normal((300, 7))
    np.testing.assert_allclose(apply_gaussian(m, X, 4),
                               realize_gaussian(m, 300, 4) @ X, rtol=1e-12)


@pytest.mark.parametrize("m", [5, BLOCK_ROWS, 40, 3 * BLOCK_ROWS + 7])
def test_gaussian_blocks_draw_the_realized_sketch_bit_for_bit(m, monkeypatch):
    # S I in blocks of 32 rows, short last blocks included, is the S that
    # realize_gaussian draws, with not one bit rescaled or reordered
    monkeypatch.setattr(random_sketch, "GAUSSIAN_BLOCK_BYTES",
                        8 * 300 * BLOCK_ROWS)
    np.testing.assert_array_equal(
        random_sketch._product("gauss", m, np.eye(300), 4),
        realize_gaussian(m, 300, 4))


@pytest.mark.parametrize("budget", [1, 8 * 2 ** 20])
def test_gaussian_blocks_clamp_to_one_row_and_to_m(budget, monkeypatch):
    # a budget below one row still draws a row at a time; a budget above
    # the whole sketch draws it in one block
    monkeypatch.setattr(random_sketch, "GAUSSIAN_BLOCK_BYTES", budget)
    X = np.random.default_rng(6).standard_normal((300, 4))
    np.testing.assert_allclose(apply_gaussian(9, X, 5),
                               realize_gaussian(9, 300, 5) @ X, rtol=1e-12)


def test_apply_gaussian_rejects_bad_input():
    # n is X's row count, so only an X of no rows is refused for its height
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        apply_gaussian(8, np.zeros((0, 3)), 0)
    with pytest.raises(ValueError, match="2-d"):
        apply_gaussian(8, np.zeros(12), 0)


def test_apply_gaussian_never_holds_the_sketch(traced_peak):
    # S would take 41 MB; the draw holds one block of at most the budget
    # beside the 256 x 8 result
    X = np.random.default_rng(3).standard_normal((20000, 8))
    SX, peak = traced_peak(apply_gaussian, 256, X, 1)
    assert SX.shape == (256, 8)
    assert peak <= random_sketch.GAUSSIAN_BLOCK_BYTES + SX.nbytes + 2 ** 16


def test_sjlt_column_structure():
    """Each column holds exactly one entry of magnitude 1/sqrt(s) per block."""
    m, n, s = 12, 30, 6
    S = realize_sjlt(m, n, 5)
    assert S.nnz == s * n
    S = np.asarray(S.todense())
    blocks = S.reshape(s, m // s, n)
    mags = np.abs(blocks)
    assert np.all(np.count_nonzero(mags, axis=1) == 1)
    assert np.allclose(mags.sum(axis=1), 1.0 / np.sqrt(s))


# (m, n, s, seed): s is the block count that m gives, the largest
# divisor of m up to 8
@pytest.mark.parametrize("m, n, s, seed", [
    (256, 1000, 8, 11), (64, 24, 8, 6), (40, 20, 8, 5), (12, 30, 6, 5),
    (9, 15, 3, 0), (7, 20, 7, 5)])
def test_sjlt_csc_matches_the_coordinate_construction(m, n, s, seed):
    # the per-block draws at block count s laid out as (row, column,
    # value) triples: the CSC arrays drawn at m hold the same matrix
    import scipy.sparse

    rng = np.random.default_rng(seed)
    rows, vals = [], []
    for b in range(s):
        rows.append(b * (m // s) + rng.integers(0, m // s, size=n))
        vals.append((rng.integers(0, 2, size=n) * 2 - 1) / np.sqrt(s))
    cols = np.tile(np.arange(n), s)
    old = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), cols)), shape=(m, n))
    S = realize_sjlt(m, n, seed)
    assert S.shape == (m, n) and S.nnz == s * n and S.has_sorted_indices
    np.testing.assert_array_equal(S.toarray(), old.toarray())


def test_sjlt_on_basis_vector():
    S, s = realize_sjlt(64, 24, 6), 8
    assert S.nnz == s * 24
    col = np.zeros((24, 1))
    col[13, 0] = 1.0
    out = S @ col
    nz = out[out != 0.0]
    assert nz.size == s
    assert np.allclose(np.abs(nz), 1.0 / np.sqrt(s))


def test_isometry_in_expectation_gaussian():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    x /= np.linalg.norm(x)
    vals = [float(np.linalg.norm(
        realize_gaussian(512, 64, seed) @ x) ** 2)
        for seed in range(200)]
    assert 0.9 <= np.mean(vals) <= 1.1


def test_isometry_in_expectation_sjlt():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    x /= np.linalg.norm(x)
    vals = [float(np.linalg.norm(
        realize_sjlt(512, 64, seed) @ x) ** 2)
        for seed in range(200)]
    assert 0.9 <= np.mean(vals) <= 1.1


@pytest.mark.parametrize("flavor", ["gauss", "sjlt"])
def test_subspace_embedding_sanity(flavor):
    # Orthonormal 2048x16 basis, m=1024: singular values of the sketched
    # basis should stay within [0.5, 1.5] for at least 95 of 100 seeds.
    rng = np.random.default_rng(42)
    U, _ = np.linalg.qr(rng.standard_normal((2048, 16)))
    good = 0
    for seed in range(100):
        if flavor == "gauss":
            SU = realize_gaussian(1024, 2048, seed) @ U
        else:
            SU = realize_sjlt(1024, 2048, seed) @ U
        sv = np.linalg.svd(np.asarray(SU), compute_uv=False)
        good += int(sv.min() >= 0.5 and sv.max() <= 1.5)
    assert good >= 95


@given(st.integers(0, 100), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=20)
def test_application_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((15, 3))
    Y = rng.standard_normal((15, 3))
    for S in (realize_gaussian(6, 15, seed),
              realize_sjlt(6, 15, seed)):
        np.testing.assert_allclose(S @ (a * X + b * Y),
                                   a * (S @ X) + b * (S @ Y),
                                   rtol=1e-10, atol=1e-10)
