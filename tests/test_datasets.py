"""Data generation and sparse-text I/O tests.

Statistical claims about the synthetic generator (row-energy decay,
spectrum concentration, kernel approximation) are checked against Monte
Carlo targets computed from the defining formulas, not against the
generator's own output.
"""
import math
import re
from functools import partial

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge.datasets import (SparseRowMatrix, dct_rotation, dump_libsvm,
                              parse_libsvm, rff_expand, synthetic_regression)


def test_effective_rank_rounding():
    # R = floor(r d + 0.5) weights are drawn, the rest stay 0
    def rank(*args):
        return np.count_nonzero(synthetic_regression(*args)[2])
    assert rank(8, 512, 0.15, 1.0, 0) == 77
    assert rank(8, 512, 0.25, 1.0, 0) == 128
    assert rank(8, 10, 0.25, 1.0, 0) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        synthetic_regression(0, 4, 0.5, 1.0, 0)
    with pytest.raises(ValueError):
        synthetic_regression(4, 4, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        synthetic_regression(4, 4, 1.5, 1.0, 0)
    for noise_sd in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="noise level"):
            synthetic_regression(4, 4, 0.5, noise_sd, 0)
    with pytest.raises(ValueError):
        synthetic_regression(4, 100, 0.001, 1.0, 0)  # rounds to rank zero


def test_instance_shapes_and_unit_truth():
    A, y, truth = synthetic_regression(40, 16, 0.25, 0.5, 3)
    assert A.shape == (40, 16)
    assert y.shape == (40,)
    assert truth.shape == (16,)
    assert np.linalg.norm(truth) == pytest.approx(1.0, rel=1e-12)
    # signal is confined to the first R = floor(0.25 * 16 + 0.5) = 4
    # rotated coordinates
    assert np.all(truth[4:] == 0.0)


@given(st.integers(0, 50))
@settings(max_examples=20)
def test_generator_is_deterministic(seed):
    A1, y1, t1 = synthetic_regression(12, 6, 0.5, 1.0, seed)
    A2, y2, t2 = synthetic_regression(12, 6, 0.5, 1.0, seed)
    assert np.array_equal(A1, A2)
    assert np.array_equal(y1, y2)
    assert np.array_equal(t1, t2)


def test_noiseless_targets_lie_on_the_plane():
    A, y, truth = synthetic_regression(20, 8, 0.5, 0.0, 1)
    np.testing.assert_allclose(y, A @ truth, rtol=1e-12, atol=1e-14)


def test_row_energy_decay_matches_design():
    # Mean squared row norm should track d * exp(-2 ((i-1)/R)^2); average
    # over 100 seeds and compare at the head, at R, and deep in the tail.
    n, d, R = 256, 512, 77
    probes = [0, 76, 230]
    totals = np.zeros(len(probes))
    for seed in range(100):
        A, _, _ = synthetic_regression(n, d, 0.15, 2.0, seed)
        rows = A[probes]
        totals += np.sum(rows ** 2, axis=1)
    means = totals / 100
    for probe, mean in zip(probes, means):
        target = d * math.exp(-2.0 * (probe / R) ** 2)
        assert abs(mean - target) / target < 0.10


def test_spectrum_concentrates_in_leading_block():
    # The design decays fast enough that the top R directions carry at
    # least 90 percent of the squared spectrum.
    A, _, _ = synthetic_regression(1024, 512, 0.15, 2.0, 0)
    sv = np.linalg.svd(A, compute_uv=False)
    energy = sv ** 2
    assert energy[:77].sum() / energy.sum() >= 0.90


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_rotation_is_orthonormal(d):
    Q = dct_rotation(d)
    np.testing.assert_allclose(Q.T @ Q, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 7, 64, 512])
def test_rotation_matches_scipy_dct(d):
    import scipy.fft

    reference = scipy.fft.dct(np.eye(d), type=2, norm="ortho", axis=0)
    np.testing.assert_allclose(dct_rotation(d), reference, rtol=0, atol=1e-15)


def test_rotation_trivial_and_invalid():
    np.testing.assert_allclose(dct_rotation(1), np.array([[1.0]]))
    with pytest.raises(ValueError):
        dct_rotation(0)


def test_rotation_preserves_norms():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 7))
    Q = dct_rotation(7)
    np.testing.assert_allclose(np.linalg.norm(X @ Q, axis=1),
                               np.linalg.norm(X, axis=1), rtol=1e-12)


def test_rff_shape_and_range():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    Z = rff_expand(X, 64, gamma_rbf=0.5, seed=9)
    assert Z.shape == (30, 64)
    lim = math.sqrt(2.0 / 64)
    assert np.all(np.abs(Z) <= lim + 1e-15)
    assert np.array_equal(Z, rff_expand(X, 64, gamma_rbf=0.5, seed=9))
    assert not np.array_equal(Z, rff_expand(X, 64, gamma_rbf=0.5, seed=10))


def test_rff_validation():
    with pytest.raises(ValueError):
        rff_expand(np.zeros(3), 4)
    with pytest.raises(ValueError):
        rff_expand(np.zeros((3, 2)), 0)
    for gamma_rbf in (0.0, math.inf):
        with pytest.raises(ValueError, match="kernel width"):
            rff_expand(np.zeros((3, 2)), 4, gamma_rbf=gamma_rbf)


def test_rff_holds_one_copy_of_its_output(traced_peak):
    # the offset, cosine and scale act on the one product X W^T: nothing
    # beyond the output and the small projection is held at once
    X = np.random.default_rng(6).standard_normal((2000, 4))
    Z, peak = traced_peak(rff_expand, X, 256, 0.5, 3)
    assert peak <= 1.25 * Z.nbytes


def test_rff_inner_products_approximate_gaussian_kernel():
    # E[z(x) . z(x')] = exp(-gamma |x - x'|^2); average the estimate over
    # independent feature draws and compare against the kernel value.
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3)
    x_prime = rng.standard_normal(3)
    target = math.exp(-float(np.sum((x - x_prime) ** 2)))
    pair = np.stack([x, x_prime])
    estimates = []
    for seed in range(50):
        Z = rff_expand(pair, 4096, gamma_rbf=1.0, seed=seed)
        estimates.append(float(Z[0] @ Z[1]))
    assert abs(np.mean(estimates) - target) < 0.05


def test_parse_single_line():
    matrix, labels = parse_libsvm(["+1 1:0.5 3:2.0"])
    assert (matrix.n, matrix.d) == (1, 3)
    np.testing.assert_array_equal(labels, [1.0])
    np.testing.assert_array_equal(matrix.toarray(), [[0.5, 0.0, 2.0]])


def test_parse_skips_comments_and_blanks():
    lines = ["# header comment", "", "2 2:1.5  # trailing note", "   ",
             "-1 1:3.0"]
    matrix, labels = parse_libsvm(lines)
    assert matrix.n == 2
    np.testing.assert_array_equal(labels, [2.0, -1.0])
    np.testing.assert_array_equal(matrix.toarray(),
                                  [[0.0, 1.5], [3.0, 0.0]])


def test_parse_empty_input():
    matrix, labels = parse_libsvm([])
    assert (matrix.n, matrix.d) == (0, 0)
    assert labels.shape == (0,)


def test_parse_label_only_row():
    matrix, labels = parse_libsvm(["3.5", "1 2:1.0"])
    assert matrix.n == 2
    assert matrix.d == 2
    np.testing.assert_array_equal(matrix.toarray(), [[0.0, 0.0], [0.0, 1.0]])


def test_parse_reports_position_of_bad_label():
    with pytest.raises(ValueError) as info:
        parse_libsvm(["1 1:2.0", "  abc 1:2.0"])
    assert str(info.value) == "line 2, column 3: label 'abc' is not a number"


@pytest.mark.parametrize("line,fragment", [
    ("1 1:2.0 extra", "index:value"),
    ("1 x:2.0", "not an integer"),
    ("1 0:2.0", "1-based"),
    ("1 3:1.0 2:1.0", "does not increase"),
    ("1 2:2.0 2:1.0", "does not increase"),
    ("1 1:abc", "not a number"),
    ("1 1:nan", "not finite"),
    ("1 1:inf", "not finite"),
    ("-inf 1:2.0", "not finite"),
    ("1 99999999999999999999:1", "above 2^63 - 1"),
])
def test_parse_rejects_malformed_features(line, fragment):
    with pytest.raises(ValueError) as info:
        parse_libsvm([line])
    position, _, reason = str(info.value).partition(": ")
    assert position.startswith("line 1, column ")
    assert fragment in reason


def test_parse_reports_position_of_non_finite_entries():
    with pytest.raises(ValueError, match="^line 2, column 9: "):
        parse_libsvm(["1 1:2.0", "1 1:2.0 2:nan"])
    with pytest.raises(ValueError, match="^line 2, column 3: "):
        parse_libsvm(["1 1:2.0", "  inf 1:2.0"])


def test_parse_feature_override():
    matrix, _ = parse_libsvm(["1 2:5.0"], n_features=4)
    assert matrix.d == 4
    with pytest.raises(ValueError):
        parse_libsvm(["1 4:5.0"], n_features=2)


def test_parse_path_matches_iterable(tmp_path):
    text = "1 1:0.25 3:-2.0\n-1 2:7.0\n"
    path = tmp_path / "data.txt"
    path.write_text(text)
    from_path, labels_path = parse_libsvm(path)
    from_lines, labels_lines = parse_libsvm(text.splitlines())
    assert from_path.d == from_lines.d
    np.testing.assert_array_equal(from_path.toarray(), from_lines.toarray())
    np.testing.assert_array_equal(labels_path, labels_lines)


def random_sparse(rng, n, d):
    rows = []
    for _ in range(n):
        k = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        vals = rng.standard_normal(k)
        rows.append((idx, vals))
    return SparseRowMatrix(n=n, d=d, rows=rows)


def test_dump_parse_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "round.txt"
    for trial in range(20):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        matrix = random_sparse(rng, n, d)
        labels = rng.standard_normal(n)
        dump_libsvm(matrix, labels, path)
        back, back_labels = parse_libsvm(path, n_features=d)
        assert np.array_equal(back.toarray(), matrix.toarray())
        assert np.array_equal(back_labels, labels)


def test_dump_rejects_label_mismatch(tmp_path):
    matrix = SparseRowMatrix(1, 2, [(np.array([0]), np.array([1.0]))])
    with pytest.raises(ValueError):
        dump_libsvm(matrix, np.zeros(3), tmp_path / "bad.txt")


def _second_row(idx, values=None, n=2):
    values = np.ones(len(idx)) if values is None else values
    return SparseRowMatrix(n, 3, [(np.array([0]), np.array([1.0])),
                                  (np.asarray(idx), values)])


# row lists (d = 3) that break SparseRowMatrix's contract, each with the
# error that names where
BROKEN = [
    (partial(_second_row, [2, 0]),
     r"^row 1: index 0 does not increase \(previous was 2\)"),
    (partial(_second_row, [1, 1]),
     r"^row 1: index 1 does not increase \(previous was 1\)"),
    (partial(_second_row, [-1]), r"^row 1: index -1 lies outside \[0, 3\)"),
    (partial(_second_row, [5]), r"^row 1: index 5 lies outside \[0, 3\)"),
    (partial(_second_row, np.array([0.0])),
     "^row 1 has indices of type float64, not integers"),
    (partial(_second_row, [1], np.ones(2)),
     r"^row 1: indices and values must be 1-d of one length, "
     r"got shapes \(1,\) and \(2,\)"),
    (partial(_second_row, [1], n=3), "^matrix has 2 rows, but n is 3"),
    # rows are read once, as any iterable; a non-iterable is named
    (lambda: SparseRowMatrix(2, 3, iter([([0], [1.0])])),
     "^matrix has 1 rows, but n is 2"),
    (lambda: SparseRowMatrix(1, 2, 5), "^rows must be an iterable of pairs, got 5$"),
]


def test_dump_refuses_what_parse_would_refuse(tmp_path):
    # a NaN label would write a line parse_libsvm rejects; it is named
    # before the file is opened
    matrix = SparseRowMatrix(3, 4, [(np.array([0]), np.array([1.0])),
                                    (np.array([1, 3]), np.array([2.0, 3.0])),
                                    (np.array([], dtype=np.int64),
                                     np.array([]))])
    path = tmp_path / "bad.txt"
    with pytest.raises(ValueError, match="^labels entry 1 is not finite"):
        dump_libsvm(matrix, np.array([1.0, math.nan, 0.0]), path)
    assert not path.exists()
    dump_libsvm(matrix, np.zeros(3), path)
    back, _ = parse_libsvm(path, n_features=4)
    assert np.array_equal(back.toarray(), matrix.toarray())


def test_construction_refuses_rows_that_break_the_contract():
    # index -1 would fill the last column, 5 raise a bare IndexError, a
    # short row list leave a zero row, and an infinite value write a line
    # parse_libsvm refuses; so no matrix that breaks the contract exists
    # for toarray or dump_libsvm to meet
    for build, message in BROKEN:
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError,
                       match="^value at row 1, feature 3 is not finite"):
        SparseRowMatrix(3, 4, [(np.array([0]), np.array([1.0])),
                               (np.array([1, 3]), np.array([2.0, math.inf])),
                               (np.array([], dtype=np.int64), np.array([]))])
    assert np.array_equal(_second_row([0, 2]).toarray(),
                          [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(SparseRowMatrix(1, 2, iter([([0], [1.0])])).toarray(),
                          [[1.0, 0.0]])


def test_matrix_arrays_refuse_in_place_writes():
    # the check at construction holds for the matrix's life: a write
    # such as data[2] = inf or indices[2] = 7, which would break it, is
    # refused
    built = _second_row([0, 2])
    parsed, _ = parse_libsvm(["1 1:1.0", "1 1:1.0 3:1.0"])
    for matrix in (built, parsed):
        np.testing.assert_array_equal(matrix.indptr, [0, 1, 3])
        np.testing.assert_array_equal(matrix.indices, [0, 0, 2])
        np.testing.assert_array_equal(matrix.data, [1.0, 1.0, 1.0])
        for part in (matrix.indptr, matrix.indices, matrix.data):
            assert type(part) is np.ndarray
            with pytest.raises(ValueError, match="read-only"):
                part[-1] = 7
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[2] = math.inf


def _per_row_fault(n, d, rows):
    """The refusal the per-row rules give, or None: the row count, then
    each row's shape, index type (unless empty), order and range, first
    bad row first; then the first non-finite value."""
    if len(rows) != n:
        return f"matrix has {len(rows)} rows, but n is {n}"
    for i, (idx, vals) in enumerate(rows):
        idx = np.asarray(idx)
        if idx.ndim != 1 or np.shape(vals) != idx.shape:
            return (f"row {i}: indices and values must be 1-d of one length, "
                    f"got shapes {idx.shape} and {np.shape(vals)}")
        if not idx.size:
            continue
        if idx.dtype.kind not in "iu":
            return f"row {i} has indices of type {idx.dtype}, not integers"
        down = np.flatnonzero(idx[1:] <= idx[:-1])
        if down.size:
            j = down[0]
            return (f"row {i}: index {idx[j + 1]} does not increase "
                    f"(previous was {idx[j]})")
        if idx[0] < 0 or idx[-1] >= d:
            bad = idx[0] if idx[0] < 0 else idx[-1]
            return f"row {i}: index {bad} lies outside [0, {d})"
    for i, (idx, vals) in enumerate(rows):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            return f"value at row {i}, feature {int(idx[bad[0]])} is not finite"
    return None


# each defect turns a valid row of at least `least` entries into one the
# per-row rules refuse, given the row's indices, values, d and a draw
DEFECTS = {
    "decreasing": (2, lambda idx, vals, d, j: (
        np.concatenate([idx[:j], idx[j + 1:j + 2], idx[j:j + 1], idx[j + 2:]]),
        vals)),
    "repeated": (2, lambda idx, vals, d, j: (
        np.concatenate([idx[:j + 1], idx[j:j + 1], idx[j + 2:]]), vals)),
    "below": (1, lambda idx, vals, d, j: (
        np.concatenate([[-1 - j], idx[1:]]).astype(np.int64), vals)),
    "above": (1, lambda idx, vals, d, j: (
        np.concatenate([idx[:-1], [d + j]]).astype(np.int64), vals)),
    "twice above": (2, lambda idx, vals, d, j: (
        np.concatenate([idx[:-2], [d + j, d + j + 1]]).astype(np.int64), vals)),
    "above and decreasing": (2, lambda idx, vals, d, j: (
        np.concatenate([[d + j], idx[1:]]).astype(np.int64), vals)),
    "float indices": (1, lambda idx, vals, d, j: (idx.astype(float), vals)),
    "ragged": (0, lambda idx, vals, d, j: (idx, np.append(vals, 1.0))),
    "2-d": (0, lambda idx, vals, d, j: (idx[None, :], vals[None, :])),
    "not finite": (1, lambda idx, vals, d, j: (
        idx, np.where(np.arange(idx.size) == j % idx.size,
                      [math.inf, -math.inf, math.nan][j % 3], vals))),
}


@settings(max_examples=300)
@given(st.data())
def test_construction_follows_the_per_row_rules(data):
    # a valid row list gives the per-row dense fill; one planted defect is
    # refused by the planted row, with the message the per-row rules give
    d = data.draw(st.integers(1, 6), label="d")
    n = data.draw(st.integers(1, 6), label="n")
    rows = []
    for _ in range(n):
        idx = np.array(sorted(data.draw(st.sets(st.integers(0, d - 1)))),
                       dtype=np.int64)
        vals = np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                           min_size=idx.size,
                                           max_size=idx.size)))
        rows.append((idx, vals))
    if data.draw(st.booleans(), label="empty float row"):
        # an empty row's index type is not checked
        rows[data.draw(st.integers(0, n - 1))] = (np.array([]), np.array([]))
    defect = data.draw(st.sampled_from([None, *DEFECTS]), label="defect")
    if defect is None:
        dense = np.zeros((n, d))
        for i, (idx, vals) in enumerate(rows):
            dense[i, idx.astype(np.int64)] = vals
        assert _per_row_fault(n, d, rows) is None
        assert np.array_equal(SparseRowMatrix(n, d, rows).toarray(), dense)
        return
    least, plant = DEFECTS[defect]
    fits = [i for i, (idx, _) in enumerate(rows) if idx.size >= least]
    hypothesis.assume(fits)
    r = data.draw(st.sampled_from(fits), label="planted row")
    idx, vals = rows[r]
    j = data.draw(st.integers(0, max(idx.size - 2, 0)), label="position")
    rows[r] = plant(idx.astype(np.int64), vals, d, j)
    expected = _per_row_fault(n, d, rows)
    assert expected is not None and f"row {r}" in expected
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        SparseRowMatrix(n, d, rows)
