"""Data generation and sparse-text I/O tests.

Statistical claims about the synthetic generator (row-energy decay,
spectrum concentration, kernel approximation) are checked against Monte
Carlo targets computed from the defining formulas, not against the
generator's own output.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge.datasets import (LibsvmParseError, SparseRowMatrix,
                              SyntheticSpec, dct_rotation, dump_libsvm,
                              parse_libsvm, rff_expand, save_matrix_csv,
                              synthetic_regression)


def test_effective_rank_rounding():
    assert SyntheticSpec(8, 512, 0.15, 1.0, 0).effective_rank == 77
    assert SyntheticSpec(8, 512, 0.25, 1.0, 0).effective_rank == 128
    assert SyntheticSpec(8, 10, 0.25, 1.0, 0).effective_rank == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(0, 4, 0.5, 1.0, 0)
    with pytest.raises(ValueError):
        SyntheticSpec(4, 4, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        SyntheticSpec(4, 4, 1.5, 1.0, 0)
    with pytest.raises(ValueError):
        SyntheticSpec(4, 4, 0.5, -1.0, 0)
    with pytest.raises(ValueError):
        SyntheticSpec(4, 100, 0.001, 1.0, 0)  # rounds to rank zero


def test_instance_shapes_and_unit_truth():
    spec = SyntheticSpec(40, 16, 0.25, 0.5, 3)
    A, y, truth = synthetic_regression(spec)
    assert A.shape == (40, 16)
    assert y.shape == (40,)
    assert truth.shape == (16,)
    assert np.linalg.norm(truth) == pytest.approx(1.0, rel=1e-12)
    # signal is confined to the first R rotated coordinates
    assert np.all(truth[spec.effective_rank:] == 0.0)


@given(st.integers(0, 50))
@settings(max_examples=20)
def test_generator_is_deterministic(seed):
    spec = SyntheticSpec(12, 6, 0.5, 1.0, seed)
    A1, y1, t1 = synthetic_regression(spec)
    A2, y2, t2 = synthetic_regression(spec)
    assert np.array_equal(A1, A2)
    assert np.array_equal(y1, y2)
    assert np.array_equal(t1, t2)


def test_noiseless_targets_lie_on_the_plane():
    A, y, truth = synthetic_regression(SyntheticSpec(20, 8, 0.5, 0.0, 1))
    np.testing.assert_allclose(y, A @ truth, rtol=1e-12, atol=1e-14)


def test_row_energy_decay_matches_design():
    # Mean squared row norm should track d * exp(-2 ((i-1)/R)^2); average
    # over 100 seeds and compare at the head, at R, and deep in the tail.
    n, d, R = 256, 512, 77
    probes = [0, 76, 230]
    totals = np.zeros(len(probes))
    for seed in range(100):
        A, _, _ = synthetic_regression(SyntheticSpec(n, d, 0.15, 2.0, seed))
        rows = A[probes]
        totals += np.sum(rows ** 2, axis=1)
    means = totals / 100
    for probe, mean in zip(probes, means):
        target = d * math.exp(-2.0 * (probe / R) ** 2)
        assert abs(mean - target) / target < 0.10


def test_spectrum_concentrates_in_leading_block():
    # The design decays fast enough that the top R directions carry at
    # least 90 percent of the squared spectrum.
    A, _, _ = synthetic_regression(SyntheticSpec(1024, 512, 0.15, 2.0, 0))
    sv = np.linalg.svd(A, compute_uv=False)
    energy = sv ** 2
    assert energy[:77].sum() / energy.sum() >= 0.90


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_rotation_is_orthonormal(d):
    Q = dct_rotation(d)
    np.testing.assert_allclose(Q.T @ Q, np.eye(d), atol=1e-12)


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
    with pytest.raises(ValueError):
        rff_expand(np.zeros((3, 2)), 4, gamma_rbf=0.0)


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
    with pytest.raises(LibsvmParseError) as info:
        parse_libsvm(["1 1:2.0", "  abc 1:2.0"])
    assert info.value.line == 2
    assert info.value.column == 3
    assert "label" in info.value.reason


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
])
def test_parse_rejects_malformed_features(line, fragment):
    with pytest.raises(LibsvmParseError) as info:
        parse_libsvm([line])
    assert info.value.line == 1
    assert fragment in info.value.reason


def test_parse_reports_position_of_non_finite_entries():
    with pytest.raises(LibsvmParseError) as info:
        parse_libsvm(["1 1:2.0", "1 1:2.0 2:nan"])
    assert (info.value.line, info.value.column) == (2, 9)
    with pytest.raises(LibsvmParseError) as info:
        parse_libsvm(["1 1:2.0", "  inf 1:2.0"])
    assert (info.value.line, info.value.column) == (2, 3)


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


def test_dense_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-8, 8, size=(5, 3)))
    path = tmp_path / "dense.csv"
    save_matrix_csv(A, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, A)
