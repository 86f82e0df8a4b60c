"""Streaming sketch tests.

Every bound here is checked against dense-SVD oracles computed in the
test itself: tail masses from the full spectrum, spectral norms from
eigvalsh of the symmetric difference.
"""
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge import sketch
from fdridge.datasets import (SparseRowMatrix, dct_rotation, parse_libsvm,
                              rff_expand, synthetic_regression)
from fdridge.diagnostics import (LinearModelSpec, budget_for_theta,
                                 classical_sketch_diagnostics,
                                 hessian_sketch_diagnostics,
                                 optimal_diagnostics, sketched_diagnostics,
                                 theta_interval)
from fdridge.experiments import SweepConfig, load_config, load_instance
from fdridge.random_sketch import (apply_gaussian, realize_gaussian,
                                   realize_sjlt)
from fdridge.sketch import (MODE_FD, MODE_RFD, SketchOutput, StreamingSketch,
                            save_sketch_csv, sketch_matrix, tail_masses)
from fdridge.solvers import (InverseOperator, RidgeProblem,
                             classical_sketch_solve, fdrr_solve,
                             hessian_sketch_solve, refine, solve_exact)

EPS = np.finfo(float).eps
CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one entry, the factor's shape, on every
    eigendecomposition a sketch reduction takes."""
    calls = []
    gram_eigh = sketch._gram_eigh

    def counting(matrix):
        calls.append(matrix.shape)
        return gram_eigh(matrix)

    monkeypatch.setattr(sketch, "_gram_eigh", counting)
    return calls


def spectral_norm(M):
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def oracle_tails(A):
    s = np.linalg.svd(A, compute_uv=False)
    return np.concatenate([np.cumsum((s ** 2)[::-1])[::-1], [0.0]])


def _problem():
    return RidgeProblem(np.eye(3), np.ones(3), 1.0)


def _model(A):
    return LinearModelSpec(A, np.ones(4), 1.0)


# (call, name, least): one size argument of each public call that takes
# one, and the seed of each recipe, with the least value it accepts
SIZES = {
    "StreamingSketch-m": (lambda v: StreamingSketch(v, 5), "m", 1),
    "StreamingSketch-d": (lambda v: StreamingSketch(4, v), "d", 1),
    "sketch_matrix-m": (lambda v: sketch_matrix(np.eye(3), v), "m", 1),
    "fdrr_solve-m": (lambda v: fdrr_solve(_problem(), v), "m", 1),
    "refine-t": (lambda v: refine(_problem(), lambda _i, x, grad: (
        x - InverseOperator(np.eye(3)).apply(grad, 1.0)), v), "t", 1),
    "realize_gaussian-m": (lambda v: realize_gaussian(v, 4, 0), "m", 1),
    "realize_gaussian-n": (lambda v: realize_gaussian(4, v, 0), "n", 1),
    "realize_gaussian-seed": (lambda v: realize_gaussian(4, 4, v), "seed", 0),
    "realize_sjlt-m": (lambda v: realize_sjlt(v, 4, 0), "m", 1),
    "realize_sjlt-n": (lambda v: realize_sjlt(4, v, 0), "n", 1),
    "realize_sjlt-seed": (lambda v: realize_sjlt(4, 4, v), "seed", 0),
    "apply_gaussian-m": (lambda v: apply_gaussian(v, np.eye(4), 0), "m", 1),
    "apply_gaussian-seed": (lambda v: apply_gaussian(4, np.eye(4), v),
                            "seed", 0),
    "synthetic_regression-n": (
        lambda v: synthetic_regression(v, 4, 0.5, 1.0, 0), "n", 1),
    "synthetic_regression-d": (
        lambda v: synthetic_regression(4, v, 0.5, 1.0, 0), "d", 1),
    "synthetic_regression-seed": (
        lambda v: synthetic_regression(4, 4, 0.5, 1.0, v), "seed", 0),
    "dct_rotation-d": (dct_rotation, "d", 1),
    "rff_expand-n_features": (lambda v: rff_expand(np.zeros((3, 2)), v),
                              "n_features", 1),
    "rff_expand-seed": (lambda v: rff_expand(np.zeros((3, 2)), 2, seed=v),
                        "seed", 0),
    "parse_libsvm-n_features": (lambda v: parse_libsvm(["1 1:2"],
                                                       n_features=v),
                                "n_features", 0),
    "SparseRowMatrix-n": (lambda v: SparseRowMatrix(v, 2, [([0], [1.0])]),
                          "n", 0),
    "SparseRowMatrix-d": (lambda v: SparseRowMatrix(1, v, [([0], [1.0])]),
                          "d", 0),
}


@pytest.mark.parametrize("case", list(SIZES))
def test_rejects_bad_sizes(case):
    # a size is a Python or numpy integer: a float, even an integral one,
    # and a bool are refused by name rather than truncated or read as 1
    call, name, least = SIZES[case]
    kind = "non-negative" if least == 0 else "positive"
    for bad in (2.5, 2.0, True, least - 1):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be a {kind} integer, got"):
            call(bad)
    call(np.int64(least + 1))


def _sparse(S):
    import scipy.sparse
    return scipy.sparse.coo_array(S)


# (call, name): one data argument of each public call that takes one
MATRICES = {
    "extend-rows": (lambda X: StreamingSketch(2, 4).extend(X), "rows"),
    "sketch_matrix-A": (lambda X: sketch_matrix(X, 2), "A"),
    "tail_masses-A": (tail_masses, "A"),
    "RidgeProblem-A": (lambda X: RidgeProblem(X, np.ones(4), 1.0), "A"),
    "InverseOperator-matrix": (lambda X: InverseOperator(X), "matrix"),
    "classical_sketch_solve-SA": (
        lambda X: classical_sketch_solve(X, np.ones(4), 1.0), "SA"),
    "hessian_sketch_solve-SA": (
        lambda X: hessian_sketch_solve(X, np.ones(4), 1.0), "SA"),
    "apply_gaussian-X": (lambda X: apply_gaussian(2, X, 0), "X"),
    "rff_expand-X": (lambda X: rff_expand(X, 3), "X"),
    "optimal_diagnostics-A": (
        lambda X: optimal_diagnostics(_model(X), 1.0), "A"),
    "sketched_diagnostics-A": (lambda X: sketched_diagnostics(
        _model(X), sketch_matrix(np.eye(4), 2), 1.0), "A"),
    "classical_sketch_diagnostics-A": (lambda X: classical_sketch_diagnostics(
        _model(X), np.eye(4), 1.0), "A"),
    "classical_sketch_diagnostics-S": (lambda X: classical_sketch_diagnostics(
        _model(np.eye(4)), X, 1.0), "S"),
    "classical_sketch_diagnostics-sparse-S": (
        lambda X: classical_sketch_diagnostics(_model(np.eye(4)), _sparse(X),
                                               1.0), "S"),
    "hessian_sketch_diagnostics-A": (lambda X: hessian_sketch_diagnostics(
        _model(X), np.eye(4), 1.0), "A"),
    "hessian_sketch_diagnostics-SA": (lambda X: hessian_sketch_diagnostics(
        _model(np.eye(4)), X, 1.0), "SA"),
}

# (bad shape, expected): for the MATRICES calls whose argument has an
# expected shape (4 columns), an argument off by one
SHAPES = {
    "extend-rows": ((4, 5), "with 4 columns"),
}


@pytest.mark.parametrize("case", list(MATRICES))
def test_rejects_data_that_is_not_a_matrix(case):
    # a 1-d array fails by name, not with an IndexError deep in the call
    call, name = MATRICES[case]
    with pytest.raises(ValueError, match=rf"^{name} must be a 2-d array"):
        call(np.ones(4))


@pytest.mark.parametrize("case", list(MATRICES))
def test_rejects_data_that_is_not_finite(case):
    # a NaN or infinity is named by the argument and its first bad row,
    # not returned as NaN or raised from inside LAPACK
    call, name = MATRICES[case]
    X = np.eye(4)
    X[2, 1] = np.nan
    X[3, 0] = np.inf
    with pytest.raises(ValueError,
                       match=rf"^{name} row 2 has a non-finite entry"):
        call(X)


@pytest.mark.parametrize("case", list(SHAPES))
def test_rejects_data_of_the_wrong_shape(case):
    call, name = MATRICES[case]
    shape, expected = SHAPES[case]
    with pytest.raises(ValueError, match=rf"^{name} must be a 2-d array "
                       rf"{expected}, got shape \({shape[0]}, {shape[1]}\)"):
        call(np.ones(shape))
    call(np.eye(4))


# (call, name, bad values, a good value): one argument of each call that
# takes a non-negative number (_nonnegative) or a value from a fixed set
# (_one_of)
CHOICES = {
    "synthetic_regression-noise_sd": (
        lambda v: synthetic_regression(4, 4, 0.5, v, 0),
        "noise level", (-1.0, np.inf, np.nan, None, True), 0.0),
    "SweepConfig-noise_sd": (lambda v: SweepConfig(noise_sd=v), "noise_sd",
                             (-1.0, np.inf, np.nan, None, True), 0.0),
    "finalize-mode": (lambda v: StreamingSketch(2, 4).finalize(v), "mode",
                      ("xfd",), MODE_RFD),
    "budget_for_theta-mode": (lambda v: budget_for_theta(0.5, 1, 1.0, 1.0, v),
                              "mode", ("xfd",), MODE_RFD),
    "SweepConfig-dataset": (lambda v: SweepConfig(dataset=v), "dataset",
                            ("mystery",), "gaussian-rff"),
}


@pytest.mark.parametrize("case", list(CHOICES))
def test_rejects_values_out_of_range_or_set(case):
    # a one-of error names the set it expected
    call, name, bad_values, good = CHOICES[case]
    for bad in bad_values:
        rule = (rf"one of \(.*\), got {bad!r}" if isinstance(bad, str)
                else "non-negative and finite, got")
        with pytest.raises(ValueError, match=rf"^{name} must be {rule}"):
            call(bad)
    call(good)


# (call, message, bad values, a good value): one argument of each call
# that takes a positive number (_positive) or a number in a range that
# the call states itself
RANGES = {
    "RidgeProblem-gamma": (lambda v: RidgeProblem(np.eye(4), np.ones(4), v),
                           "regularizer must be positive and finite",
                           (0.0, -1.0, np.inf, np.nan), 1.0),
    "SweepConfig-gammas": (lambda v: SweepConfig(gammas=(v,)),
                           "gammas must be positive and finite",
                           (0.0, np.inf), 2.0),
    "LinearModelSpec-noise_sd": (
        lambda v: LinearModelSpec(np.eye(4), np.ones(4), v),
        "noise level must be positive and finite", (0.0, np.nan), 1.0),
    "theta_interval-bound": (lambda v: theta_interval(v, 1.0),
                             "covariance-error bound must be non-negative",
                             (-1.0, np.nan), 0.5),
    "budget_for_theta-theta": (lambda v: budget_for_theta(v, 0, 1.0, 1.0),
                               r"theta must lie in \(0, 1\)",
                               (0.0, 1.0, np.nan), 0.5),
    "SweepConfig-r": (lambda v: SweepConfig(r=v),
                      r"rank fraction must lie in \(0, 1\]", (0.0, 1.5), 0.5),
}


@pytest.mark.parametrize("case", list(RANGES))
def test_rejects_numbers_out_of_range(case):
    # None or a string is refused by the rule's own message, not by a
    # bare TypeError from comparing it with a number, and a bool rather
    # than read as 0 or 1
    call, message, bad_values, good = RANGES[case]
    for bad in bad_values + (None, "a", True):
        with pytest.raises(ValueError, match=rf"^{message}, got "
                           rf"{re.escape(str(bad))}$"):
            call(bad)
    call(good)


# (call, name): one data vector of each public call that takes one
VECTORS = {
    "RidgeProblem-y": (lambda v: RidgeProblem(np.eye(4), v, 1.0), "y"),
    "LinearModelSpec-truth": (lambda v: LinearModelSpec(np.eye(4), v, 1.0),
                              "truth"),
    "classical_sketch_solve-Sy": (
        lambda v: classical_sketch_solve(np.eye(4), v, 1.0), "Sy"),
    "hessian_sketch_solve-cross": (
        lambda v: hessian_sketch_solve(np.eye(4), v, 1.0), "cross"),
}


@pytest.mark.parametrize("case", list(VECTORS))
def test_rejects_data_that_is_not_a_finite_vector(case):
    call, name = VECTORS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be a vector"):
        call(np.ones((4, 1)))
    v = np.ones(4)
    v[2] = np.nan
    v[3] = np.inf
    with pytest.raises(ValueError, match=rf"^{name} entry 2 is not finite"):
        call(v)
    call(np.ones(4))


def test_update_rejects_wrong_row_shape():
    # update's argument is a row and is named as one
    sk = StreamingSketch(3, 4)
    with pytest.raises(ValueError, match=r"^row must be a vector of length 4, "
                       r"got shape \(5,\)"):
        sk.update(np.zeros(5))
    with pytest.raises(ValueError, match="^rows must be a 2-d array with 4 "
                       "columns"):
        sk.extend(np.zeros((2, 5)))
    assert sk.fill == 0


def test_zero_row_leaves_covariance_unchanged():
    rng = np.random.default_rng(0)
    sk = StreamingSketch(4, 6)
    sk.extend(rng.standard_normal((3, 6)))
    before = sk.finalize(MODE_FD).covariance()
    sk.update(np.zeros(6))
    after = sk.finalize(MODE_FD).covariance()
    np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


def test_short_stream_is_exact():
    # n <= m and m = d: no shrink can ever fire, so B^T B = A^T A.
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 6))
    out = sketch_matrix(A, 6, MODE_FD)
    assert out.shift == 0.0
    np.testing.assert_allclose(out.covariance(), A.T @ A, atol=1e-12)


def test_empty_stream_finalizes_to_zero():
    sk = StreamingSketch(3, 4)
    for mode in (MODE_FD, MODE_RFD):
        out = sk.finalize(mode)
        assert out.matrix.shape == (3, 4)
        assert not out.matrix.any()
        assert out.shift == 0.0


def test_fd_mode_reports_zero_shift():
    rng = np.random.default_rng(2)
    out = sketch_matrix(rng.standard_normal((50, 8)), 3, MODE_FD)
    assert out.shift == 0.0
    assert sketch_matrix(rng.standard_normal((50, 8)), 3, MODE_RFD).shift > 0.0


def test_fd_covariance_bound_dense_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((100, 8))
    m = 4
    out = sketch_matrix(A, m, MODE_FD)
    err = spectral_norm(A.T @ A - out.covariance())
    tails = oracle_tails(A)
    for k in range(m):
        assert err <= tails[k] / (m - k) * (1 + 1e-9)


def test_rfd_covariance_bound_dense_oracle():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((200, 16))
    m = 8
    out = sketch_matrix(A, m, MODE_RFD)
    assert out.shift > 0.0
    err = spectral_norm(A.T @ A - out.covariance())
    tails = oracle_tails(A)
    for k in range(m):
        assert err <= tails[k] / (2 * (m - k)) * (1 + 1e-9)


@given(st.integers(1, 120), st.integers(1, 24), st.integers(1, 12),
       st.floats(0.0, 8.0), st.integers(0, 40), st.sampled_from([0.0, 1e-20]),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_fd_and_rfd_errors_lie_within_delta(n, d, m, decay, tail, scale,
                                            seed):
    # Delta, the total shrink reduction, is twice the RFD output's shift.
    # The FD error A^T A - B^T B lies in [0, Delta] and the RFD error,
    # shifted by Delta/2, within Delta/2 in spectral norm.  Each bound
    # carries (n + d) eps |A|_F^2 of roundoff: n eps |A|_F^2 for forming
    # A^T A, which also covers mass the shrink drops below its floor, and
    # d eps |A|_F^2 for rebuilding B^T B from eigenvectors, which alone
    # exceeds the first term on a one- or two-row stream.  The stream ends
    # in ``tail`` rows that are zero or below the shrink's resolution, so
    # the reductions they reach are skipped.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + tail, d))
    A[n:] *= scale
    n += tail
    A *= np.exp(-decay * np.linspace(0.0, 1.0, d))
    sk = StreamingSketch(m, d)
    sk.extend(A)
    fd = sk.finalize(MODE_FD)
    rfd = sk.finalize(MODE_RFD)
    delta = 2.0 * rfd.shift
    roundoff = (n + d) * EPS * float(np.vdot(A, A))
    evs = np.linalg.eigvalsh(A.T @ A - fd.covariance())
    assert evs.min() >= -roundoff
    assert evs.max() <= delta + roundoff
    assert spectral_norm(A.T @ A - rfd.covariance()) <= delta / 2.0 + roundoff


def test_finalize_is_nondestructive():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((50, 7))
    straight = StreamingSketch(3, 7)
    straight.extend(A)
    interrupted = StreamingSketch(3, 7)
    interrupted.extend(A[:20])
    snapshot = interrupted.finalize(MODE_RFD)
    assert snapshot.matrix.shape == (3, 7)
    interrupted.extend(A[20:])
    for mode in (MODE_FD, MODE_RFD):
        a = straight.finalize(mode)
        b = interrupted.finalize(mode)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.shift == b.shift


def svd_fd(A, m):
    """Reference FD through np.linalg.svd: shrink at every 2m rows, then
    finalize with one more; each reduces only when more than m directions
    remain.  Returns (sketch rows, accumulated shift)."""
    def shrink(B):
        _, s, vt = np.linalg.svd(B, full_matrices=False)
        cut = s[m - 1] ** 2 if s.size > m else 0.0
        squared = s ** 2 - cut
        kept = squared > 0.0
        return np.sqrt(squared[kept])[:, None] * vt[kept], cut / 2.0

    B, shift = np.zeros((0, A.shape[1])), 0.0
    for row in A:
        B = np.vstack([B, row])
        if B.shape[0] == 2 * m:
            B, half = shrink(B)
            shift += half
    B, half = shrink(B)
    return B, shift + half


@pytest.mark.parametrize("d", [24, 32, 64])
def test_gram_shrink_matches_svd_reference(d):
    # m = 16: the 2m x d buffer is tall (d < 2m), square, and short-and-fat
    # (d = 4m), so both Gram branches run; the stream ends mid-buffer with
    # more than m directions, so finalize shrinks once more
    m = 16
    A = np.random.default_rng(d).standard_normal((5 * m + 7, d))
    scale = 16 * EPS * np.sum(A ** 2)
    sk = StreamingSketch(m, d)
    sk.extend(A[:2 * m])
    shrunk, shift = svd_fd(A[:2 * m], m)
    assert sk.fill == m - 1
    buf = sk.buffer[:sk.fill]
    np.testing.assert_allclose(buf.T @ buf, shrunk.T @ shrunk, rtol=0, atol=scale)
    assert abs(2 * sk.shift_total - 2 * shift) <= scale
    sk.extend(A[2 * m:])
    ref, ref_shift = svd_fd(A, m)
    out = sk.finalize(MODE_RFD)
    np.testing.assert_allclose(out.matrix.T @ out.matrix, ref.T @ ref,
                               rtol=0, atol=scale)
    assert abs(out.shift - ref_shift) <= scale
    gram = out.matrix @ out.matrix.T
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= scale


@pytest.mark.parametrize("seed", range(10))
def test_exact_low_rank_stream_keeps_zero_shift(seed):
    # rank r < m: every direction past the rank is roundoff, so no shrink
    # may reduce by it, and the sketch is the data's covariance exactly
    rng = np.random.default_rng(seed)
    r = 1 + seed % 7
    A = rng.standard_normal((60, r)) @ rng.standard_normal((r, 20))
    sk = StreamingSketch(8, 20)
    sk.extend(A)
    out = sk.finalize(MODE_RFD)
    assert out.shift == 0.0
    assert int(np.sum(np.any(out.matrix != 0.0, axis=1))) <= r
    np.testing.assert_allclose(out.covariance(), A.T @ A, rtol=0,
                               atol=16 * EPS * np.sum(A ** 2))


@pytest.mark.parametrize("mode", [MODE_FD, MODE_RFD])
@pytest.mark.parametrize("m, n, d", [(8, 64, 32), (16, 200, 64)])
def test_rank_m_stream_is_lossless(m, n, d, mode):
    # exactly m directions carry mass and the buffer fills at least once:
    # neither a shrink nor finalize may reduce, so the sketch keeps the
    # whole covariance and the one-shot solve is the exact one
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, m)) @ rng.standard_normal((m, d))
    out = sketch_matrix(A, m, mode)
    assert out.shift == 0.0
    err = spectral_norm(A.T @ A - out.covariance())
    assert err <= 16 * EPS * np.sum(A ** 2)
    problem = RidgeProblem(A, rng.standard_normal(n), 1.0)
    exact = solve_exact(problem)
    x = fdrr_solve(problem, m, mode)
    assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


def test_finalize_shrinks_only_when_over_budget():
    # Six strong directions into an m=4 sketch: the buffer never fills
    # (6 < 2m = 8), so the only shrink happens at finalize and must leave
    # at most m - 1 directions plus a positive shift.
    A = np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]) @ np.eye(6, 8)
    sk = StreamingSketch(4, 8)
    sk.extend(A)
    out = sk.finalize(MODE_RFD)
    assert out.matrix.shape == (4, 8)
    nonzero_rows = int(np.sum(np.any(out.matrix != 0.0, axis=1)))
    assert nonzero_rows <= 3
    assert out.shift > 0.0
    err = spectral_norm(A.T @ A - out.covariance())
    tails = oracle_tails(A)
    assert err <= tails[0] / (2 * 4) * (1 + 1e-9)


@pytest.mark.parametrize("name", ["sweep_lowrank.cfg", "sweep_midrank.cfg",
                                  "sketch_accuracy.cfg"])
def test_decaying_stream_skips_sub_resolution_reductions(name, eigh_calls):
    # row i of the synthetic design has scale exp(-(i/R)^2), so the first
    # buffer's lightest rows lie below the roundoff floor of its
    # eigendecomposition and are left out of it: 204 of 512 at R = 77, 5
    # at R = 128.  The rows after the first 2m are lighter still.  At
    # R = 77 every later reduction is skipped.  At R = 128 the next shrink
    # decomposes its 255 kept rows and the heaviest new one: all the new
    # rows together pass the floor of order 255, though not that of order
    # 512.  The error stays within [0, Delta].
    config = load_config(CONFIGS / name)
    A, _, _ = load_instance(config)
    out = sketch_matrix(A, config.m, MODE_RFD)
    assert eigh_calls == {"sweep_lowrank.cfg": [(308, 512)],
                          "sweep_midrank.cfg": [(507, 512), (256, 512)],
                          "sketch_accuracy.cfg": [(308, 512)]}[name]
    evs = np.linalg.eigvalsh(A.T @ A - out.matrix.T @ out.matrix)
    roundoff = (len(A) + config.d) * EPS * float(np.vdot(A, A))
    assert -roundoff <= evs.min() and evs.max() <= 2.0 * out.shift + roundoff


def test_full_rank_stream_takes_one_per_shrink_and_finalize(eigh_calls):
    # the RFF instance has full rank: the buffer first fills at 2m rows and
    # every shrink keeps m - 1 of them, so no reduction may be skipped
    config = load_config(CONFIGS / "iterate_rff.cfg", {"n": "2000"})
    A, _, _ = load_instance(config)
    m = config.m
    sketch_matrix(A, m, MODE_RFD)
    shrinks = 1 + (len(A) - 2 * m) // (m + 1)
    assert len(eigh_calls) == shrinks + 1


def test_zero_rows_after_a_reduction_change_nothing(eigh_calls):
    # the buffer fills at exactly 2m rows, so the sketch holds only what
    # its reduction kept; zero rows after that, through two more shrinks,
    # take no eigendecomposition and leave finalize bit-identical
    m, d = 4, 10
    sk = StreamingSketch(m, d)
    sk.extend(np.random.default_rng(21).standard_normal((2 * m, d)))
    assert sk.fill == sk.kept == m - 1
    before = sk.finalize(MODE_RFD)
    sk.extend(np.zeros((3 * m, d)))
    after = sk.finalize(MODE_RFD)
    assert len(eigh_calls) == 1
    np.testing.assert_array_equal(after.matrix, before.matrix)
    assert after.shift == before.shift


def test_skipped_finalize_leaves_the_stream_untouched(eigh_calls):
    # at 2m rows the buffer has just been reduced, so a snapshot skips the
    # reduction and copies the kept rows out; the stream then goes on as
    # if no snapshot had been taken
    A = np.random.default_rng(6).standard_normal((50, 7))
    straight = sketch_matrix(A, 3, MODE_RFD)
    interrupted = StreamingSketch(3, 7)
    interrupted.extend(A[:6])
    state, calls = _state(interrupted), len(eigh_calls)
    snapshot = interrupted.finalize(MODE_RFD)
    assert len(eigh_calls) == calls
    _assert_state(interrupted, state)
    np.testing.assert_array_equal(snapshot.matrix[:2], interrupted.buffer[:2])
    assert not np.shares_memory(snapshot.matrix, interrupted.buffer)
    interrupted.extend(A[6:])
    out = interrupted.finalize(MODE_RFD)
    np.testing.assert_array_equal(out.matrix, straight.matrix)
    assert out.shift == straight.shift


def test_mode_validation():
    sk = StreamingSketch(2, 3)
    with pytest.raises(ValueError):
        sk.finalize("robust")


def test_tail_masses_identity():
    tails = tail_masses(np.eye(7))
    assert tails[0] == pytest.approx(7.0)
    assert tails[7] == pytest.approx(0.0, abs=1e-12)


def test_tail_masses_match_svd_sums():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 10))
    s = np.linalg.svd(A, compute_uv=False)
    tails = tail_masses(A)
    assert tails.shape == (11,)
    for k in range(11):
        assert tails[k] == pytest.approx(float(np.sum(s[k:] ** 2)), rel=1e-12)


@given(st.integers(0, 200), st.integers(5, 40))
@settings(max_examples=25)
def test_shift_grows_with_the_stream(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 6))
    cut = n // 2
    prefix = StreamingSketch(3, 6)
    prefix.extend(A[:cut])
    full = StreamingSketch(3, 6)
    full.extend(A)
    assert prefix.finalize(MODE_RFD).shift <= full.finalize(MODE_RFD).shift + 1e-12


@given(st.integers(0, 200), st.floats(0.01, 100.0))
@settings(max_examples=25)
def test_scale_equivariance(seed, c):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((30, 5))
    for mode in (MODE_FD, MODE_RFD):
        scaled = sketch_matrix(c * A, 2, mode).covariance()
        base = sketch_matrix(A, 2, mode).covariance()
        np.testing.assert_allclose(scaled, c ** 2 * base,
                                   rtol=1e-8, atol=1e-10 * c ** 2)


@given(st.integers(0, 500))
@settings(max_examples=25)
def test_bound_holds_for_every_row_order(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((40, 6))
    order = rng.permutation(40)
    m = 3
    out = sketch_matrix(A[order], m, MODE_FD)
    err = spectral_norm(A.T @ A - out.covariance())
    tails = oracle_tails(A)  # the spectrum ignores row order
    for k in range(m):
        assert err <= tails[k] / (m - k) * (1 + 1e-9)


def test_extend_matches_row_at_a_time():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((37, 5))
    blocked = StreamingSketch(4, 5)
    blocked.extend(A)
    single = StreamingSketch(4, 5)
    for row in A:
        single.update(row)
    np.testing.assert_array_equal(blocked.buffer, single.buffer)
    assert blocked.shift_total == single.shift_total


def _state(sk):
    return sk.buffer.copy(), sk.fill, sk.kept, sk.shift_total


def _assert_state(sk, state):
    buffer, fill, kept, shift_total = state
    np.testing.assert_array_equal(sk.buffer, buffer)
    assert sk.fill == fill
    assert sk.kept == kept
    assert sk.shift_total == shift_total


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_rows_are_rejected(bad):
    rng = np.random.default_rng(10)
    sk = StreamingSketch(2, 5)
    sk.extend(rng.standard_normal((3, 5)))
    before = _state(sk)
    # row 6 of 10 sits past the first shrinks a clean block would trigger
    block = rng.standard_normal((10, 5))
    block[6, 2] = bad
    block[8, 0] = bad
    with pytest.raises(ValueError, match="row 6 "):
        sk.extend(block)
    _assert_state(sk, before)
    row = rng.standard_normal(5)
    row[4] = bad
    with pytest.raises(ValueError, match="^row entry 4 is not finite"):
        sk.update(row)
    _assert_state(sk, before)


def test_extend_checks_finiteness_without_a_block_sized_mask(traced_peak):
    # a finite block is settled by its sum; one boolean mask over the
    # whole block would take n * d bytes
    m, n, d = 32, 8000, 128
    A = np.random.default_rng(12).standard_normal((n, d))
    sk = StreamingSketch(m, d)
    _, peak = traced_peak(sk.extend, A)
    assert peak < n * d


def test_shrink_holds_two_buffer_sized_temporaries(traced_peak):
    # the row that fills a 512 x 512 buffer triggers one shrink: the Gram
    # matrix is released before its kept eigenvectors are copied, and the
    # surviving rows are scaled in place in their right vectors, so no more
    # than two 2 MiB temporaries are alive at once
    m, d = 256, 512
    A = np.random.default_rng(13).standard_normal((2 * m, d))
    sk = StreamingSketch(m, d)
    sk.extend(A[:-1])
    _, peak = traced_peak(sk.extend, A[-1:])
    assert sk.fill < m
    assert peak <= 4.5 * 2 ** 20


def test_finalize_forms_only_the_surviving_rows(traced_peak):
    # a 491 x 512 buffer with m = 256: the Gram matrix and its eigenvectors
    # are 491 x 491 (1.8 MiB); finalize forms right vectors for the m - 1
    # survivors only and allocates its m x d output after the reduction
    m, d = 256, 512
    sk = StreamingSketch(m, d)
    sk.extend(np.random.default_rng(14).standard_normal((491, d)))
    out, peak = traced_peak(sk.finalize, MODE_RFD)
    assert int(np.sum(np.any(out.matrix != 0.0, axis=1))) == m - 1
    assert peak <= 4.5 * 2 ** 20


def test_overflowing_spectrum_raises():
    # finite rows whose squared singular values overflow: the shrink must
    # refuse rather than drop every row it holds, and the operator must
    # say why rather than fail to converge
    sk = StreamingSketch(2, 3)
    with pytest.raises(ValueError, match="not finite"):
        sk.extend(np.full((4, 3), 1e200))
    with pytest.raises(ValueError, match="not finite"):
        InverseOperator(np.full((4, 3), 1e200))


def test_finite_data_whose_sum_overflows_is_not_called_non_finite():
    # the rule's whole-array sum overflows here, so its row scan decides,
    # finds no bad row, and the shrink refuses the rows as too large
    with pytest.raises(ValueError, match="too large to square"):
        sketch_matrix(np.full((4, 3), 1e308), 2)


def test_output_is_immutable():
    out = sketch_matrix(np.eye(3), 2, MODE_FD)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.shift = 1.0


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    out = sketch_matrix(rng.standard_normal((60, 5)), 3, MODE_RFD)
    path = tmp_path / "sketch.csv"
    save_sketch_csv(out, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# 3,5,")
    assert float(header.split(",")[2]).hex() == out.shift.hex()
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert back.tobytes() == out.matrix.tobytes()


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one %-format per row writes the same bytes as formatting each value
    # with format(v, ".17g"), signed zero and subnormals included
    mat = np.array([[-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0],
                    [1.0, -2.5, 0.0, -1e-300, 123456789.0]])
    path = tmp_path / "sketch.csv"
    save_sketch_csv(SketchOutput(matrix=mat, shift=0.25), path)
    expected = "# 2,5,0.25\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in mat)
    assert path.read_bytes() == expected.encode("utf-8")
