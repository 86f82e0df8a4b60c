"""Streaming sketch tests.

Every bound here is checked against dense-SVD oracles computed in the
test itself: tail masses from the full spectrum, spectral norms from
eigvalsh of the symmetric difference.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge.sketch import (MODE_FD, MODE_RFD, SketchOutput, StreamingSketch,
                            load_sketch_csv, save_sketch_csv, sketch_matrix,
                            tail_masses)
from fdridge.solvers import InverseOperator

EPS = np.finfo(float).eps


def spectral_norm(M):
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def oracle_tails(A):
    s = np.linalg.svd(A, compute_uv=False)
    return np.concatenate([np.cumsum((s ** 2)[::-1])[::-1], [0.0]])


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        StreamingSketch(0, 5)
    with pytest.raises(ValueError):
        StreamingSketch(4, 0)


def test_update_rejects_wrong_row_shape():
    sk = StreamingSketch(3, 4)
    with pytest.raises(ValueError):
        sk.update(np.zeros(5))
    with pytest.raises(ValueError):
        sk.extend(np.zeros((2, 5)))


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


def test_fd_underestimates_covariance():
    # The unshifted sketch only ever removes mass: A^T A - B^T B stays
    # positive semidefinite (and below 2*shift in the other direction).
    rng = np.random.default_rng(5)
    A = rng.standard_normal((80, 10))
    sk = StreamingSketch(4, 10)
    sk.extend(A)
    fd = sk.finalize(MODE_FD)
    rfd = sk.finalize(MODE_RFD)
    diff = A.T @ A - fd.covariance()
    evs = np.linalg.eigvalsh(diff)
    scale = spectral_norm(A.T @ A)
    assert evs.min() >= -1e-10 * scale
    assert evs.max() <= 2 * rfd.shift * (1 + 1e-9)


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
    finalize with one more shrink when more than m directions remain.
    Returns (sketch rows, accumulated shift)."""
    def shrink(B, always):
        _, s, vt = np.linalg.svd(B, full_matrices=False)
        cut = s[m - 1] ** 2 if s.size > m or (always and s.size == m) else 0.0
        squared = s ** 2 - cut
        kept = squared > 0.0
        return np.sqrt(squared[kept])[:, None] * vt[kept], cut / 2.0

    B, shift = np.zeros((0, A.shape[1])), 0.0
    for row in A:
        B = np.vstack([B, row])
        if B.shape[0] == 2 * m:
            B, half = shrink(B, True)
            shift += half
    B, half = shrink(B, False)
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
    return sk.buffer.copy(), sk.fill, sk.shift_total


def _assert_state(sk, state):
    buffer, fill, shift_total = state
    np.testing.assert_array_equal(sk.buffer, buffer)
    assert sk.fill == fill
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
    with pytest.raises(ValueError, match="non-finite"):
        sk.update(row)
    _assert_state(sk, before)


def test_overflowing_spectrum_raises():
    # finite rows whose squared singular values overflow: the shrink must
    # refuse rather than drop every row it holds, and the operator must
    # say why rather than fail to converge
    sk = StreamingSketch(2, 3)
    with pytest.raises(ValueError, match="not finite"):
        sk.extend(np.full((4, 3), 1e200))
    with pytest.raises(ValueError, match="not finite"):
        InverseOperator(np.full((4, 3), 1e200), 1.0)


def test_output_is_immutable():
    out = sketch_matrix(np.eye(3), 2, MODE_FD)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.shift = 1.0


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    out = sketch_matrix(rng.standard_normal((60, 5)), 3, MODE_RFD)
    path = tmp_path / "sketch.csv"
    save_sketch_csv(out, path)
    back = load_sketch_csv(path)
    np.testing.assert_array_equal(back.matrix, out.matrix)
    assert back.shift == out.shift
    assert back.mode == out.mode


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_sketch_csv(path)
    path.write_text("# 2,3,0.0,weird\n0,0,0\n0,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_sketch_csv(path)


@pytest.mark.parametrize("text", [
    "# 2,2,0.0,rfd\nnan,1\n0,1\n",
    "# 2,2,0.0,fd\n1,0\n0,inf\n",
    "# 2,2,-5,rfd\n1,0\n0,1\n",
    "# 2,2,inf,rfd\n1,0\n0,1\n",
    "# 2,2,nan,rfd\n1,0\n0,1\n",
])
def test_csv_rejects_non_finite_entries_and_bad_shift(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="bad.csv"):
        load_sketch_csv(path)
