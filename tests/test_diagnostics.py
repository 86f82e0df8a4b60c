"""Bias/variance diagnostics against closed forms and Monte Carlo.

The analytic reports are cross-checked two ways: small instances where
the moments are computable by hand, and a shared 200k-draw simulation
that estimates the same moments empirically for every estimator family.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdridge import diagnostics
from fdridge.diagnostics import (BudgetError, LinearModelSpec,
                                 budget_for_theta,
                                 classical_sketch_diagnostics,
                                 hessian_sketch_diagnostics,
                                 optimal_diagnostics, sketched_diagnostics,
                                 theta_interval)
from fdridge.datasets import synthetic_regression
from fdridge.random_sketch import (apply_gaussian, realize_gaussian,
                                   realize_sjlt)
from fdridge.sketch import (MODE_FD, MODE_RFD, StreamingSketch, _light_rows,
                            sketch_matrix, tail_masses)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        LinearModelSpec(np.eye(2), 1.0)
    for noise_sd in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="noise level"):
            LinearModelSpec(np.ones(3), noise_sd)
    # a non-finite truth would give a NaN bias beside a finite variance
    for bad in (math.nan, math.inf):
        truth = np.ones(3)
        truth[[1, 2]] = bad
        with pytest.raises(ValueError, match="^truth entry 1 is not finite"):
            LinearModelSpec(truth, 1.0)


def test_identity_design_closed_form():
    # A = I, gamma = 1: shrinkage halves everything, so the bias vector
    # is -x0/2 and each coordinate contributes sd^2/4 of variance.
    d = 4
    x0 = np.ones(d) / 2.0
    report = optimal_diagnostics(np.eye(d), LinearModelSpec(x0, 1.0), 1.0)
    assert report.bias_sq == pytest.approx(float(x0 @ x0) / 4, rel=1e-12)
    assert report.var_trace == pytest.approx(d / 4, rel=1e-12)
    assert report.mse == pytest.approx(report.bias_sq + report.var_trace)


def test_bias_vanishes_as_regularization_fades():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 5))
    model = LinearModelSpec(rng.standard_normal(5), 1.0)
    report = optimal_diagnostics(A, model, 1e-10)
    assert report.bias_sq < 1e-18


def test_lossless_sketch_matches_optimal():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 8))
    model = LinearModelSpec(rng.standard_normal(8), 1.5)
    base = optimal_diagnostics(A, model, 0.7)
    for mode in (MODE_FD, MODE_RFD):
        out = sketch_matrix(A, 32, mode)
        report = sketched_diagnostics(A, out, model, 0.7)
        assert report.bias_sq == pytest.approx(base.bias_sq, rel=1e-10)
        assert report.var_trace == pytest.approx(base.var_trace, rel=1e-10)


def test_empty_sketch_degenerate_moments():
    # With nothing sketched the surrogate Hessian is gamma I, so the
    # estimator is A^T y / gamma and both moments have explicit forms.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((25, 6))
    x0 = rng.standard_normal(6)
    sd, gamma = 1.3, 2.0
    out = StreamingSketch(4, 6).finalize(MODE_FD)
    report = sketched_diagnostics(A, out, LinearModelSpec(x0, sd), gamma)
    bias = A.T @ (A @ x0) / gamma - x0
    assert report.bias_sq == pytest.approx(float(bias @ bias), rel=1e-12)
    expected_var = sd ** 2 * np.linalg.norm(A, "fro") ** 2 / gamma ** 2
    assert report.var_trace == pytest.approx(expected_var, rel=1e-12)


def test_diagnostics_reject_bad_gamma():
    A = np.eye(3)
    model = LinearModelSpec(np.ones(3), 1.0)
    out = sketch_matrix(A, 2, MODE_FD)
    with pytest.raises(ValueError):
        optimal_diagnostics(A, model, 0.0)
    with pytest.raises(ValueError):
        sketched_diagnostics(A, out, model, -1.0)
    with pytest.raises(ValueError):
        classical_sketch_diagnostics(A, np.eye(3), model, 0.0)
    with pytest.raises(ValueError):
        hessian_sketch_diagnostics(A, A, model, 0.0)
    with pytest.raises(ValueError):
        optimal_diagnostics(A, model, [1.0, 0.0])
    with pytest.raises(ValueError, match="regularizer"):
        optimal_diagnostics(A, model, [1.0, math.inf])
    with pytest.raises(ValueError, match="^regularizer must be a scalar or a "
                                         "sequence"):
        optimal_diagnostics(A, model, [[1.0, 2.0]])
    # gamma itself is checked, not gamma + shift, so a negative gamma
    # stays an error although the total regularizer would be positive
    X = np.random.default_rng(4).standard_normal((40, 6))
    rfd = sketch_matrix(X, 3, MODE_RFD)
    assert rfd.shift > 0.01
    with pytest.raises(ValueError, match="regularizer"):
        sketched_diagnostics(X, rfd, LinearModelSpec(np.ones(6), 1.0), -0.01)
    # shape mismatches and a non-finite sketch name the argument at fault
    with pytest.raises(ValueError, match="truth has length 3, but A has 6"):
        optimal_diagnostics(X, model, 1.0)
    for S in _draws(39, 4).values():
        with pytest.raises(ValueError, match="S has 39 columns, but A has 40"):
            classical_sketch_diagnostics(X, S, LinearModelSpec(np.ones(6), 1.0),
                                         1.0)
    with pytest.raises(ValueError, match="sketch has 3 columns, but A has 6"):
        hessian_sketch_diagnostics(X, A, LinearModelSpec(np.ones(6), 1.0), 1.0)
    with pytest.raises(ValueError, match="sketch has 3 columns, but A has 6"):
        sketched_diagnostics(X, out, LinearModelSpec(np.ones(6), 1.0), 1.0)
    with pytest.raises(ValueError, match="row 0 has a non-finite entry"):
        hessian_sketch_diagnostics(np.ones((4, 5)), np.full((3, 5), np.nan),
                                   LinearModelSpec(np.ones(5), 1.0), 1.0)
    # a NaN in A itself is named by its row of A, not returned as NaN
    # moments nor blamed on the row of S A it spoils; rows too large to
    # square are refused as well
    bad = X.copy()
    bad[[7, 9], 3] = np.nan
    huge = np.full_like(X, 1e200)
    six = LinearModelSpec(np.ones(6), 1.0)
    for data, message in ((bad, "^A row 7 has a non-finite entry"),
                          (huge, "too large to square")):
        with pytest.raises(ValueError, match=message):
            sketched_diagnostics(data, rfd, six, 1.0)
        with pytest.raises(ValueError, match=message):
            hessian_sketch_diagnostics(data, X[:8], six, 1.0)
        for S in _draws(40, 6).values():
            with pytest.raises(ValueError, match=message):
                classical_sketch_diagnostics(data, S, six, 1.0)


def _mc_moments(solve_batch, A, model, draws=200_000, seed=99):
    """Empirical (bias_sq, var_trace) of x_hat = solve_batch(Y) where
    Y holds one noisy target vector per column."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    clean = A @ model.truth
    ys = clean[:, None] + model.noise_sd * rng.standard_normal((n, draws))
    xs = solve_batch(ys)
    mean = xs.mean(axis=1)
    bias = mean - model.truth
    var = float(np.sum((xs - mean[:, None]) ** 2) / (draws - 1))
    return float(bias @ bias), var


@pytest.fixture(scope="module")
def mc_instance():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 6))
    model = LinearModelSpec(rng.standard_normal(6), 1.5)
    gamma = 0.5
    return A, model, gamma


def test_optimal_diagnostics_against_monte_carlo(mc_instance):
    A, model, gamma = mc_instance
    H = A.T @ A + gamma * np.eye(6)
    bias_sq, var = _mc_moments(lambda ys: np.linalg.solve(H, A.T @ ys),
                               A, model)
    report = optimal_diagnostics(A, model, gamma)
    assert report.bias_sq == pytest.approx(bias_sq, rel=0.02, abs=1e-4)
    assert report.var_trace == pytest.approx(var, rel=0.02)


def test_sketched_diagnostics_against_monte_carlo(mc_instance):
    A, model, gamma = mc_instance
    out = sketch_matrix(A, 3, MODE_RFD)
    H = out.covariance() + gamma * np.eye(6)
    bias_sq, var = _mc_moments(lambda ys: np.linalg.solve(H, A.T @ ys),
                               A, model)
    report = sketched_diagnostics(A, out, model, gamma)
    assert report.bias_sq == pytest.approx(bias_sq, rel=0.02)
    assert report.var_trace == pytest.approx(var, rel=0.02)


def test_classical_diagnostics_against_monte_carlo(mc_instance):
    A, model, gamma = mc_instance
    S = realize_gaussian(12, 40, 11)
    SA = S @ A
    H = SA.T @ SA + gamma * np.eye(6)
    bias_sq, var = _mc_moments(
        lambda ys: np.linalg.solve(H, SA.T @ (S @ ys)), A, model)
    report = classical_sketch_diagnostics(A, S, model, gamma)
    # the squared bias is ~4e-3 here, close to the simulation's own
    # resolution, so allow an absolute slack of a few standard errors
    assert report.bias_sq == pytest.approx(bias_sq, rel=0.02, abs=2e-3)
    assert report.var_trace == pytest.approx(var, rel=0.02)


def test_hessian_diagnostics_against_monte_carlo(mc_instance):
    A, model, gamma = mc_instance
    S = realize_gaussian(12, 40, 11)
    SA = S @ A
    H = SA.T @ SA + gamma * np.eye(6)
    bias_sq, var = _mc_moments(lambda ys: np.linalg.solve(H, A.T @ ys),
                               A, model)
    report = hessian_sketch_diagnostics(A, SA, model, gamma)
    assert report.bias_sq == pytest.approx(bias_sq, rel=0.02)
    assert report.var_trace == pytest.approx(var, rel=0.02)


# Dense per-gamma oracles: one d x d solve per regularizer, written out
# independently of the spectral grid routine the package uses.

def dense_optimal(A, model, gamma):
    d = A.shape[1]
    H = A.T @ A + gamma * np.eye(d)
    pulled = np.linalg.solve(H, model.truth)
    inv = np.linalg.solve(H, np.eye(d))
    return (gamma ** 2 * float(pulled @ pulled),
            model.noise_sd ** 2 * float(np.linalg.norm(A @ inv, "fro") ** 2))


def dense_sketched(A, B, model, gamma_total):
    """Curvature from B, noise through A (one-shot sketched and Hessian)."""
    d = A.shape[1]
    H = B.T @ B + gamma_total * np.eye(d)
    bias = np.linalg.solve(H, A.T @ (A @ model.truth)) - model.truth
    inv = np.linalg.solve(H, np.eye(d))
    return (float(bias @ bias),
            model.noise_sd ** 2 * float(np.linalg.norm(A @ inv, "fro") ** 2))


def dense_classical(A, S, model, gamma):
    d = A.shape[1]
    SA = np.asarray(S @ A)
    H = SA.T @ SA + gamma * np.eye(d)
    bias = np.linalg.solve(H, SA.T @ (SA @ model.truth)) - model.truth
    inv = np.linalg.solve(H, np.eye(d))
    smeared = np.asarray(S.T @ (SA @ inv))
    return (float(bias @ bias),
            model.noise_sd ** 2 * float(np.linalg.norm(smeared, "fro") ** 2))


GRID = [2.0 ** k for k in range(-8, 7)]


@pytest.fixture(scope="module")
def grid_instance():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((60, 16)) * np.linspace(3.0, 0.1, 16)
    model = LinearModelSpec(rng.standard_normal(16), 1.3)
    return A, model


def assert_grid_matches(reports, oracle):
    assert len(reports) == len(GRID)
    for rep, g in zip(reports, GRID):
        bias_sq, var = oracle(g)
        assert rep.bias_sq == pytest.approx(bias_sq, rel=1e-9)
        assert rep.var_trace == pytest.approx(var, rel=1e-9)
        assert rep.mse == rep.bias_sq + rep.var_trace


def test_grid_exact_matches_dense(grid_instance):
    A, model = grid_instance
    reports = optimal_diagnostics(A, model, GRID)
    assert_grid_matches(reports, lambda g: dense_optimal(A, model, g))
    # a scalar gamma is the one-entry grid
    assert optimal_diagnostics(A, model, GRID[3]) == reports[3]


@pytest.mark.parametrize("synthetic", [False, True])
def test_factor_equal_to_A_leaves_no_residual(grid_instance, synthetic):
    # the residual A^T (A x0) - X^T (X x0) is formed for every factor X;
    # one that holds A's values in another array runs the same arithmetic
    # on the same values, so the Hessian estimator with S A = A is the
    # exact one to the bit, light rows dropped from the data terms or not
    if synthetic:
        A, _, truth = synthetic_regression(300, 64, 0.1, 1.0, 3)
        model = LinearModelSpec(truth, 1.0)
        assert not _light_rows(np.einsum("ij,ij->i", A, A),
                               np.finfo(float).eps ** 2 * np.vdot(A, A)).all()
    else:
        A, model = grid_instance
    assert (hessian_sketch_diagnostics(A, A.copy(), model, GRID)
            == optimal_diagnostics(A, model, GRID))


@pytest.mark.parametrize("mode", [MODE_FD, MODE_RFD])
def test_grid_sketched_matches_dense(grid_instance, mode):
    A, model = grid_instance
    out = sketch_matrix(A, 6, mode)
    assert (out.shift > 0) == (mode == MODE_RFD)
    reports = sketched_diagnostics(A, out, model, GRID)
    assert_grid_matches(
        reports, lambda g: dense_sketched(A, out.matrix, model, g + out.shift))


def test_rfd_diagnostics_are_fd_diagnostics_at_the_shifted_gamma(
        grid_instance):
    # the RFD estimator at gamma is the FD estimator at gamma + shift, to
    # the bit, so one grid of FD diagnostics can serve both
    A, model = grid_instance
    rfd = sketch_matrix(A, 6, MODE_RFD)
    fd = dataclasses.replace(rfd, shift=0.0)
    assert rfd.shift > 0
    shifted = sketched_diagnostics(A, fd, model, [g + rfd.shift for g in GRID])
    assert sketched_diagnostics(A, rfd, model, GRID) == shifted
    assert sketched_diagnostics(A, rfd, model, GRID[4]) == shifted[4]


def _draws(n, m):
    return {"gauss": realize_gaussian(m, n, 5),
            "sjlt": realize_sjlt(m, n, 5)}


@pytest.mark.parametrize("flavor", ["gauss", "sjlt"])
def test_grid_random_sketches_match_dense(grid_instance, flavor):
    A, model = grid_instance
    for m in (10, 24):  # short-and-fat and tall S A
        S = _draws(A.shape[0], m)[flavor]
        SA = np.asarray(S @ A)
        assert_grid_matches(hessian_sketch_diagnostics(A, SA, model, GRID),
                            lambda g: dense_sketched(A, SA, model, g))
        classical = classical_sketch_diagnostics(A, S, model, GRID)
        assert_grid_matches(classical, lambda g: dense_classical(A, S, model, g))
        # the classical residual is zero, so its bias is the exact
        # estimator's on S A, bit for bit
        assert ([r.bias_sq for r in classical]
                == [r.bias_sq for r in optimal_diagnostics(SA, model, GRID)])


def _every_grid(A, model):
    """Each estimator's diagnostics grid on A: optimal, sketched (FD and
    RFD), and Hessian and classical for a Gaussian and an SJLT draw."""
    reports = [optimal_diagnostics(A, model, GRID)]
    for mode in (MODE_FD, MODE_RFD):
        reports.append(sketched_diagnostics(A, sketch_matrix(A, 6, mode),
                                            model, GRID))
    for S in _draws(A.shape[0], 10).values():
        reports.append(hessian_sketch_diagnostics(A, np.asarray(S @ A), model,
                                                  GRID))
        reports.append(classical_sketch_diagnostics(A, S, model, GRID))
    return np.array([[(r.bias_sq, r.var_trace) for r in grid]
                     for grid in reports])


@pytest.mark.parametrize("rows", [1, 7, 61])
def test_row_blocks_match_one_block(grid_instance, monkeypatch, rows):
    # the default budget holds all n = 60 rows in one block; one row at a
    # time, blocks that do not divide n and a budget past n all sum the
    # same terms
    A, model = grid_instance
    one_block = _every_grid(A, model)
    monkeypatch.setattr(diagnostics, "DIAGNOSTICS_BLOCK_BYTES",
                        rows * 8 * A.shape[1])
    np.testing.assert_allclose(_every_grid(A, model), one_block, rtol=1e-12)


@pytest.mark.parametrize("rows", [7, None])
def test_rows_below_rounding_change_no_report(grid_instance, monkeypatch,
                                              rows):
    # zero rows and rows of combined mass eps^2 |A|_F^2 / 2 spread
    # through A: the pass over N = A leaves all of them out, and keeps a
    # row of mass 2 eps^2 |A|_F^2 past that floor, so every report that
    # sees A only through N matches the one on A; 7-row blocks mix blocks
    # of data only, of padding only and of both
    A, model = grid_instance
    frobenius_sq = float(np.vdot(A, A))
    rng = np.random.default_rng(24)
    light = rng.standard_normal((31, A.shape[1]))
    light /= np.linalg.norm(light, axis=1, keepdims=True)
    light[:30] *= np.finfo(float).eps * math.sqrt(frobenius_sq / 60)
    light[30] *= np.finfo(float).eps * math.sqrt(2 * frobenius_sq)
    zero = np.zeros((7, A.shape[1]))
    padded = np.vstack([A[:20], zero, light[:15], A[20:41], zero[:3],
                        light[15:], A[41:], zero[:2]])
    stays = np.any([np.all(padded == row, axis=1)
                    for row in np.vstack([A, light[30:]])], axis=0)
    masks = []

    def light_rows(*args):
        masks.append(_light_rows(*args))
        return masks[-1]

    monkeypatch.setattr(diagnostics, "_light_rows", light_rows)
    if rows is not None:
        monkeypatch.setattr(diagnostics, "DIAGNOSTICS_BLOCK_BYTES",
                            rows * 8 * A.shape[1])
    SA = np.asarray(_draws(A.shape[0], 10)["gauss"] @ A)
    sketches = [sketch_matrix(A, 6, mode) for mode in (MODE_FD, MODE_RFD)]

    def grids(data):
        reports = [optimal_diagnostics(data, model, GRID),
                   hessian_sketch_diagnostics(data, SA, model, GRID)]
        reports += [sketched_diagnostics(data, out, model, GRID)
                    for out in sketches]
        return np.array([[(r.bias_sq, r.var_trace) for r in grid]
                         for grid in reports])

    np.testing.assert_allclose(grids(padded), grids(A), rtol=1e-15)
    assert len(masks) == 8
    assert all(np.array_equal(keep, stays) for keep in masks[:4])
    assert all(keep.all() for keep in masks[4:])


def test_diagnostics_hold_no_copy_of_the_data(traced_peak):
    # A is 10 MB; each call holds its operator, one 1 MiB row block of the
    # noise map and its products with the basis, not an n x d temporary
    n, d, m = 20000, 64, 32
    rng = np.random.default_rng(23)
    A = rng.standard_normal((n, d)) * np.linspace(2.0, 0.2, d)
    model = LinearModelSpec(rng.standard_normal(d), 1.0)
    gammas = [0.5, 5.0]
    output = sketch_matrix(A, m, MODE_RFD)
    SA = apply_gaussian(m, A, 1)
    calls = [(optimal_diagnostics, A, model, gammas),
             (sketched_diagnostics, A, output, model, gammas),
             (hessian_sketch_diagnostics, A, SA, model, gammas)]
    calls += [(classical_sketch_diagnostics, A, S, model, gammas)
              for S in _draws(n, m).values()]
    for fn, *args in calls:
        _, peak = traced_peak(fn, *args)
        assert peak < A.nbytes / 2, fn.__name__


def test_grid_rank_deficient_factors():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 16))
    model = LinearModelSpec(rng.standard_normal(16), 0.8)
    assert_grid_matches(optimal_diagnostics(A, model, GRID),
                        lambda g: dense_optimal(A, model, g))
    zero = StreamingSketch(4, 16).finalize(MODE_FD)
    assert_grid_matches(sketched_diagnostics(A, zero, model, GRID),
                        lambda g: dense_sketched(A, zero.matrix, model, g))
    assert_grid_matches(
        hessian_sketch_diagnostics(A, np.zeros((4, 16)), model, GRID),
        lambda g: dense_sketched(A, np.zeros((4, 16)), model, g))
    # m = 8 exceeds the rank 3 of A, so S A is rank deficient too
    for S in _draws(60, 8).values():
        SA = np.asarray(S @ A)
        assert_grid_matches(hessian_sketch_diagnostics(A, SA, model, GRID),
                            lambda g: dense_sketched(A, SA, model, g))
        assert_grid_matches(classical_sketch_diagnostics(A, S, model, GRID),
                            lambda g: dense_classical(A, S, model, g))


def test_theta_interval_zero_mass():
    assert theta_interval(0.0, 1.0) == (1.0, 1.0)


def test_theta_interval_hand_computed_point():
    # bound = 1 - sqrt(1/2) at gamma = 1 gives 1 - theta = 1/2 exactly.
    lo, hi = theta_interval(1.0 - math.sqrt(0.5), 1.0)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_theta_interval_infeasible_budget():
    with pytest.raises(BudgetError, match="below the regularizer"):
        theta_interval(1.5, 1.0)
    with pytest.raises(BudgetError):
        theta_interval(1.0, 1.0)


def test_theta_interval_validation():
    for bound, gamma in ((-1.0, 1.0), (math.nan, 1.0), (0.5, 0.0),
                         (0.5, -2.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError) as err:
            theta_interval(bound, gamma)
        assert not isinstance(err.value, BudgetError)


def test_budget_validation():
    with pytest.raises(ValueError):
        budget_for_theta(0.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(0.5, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(0.5, 1, 1.0, -2.0)
    with pytest.raises(ValueError, match="regularizer"):
        budget_for_theta(0.5, 1, 1.0, math.inf)
    for mass in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tail mass"):
            budget_for_theta(0.5, 1, mass, 1.0)
    for k in (-5, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="k must be"):
            budget_for_theta(0.5, k, 1.0, 1.0)
    for mode in ("RFD", "rdf"):
        with pytest.raises(ValueError, match="'fd', 'rfd'"):
            budget_for_theta(0.5, 1, 1.0, 1.0, mode)


def a_priori_bound(m, k, mass, mode):
    """The covariance-error bound tail(k) / (m - k), halved for "rfd"."""
    bound = mass / (m - k)
    return bound / 2.0 if mode == MODE_RFD else bound


@given(st.floats(0.01, 0.99), st.integers(0, 20),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
       st.sampled_from([MODE_FD, MODE_RFD]))
@example(0.9, 0, 1.0, 1.0, MODE_RFD)
@settings(max_examples=60)
def test_budget_and_interval_are_inverses(theta, k, mass, gamma, mode):
    m = budget_for_theta(theta, k, mass, gamma, mode)
    lo, hi = theta_interval(a_priori_bound(m, k, mass, mode), gamma)
    assert 1.0 - lo == pytest.approx(theta, rel=1e-10, abs=1e-12)
    assert lo * hi == pytest.approx(1.0, rel=1e-12)


def test_rfd_interval_is_tighter():
    bound, gamma = 2.0 / 9.0, 0.9
    fd_iv = theta_interval(bound, gamma)
    rfd_iv = theta_interval(bound / 2.0, gamma)
    assert rfd_iv[0] > fd_iv[0]
    assert rfd_iv[1] < fd_iv[1]
    # halving the bound maps 1 - theta to ((1 + sqrt(1 - theta)) / 2)^2
    implied = ((1.0 + math.sqrt(fd_iv[0])) / 2.0) ** 2
    assert rfd_iv[0] == pytest.approx(implied, rel=1e-12)


def test_interval_contains_measured_ratios():
    # End to end on a synthetic instance: pick the cheapest (k, m) pair
    # delivering theta = 0.5 with m <= d, then check the measured
    # bias/variance/MSE ratios land inside the promised intervals.
    A, _, truth = synthetic_regression(n=256, d=128, r=0.15, noise_sd=2.0,
                                       seed=0)
    model = LinearModelSpec(truth, 2.0)
    gamma, theta = 1.0, 0.5
    best = None
    tails = tail_masses(A)
    for k in range(128):
        mass = float(tails[k])
        m = math.ceil(budget_for_theta(theta, k, mass, gamma))
        if m <= 128:
            best = (k, m, mass)
            break
    assert best is not None
    k, m, mass = best
    assert (k, m) == (22, 118)

    base = optimal_diagnostics(A, model, gamma)
    for mode in (MODE_FD, MODE_RFD):
        interval = theta_interval(a_priori_bound(m, k, mass, mode), gamma)
        report = sketched_diagnostics(A, sketch_matrix(A, m, mode),
                                      model, gamma)
        for pair in ((report.bias_sq, base.bias_sq),
                     (report.var_trace, base.var_trace),
                     (report.mse, base.mse)):
            ratio = pair[0] / pair[1]
            assert interval[0] - 1e-12 <= ratio <= interval[1] + 1e-12
        # the variance can only go down relative to the exact estimator
        assert report.var_trace >= base.var_trace * (1 - 1e-12)


@given(st.integers(16, 300), st.integers(8, 40), st.floats(0.1, 0.5),
       st.integers(2, 24), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_a_posteriori_interval_contains_measured_ratios(n, d, r, m, seed):
    # The finalized RFD sketch's shift is half the total reduction Delta:
    # a bound on the RFD covariance error, and Delta one on FD's.  Each
    # bound carries the roundoff of forming A^T A, n eps |A|_F^2, which
    # covers mass the shrink drops below its floor without counting it.
    A, _, truth = synthetic_regression(n=n, d=d, r=r, noise_sd=1.0, seed=seed)
    model = LinearModelSpec(truth, 1.0)
    roundoff = n * np.finfo(float).eps * float(np.vdot(A, A))
    rfd = sketch_matrix(A, m, MODE_RFD)
    fd = sketch_matrix(A, m, MODE_FD)
    assert fd.shift == 0.0
    gammas = [1e-2, 1e-1, 1.0, 10.0]
    base = optimal_diagnostics(A, model, gammas)
    for output, bound in ((rfd, rfd.shift + roundoff),
                          (fd, 2.0 * rfd.shift + roundoff)):
        reports = sketched_diagnostics(A, output, model, gammas)
        for g, report, exact in zip(gammas, reports, base):
            if bound >= g:
                continue
            lo, hi = theta_interval(bound, g)
            for got, ref in ((report.bias_sq, exact.bias_sq),
                             (report.var_trace, exact.var_trace),
                             (report.mse, exact.mse)):
                assert lo <= got / ref <= hi
