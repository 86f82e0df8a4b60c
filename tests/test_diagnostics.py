"""Bias/variance diagnostics against closed forms and Monte Carlo.

The analytic reports are cross-checked two ways: small instances where
the moments are computable by hand, and a shared 200k-draw simulation
that estimates the same moments empirically for every estimator family.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge.diagnostics import (BudgetError, DiagnosticsReport,
                                 LinearModelSpec, budget_for_theta,
                                 classical_sketch_diagnostics,
                                 hessian_sketch_diagnostics,
                                 optimal_diagnostics, sketched_diagnostics,
                                 theta_interval, with_relatives)
from fdridge.datasets import SyntheticSpec, synthetic_regression
from fdridge.random_sketch import (GaussianSketchSpec, SjltSketchSpec,
                                   realize_gaussian, realize_sjlt)
from fdridge.sketch import (MODE_FD, MODE_RFD, StreamingSketch, sketch_matrix,
                            tail_masses)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        LinearModelSpec(np.eye(2), 1.0)
    with pytest.raises(ValueError):
        LinearModelSpec(np.ones(3), 0.0)


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
    S = realize_gaussian(GaussianSketchSpec(m=12, n=40, seed=11))
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
    S = realize_gaussian(GaussianSketchSpec(m=12, n=40, seed=11))
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


@pytest.mark.parametrize("mode", [MODE_FD, MODE_RFD])
def test_grid_sketched_matches_dense(grid_instance, mode):
    A, model = grid_instance
    out = sketch_matrix(A, 6, mode)
    assert (out.shift > 0) == (mode == MODE_RFD)
    reports = sketched_diagnostics(A, out, model, GRID)
    assert_grid_matches(
        reports, lambda g: dense_sketched(A, out.matrix, model, g + out.shift))


def _draws(n, m):
    return {"gauss": realize_gaussian(GaussianSketchSpec(m=m, n=n, seed=5)),
            "sjlt": realize_sjlt(SjltSketchSpec(m=m, n=n, s=2, seed=5))}


@pytest.mark.parametrize("flavor", ["gauss", "sjlt"])
def test_grid_random_sketches_match_dense(grid_instance, flavor):
    A, model = grid_instance
    for m in (10, 24):  # short-and-fat and tall S A
        S = _draws(A.shape[0], m)[flavor]
        SA = np.asarray(S @ A)
        assert_grid_matches(hessian_sketch_diagnostics(A, SA, model, GRID),
                            lambda g: dense_sketched(A, SA, model, g))
        assert_grid_matches(classical_sketch_diagnostics(A, S, model, GRID),
                            lambda g: dense_classical(A, S, model, g))


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


def test_relative_errors():
    base = DiagnosticsReport(bias_sq=2.0, var_trace=4.0, mse=6.0)
    self_rel = with_relatives(base, base)
    assert self_rel.rel_bias == 0.0
    assert self_rel.rel_var == 0.0
    assert self_rel.rel_mse == 0.0
    other = with_relatives(DiagnosticsReport(1.0, 6.0, 7.0), base)
    assert other.rel_bias == pytest.approx(0.5)
    assert other.rel_var == pytest.approx(0.5)
    assert other.rel_mse == pytest.approx(1 / 6)
    degenerate = DiagnosticsReport(0.0, 4.0, 4.0)
    rel = with_relatives(base, degenerate)
    assert math.isnan(rel.rel_bias)
    assert rel.rel_var == 0.0


def test_theta_interval_zero_mass():
    budget, interval = theta_interval(10, 2, 0.0, 1.0)
    assert budget.theta == 0.0
    assert interval == (1.0, 1.0)


def test_theta_interval_hand_computed_point():
    # k = 0, mass = gamma = 1 and m = 1/(1 - sqrt(1/2)) give q = 1 - sqrt(1/2),
    # hence 1 - theta = 1/2 exactly.
    m = 1.0 / (1.0 - math.sqrt(0.5))
    budget, interval = theta_interval(m, 0, 1.0, 1.0)
    assert budget.theta == pytest.approx(0.5, abs=1e-12)
    assert interval[0] == pytest.approx(0.5, abs=1e-12)
    assert interval[1] == pytest.approx(2.0, abs=1e-12)


def test_theta_interval_infeasible_budget():
    with pytest.raises(BudgetError):
        theta_interval(2, 1, 1.5, 1.0)


def test_theta_interval_validation():
    with pytest.raises(ValueError):
        theta_interval(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        theta_interval(4, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        theta_interval(4, 1, 1.0, 0.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        budget_for_theta(0.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(0.5, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        budget_for_theta(0.5, 1, 1.0, -2.0)


@given(st.floats(0.01, 0.99), st.integers(0, 20),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
       st.sampled_from([MODE_FD, MODE_RFD]))
@settings(max_examples=60)
def test_budget_and_interval_are_inverses(theta, k, mass, gamma, mode):
    m = budget_for_theta(theta, k, mass, gamma, mode)
    budget, _ = theta_interval(m, k, mass, gamma, mode)
    assert budget.theta == pytest.approx(theta, rel=1e-10, abs=1e-12)
    assert budget.m == m
    assert budget.k == k


def test_rfd_interval_is_tighter():
    m, k, mass, gamma = 12.0, 3, 2.0, 0.9
    fd_budget, fd_iv = theta_interval(m, k, mass, gamma, MODE_FD)
    rfd_budget, rfd_iv = theta_interval(m, k, mass, gamma, MODE_RFD)
    assert rfd_budget.theta < fd_budget.theta
    assert rfd_iv[0] > fd_iv[0]
    assert rfd_iv[1] < fd_iv[1]
    # halving q maps 1 - theta to ((1 + sqrt(1 - theta)) / 2)^2
    implied = ((1.0 + math.sqrt(1.0 - fd_budget.theta)) / 2.0) ** 2
    assert 1.0 - rfd_budget.theta == pytest.approx(implied, rel=1e-12)


def test_interval_contains_measured_ratios():
    # End to end on a synthetic instance: pick the cheapest (k, m) pair
    # delivering theta = 0.5 with m <= d, then check the measured
    # bias/variance/MSE ratios land inside the promised intervals.
    A, _, truth = synthetic_regression(
        SyntheticSpec(n=256, d=128, r=0.15, noise_sd=2.0, seed=0))
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
        _, interval = theta_interval(m, k, mass, gamma, mode)
        report = sketched_diagnostics(A, sketch_matrix(A, m, mode),
                                      model, gamma)
        for pair in ((report.bias_sq, base.bias_sq),
                     (report.var_trace, base.var_trace),
                     (report.mse, base.mse)):
            ratio = pair[0] / pair[1]
            assert interval[0] - 1e-12 <= ratio <= interval[1] + 1e-12
        # the variance can only go down relative to the exact estimator
        assert report.var_trace >= base.var_trace * (1 - 1e-12)
