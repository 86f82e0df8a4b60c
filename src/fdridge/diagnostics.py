"""Bias/variance diagnostics for ridge estimators under a linear model.

Under y = A x0 + eps with eps ~ N(0, sigma^2 I), every estimator treated
here is an affine function of y, so its bias and covariance have closed
forms.  These routines evaluate them exactly (up to floating point) given
the data matrix, rather than by Monte Carlo.  Each takes one regularizer
or a sequence of them; a sequence gives one report per entry, all from a
single factorization of the estimator's curvature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .sketch import MODE_RFD, SketchOutput
from .solvers import InverseOperator


class BudgetError(ValueError):
    """Sketch size vs. regularizer combination outside the theory's range."""


@dataclass(frozen=True, eq=False)
class LinearModelSpec:
    """Ground truth for diagnostics: true weights and noise level."""

    truth: np.ndarray
    noise_sd: float

    def __post_init__(self):
        truth = np.asarray(self.truth, dtype=float)
        if truth.ndim != 1:
            raise ValueError(f"truth must be a vector, got shape {truth.shape}")
        if not self.noise_sd > 0:
            raise ValueError(f"noise level must be positive, got {self.noise_sd}")
        object.__setattr__(self, "truth", truth)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Squared bias norm, variance trace, and their sum.

    The rel_* fields hold relative errors against a baseline report (the
    exact estimator's diagnostics); they are None until attached via
    :func:`with_relatives` and NaN where the baseline value is zero.
    """

    bias_sq: float
    var_trace: float
    mse: float
    rel_bias: Optional[float] = None
    rel_var: Optional[float] = None
    rel_mse: Optional[float] = None


def _finish(bias_sq: float, var_trace: float) -> DiagnosticsReport:
    return DiagnosticsReport(bias_sq=float(bias_sq),
                             var_trace=float(var_trace),
                             mse=float(bias_sq + var_trace))


def _relative(value: float, base: float) -> float:
    if base == 0.0:
        return float("nan")
    return abs(value - base) / base


def with_relatives(report: DiagnosticsReport,
                   baseline: DiagnosticsReport) -> DiagnosticsReport:
    """Attach relative errors of ``report`` against ``baseline``."""
    return replace(report,
                   rel_bias=_relative(report.bias_sq, baseline.bias_sq),
                   rel_var=_relative(report.var_trace, baseline.var_trace),
                   rel_mse=_relative(report.mse, baseline.mse))


def _grid(A: np.ndarray, noise_map: np.ndarray, curvature: np.ndarray,
          op: InverseOperator, model: LinearModelSpec, gamma, shift=0.0):
    """Reports for x = (X^T X + (g + shift) I)^{-1} N^T y at each gamma.

    ``op`` (at any regularizer) holds the eigenpairs (lam_i, v_i) of X^T X
    for X = ``curvature``; the estimator sees y through N = ``noise_map``.
    With g the total regularizer and H = X^T X + g I the moments are

        bias = H^{-1} (N^T A - X^T X - g I) x0,
        var  = sigma^2 |N H^{-1}|_F^2 = sigma^2 (sum_i |N v_i|^2 / (lam_i + g)^2
               + |N (I - V V^T)|_F^2 / g^2),

    so one O(n d r) pass serves the grid and each gamma costs an O(d r)
    apply.  A scalar ``gamma`` gives one report, a sequence a list.
    """
    grid = np.asarray(gamma, dtype=float)
    if grid.ndim > 1 or not np.all(grid > 0):
        raise ValueError(f"regularizer must be positive, got {gamma}")
    truth = model.truth
    resid = noise_map.T @ (A @ truth) - curvature.T @ (curvature @ truth)
    inside = noise_map @ op.basis
    weights = np.einsum("ij,ij->j", inside, inside)
    beyond = inside @ op.basis.T
    beyond -= noise_map
    outside = float(np.vdot(beyond, beyond))
    reports = []
    for g in np.atleast_1d(grid):
        total = g + shift
        bias = op.retarget(total).apply(resid - total * truth)
        var = weights @ (1.0 / (op.spectrum + total) ** 2) + outside / total ** 2
        reports.append(_finish(bias @ bias, model.noise_sd ** 2 * var))
    return reports if grid.ndim else reports[0]


def optimal_diagnostics(A: np.ndarray, model: LinearModelSpec,
                        gamma) -> DiagnosticsReport | list:
    """Diagnostics of the exact ridge estimator.

    bias = -gamma (A^T A + gamma I)^{-1} x0 and the variance trace is
    sigma^2 |A (A^T A + gamma I)^{-1}|_F^2.
    """
    A = np.asarray(A, dtype=float)
    return _grid(A, A, A, InverseOperator(A, 1.0), model, gamma)


def sketched_diagnostics(A: np.ndarray, output: SketchOutput,
                         model: LinearModelSpec, gamma) -> DiagnosticsReport | list:
    """Diagnostics of the sketched one-shot estimator built from ``output``.

    H_hat = B^T B + (gamma + shift) I replaces the exact Gram matrix; the
    noise still enters through A, so the variance trace is
    sigma^2 |A H_hat^{-1}|_F^2.
    """
    A = np.asarray(A, dtype=float)
    op = InverseOperator.from_sketch(output, 1.0)
    return _grid(A, A, output.matrix, op, model, gamma, shift=output.shift)


def classical_sketch_diagnostics(A: np.ndarray, S, model: LinearModelSpec,
                                 gamma) -> DiagnosticsReport | list:
    """Diagnostics of the fully sketched estimator for a realized S.

    Both moments involve S itself, not just S A: the estimator sees the
    noise only through S, so the variance trace is
    sigma^2 |S^T S A (A^T S^T S A + gamma I)^{-1}|_F^2.
    """
    A = np.asarray(A, dtype=float)
    SA = np.asarray(S @ A, dtype=float)
    noise_map = np.asarray(S.T @ SA)
    return _grid(A, noise_map, SA, InverseOperator(SA, 1.0), model, gamma)


def hessian_sketch_diagnostics(A: np.ndarray, SA: np.ndarray,
                               model: LinearModelSpec, gamma
                               ) -> DiagnosticsReport | list:
    """Diagnostics of the partially sketched estimator (full right-hand side).

    Only the curvature is sketched, so the noise enters through A and the
    formulas match the one-shot sketched case with H_hat built from S A.
    """
    A = np.asarray(A, dtype=float)
    SA = np.asarray(SA, dtype=float)
    return _grid(A, A, SA, InverseOperator(SA, 1.0), model, gamma)


@dataclass(frozen=True)
class ThetaBudget:
    """A (theta, m, k) triple linked by the accuracy/budget trade-off."""

    theta: float
    m: float
    k: int


def theta_interval(m: float, k: int, mass: float, gamma: float,
                   mode: str = "fd") -> tuple[ThetaBudget, tuple[float, float]]:
    """Accuracy interval implied by a sketch budget.

    For sketch size m, tail mass at rank k, and regularizer gamma, the
    one-shot estimator's squared bias, variance trace, and MSE each lie
    within a factor interval [1 - theta, 1 / (1 - theta)] of the exact
    estimator's, where 1 - theta = (1 - q)^2 with q = mass / ((m - k) gamma),
    halved in "rfd" mode.  (The variance comparison is one-sided in the
    estimator's favor, so its lower bound is actually 1.)
    """
    if not gamma > 0:
        raise ValueError(f"regularizer must be positive, got {gamma}")
    if not (0 <= k < m):
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    if mass < 0:
        raise ValueError(f"tail mass cannot be negative, got {mass}")
    alpha = 1.0 / (m - k)
    if alpha * mass >= gamma:
        raise BudgetError(
            f"sketch budget infeasible: tail mass per remaining direction "
            f"{alpha * mass:.6g} must stay below the regularizer {gamma:.6g}")
    q = alpha * mass / gamma
    if mode == MODE_RFD:
        q /= 2.0
    one_minus_theta = (1.0 - q) ** 2
    theta = 1.0 - one_minus_theta
    return (ThetaBudget(theta=theta, m=float(m), k=int(k)),
            (one_minus_theta, 1.0 / one_minus_theta))


def budget_for_theta(theta: float, k: int, mass: float, gamma: float,
                     mode: str = "fd") -> float:
    """Smallest (real-valued) sketch size delivering a theta interval.

    Inverts the map in :func:`theta_interval`:
    m = mass / ((1 - sqrt(1 - theta)) gamma) + k, with the denominator
    doubled in "rfd" mode.  Callers round up to an integer sketch size;
    feeding the exact real value back recovers theta.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not gamma > 0:
        raise ValueError(f"regularizer must be positive, got {gamma}")
    if mass <= 0:
        raise ValueError(f"tail mass must be positive, got {mass}")
    denom = (1.0 - math.sqrt(1.0 - theta)) * gamma
    if mode == MODE_RFD:
        denom *= 2.0
    return mass / denom + k
