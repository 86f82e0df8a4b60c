"""Bias/variance diagnostics for ridge estimators under a linear model.

Under y = A x0 + eps with eps ~ N(0, sigma^2 I), every estimator treated
here is an affine function of y, so its bias and covariance have closed
forms.  These routines evaluate them exactly (up to floating point) given
the model (:class:`LinearModelSpec`, which holds the data matrix), rather
than by Monte Carlo.  Each takes one regularizer or a sequence of them;
a sequence gives one report per entry, all from a single factorization
of the estimator's curvature.

:func:`theta_interval` states the sketched estimator's guarantee: any
bound on the sketch's covariance error below gamma confines its moments
to a constant-factor interval around the exact estimator's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sketch import (MODE_RFD, MODES, SketchOutput, _count, _light_rows,
                     _matrix, _one_of, _positive, _real, _row_masses,
                     _vector)
from .solvers import InverseOperator

# Bytes of A that one block of the diagnostics pass over N = A holds: a
# block is max(DIAGNOSTICS_BLOCK_BYTES // (8 d), 1) rows, 256 at d = 512,
# so the pass holds a few such blocks instead of n x d temporaries.
DIAGNOSTICS_BLOCK_BYTES = 2 ** 20


class BudgetError(ValueError):
    """Sketch size vs. regularizer combination outside the theory's range."""


@dataclass(frozen=True, eq=False)
class LinearModelSpec:
    """The linear model y = A x0 + eps, eps ~ N(0, noise_sd^2 I): the
    design matrix ``A``, the true weights x0 = ``truth`` and the noise
    level, which every diagnostics call reads.

    Raises ValueError unless ``truth`` is a finite vector
    (:func:`sketch._vector`, which names its first NaN or infinite entry)
    and ``noise_sd`` is positive and finite.  ``A`` is taken as given:
    the first diagnostics call on the model derives what every estimator
    reads from it (:attr:`_derived`), and later calls reuse that, so
    building a model costs no pass over A and a grid of calls checks A
    once.  A must therefore not change in place after that call.
    """

    A: np.ndarray
    truth: np.ndarray
    noise_sd: float

    def __post_init__(self):
        object.__setattr__(self, "truth", _vector("truth", self.truth))
        object.__setattr__(self, "noise_sd", _positive("noise level", self.noise_sd))

    @cached_property
    def _derived(self) -> tuple:
        """(A, keep, A^T (A x0)), formed on first use and kept: A checked
        (:func:`sketch._matrix`: 2-d, finite) against the truth's length,
        the mask of the rows :func:`_data_terms` passes over, and the first
        half of every residual.  The row masses come before the product:
        they refuse rows too large to square (:func:`sketch._row_masses`)
        before it multiplies by them.  Raises ValueError naming the rule
        that A breaks, and derives again on the next call after one.

        The mask leaves out the lightest rows whose combined squared norm
        is at most eps^2 |A|_F^2 (:func:`sketch._light_rows`): a row moves
        each data term by at most its squared norm, and each term already
        rounds at about eps^2 |A|_F^2.
        """
        A = _matrix("A", self.A)
        if self.truth.shape[0] != A.shape[1]:
            raise ValueError(f"model truth has length {self.truth.shape[0]}, "
                             f"but A has {A.shape[1]} columns")
        mass = _row_masses(A)
        return (A, _light_rows(mass, np.finfo(float).eps ** 2 * mass.sum()),
                A.T @ (A @ self.truth))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Squared bias norm and variance trace of one estimator at one gamma."""

    bias_sq: float
    var_trace: float

    @property
    def mse(self) -> float:
        return self.bias_sq + self.var_trace


def _grid(model: LinearModelSpec, curvature: np.ndarray, op: InverseOperator,
          gamma, gram=None):
    """Reports for x = (X^T X + (gamma + shift) I)^{-1} N^T y at each gamma.

    ``op`` holds the eigenpairs (lam_i, v_i) of X^T X for X = ``curvature``
    and the shift; the estimator sees y through the noise map N, which is
    the model's A, or S^T X for the classical estimator, whose X is S A and
    whose S enters only through ``gram`` = K = S S^T.  With g the total
    regularizer gamma + shift and H = X^T X + g I the moments are

        bias = H^{-1} (N^T A - X^T X - g I) x0,
        var  = sigma^2 |N H^{-1}|_F^2 = sigma^2 (sum_i |N v_i|^2 / (lam_i + g)^2
               + |N (I - V V^T)|_F^2 / g^2),

    so one pass for the weights |N v_i|^2 and the outside mass serves the
    grid, and each gamma costs an O(d r) apply.  For N = A the pass is
    :func:`_data_terms`, for N = S^T X :func:`_sketch_terms`; N itself is
    never formed.  For N = A the residual A^T (A x0) - X^T (X x0) is
    formed whatever X is, its first half once per model
    (:attr:`LinearModelSpec._derived`); for the exact estimator (X = A)
    both products run the same arithmetic on the same values, so it is
    exactly zero.  For the classical estimator N^T A = A^T S^T S A =
    X^T X, so the residual is the scalar 0 and the bias is -g H^{-1} x0.
    A scalar ``gamma`` gives one report, a sequence a list; each entry
    is checked as given, before any conversion (:func:`sketch._positive`,
    so None or a string is refused by name).  Raises ValueError naming
    the argument when X's column count is not A's column count or
    ``gamma`` has more than one dimension.
    """
    A, keep, gram_truth = model._derived
    if curvature.shape[1] != A.shape[1]:
        raise ValueError(f"sketch has {curvature.shape[1]} columns, "
                         f"but A has {A.shape[1]}")
    grid = np.asarray(gamma, dtype=object)  # the entries as given
    if grid.ndim > 1:
        raise ValueError(f"regularizer must be a scalar or a sequence, got {gamma}")
    gammas = [_positive("regularizer", g) for g in np.atleast_1d(grid)]
    weights, outside = (_data_terms(A, keep, op.basis) if gram is None
                        else _sketch_terms(curvature, op.basis, gram))
    resid = (gram_truth - curvature.T @ (curvature @ model.truth)
             if gram is None else 0.0)
    reports = []
    for g in gammas:
        total = g + op.shift
        bias = op.apply(resid - total * model.truth, g)
        var = weights @ (1.0 / (op.spectrum + total) ** 2) + outside / total ** 2
        reports.append(DiagnosticsReport(float(bias @ bias),
                                         float(model.noise_sd ** 2 * var)))
    return reports if grid.ndim else reports[0]


def _data_terms(A: np.ndarray, keep: np.ndarray, basis: np.ndarray) -> tuple:
    """The weights |A v_i|^2 and the outside mass |A (I - V V^T)|_F^2 for
    the columns v_i of ``basis``, summed over row blocks of about
    :data:`DIAGNOSTICS_BLOCK_BYTES` of the checked A.

    Only the rows in ``keep``, the model's mask of the rows heavy enough
    to move a term (:attr:`LinearModelSpec._derived`), enter.  A block
    keeps a view of A when all its rows stay and gathers the rows that
    stay otherwise; a block that keeps none gathers zero rows and adds
    exact zeros.  So A is never copied whole.
    """
    n, d = A.shape
    weights = np.zeros(basis.shape[1])
    outside = 0.0
    step = max(DIAGNOSTICS_BLOCK_BYTES // (8 * d), 1)
    for lo in range(0, n, step):
        block = A[lo:lo + step]
        kept = keep[lo:lo + step]
        if not kept.all():
            block = block[kept]
        inside = block @ basis
        weights += np.einsum("ij,ij->j", inside, inside)
        beyond = inside @ basis.T
        beyond -= block
        outside += float(np.vdot(beyond, beyond))
    return weights, outside


def _sketch_terms(X: np.ndarray, basis: np.ndarray, K: np.ndarray) -> tuple:
    """The weights |S^T X v_i|^2 and the outside mass
    |S^T X (I - V V^T)|_F^2 for X = S A, from the dense m x m matrix
    K = S S^T alone: the weights are (X v_i)^T K (X v_i) and the outside
    mass is <X P, K X P> with X P = X - (X V) V^T formed explicitly, not
    taken as a difference of totals, which loses digits when the outside
    is small.
    """
    inside = X @ basis
    weights = np.einsum("ij,ij->j", inside, K @ inside)
    beyond = X - inside @ basis.T
    return weights, float(np.vdot(beyond, K @ beyond))


def optimal_diagnostics(model: LinearModelSpec,
                        gamma) -> DiagnosticsReport | list:
    """Diagnostics of the exact ridge estimator on the model's A.

    bias = -gamma (A^T A + gamma I)^{-1} x0 and the variance trace is
    sigma^2 |A (A^T A + gamma I)^{-1}|_F^2.
    """
    return _grid(model, model._derived[0], InverseOperator(model._derived[0]), gamma)


def sketched_diagnostics(model: LinearModelSpec, output: SketchOutput,
                         gamma) -> DiagnosticsReport | list:
    """Diagnostics of the sketched one-shot estimator built from ``output``,
    a sketch of the model's A.

    H_hat = B^T B + (gamma + shift) I replaces the exact Gram matrix; the
    noise still enters through A, so the variance trace is
    sigma^2 |A H_hat^{-1}|_F^2.
    """
    return _grid(model, output.matrix, InverseOperator.from_sketch(output), gamma)


def classical_sketch_diagnostics(model: LinearModelSpec, S,
                                 gamma) -> DiagnosticsReport | list:
    """Diagnostics of the fully sketched estimator for a realized S applied
    to the model's A.

    The bias is the exact estimator's on the sketched data S A, since the
    estimator's residual A^T S^T S A - (S A)^T S A is zero.  The variance
    involves S itself, not just S A: the estimator sees the noise only
    through S, so the variance trace is
    sigma^2 |S^T S A (A^T S^T S A + gamma I)^{-1}|_F^2, whose terms come
    from the m x m matrix K = S S^T.  S (dense or sparse) is used only to
    form S A and K, so beyond A and S the call holds those two, with a few
    m x d products, and no block of the n-row noise map.  Raises
    ValueError, before S A is formed, when S breaks the data rule
    (:func:`sketch._matrix`: 2-d, finite) or its column count is not A's
    row count; a sparse S is checked on its stored entries, never
    densified.
    """
    A = model._derived[0]
    if not hasattr(S, "toarray"):
        S = _matrix("S", S)
    elif S.ndim != 2:
        raise ValueError(f"S must be a 2-d array, got shape {S.shape}")
    else:
        # row i of S @ 0 is NaN exactly when row i of S stores a NaN or
        # an infinity, since 0 times either is NaN
        _matrix("S", S @ np.zeros((S.shape[1], 1)))
    if S.shape[1] != A.shape[0]:
        raise ValueError(f"S has {S.shape[1]} columns, but A has "
                         f"{A.shape[0]} rows")
    SA = np.asarray(S @ A, dtype=float)
    gram = S @ S.T
    K = gram.toarray() if hasattr(gram, "toarray") else gram
    return _grid(model, SA, InverseOperator(SA), gamma, gram=K)


def hessian_sketch_diagnostics(model: LinearModelSpec, SA: np.ndarray,
                               gamma) -> DiagnosticsReport | list:
    """Diagnostics of the partially sketched estimator (full right-hand side)
    for S A, a sketch of the model's A.

    Only the curvature is sketched, so the noise enters through A and the
    formulas match the one-shot sketched case with H_hat built from S A.
    """
    SA = _matrix("SA", SA)
    return _grid(model, SA, InverseOperator(SA), gamma)


def theta_interval(bound: float, gamma: float) -> tuple[float, float]:
    """Accuracy interval implied by a covariance-error bound.

    If the sketch's covariance error is at most ``bound`` in spectral norm
    and bound < gamma, the one-shot estimator's squared bias, variance
    trace, and MSE each lie within a factor interval [1 - theta,
    1 / (1 - theta)] of the exact estimator's, where 1 - theta =
    (1 - bound / gamma)^2.  (The variance comparison is one-sided in the
    estimator's favor, so its lower bound is actually 1.)

    A priori the bound is tail(k) / (m - k) for any k < m, halved for
    "rfd"; after the fact it is the finalized "rfd" sketch's shift (twice
    that for "fd").  Returns (1 - theta, 1 / (1 - theta)).  gamma must be
    positive and finite and the bound non-negative, or ValueError is
    raised; a bound at or above gamma raises :class:`BudgetError`.
    """
    gamma = _positive("regularizer", gamma)
    if not _real(bound) >= 0:
        raise ValueError(
            f"covariance-error bound must be non-negative, got {bound}")
    if bound >= gamma:
        raise BudgetError(
            f"covariance-error bound {bound:.6g} must stay below the "
            f"regularizer {gamma:.6g}")
    one_minus_theta = (1.0 - bound / gamma) ** 2
    return one_minus_theta, 1.0 / one_minus_theta


def budget_for_theta(theta: float, k: int, mass: float, gamma: float,
                     mode: str = "fd") -> float:
    """Smallest (real-valued) sketch size delivering a theta interval.

    Inverts the a-priori bound: :func:`theta_interval` with bound
    mass / (m - k), halved in "rfd" mode, gives theta exactly at
    m = mass / ((1 - sqrt(1 - theta)) gamma) + k, with the denominator
    doubled in "rfd" mode.  Callers round up to an integer sketch size.
    Raises ValueError unless theta lies in (0, 1), k is a non-negative
    integer, gamma and mass are positive and finite, and mode is one of
    "fd" and "rfd".
    """
    if not 0 < _real(theta) < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    k = _count("k", k, least=0)
    gamma = _positive("regularizer", gamma)
    mass = _positive("tail mass", mass)
    _one_of("mode", mode, MODES)
    denom = (1.0 - math.sqrt(1.0 - theta)) * gamma
    if mode == MODE_RFD:
        denom *= 2.0
    return mass / denom + k
