"""Ridge regression solvers: exact, one-shot sketched, and iterative.

The sketch-and-solve estimators never form the n x d data more than once.
The one refinement loop, :func:`refine`, touches the data only through
matrix-vector products and asks for a preconditioner every iteration:
:func:`ifdrr_solve` hands it one fixed Frequent Directions sketch, while
randomized schemes hand it one draw or a fresh draw per iteration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sketch import MODE_FD, SketchOutput, _gram_eigh, sketch_matrix

# An iterate whose norm exceeds this multiple of |A^T y| / gamma has left
# the region where any ridge solution can live; treat it as divergence.
DIVERGENCE_FACTOR = 1e8


class DivergenceError(RuntimeError):
    """Raised when an iterative solve blows past the divergence guard."""

    def __init__(self, iteration: int, trace: "IterativeTrace"):
        super().__init__(
            f"iterate norm exceeded the divergence guard at iteration {iteration}")
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True, eq=False)
class RidgeProblem:
    """A ridge instance: n x d data, n targets, and a positive regularizer."""

    A: np.ndarray
    y: np.ndarray
    gamma: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"data must be a 2-d array, got shape {A.shape}")
        if y.shape != (A.shape[0],):
            raise ValueError(
                f"targets must have shape ({A.shape[0]},), got {y.shape}")
        if not self.gamma > 0:
            raise ValueError(f"regularizer must be positive, got {self.gamma}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


class InverseOperator:
    """Fast application of (X^T X + g I)^{-1} for any factor X.

    The operator holds the gamma-free pair (``spectrum``, ``basis``): the
    eigenvalues of X^T X above the roundoff floor, largest first, and
    their orthonormal eigenvectors, from the same eigendecomposition of
    the smaller Gram matrix that the sketch shrinks with (X X^T, in
    Woodbury form, for a short-and-fat factor).  Each apply is

        v / g + V diag(1 / (spectrum + g) - 1 / g) V^T v,

    O(r d) per vector for r kept directions; ``retarget`` reuses the pair
    under another regularizer.  Instances are immutable and thread-safe.
    """

    def __init__(self, matrix: np.ndarray, gamma_total: float):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-d factor, got shape {matrix.shape}")
        self._set(_gram_eigh(matrix), gamma_total)

    @classmethod
    def from_sketch(cls, output: SketchOutput, gamma: float) -> "InverseOperator":
        """Operator for a finalized sketch; the shift adds to gamma.  The
        sketch rows are orthogonal, so they give the eigenpairs directly."""
        norms = np.linalg.norm(output.matrix, axis=1)
        kept = norms > 0.0
        basis = (output.matrix[kept] / norms[kept, None]).T
        return cls.__new__(cls)._set((norms[kept] ** 2, basis),
                                     gamma + output.shift)

    def _set(self, factors: tuple, gamma_total: float) -> "InverseOperator":
        if not gamma_total > 0:
            raise ValueError(
                f"total regularizer must be positive, got {gamma_total}")
        self.spectrum, self.basis = factors
        self.gamma_total = float(gamma_total)
        return self

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def retarget(self, gamma_total: float) -> "InverseOperator":
        """The same factorization under another total regularizer."""
        return InverseOperator.__new__(InverseOperator)._set(
            (self.spectrum, self.basis), gamma_total)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply to a vector or to each column of a matrix."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise ValueError(
                f"operator acts on dimension {self.dim}, got {v.shape[0]}")
        g = self.gamma_total
        coeff = 1.0 / (self.spectrum + g) - 1.0 / g
        proj = self.basis.T @ v
        if v.ndim == 1:
            return v / g + self.basis @ (coeff * proj)
        return v / g + self.basis @ (coeff[:, None] * proj)


@dataclass
class IterativeTrace:
    """History of an iterative solve.

    ``residual_norms[i]`` is the distance of the i-th iterate, starting
    from the zero vector, to a supplied reference solution (``None`` when
    no reference was given).
    """

    residual_norms: Optional[list] = None


def solve_exact(problem: RidgeProblem) -> np.ndarray:
    """Dense oracle: factor the d x d regularized Gram matrix directly."""
    A, y, gamma = problem.A, problem.y, problem.gamma
    d = A.shape[1]
    H = A.T @ A + gamma * np.eye(d)
    return np.linalg.solve(H, A.T @ y)


def fdrr_solve(problem: RidgeProblem, m: int, mode: str = MODE_FD) -> np.ndarray:
    """Sketched ridge estimate (B^T B + (gamma + shift) I)^{-1} A^T y.

    One streaming pass builds the sketch; the solve itself costs O(m d)
    on the sketch's orthogonal rows.
    """
    op = InverseOperator.from_sketch(sketch_matrix(problem.A, m, mode),
                                     problem.gamma)
    return op.apply(problem.A.T @ problem.y)


def classical_sketch_solve(SA: np.ndarray, Sy: np.ndarray,
                           gamma: float) -> np.ndarray:
    """Sketch-and-solve with both sides compressed:
    (A^T S^T S A + gamma I)^{-1} A^T S^T S y."""
    SA = np.asarray(SA, dtype=float)
    return InverseOperator(SA, gamma).apply(SA.T @ np.asarray(Sy, dtype=float))


def hessian_sketch_solve(SA: np.ndarray, cross: np.ndarray,
                         gamma: float) -> np.ndarray:
    """Partial sketching: curvature from S A, full-data right-hand side
    (A^T S^T S A + gamma I)^{-1} A^T y."""
    return InverseOperator(SA, gamma).apply(cross)


def refine(problem: RidgeProblem,
           preconditioner: Callable[[int], InverseOperator],
           t: int,
           x_star: Optional[np.ndarray] = None
           ) -> tuple[np.ndarray, IterativeTrace]:
    """Iterative refinement from zero: x <- x - preconditioner(i) gradient.

    ``preconditioner(i)`` returns the inverse operator for iteration i:
    the same one every time for a fixed sketch, a new
    ``InverseOperator(S_i A, gamma)`` for iterative Hessian sketching.  The
    ridge gradient A^T (A x - y) + gamma x is evaluated as two streaming
    matrix-vector products; the d x d Gram matrix is never formed.  Raises
    :class:`DivergenceError` when the iterate norm passes the guard; the
    partial trace rides along on the exception.
    """
    A, y, gamma = problem.A, problem.y, problem.gamma
    if t < 1:
        raise ValueError(f"iteration count must be at least 1, got {t}")
    d = A.shape[1]
    x = np.zeros(d)
    track = x_star is not None
    trace = IterativeTrace(residual_norms=[float(np.linalg.norm(x - x_star))]
                           if track else None)
    guard = DIVERGENCE_FACTOR * np.linalg.norm(A.T @ y) / gamma
    for i in range(t):
        grad = A.T @ (A @ x - y) + gamma * x
        x = x - preconditioner(i).apply(grad)
        if not np.isfinite(x).all() or np.linalg.norm(x) > guard:
            raise DivergenceError(iteration=i + 1, trace=trace)
        if track:
            trace.residual_norms.append(float(np.linalg.norm(x - x_star)))
    return x, trace


def ifdrr_solve(problem: RidgeProblem, m: int, t: int, mode: str = MODE_FD,
                x_star: Optional[np.ndarray] = None
                ) -> tuple[np.ndarray, IterativeTrace]:
    """Iterative refinement with a fixed Frequent Directions preconditioner.

    The sketch is built once and its inverse operator is reused every
    iteration, so the first iterate coincides with :func:`fdrr_solve` and
    later iterates sharpen it at O(nd) per step.
    """
    op = InverseOperator.from_sketch(sketch_matrix(problem.A, m, mode),
                                     problem.gamma)
    return refine(problem, lambda _i: op, t, x_star)
