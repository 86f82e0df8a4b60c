"""Ridge regression solvers: exact, one-shot sketched, and iterative.

The sketch-and-solve estimators never form the n x d data more than once.
The one refinement loop, :func:`refine`, touches the data only through
:meth:`RidgeProblem.gradient` and asks a step rule for every next
iterate: :func:`ifdrr_solve`'s rule applies one fixed Frequent Directions
sketch, while randomized schemes apply one draw or a fresh draw per
iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sketch import (MODE_FD, SketchOutput, _count, _gram_eigh, _matrix,
                     _positive, _real, _resolved_rows, _right_vectors, _vector,
                     sketch_matrix)

# An iterate whose norm exceeds this multiple of |A^T y| / gamma has left
# the region where any ridge solution can live; treat it as divergence.
DIVERGENCE_FACTOR = 1e8


class DivergenceError(RuntimeError):
    """Raised when an iterative solve blows past the divergence guard.

    It carries ``iteration``, the 1-based iteration that tripped the
    guard, and ``trace``, the partial :class:`IterativeTrace`; both ride
    along through ``pickle`` with the message.
    """


def _diverged(iteration: int, trace: IterativeTrace) -> DivergenceError:
    """The :class:`DivergenceError` for a guard tripped at ``iteration``.

    Built here, not in :func:`refine`: as a local of the frame that its
    traceback holds, the error would form a cycle that keeps the frames,
    and the step rule in them, alive until a garbage collection.
    """
    err = DivergenceError("iterate norm exceeded the divergence guard at "
                          f"iteration {iteration}")
    err.iteration, err.trace = iteration, trace
    return err


@dataclass(frozen=True, eq=False)
class RidgeProblem:
    """A ridge instance: n x d data, n targets, and a positive regularizer.

    A must be a finite 2-d array and y a finite vector of one target per
    row (:func:`sketch._matrix`, :func:`sketch._vector`), and the
    regularizer positive and finite; otherwise ValueError names the
    argument and, for a NaN or infinite entry, its first row of A or
    index of y.

    Construction checks A and y once and forms ``rhs`` = A^T y, the
    right-hand side every solver of the instance reads, so neither is
    read again for it, nor for the same instance at another regularizer
    (``_retarget``).  A and y are held, not copied: change neither in
    place once the problem is built.
    """

    A: np.ndarray
    y: np.ndarray
    gamma: float
    rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = _matrix("A", self.A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", _vector("y", self.y, A.shape[0]))
        object.__setattr__(self, "gamma", _positive("regularizer", self.gamma))
        object.__setattr__(self, "rhs", A.T @ self.y)

    def _retarget(self, gamma: float) -> "RidgeProblem":
        """The same instance under another regularizer, checked by the
        regularizer rule; it holds the same A, y and ``rhs``, so neither
        data array is read for it."""
        problem = object.__new__(RidgeProblem)
        problem.__dict__.update(vars(self), gamma=_positive("regularizer", gamma))
        return problem

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The ridge gradient A^T (A x - y) + gamma x at ``x``, as two
        streaming matrix-vector products; the d x d Gram matrix is never
        formed."""
        return self.A.T @ (self.A @ x - self.y) + self.gamma * x


class InverseOperator:
    """Fast application of (X^T X + (gamma + shift) I)^{-1} for any factor
    X, at any regularizer gamma.

    The operator holds no regularizer, only the triple (``spectrum``,
    ``basis``, ``shift``): the eigenvalues of X^T X above the roundoff
    floor, largest first, their orthonormal eigenvectors, and the shift
    that every regularizer is raised by, 0 for a factor and the sketch's
    own for :meth:`from_sketch`.  A factor's pair comes from the same
    eigendecomposition of the smaller Gram matrix that the sketch shrinks
    with (X X^T, in Woodbury form, for a short-and-fat factor).  As in a
    shrink, the rows of X too light for that decomposition to resolve are
    left out of it first.  ``apply(v, gamma)`` is, with g = gamma + shift,

        v / g + V diag(1 / (spectrum + g) - 1 / g) V^T v,

    O(r d) per vector for r kept directions, so one factorization serves
    every regularizer.  The total regularizer g must be positive and
    finite, or ``apply`` raises ValueError.  Instances are immutable and
    thread-safe.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = _resolved_rows(_matrix("matrix", matrix))
        self.spectrum, vecs = _gram_eigh(matrix)
        self.basis, self.shift = _right_vectors(matrix, vecs), 0.0

    @classmethod
    def from_sketch(cls, output: SketchOutput) -> "InverseOperator":
        """Operator for a finalized sketch, shifted by its shift.  The
        sketch rows are orthogonal, so they give the eigenpairs directly."""
        norms = np.linalg.norm(output.matrix, axis=1)
        kept = norms > 0.0
        op = cls.__new__(cls)
        op.spectrum, op.shift = norms[kept] ** 2, output.shift
        op.basis = (output.matrix[kept] / norms[kept, None]).T
        return op

    def apply(self, v: np.ndarray, gamma: float) -> np.ndarray:
        """Apply at regularizer ``gamma`` to a vector of length d or to
        each column of a matrix of d rows; anything else raises ValueError
        naming its shape.  A total regularizer that is not positive and
        finite raises ValueError naming it, and a ``gamma`` that is not a
        number (None, a string) one naming ``gamma`` as given."""
        v = np.asarray(v, dtype=float)
        d = self.basis.shape[0]
        if v.ndim not in (1, 2) or v.shape[0] != d:
            raise ValueError(f"operator acts on a vector or matrix of "
                             f"dimension {d}, got shape {v.shape}")
        total = _real(gamma) + self.shift  # NaN unless gamma is a real number
        g = _positive("total regularizer", gamma if np.isnan(total) else total)
        coeff = 1.0 / (self.spectrum + g) - 1.0 / g
        coeff = coeff.reshape((-1,) + (1,) * (v.ndim - 1))  # per row of V^T v
        return v / g + self.basis @ (coeff * (self.basis.T @ v))


@dataclass
class IterativeTrace:
    """History of an iterative solve, indexed by iterate, the zero start
    being iterate 0.

    ``residual_norms[i]`` is the distance of the i-th iterate to a
    supplied reference solution (``None`` when no reference was given).
    ``gradient_norms[i]`` is the norm of the ridge gradient at the i-th
    iterate, for every iterate a step was taken from.  It needs no
    reference: the Hessian A^T A + gamma I is at least gamma I, so the
    i-th iterate lies within ``gradient_norms[i] / gamma`` of the
    solution.
    """

    residual_norms: Optional[list] = None
    gradient_norms: list = field(default_factory=list)


def solve_exact(problem: RidgeProblem) -> np.ndarray:
    """Dense oracle: factor the d x d regularized Gram matrix directly.
    gamma is added to the diagonal in place, so the call forms one d x d
    matrix."""
    H = problem.A.T @ problem.A
    H.flat[::H.shape[0] + 1] += problem.gamma
    return np.linalg.solve(H, problem.rhs)


def fdrr_solve(problem: RidgeProblem, m: int, mode: str = MODE_FD) -> np.ndarray:
    """Sketched ridge estimate (B^T B + (gamma + shift) I)^{-1} A^T y.

    One streaming pass builds the sketch; the solve itself costs O(m d)
    on the sketch's orthogonal rows.
    """
    op = InverseOperator.from_sketch(sketch_matrix(problem.A, m, mode))
    return op.apply(problem.rhs, problem.gamma)


def classical_sketch_solve(SA: np.ndarray, Sy: np.ndarray,
                           gamma: float) -> np.ndarray:
    """Sketch-and-solve with both sides compressed:
    (A^T S^T S A + gamma I)^{-1} A^T S^T S y."""
    SA = _matrix("SA", SA)
    Sy = _vector("Sy", Sy, SA.shape[0])
    return InverseOperator(SA).apply(SA.T @ Sy, gamma)


def hessian_sketch_solve(SA: np.ndarray, cross: np.ndarray,
                         gamma: float) -> np.ndarray:
    """Partial sketching: curvature from S A, full-data right-hand side
    (A^T S^T S A + gamma I)^{-1} A^T y."""
    SA = _matrix("SA", SA)
    cross = _vector("cross", cross, SA.shape[1])
    return InverseOperator(SA).apply(cross, gamma)


def refine(problem: RidgeProblem,
           step: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
           t: int,
           x_star: Optional[np.ndarray] = None
           ) -> tuple[np.ndarray, IterativeTrace]:
    """t steps from zero: the next iterate is ``step(i, x, grad)``.

    ``step`` receives the iteration i, the iterate x and the problem's
    gradient at x (:meth:`RidgeProblem.gradient`).  Preconditioned
    Richardson iteration, x - M_i grad, applies an inverse operator M_i
    at the problem's regularizer: the same one every time for a fixed
    sketch, a new ``InverseOperator(S_i A)`` for iterative Hessian
    sketching.  The trace logs every gradient's norm, and the guard reads
    the problem's ``rhs`` rather than forming A^T y again.
    Raises :class:`DivergenceError` when the iterate norm passes the
    guard; the partial trace rides along on the exception.  A reference
    ``x_star``, when given, must be a finite vector of length d
    (:func:`sketch._vector`), or ValueError names it.
    """
    t = _count("t", t)
    d = problem.A.shape[1]
    x = np.zeros(d)
    trace = IterativeTrace()
    if x_star is not None:
        x_star = _vector("x_star", x_star, d)
        trace.residual_norms = [float(np.linalg.norm(x - x_star))]
    guard = DIVERGENCE_FACTOR * np.linalg.norm(problem.rhs) / problem.gamma
    for i in range(t):
        grad = problem.gradient(x)
        trace.gradient_norms.append(float(np.linalg.norm(grad)))
        x = step(i, x, grad)
        if not np.isfinite(x).all() or np.linalg.norm(x) > guard:
            raise _diverged(i + 1, trace)
        if x_star is not None:
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
    op = InverseOperator.from_sketch(sketch_matrix(problem.A, m, mode))
    return refine(problem, lambda _i, x, grad: x - op.apply(grad, problem.gamma),
                  t, x_star)
