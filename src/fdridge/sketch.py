"""Streaming Frequent Directions sketches.

A sketch consumes rows of an n x d matrix one at a time and maintains a
small buffer whose Gram matrix tracks the Gram matrix of everything seen
so far.  The classic Frequent Directions (FD) guarantee is

    0 <= A^T A - B^T B <= (|A - A_k|_F^2 / (m - k)) * I   for every k < m,

in the ordering of symmetric matrices.  The robust variant (RFD) keeps a
running scalar ``shift`` equal to half the total spectral mass removed by
shrink steps; reporting ``B^T B + shift * I`` halves the error constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODE_FD = "fd"
MODE_RFD = "rfd"
MODES = (MODE_FD, MODE_RFD)


def _resolution(size: int, top: float) -> float:
    """The roundoff floor of a symmetric eigendecomposition of order
    ``size`` whose largest eigenvalue is ``top``: ``eigh`` resolves
    eigenvalues only down to size * eps * top, so any at or below it are
    noise."""
    return size * np.finfo(float).eps * top


def _light_rows(mass: np.ndarray, floor, fixed: int = 0):
    """Keep-mask that leaves out the rows of least ``mass``, past the
    first ``fixed``, whose running total stays at or below ``floor``.
    The floor is a scalar or, for 1, 2, ... rows left out, a sequence
    that does not grow, so the counts that fit run from 1 up to a cut.
    The mask is all True when no row is left out.

    ``mass`` comes from :func:`_row_masses`, which rejects rows whose
    masses have no finite total, so every running total here is finite.
    """
    order = fixed + np.argsort(mass[fixed:], kind="stable")
    running = np.cumsum(mass[order])
    drop = np.count_nonzero(running <= floor)
    keep = np.ones(mass.size, dtype=bool)
    keep[order[:drop]] = False
    return keep


def _resolved_rows(rows: np.ndarray, fixed: int = 0) -> np.ndarray:
    """``rows`` less those of least squared norm, past the first ``fixed``,
    whose combined mass is at most the roundoff floor of the Gram
    eigendecomposition the other rows then take: :func:`_resolution` of
    its order, min(rows left, d), and of the largest row's squared norm,
    a lower bound on its top eigenvalue.  Rows that light move no
    eigenpair the decomposition resolves by more than its rounding.

    The rows left keep their order, and ``rows`` itself comes back when
    none is left out.  ``rows`` must be finite (:func:`_matrix`); rows too
    large to square raise ValueError (:func:`_row_masses`).
    """
    mass = _row_masses(rows)
    top = mass.max(initial=0.0)
    # leaving out the j lightest rows leaves a Gram order of
    # min(len - j, d), so the floor falls as j grows
    left = np.arange(rows.shape[0] - 1, fixed - 1, -1)
    floor = _resolution(np.minimum(left, rows.shape[1]), top)
    keep = _light_rows(mass, floor, fixed)
    return rows if keep.all() else rows[keep]


def _gram_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the smaller Gram matrix of X, largest first: the
    squared singular values of X and, as columns, the eigenvectors of
    X X^T for a short-and-fat factor or of X^T X for a tall one.
    :func:`_right_vectors` turns any subset of them into right singular
    vectors of X.

    Eigenvalues at or below :func:`_resolution` of the Gram matrix, i.e.
    about sqrt(eps) of the largest singular value, are roundoff and
    dropped, so a rank-deficient X yields exactly its rank.  X comes
    through :func:`_row_masses`, whose finite total bounds every entry of
    the Gram matrix, so the Gram matrix is finite.
    """
    short = matrix.shape[0] < matrix.shape[1]
    gram = matrix @ matrix.T if short else matrix.T @ matrix
    spectrum, vecs = np.linalg.eigh(gram)
    del gram  # release it before the kept vectors are copied
    floor = _resolution(spectrum.size, spectrum.max(initial=0.0))
    # the kept pairs are copied largest first into a contiguous array: a
    # negative-stride view handed to a matmul may bypass BLAS
    kept = np.flatnonzero(spectrum > floor)[::-1]
    return spectrum[kept], vecs[:, kept]


def _first_nonfinite_row(rows: np.ndarray):
    """Index of the first row of a 2-d array holding a NaN or infinite
    entry, or None.  A finite sum of every entry settles it with no mask;
    only a sum that is not finite, on the way to an error, builds the
    mask that finds the row, and a finite array whose sum overflows
    passes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(rows.sum()):
            return None
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return int(bad[0]) if bad.size else None


def _row_masses(rows: np.ndarray) -> np.ndarray:
    """The squared norms of the rows of a finite 2-d array
    (:func:`_matrix`).  Raises ValueError when their total is not
    finite: the rows are then too large to square in float64."""
    mass = np.einsum("ij,ij->i", rows, rows)
    if not np.isfinite(mass.sum()):
        raise ValueError("a sum of squares is not finite: the rows are too "
                         "large to square in float64")
    return mass


def _real(value):
    """``value`` when it is a number, NaN otherwise, so that a range rule
    refuses None, a string or a bool by its own message rather than by a
    bare TypeError from the comparison or by reading True as 1."""
    if isinstance(value, (bool, np.bool_)):
        return np.nan
    try:
        value < 0
    except TypeError:
        return np.nan
    return value


def _positive(name: str, value) -> float:
    """``value`` as a float; raises ValueError naming ``name`` unless it
    is positive and finite, the rule for every scale parameter."""
    if not 0 < _real(value) < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _nonnegative(name: str, value) -> float:
    """``value`` as a float; raises ValueError naming ``name`` unless it
    is at least 0 and finite, the rule for a noise level that may
    vanish."""
    if not 0 <= _real(value) < np.inf:
        raise ValueError(
            f"{name} must be non-negative and finite, got {value}")
    return float(value)


def _one_of(name: str, value, allowed: tuple):
    """``value`` unchanged; raises ValueError naming ``name`` and the
    ``allowed`` set unless it is one of them, the rule for every mode
    and kind."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; raises ValueError naming ``name`` unless it
    is a Python or numpy integer, not a bool, of at least ``least`` (0
    or 1), the rule for every size and count.  A float is rejected even
    when integral, such as 2.0."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        kind = "non-negative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _matrix(name: str, value, cols: int | None = None) -> np.ndarray:
    """``value`` as a float array; raises ValueError naming ``name``
    unless it is 2-d, of ``cols`` columns when that is given, and
    finite, the rule for every data array.  A NaN or infinite entry is
    reported by its first row."""
    array = np.asarray(value, dtype=float)
    if array.ndim != 2 or cols not in (None, array.shape[1]):
        want = "" if cols is None else f" with {cols} columns"
        raise ValueError(
            f"{name} must be a 2-d array{want}, got shape {array.shape}")
    bad = _first_nonfinite_row(array)
    if bad is not None:
        raise ValueError(f"{name} row {bad} has a non-finite entry")
    return array


def _vector(name: str, value, size: int | None = None) -> np.ndarray:
    """``value`` as a float array; raises ValueError naming ``name``
    unless it is 1-d, of length ``size`` when one is given, and finite,
    the rule for every data vector.  A NaN or infinite entry is reported
    by its index."""
    array = np.asarray(value, dtype=float)
    if array.ndim != 1 or (size is not None and array.size != size):
        length = "" if size is None else f" of length {size}"
        raise ValueError(
            f"{name} must be a vector{length}, got shape {array.shape}")
    bad = _first_nonfinite_row(array[:, None])
    if bad is not None:
        raise ValueError(f"{name} entry {bad} is not finite")
    return array


def _right_vectors(matrix: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Right singular vectors of X, as the columns of a d x r basis, for
    eigenvectors from :func:`_gram_eigh`: X^T U with its columns
    normalized for a short-and-fat factor, the eigenvectors themselves
    for a tall one."""
    if matrix.shape[0] < matrix.shape[1]:
        vecs = matrix.T @ vecs
        vecs /= np.linalg.norm(vecs, axis=0)
    return vecs


@dataclass(frozen=True, eq=False)
class SketchOutput:
    """Finalized sketch: an m x d matrix with pairwise orthogonal rows.

    ``shift`` is the accumulated robustness constant (zero in "fd" mode).
    Downstream solvers regularize with ``gamma + shift``.  Treat instances
    as immutable; they can be shared freely across threads.
    """

    matrix: np.ndarray
    shift: float

    def covariance(self) -> np.ndarray:
        """Dense d x d approximation B^T B + shift * I."""
        return self.matrix.T @ self.matrix + self.shift * np.eye(self.matrix.shape[1])


class StreamingSketch:
    """Frequent Directions sketch over a row stream.

    Maintains a ``2m x d`` buffer.  Rows are copied into free slots; when
    the buffer fills, it is re-expressed through one eigendecomposition of
    its smaller Gram matrix (:func:`_gram_eigh`).  It is reduced only when
    more than m directions carry mass: every squared singular value then
    drops by the m-th largest.  Either way at least m slots are free again.
    Only the first ``fill`` rows are live; a shrink leaves stale rows past
    them, which the next rows overwrite.
    Half of each reduction accumulates into ``shift_total``.

    The first ``kept`` rows are those the last reduction left: orthogonal,
    largest first.  Before each reduction the rows added after them lose
    those too light for its eigendecomposition to resolve
    (:func:`_resolved_rows`), and when none is left the reduction is
    skipped.  So the per-row update cost is amortized O(m d), and each
    shrink costs at most one Gram product and one eigendecomposition of
    size min(2m, d).
    Instances are single-writer: concurrent ``update`` calls must be
    serialized by the caller.  ``finalize`` does not mutate state, so a
    finalized snapshot can be taken mid-stream and updates may continue
    afterwards.

    m and d must be positive integers: a float, even an integral one such
    as 2.0, and a bool raise ValueError naming the argument, as do rows
    that are not a 2-d block of d columns.
    """

    def __init__(self, m: int, d: int):
        self.m = _count("m", m)
        self.d = _count("d", d)
        self.buffer = np.zeros((2 * self.m, self.d))
        self.fill = 0
        self.kept = 0
        self.shift_total = 0.0

    def update(self, row: np.ndarray) -> None:
        """Insert one row: :meth:`extend` with a one-row block.  ``row``
        must be a finite vector of length d (:func:`_vector`, which names
        its first NaN or infinite entry)."""
        self.extend(_vector("row", row, self.d)[None, :])

    def extend(self, rows: np.ndarray) -> None:
        """Insert many rows; equivalent to calling update on each in order.

        Rows are copied into the free slots in blocks, so the sequence of
        buffer states at shrink time is identical to the one produced by
        row-at-a-time updates.  A block that is not 2-d with d columns, or
        that holds a NaN or infinite entry, is rejected whole by the data
        rule (:func:`_matrix`), which names the shape or the first such
        row, before any row is added.
        """
        rows = _matrix("rows", rows, cols=self.d)
        pos = 0
        total = rows.shape[0]
        while pos < total:
            free = 2 * self.m - self.fill
            take = min(free, total - pos)
            self.buffer[self.fill:self.fill + take] = rows[pos:pos + take]
            self.fill += take
            pos += take
            if self.fill == 2 * self.m:
                self._shrink()

    def _reduced(self) -> tuple[np.ndarray, float]:
        """The FD reduction step on the occupied rows: one Gram
        eigendecomposition (:func:`_gram_eigh`), reduced by the m-th
        largest squared singular value only when more than m directions
        carry mass.  Returns the orthogonal rows sqrt(lambda_i - reduction)
        v_i of the directions above the reduction, whose right vectors
        alone are formed, and the reduction.

        The rows added since the last reduction first lose those whose
        mass lies below the decomposition's roundoff floor
        (:func:`_resolved_rows`); their mass is left out, not reduced, so
        it adds nothing to the shift.  When none of them is left, the step
        is skipped, returning the kept rows (a view) and no reduction: at
        most m rows are kept, so there would be none."""
        rows = _resolved_rows(self.buffer[:self.fill], self.kept)
        if rows.shape[0] == self.kept:
            return self.buffer[:self.kept], 0.0
        spectrum, vecs = _gram_eigh(rows)
        reduction = float(spectrum[self.m - 1]) if spectrum.size > self.m else 0.0
        above = spectrum > reduction
        reduced = _right_vectors(rows, vecs[:, above]).T
        reduced *= np.sqrt(spectrum[above] - reduction)[:, None]
        return reduced, reduction

    def _shrink(self) -> None:
        rows, reduction = self._reduced()
        self.buffer[:rows.shape[0]] = rows
        self.fill = self.kept = rows.shape[0]
        self.shift_total += reduction / 2.0

    def finalize(self, mode: str = MODE_FD) -> SketchOutput:
        """Produce an m x d snapshot without disturbing the stream.

        The occupied part of the buffer goes through the same reduction
        step as a shrink, so the output rows are orthogonal: if more than
        m directions carry mass above the roundoff floor, at most m - 1
        survive; otherwise the re-expression is exact, and when the step
        is skipped the kept rows are emitted as they are.  In "fd" mode the
        reported shift is zero, in "rfd" mode it is the accumulated total.
        """
        _one_of("mode", mode, MODES)
        rows, reduction = self._reduced()
        out = np.zeros((self.m, self.d))
        out[:rows.shape[0]] = rows
        shift = self.shift_total + reduction / 2.0 if mode == MODE_RFD else 0.0
        return SketchOutput(matrix=out, shift=shift)


def sketch_matrix(A: np.ndarray, m: int, mode: str = MODE_FD) -> SketchOutput:
    """One-shot convenience: stream every row of A and finalize."""
    A = _matrix("A", A)
    sk = StreamingSketch(m, A.shape[1])
    sk.extend(A)
    return sk.finalize(mode)


def tail_masses(A: np.ndarray) -> np.ndarray:
    """All tail masses at once: entry k is |A - A_k|_F^2, k = 0..min(n, d)."""
    s = np.linalg.svd(_matrix("A", A), compute_uv=False)
    tails = np.concatenate([np.cumsum((s ** 2)[::-1])[::-1], [0.0]])
    return tails


def save_sketch_csv(output: SketchOutput, path) -> None:
    """Write a finalized sketch as CSV.

    The first line is a comment header ``# m,d,shift``; the remaining m
    lines hold d comma-separated decimals at 17 significant digits, enough
    for an exact float64 round trip: ``np.loadtxt(path, delimiter=",",
    ndmin=2)`` reads the rows back.
    """
    m, d = output.matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, output.matrix, fmt="%.17g", delimiter=",",
                   header=f"{m},{d},{output.shift:.17g}",
                   comments="# ")

