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


def _gram_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of X^T X, largest first: the squared singular values of
    X and its right singular vectors as the columns of a d x r basis.

    One ``eigh`` of the smaller Gram matrix (X X^T for a short-and-fat
    factor, X^T X for a tall one) gives them; for X X^T the right factor is
    X^T U with its columns normalized.  ``eigh`` resolves eigenvalues only
    down to (Gram size) * eps times the largest, i.e. about sqrt(eps) on
    singular values: any at or below that floor are roundoff and dropped,
    so a rank-deficient X yields exactly its rank.  Raises ValueError when
    the Gram matrix overflows rather than let it wipe a spectrum.
    """
    short = matrix.shape[0] < matrix.shape[1]
    with np.errstate(over="ignore"):
        gram = matrix @ matrix.T if short else matrix.T @ matrix
    if not np.isfinite(gram).all():
        raise ValueError("the Gram matrix is not finite: the rows are too "
                         "large to square in float64")
    spectrum, vecs = np.linalg.eigh(gram)
    floor = gram.shape[0] * np.finfo(float).eps * spectrum.max(initial=0.0)
    kept = np.flatnonzero(spectrum > floor)[::-1]
    spectrum, vecs = spectrum[kept], vecs[:, kept]
    if short:
        vecs = matrix.T @ vecs
        vecs /= np.linalg.norm(vecs, axis=0)
    return spectrum, vecs


def _reduced_rows(spectrum: np.ndarray, basis: np.ndarray,
                  reduction: float) -> np.ndarray:
    """Rows sqrt(lambda_i - reduction) v_i of every direction whose
    eigenvalue exceeds the reduction."""
    squared = spectrum - reduction
    kept = squared > 0.0
    return np.sqrt(squared[kept])[:, None] * basis[:, kept].T


@dataclass(frozen=True, eq=False)
class SketchOutput:
    """Finalized sketch: an m x d matrix with pairwise orthogonal rows.

    ``shift`` is the accumulated robustness constant (zero in "fd" mode).
    Downstream solvers regularize with ``gamma + shift``.  Treat instances
    as immutable; they can be shared freely across threads.
    """

    matrix: np.ndarray
    shift: float
    mode: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def covariance(self) -> np.ndarray:
        """Dense d x d approximation B^T B + shift * I."""
        d = self.dim
        return self.matrix.T @ self.matrix + self.shift * np.eye(d)


class StreamingSketch:
    """Frequent Directions sketch over a row stream.

    Maintains a ``2m x d`` buffer.  Rows are copied into free slots; when
    the buffer fills, it is re-expressed through one eigendecomposition of
    its smaller Gram matrix (:func:`_gram_eigh`), every squared singular
    value is reduced by the m-th largest, and at least m + 1 slots become
    free again.  Half of each reduction accumulates into ``shift_total``.

    The per-row update cost is amortized O(m d); each shrink costs one
    Gram product and one eigendecomposition of size min(2m, d).
    Instances are single-writer: concurrent ``update`` calls must be
    serialized by the caller.  ``finalize`` does not mutate state, so a
    finalized snapshot can be taken mid-stream and updates may continue
    afterwards.
    """

    def __init__(self, m: int, d: int):
        if m < 1:
            raise ValueError(f"sketch size must be a positive integer, got m={m}")
        if d < 1:
            raise ValueError(f"row dimension must be a positive integer, got d={d}")
        self.m = int(m)
        self.d = int(d)
        self.buffer = np.zeros((2 * self.m, self.d))
        self.fill = 0
        self.shift_total = 0.0

    def update(self, row: np.ndarray) -> None:
        """Insert one row: :meth:`extend` with a one-row block."""
        row = np.asarray(row, dtype=float)
        if row.shape != (self.d,):
            raise ValueError(
                f"expected a row of shape ({self.d},), got {row.shape}")
        self.extend(row[None, :])

    def extend(self, rows: np.ndarray) -> None:
        """Insert many rows; equivalent to calling update on each in order.

        Rows are copied into the free slots in blocks, so the sequence of
        buffer states at shrink time is identical to the one produced by
        row-at-a-time updates.  A block holding a NaN or infinite entry is
        rejected whole, naming its first such row, before any row is added.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise ValueError(
                f"expected rows of shape (k, {self.d}), got {rows.shape}")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValueError(
                f"row {bad[0]} has a non-finite entry; no rows were added")
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

    def _shrink(self) -> None:
        spectrum, basis = _gram_eigh(self.buffer[:self.fill])
        rank = spectrum.size
        reduction = float(spectrum[self.m - 1]) if rank >= self.m else 0.0
        survivors = _reduced_rows(spectrum, basis, reduction)
        self.buffer[:] = 0.0
        self.buffer[:survivors.shape[0]] = survivors
        self.fill = survivors.shape[0]
        self.shift_total += reduction / 2.0

    def finalize(self, mode: str = MODE_FD) -> SketchOutput:
        """Produce an m x d snapshot without disturbing the stream.

        The occupied part of the buffer is re-expressed through one Gram
        eigendecomposition (:func:`_gram_eigh`) so the output rows are
        orthogonal.  If more than m directions carry mass above the
        roundoff floor, one extra shrink brings the count down to at most
        m - 1; otherwise the re-expression is exact.  In "fd" mode the
        reported shift is zero, in "rfd" mode it is the accumulated total.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        out = np.zeros((self.m, self.d))
        shift_total = self.shift_total
        if self.fill:
            spectrum, basis = _gram_eigh(self.buffer[:self.fill])
            rank = spectrum.size
            reduction = float(spectrum[self.m - 1]) if rank > self.m else 0.0
            rows = _reduced_rows(spectrum, basis, reduction)
            out[:rows.shape[0]] = rows
            shift_total += reduction / 2.0
        shift = shift_total if mode == MODE_RFD else 0.0
        return SketchOutput(matrix=out, shift=shift, mode=mode)


def sketch_matrix(A: np.ndarray, m: int, mode: str = MODE_FD) -> SketchOutput:
    """One-shot convenience: stream every row of A and finalize."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    sk = StreamingSketch(m, A.shape[1])
    sk.extend(A)
    return sk.finalize(mode)


def tail_masses(A: np.ndarray) -> np.ndarray:
    """All tail masses at once: entry k is |A - A_k|_F^2, k = 0..min(n, d)."""
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    tails = np.concatenate([np.cumsum((s ** 2)[::-1])[::-1], [0.0]])
    return tails


def save_sketch_csv(output: SketchOutput, path) -> None:
    """Write a finalized sketch as CSV.

    The first line is a comment header ``# m,d,shift,mode``; the remaining
    m lines hold d comma-separated decimals at 17 significant digits,
    enough for an exact float64 round trip.
    """
    mat = output.matrix
    m, d = mat.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {m},{d},{output.shift:.17g},{output.mode}\n")
        for row in mat:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_sketch_csv(path) -> SketchOutput:
    """Inverse of :func:`save_sketch_csv`.

    Raises ValueError naming ``path`` on a malformed header, a negative or
    non-finite shift, a shape mismatch or a non-finite matrix entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# m,d,shift,mode' header line")
        fields = header.lstrip("#").strip().split(",")
        if len(fields) != 4:
            raise ValueError(f"{path}: malformed header {header!r}")
        m, d = int(fields[0]), int(fields[1])
        shift, mode = float(fields[2]), fields[3].strip()
        if mode not in MODES:
            raise ValueError(f"{path}: unknown sketch mode {mode!r}")
        if not (np.isfinite(shift) and shift >= 0.0):
            raise ValueError(
                f"{path}: shift must be finite and non-negative, got {shift}")
        mat = np.loadtxt(fh, delimiter=",", ndmin=2)
    if mat.shape != (m, d):
        raise ValueError(
            f"{path}: header promises shape ({m}, {d}), file holds {mat.shape}")
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"{path}: entry ({row}, {col}) of the matrix is not finite")
    return SketchOutput(matrix=mat, shift=shift, mode=mode)
