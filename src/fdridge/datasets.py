"""Dataset construction and ingestion.

Synthetic low-effective-rank regression instances, random Fourier feature
expansion, a reader/writer pair for the plain-text sparse sample format
(``label index:value ...`` with 1-based indices), and lossless CSV export.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np
import scipy.fft


class LibsvmParseError(ValueError):
    """Malformed sparse-text input, pinned to a line and column."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic instance with controlled effective rank.

    The effective rank is R = floor(r * d + 0.5).  Pre-rotation row i
    (1-based) has i.i.d. N(0, exp(-(i-1)^2 / R^2)^2) entries, so row
    energy falls off rapidly after the first few multiples of R; the rows
    are then rotated by an orthonormal discrete cosine transform.  True
    weights live on the first R coordinates and are normalized to unit
    length; targets add N(0, noise_sd^2) noise.
    """

    n: int
    d: int
    r: float
    noise_sd: float
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(
                f"instance dimensions must be positive, got n={self.n}, d={self.d}")
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"rank fraction must lie in (0, 1], got {self.r}")
        if self.noise_sd < 0:
            raise ValueError(f"noise level cannot be negative, got {self.noise_sd}")
        if self.effective_rank < 1:
            raise ValueError(
                f"rank fraction {self.r} with d={self.d} gives an empty signal")

    @property
    def effective_rank(self) -> int:
        return int(math.floor(self.r * self.d + 0.5))


def dct_rotation(d: int) -> np.ndarray:
    """Orthonormal type-II discrete cosine transform matrix (d x d)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return scipy.fft.dct(np.eye(d), type=2, norm="ortho", axis=0)


def synthetic_regression(spec: SyntheticSpec
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (A, y, truth) for the given spec.

    Draw order is fixed (data, then weights, then noise) so a seed pins
    the entire instance.
    """
    rng = np.random.default_rng(spec.seed)
    R = spec.effective_rank
    scales = np.exp(-(np.arange(spec.n) / R) ** 2)
    pre = scales[:, None] * rng.standard_normal((spec.n, spec.d))
    A = pre @ dct_rotation(spec.d)
    truth = np.zeros(spec.d)
    truth[:R] = rng.standard_normal(R)
    truth /= np.linalg.norm(truth)
    y = A @ truth + spec.noise_sd * rng.standard_normal(spec.n)
    return A, y, truth


def rff_expand(X: np.ndarray, n_features: int, gamma_rbf: float = 1.0,
               seed: int = 0) -> np.ndarray:
    """Random Fourier features for the Gaussian kernel exp(-gamma |x-x'|^2).

    Rows of the projection are drawn N(0, 2 * gamma_rbf), offsets uniform
    on [0, 2 pi); the map is sqrt(2 / n_features) * cos(X W^T + b).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d sample array, got shape {X.shape}")
    if n_features < 1:
        raise ValueError(f"feature count must be positive, got {n_features}")
    if not gamma_rbf > 0:
        raise ValueError(f"kernel width must be positive, got {gamma_rbf}")
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, math.sqrt(2.0 * gamma_rbf), size=(n_features, X.shape[1]))
    b = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    return math.sqrt(2.0 / n_features) * np.cos(X @ W.T + b)


@dataclass
class SparseRowMatrix:
    """Row-major sparse matrix: per row, strictly increasing 0-based
    indices and their values."""

    n: int
    d: int
    rows: list

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n, self.d))
        for i, (idx, vals) in enumerate(self.rows):
            dense[i, idx] = vals
        return dense


_TOKEN = re.compile(r"\S+")


def parse_libsvm(source, n_features: int | None = None
                 ) -> tuple[SparseRowMatrix, np.ndarray]:
    """Read ``label index:value ...`` lines into a sparse matrix and labels.

    Indices are 1-based in the text and strictly increasing within a line;
    ``#`` starts a comment.  The column count is the largest index seen
    unless ``n_features`` overrides it (useful when trailing features are
    absent from the file).  ``source`` may be a path or any iterable of
    lines.  Malformed input, a NaN or infinite label or value included,
    raises :class:`LibsvmParseError` carrying the 1-based line and column.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh, n_features=n_features)

    labels = []
    rows = []
    widest = 0
    for lineno, raw in enumerate(source, start=1):
        body = raw.split("#", 1)[0]
        tokens = list(_TOKEN.finditer(body))
        if not tokens:
            continue
        head = tokens[0]
        try:
            label = float(head.group())
        except ValueError:
            raise LibsvmParseError(lineno, head.start() + 1,
                                   f"label {head.group()!r} is not a number") from None
        if not math.isfinite(label):
            raise LibsvmParseError(lineno, head.start() + 1,
                                   f"label {head.group()!r} is not finite")
        idx = []
        vals = []
        prev = 0
        for tok in tokens[1:]:
            col = tok.start() + 1
            text = tok.group()
            part = text.split(":")
            if len(part) != 2:
                raise LibsvmParseError(lineno, col,
                                       f"expected index:value, got {text!r}")
            try:
                index = int(part[0])
            except ValueError:
                raise LibsvmParseError(lineno, col,
                                       f"index {part[0]!r} is not an integer") from None
            if index < 1:
                raise LibsvmParseError(lineno, col,
                                       f"index {index} is not positive (indices are 1-based)")
            if index <= prev:
                raise LibsvmParseError(lineno, col,
                                       f"index {index} does not increase (previous was {prev})")
            try:
                value = float(part[1])
            except ValueError:
                raise LibsvmParseError(lineno, col,
                                       f"value {part[1]!r} is not a number") from None
            if not math.isfinite(value):
                raise LibsvmParseError(lineno, col,
                                       f"value {part[1]!r} is not finite")
            idx.append(index - 1)
            vals.append(value)
            prev = index
        labels.append(label)
        rows.append((np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=float)))
        if idx:
            widest = max(widest, idx[-1] + 1)

    d = widest if n_features is None else int(n_features)
    if n_features is not None and d < widest:
        raise ValueError(
            f"feature override {n_features} is below the largest index {widest} in the data")
    matrix = SparseRowMatrix(n=len(rows), d=d, rows=rows)
    return matrix, np.asarray(labels, dtype=float)


def dump_libsvm(matrix: SparseRowMatrix, labels: np.ndarray, path) -> None:
    """Write the sparse-text format back out, losslessly for float64."""
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (matrix.n,):
        raise ValueError(
            f"expected {matrix.n} labels, got shape {labels.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        for label, (idx, vals) in zip(labels, matrix.rows):
            parts = [format(label, ".17g")]
            parts.extend(f"{int(i) + 1}:{format(v, '.17g')}"
                         for i, v in zip(idx, vals))
            fh.write(" ".join(parts) + "\n")


def save_matrix_csv(A: np.ndarray, path) -> None:
    """Plain CSV export of a dense matrix at 17 significant digits."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {A.shape}")
    np.savetxt(path, A, fmt="%.17g", delimiter=",", encoding="utf-8")
