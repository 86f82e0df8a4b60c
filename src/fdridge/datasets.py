"""Dataset construction and ingestion.

Synthetic low-effective-rank regression instances, random Fourier feature
expansion, and a reader/writer pair for the plain-text sparse sample
format (``label index:value ...`` with 1-based indices).
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .sketch import _count, _matrix, _nonnegative, _positive, _vector


class LibsvmParseError(ValueError):
    """Malformed sparse-text input, pinned to a line and column: the
    message reads ``line L, column C: reason``, both 1-based."""


def _parse_error(line: int, column: int, reason: str) -> LibsvmParseError:
    """The :class:`LibsvmParseError` for ``reason`` at ``line``, ``column``."""
    return LibsvmParseError(f"line {line}, column {column}: {reason}")


def _effective_rank(d: int, r: float) -> int:
    """R = floor(r * d + 0.5) for a rank fraction r in (0, 1]; ValueError
    when r lies outside it or R rounds to 0."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"rank fraction must lie in (0, 1], got {r}")
    R = int(math.floor(r * d + 0.5))
    if R < 1:
        raise ValueError(f"rank fraction {r} with d={d} gives an empty signal")
    return R


def dct_rotation(d: int) -> np.ndarray:
    """Orthonormal type-II discrete cosine transform matrix (d x d).

    Entry (k, j) is sqrt(2/d) cos(pi k (2j + 1) / (2d)), with row 0 at
    sqrt(1/d): the matrix that scipy's orthonormal DCT-II applies to a
    column vector, to within an ulp.  The phase k (2j + 1) is reduced
    exactly in integers modulo the cosine's period 4d and looked up in
    one table of 4d cosines, so no large argument reaches np.cos.  Only
    numpy is used.
    """
    d = _count("d", d)
    phase = np.arange(d)[:, None] * np.arange(1, 2 * d, 2)
    phase %= 4 * d
    table = math.sqrt(2.0 / d) * np.cos(np.arange(4 * d) * (math.pi / (2 * d)))
    rotation = table[phase]
    rotation[0] = math.sqrt(1.0 / d)
    return rotation


def synthetic_regression(n: int, d: int, r: float, noise_sd: float, seed: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (A, y, truth), an n x d instance with controlled effective rank.

    The effective rank is R = floor(r * d + 0.5).  Pre-rotation row i
    (1-based) has i.i.d. N(0, exp(-(i-1)^2 / R^2)^2) entries, so row
    energy falls off rapidly after the first few multiples of R; the rows
    are then rotated by an orthonormal discrete cosine transform.  True
    weights live on the first R coordinates and are normalized to unit
    length; targets add N(0, noise_sd^2) noise.

    Draw order is fixed (data, then weights, then noise) so a seed pins
    the entire instance.  The rotation draws nothing and is built first,
    so its d x d integer phase table is freed before the n x d draws
    rather than held beside them.
    """
    n, d, seed = _count("n", n), _count("d", d), _count("seed", seed, 0)
    R = _effective_rank(d, r)
    noise_sd = _nonnegative("noise level", noise_sd)  # 0: noiseless targets
    rotation = dct_rotation(d)
    rng = np.random.default_rng(seed)
    scales = np.exp(-(np.arange(n) / R) ** 2)
    pre = scales[:, None] * rng.standard_normal((n, d))
    A = pre @ rotation
    truth = np.zeros(d)
    truth[:R] = rng.standard_normal(R)
    truth /= np.linalg.norm(truth)
    y = A @ truth + noise_sd * rng.standard_normal(n)
    return A, y, truth


def rff_expand(X: np.ndarray, n_features: int, gamma_rbf: float = 1.0,
               seed: int = 0) -> np.ndarray:
    """Random Fourier features for the Gaussian kernel exp(-gamma |x-x'|^2).

    Rows of the projection are drawn N(0, 2 * gamma_rbf), offsets uniform
    on [0, 2 pi); the map is sqrt(2 / n_features) * cos(X W^T + b).  The
    offset, cosine and scale are applied in place to the one
    n x n_features product, so the expansion holds a single copy of its
    output.
    """
    X = _matrix("X", X)
    n_features = _count("n_features", n_features)
    gamma_rbf = _positive("kernel width", gamma_rbf)
    rng = np.random.default_rng(_count("seed", seed, 0))
    W = rng.normal(0.0, math.sqrt(2.0 * gamma_rbf), size=(n_features, X.shape[1]))
    b = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    out = X @ W.T
    out += b
    np.cos(out, out=out)
    out *= math.sqrt(2.0 / n_features)
    return out


@dataclass
class SparseRowMatrix:
    """Row-major sparse matrix: ``rows`` holds n pairs (indices, values),
    the indices integers strictly increasing within [0, d), one value
    each.  :meth:`toarray` and :func:`dump_libsvm` refuse rows that break
    this (:func:`_check_rows`)."""

    n: int
    d: int
    rows: list

    def toarray(self) -> np.ndarray:
        """The dense n x d matrix; raises ValueError naming the first row
        that breaks the contract, before any row is filled."""
        _check_rows(self)
        dense = np.zeros((self.n, self.d))
        for i, (idx, vals) in enumerate(self.rows):
            dense[i, idx] = vals
        return dense


def _check_rows(matrix: SparseRowMatrix) -> None:
    """Raise ValueError unless ``matrix.rows`` holds n rows whose indices
    are integers, strictly increasing within [0, d), with one value per
    index; the message names the first row that does not."""
    if len(matrix.rows) != matrix.n:
        raise ValueError(f"matrix has {len(matrix.rows)} rows, but n is {matrix.n}")
    for i, (idx, vals) in enumerate(matrix.rows):
        idx = np.asarray(idx)
        if idx.ndim != 1 or np.shape(vals) != idx.shape:
            raise ValueError(f"row {i}: indices and values must be 1-d of one "
                             f"length, got shapes {idx.shape} and {np.shape(vals)}")
        if not idx.size:
            continue
        if idx.dtype.kind not in "iu":
            raise ValueError(f"row {i} has indices of type {idx.dtype}, "
                             "not integers")
        down = np.flatnonzero(idx[1:] <= idx[:-1])
        if down.size:
            j = down[0]
            raise ValueError(f"row {i}: index {idx[j + 1]} does not increase "
                             f"(previous was {idx[j]})")
        if idx[0] < 0 or idx[-1] >= matrix.d:
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise ValueError(f"row {i}: index {bad} lies outside "
                             f"[0, {matrix.d})")


_TOKEN = re.compile(r"\S+")


def parse_libsvm(source, n_features: int | None = None
                 ) -> tuple[SparseRowMatrix, np.ndarray]:
    """Read ``label index:value ...`` lines into a sparse matrix and labels.

    Indices are 1-based in the text and strictly increasing within a line;
    ``#`` starts a comment.  The column count is the largest index seen
    unless ``n_features`` overrides it (useful when trailing features are
    absent from the file).  ``source`` may be a path or any iterable of
    lines.  Malformed input, a NaN or infinite label or value included,
    raises :class:`LibsvmParseError`, whose message gives the 1-based line
    and column.
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
            raise _parse_error(lineno, head.start() + 1,
                               f"label {head.group()!r} is not a number") from None
        if not math.isfinite(label):
            raise _parse_error(lineno, head.start() + 1,
                               f"label {head.group()!r} is not finite")
        idx = []
        vals = []
        prev = 0
        for tok in tokens[1:]:
            col = tok.start() + 1
            text = tok.group()
            part = text.split(":")
            if len(part) != 2:
                raise _parse_error(lineno, col,
                                   f"expected index:value, got {text!r}")
            try:
                index = int(part[0])
            except ValueError:
                raise _parse_error(lineno, col,
                                   f"index {part[0]!r} is not an integer") from None
            if index < 1:
                raise _parse_error(lineno, col,
                                   f"index {index} is not positive (indices are 1-based)")
            if index <= prev:
                raise _parse_error(lineno, col,
                                   f"index {index} does not increase (previous was {prev})")
            try:
                value = float(part[1])
            except ValueError:
                raise _parse_error(lineno, col,
                                   f"value {part[1]!r} is not a number") from None
            if not math.isfinite(value):
                raise _parse_error(lineno, col,
                                   f"value {part[1]!r} is not finite")
            idx.append(index - 1)
            vals.append(value)
            prev = index
        labels.append(label)
        rows.append((np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=float)))
        if idx:
            widest = max(widest, idx[-1] + 1)

    d = widest if n_features is None else _count("n_features", n_features, 0)
    if n_features is not None and d < widest:
        raise ValueError(
            f"feature override {n_features} is below the largest index {widest} in the data")
    matrix = SparseRowMatrix(n=len(rows), d=d, rows=rows)
    return matrix, np.asarray(labels, dtype=float)


def dump_libsvm(matrix: SparseRowMatrix, labels: np.ndarray, path) -> None:
    """Write the sparse-text format back out, losslessly for float64.

    ``labels`` must be a finite vector of length n (:func:`sketch._vector`),
    the rows must keep :class:`SparseRowMatrix`'s contract
    (:func:`_check_rows`), and every stored value must be finite, as
    :func:`parse_libsvm` requires.  Otherwise ValueError names the
    label's index, the row, or the value's row and 0-based feature,
    before ``path`` is opened.
    """
    labels = _vector("labels", labels, matrix.n)
    _check_rows(matrix)
    for i, (idx, vals) in enumerate(matrix.rows):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"value at row {i}, feature {int(idx[bad[0]])} "
                             "is not finite")
    with open(path, "w", encoding="utf-8") as fh:
        for label, (idx, vals) in zip(labels, matrix.rows):
            parts = [format(label, ".17g")]
            parts.extend(f"{int(i) + 1}:{format(v, '.17g')}"
                         for i, v in zip(idx, vals))
            fh.write(" ".join(parts) + "\n")
