"""Dataset construction and ingestion.

Synthetic low-effective-rank regression instances, random Fourier feature
expansion, and a reader/writer pair for the plain-text sparse sample
format (``label index:value ...`` with 1-based indices).
"""
from __future__ import annotations

import math
import os
import re
from array import array

import numpy as np

from .sketch import (_count, _matrix, _nonnegative, _positive, _real,
                     _vector)


_TOKEN = re.compile(r"\S+")
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape kept


def _text_lines(path, where):
    """The lines of the UTF-8 text file at ``path``, split as ``open``
    splits them.  A byte that is not UTF-8 raises ValueError, its place
    given by ``where(line, column)``, both 1-based, before its line is
    yielded."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if bad := _NOT_UTF8.search(line):
                raise ValueError(f"{where(lineno, bad.start() + 1)}: byte "
                                 f"{ord(bad[0]) - 0xdc00:#04x} is not UTF-8")
            yield line


def _parse_error(line: int, body: str, token: int, reason: str) -> ValueError:
    """The malformed-input error for ``reason`` at line ``line``, whose
    text is ``body``, in the column where its ``token``-th
    whitespace-separated token (0 is the label) starts: its message reads
    ``line L, column C: reason``, both 1-based."""
    column = [tok.start() for tok in _TOKEN.finditer(body)][token] + 1
    return ValueError(f"line {line}, column {column}: {reason}")


def _effective_rank(d: int, r: float) -> int:
    """R = floor(r * d + 0.5) for a rank fraction r in (0, 1]; ValueError
    when r lies outside it or R rounds to 0."""
    if not 0.0 < _real(r) <= 1.0:
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


class SparseRowMatrix:
    """Row-major sparse matrix held as one read-only CSR triple: row i's
    0-based column indices are ``indices[indptr[i]:indptr[i + 1]]``,
    integers strictly increasing within [0, d), and its values the same
    slice of ``data``, all finite.

    Built from n pairs (indices, values), read once from any iterable of
    them, each two 1-d arrays of one length with integer indices (an
    empty row's may be of any type); n and d are counts of at least 0
    (:func:`sketch._count`).  ValueError names a bad n or d, then
    ``rows`` that are not iterable, then a count of pairs other than n,
    then the first pair that is not, then the first row whose indices do
    not increase within [0, d), then the first non-finite value by its
    row and 0-based feature.  :func:`parse_libsvm` builds through the
    same check.  Nothing checks the rows again: the three arrays refuse
    in-place writes.
    """

    def __init__(self, n: int, d: int, rows):
        n, d = _count("n", n, 0), _count("d", d, 0)
        if not hasattr(rows, "__iter__"):
            raise ValueError(f"rows must be an iterable of pairs, got {rows!r}")
        pairs = [(np.asarray(i), np.asarray(v, dtype=float)) for i, v in rows]
        if len(pairs) != n:
            raise ValueError(f"matrix has {len(pairs)} rows, but n is {n}")
        for i, (idx, vals) in enumerate(pairs):  # what the triple cannot show
            if idx.ndim != 1 or vals.shape != idx.shape:
                raise ValueError(f"row {i}: indices and values must be 1-d of one "
                                 f"length, got shapes {idx.shape} and {vals.shape}")
            if idx.size and idx.dtype.kind not in "iu":
                raise ValueError(f"row {i} has indices of type {idx.dtype}, "
                                 "not integers")
        indptr = np.cumsum([0] + [idx.size for idx, _ in pairs])
        indices = np.concatenate([np.empty(0, np.int64)] + [idx for idx, _ in pairs],
                                 dtype=np.int64, casting="unsafe")
        data = np.concatenate([np.empty(0)] + [vals for _, vals in pairs])
        self._adopt(n, d, indptr, indices, data)

    def _adopt(self, n: int, d: int, indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray) -> None:
        """Check the triple's order, range and finiteness, naming the
        first row that breaks the contract, and take it, read-only."""
        row = _entry_rows(indptr)
        down = np.flatnonzero((indices[1:] <= indices[:-1]) & (row[1:] == row[:-1]))
        out = np.flatnonzero((indices < 0) | (indices >= d))
        if down.size and (not out.size or row[down[0]] <= row[out[0]]):
            j = down[0]
            raise ValueError(f"row {row[j]}: index {indices[j + 1]} does not "
                             f"increase (previous was {indices[j]})")
        if out.size:
            # rows before the first order error increase, so a negative
            # index is the row's first and one past d its last
            j = out[0]
            bad = indices[j] if indices[j] < 0 else indices[indptr[row[j] + 1] - 1]
            raise ValueError(f"row {row[j]}: index {bad} lies outside [0, {d})")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise ValueError(f"value at row {row[bad[0]]}, feature "
                             f"{indices[bad[0]]} is not finite")
        for part in (indptr, indices, data):
            part.setflags(write=False)
        self.n, self.d, self.indptr, self.indices, self.data = n, d, indptr, indices, data

    def toarray(self) -> np.ndarray:
        """The dense n x d matrix."""
        return self._head(self.n)

    def _head(self, k: int) -> np.ndarray:
        """The first ``k`` rows, dense: one fill from an ``indptr`` slice."""
        stop = self.indptr[k]
        dense = np.zeros((k, self.d))
        dense[_entry_rows(self.indptr[:k + 1]), self.indices[:stop]] = self.data[:stop]
        return dense


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry of the rows that ``indptr`` spans."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _number(kind: type, what: str, text: str, line: int, body: str, token: int):
    """``text`` as an int, or as a finite float; otherwise the
    :func:`_parse_error` for the ``what`` at ``token`` of ``line``."""
    try:
        number = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _parse_error(line, body, token, f"{what} {text!r} is not {noun}") from None
    if kind is float and not math.isfinite(number):
        raise _parse_error(line, body, token, f"{what} {text!r} is not finite")
    return number


def parse_libsvm(source, n_features: int | None = None
                 ) -> tuple[SparseRowMatrix, np.ndarray]:
    """Read ``label index:value ...`` lines into a sparse matrix and labels.

    Indices are 1-based in the text and strictly increasing within a line;
    ``#`` starts a comment.  The column count is the largest index seen
    unless ``n_features`` overrides it (useful when trailing features are
    absent from the file).  ``source`` may be a path or any iterable of
    lines.  One pass over the lines fills the matrix's CSR triple, which
    is then built through :class:`SparseRowMatrix`'s check.  Malformed
    input, a NaN or infinite label or value, an index above 2^63 - 1 and
    a byte of a file that is not UTF-8 included, raises ValueError, whose
    message gives the 1-based line and column.
    """
    if isinstance(source, (str, os.PathLike)):
        where = lambda line, column: f"line {line}, column {column}"
        return parse_libsvm(_text_lines(source, where), n_features=n_features)

    labels = array("d")
    indptr, indices, data = array("q", [0]), array("q"), array("d")
    widest = 0
    for lineno, raw in enumerate(source, start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()  # a column is found only for an error
        if not tokens:
            continue
        label = _number(float, "label", tokens[0], lineno, body, 0)
        prev = 0
        for k, text in enumerate(tokens[1:], start=1):
            part = text.split(":")
            if len(part) != 2:
                raise _parse_error(lineno, body, k,
                                   f"expected index:value, got {text!r}")
            index = _number(int, "index", part[0], lineno, body, k)
            if not 0 < index < 2**63:
                why = ("is not positive (indices are 1-based)" if index < 1
                       else "is above 2^63 - 1")
                raise _parse_error(lineno, body, k, f"index {index} {why}")
            if index <= prev:
                raise _parse_error(lineno, body, k,
                                   f"index {index} does not increase (previous was {prev})")
            data.append(_number(float, "value", part[1], lineno, body, k))
            indices.append(index - 1)
            prev = index
        labels.append(label)
        indptr.append(len(indices))
        widest = max(widest, prev)

    d = widest if n_features is None else _count("n_features", n_features, 0)
    if n_features is not None and d < widest:
        raise ValueError(
            f"feature override {n_features} is below the largest index {widest} in the data")
    matrix = object.__new__(SparseRowMatrix)  # from the triple, by the same check
    matrix._adopt(len(labels), d, np.frombuffer(indptr, np.int64),
                  np.frombuffer(indices, np.int64), np.frombuffer(data))
    return matrix, np.frombuffer(labels, dtype=float)


def dump_libsvm(matrix: SparseRowMatrix, labels: np.ndarray, path) -> None:
    """Write the sparse-text format back out, losslessly for float64.

    ``labels`` must be a finite vector of length n (:func:`sketch._vector`),
    or ValueError names the bad label's index before ``path`` is opened.
    The rows need no check: :class:`SparseRowMatrix` refused any that
    :func:`parse_libsvm` would not read back when it was built.
    """
    labels = _vector("labels", labels, matrix.n)
    entries = np.array([f" {i + 1}:{v:.17g}" for i, v in
                        zip(matrix.indices.tolist(), matrix.data.tolist())], dtype=object)
    # line r is its label, inserted before entry indptr[r], then its
    # entries; its last piece, at indptr[r + 1] + r, ends it
    pieces = np.insert(entries, matrix.indptr[:-1], np.char.mod("%.17g", labels))
    pieces[matrix.indptr[1:] + np.arange(matrix.n)] += "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(pieces))
