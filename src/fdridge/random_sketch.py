"""Oblivious random sketches: dense Gaussian and sparse SJLT.

A sketch is an m x n matrix drawn from an integer seed by a PCG64
generator, so drawing the same (m, n, seed) twice gives bitwise-identical
matrices; every parameter of the draw follows from those three.  A
caller that needs only the product S X of a Gaussian sketch uses
:func:`apply_gaussian`, which never holds the whole m x n matrix.  The
Gaussian sketch needs only numpy; scipy.sparse is imported by
:func:`realize_sjlt` on its first call, so a run that draws no SJLT never
loads scipy.

:data:`FLAVORS` names the sketches by flavor, and this module alone
knows how each is drawn: :func:`_realize` gives S and :func:`_product`
gives S X for a flavor, an m and a seed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .sketch import _count, _matrix

if TYPE_CHECKING:
    import scipy.sparse

# Bytes of a Gaussian sketch that apply_gaussian draws and multiplies at a
# time: a block holds clamp(GAUSSIAN_BLOCK_BYTES // (8 n), 1, m) rows, 104
# at n = 10^4 and all of m = 256 at n = 1024, so each GEMM is tall enough
# to run near the speed of the whole product.  Blocks of tens of rows go
# through the same BLAS kernel as the whole product: with OpenBLAS the
# result was bit for bit realize_gaussian(m, n, seed) @ X, short last
# block included; blocks of a few rows agree with it to roundoff.
GAUSSIAN_BLOCK_BYTES = 8 * 2 ** 20

# The randomized flavors; their order must never change, as the sketch
# accuracy runner seeds each by its position here.
FLAVORS = ("gauss", "sjlt")


def _sizes(m, n, seed) -> tuple[int, int, int]:
    """m, n and seed as ints, each checked by the count rule."""
    return _count("m", m), _count("n", n), _count("seed", seed, 0)


def _sjlt_blocks(m: int) -> int:
    """The SJLT block count: the largest divisor of m up to 8, so that the
    blocks tile m, and 8 at m = 256, the divisor closest to the usual
    choice of 10 blocks."""
    return max(k for k in range(1, 9) if m % k == 0)


def realize_gaussian(m: int, n: int, seed: int) -> np.ndarray:
    """The m x n Gaussian sketch with i.i.d. N(0, 1/m) entries.

    A single generator seeded with ``seed`` fills S row by row with
    standard normals, which are then scaled in place by 1/sqrt(m).  Use
    :func:`apply_gaussian` when only S X is needed.
    """
    m, n, seed = _sizes(m, n, seed)
    S = np.random.default_rng(seed).standard_normal((m, n))
    S /= np.sqrt(m)
    return S


def apply_gaussian(m: int, X: np.ndarray, seed: int) -> np.ndarray:
    """S X for the m x n Gaussian sketch S that
    ``realize_gaussian(m, n, seed)`` draws, n being X's row count,
    without materializing S.

    S is drawn in row blocks of about :data:`GAUSSIAN_BLOCK_BYTES` into
    one reused block, from the same generator in the same order as
    :func:`realize_gaussian`; each block is scaled in place and multiplied
    into its rows of the result.  Beyond X and the result, the call holds
    that block instead of the m x n matrix.  X must be a finite 2-d
    array (:func:`sketch._matrix`, which names its shape or first
    non-finite row); it is checked once per call, before the draw.
    """
    return _product("gauss", m, _matrix("X", X), seed)


def realize_sjlt(m: int, n: int, seed: int) -> scipy.sparse.csc_matrix:
    """The m x n sparse JL transform: s stacked CountSketch blocks of m/s
    rows each, s = ``_sjlt_blocks(m)``, as a CSC matrix.

    Every input coordinate receives exactly one nonzero per block, a sign
    scaled by 1/sqrt(s), for s nonzeros per column and s * n overall.
    Stream discipline: a single generator seeded with ``seed`` draws, for
    block b = 0, 1, ..., s-1 in order, first the n row offsets inside the
    block and then the n signs.  Column j holds one entry per block, at
    row b * m/s + offset, so its row indices are already sorted and the
    CSC arrays are filled straight from the draws.
    """
    m, n, seed = _sizes(m, n, seed)
    import scipy.sparse

    s = _sjlt_blocks(m)
    rng = np.random.default_rng(seed)
    rows_per_block = m // s
    scale = 1.0 / np.sqrt(s)
    rows = np.empty((n, s), dtype=np.int64)
    vals = np.empty((n, s))
    for b in range(s):
        offsets = rng.integers(0, rows_per_block, size=n)
        signs = rng.integers(0, 2, size=n) * 2 - 1
        rows[:, b] = b * rows_per_block + offsets
        vals[:, b] = scale * signs
    indptr = np.arange(0, s * n + 1, s, dtype=np.int64)
    return scipy.sparse.csc_matrix(
        (vals.ravel(), rows.ravel(), indptr), shape=(m, n))


def _realize(flavor: str, m: int, n: int, seed: int):
    """The m x n sketch of ``flavor`` drawn from ``seed``.  The draw
    functions are called by their module names, where a tracer may
    rebind them."""
    if flavor == "gauss":
        return realize_gaussian(m, n, seed)
    return realize_sjlt(m, n, seed)


def _product(flavor: str, m: int, X: np.ndarray, seed: int) -> np.ndarray:
    """S X for the draw that :func:`_realize` would make at n = X's row
    count, a Gaussian S drawn in blocks as :func:`apply_gaussian` says.
    X must already be checked by its rule, so a loop that redraws S
    against one data matrix reads that matrix for the products alone."""
    if flavor != "gauss":
        return _realize(flavor, m, X.shape[0], seed) @ X
    m, n, seed = _sizes(m, X.shape[0], seed)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(m)
    out = np.empty((m, X.shape[1]))
    step = min(max(GAUSSIAN_BLOCK_BYTES // (8 * n), 1), m)
    block = np.empty((step, n))
    for lo in range(0, m, step):
        rows = block[:min(step, m - lo)]
        rng.standard_normal(out=rows)
        rows /= scale
        np.matmul(rows, X, out=out[lo:lo + rows.shape[0]])
    return out
