"""Oblivious random sketches: dense Gaussian and sparse SJLT.

Both sketches are described by a small frozen spec (dimensions plus an
integer seed) and realized deterministically from a PCG64 generator, so
realizing the same spec twice gives bitwise-identical matrices.  A caller
that needs only the product S X of a Gaussian sketch uses
:func:`apply_gaussian`, which never holds the whole m x n matrix.  The
Gaussian sketch needs only numpy; scipy.sparse is imported by
:func:`realize_sjlt` on its first call, so a run that draws no SJLT never
loads scipy.

:data:`FLAVORS` names the sketches by flavor, and this module alone
knows how each is drawn: :func:`_realize` gives S and :func:`_product`
gives S X for a flavor, an m and a seed, every other parameter of the
draw following from those.
"""
from __future__ import annotations

from dataclasses import dataclass
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
# result was bit for bit realize_gaussian(spec) @ X, short last block
# included; blocks of a few rows agree with it to roundoff.
GAUSSIAN_BLOCK_BYTES = 8 * 2 ** 20

# The randomized flavors; their order must never change, as the sketch
# accuracy runner seeds each by its position here.
FLAVORS = ("gauss", "sjlt")


@dataclass(frozen=True)
class _SketchSpec:
    """The recipe every flavor shares: an m x n sketch and the seed it is
    drawn from, each checked by the count rule."""

    m: int
    n: int
    seed: int

    def __post_init__(self):
        _count("m", self.m)
        _count("n", self.n)
        _count("seed", self.seed, 0)


@dataclass(frozen=True)
class GaussianSketchSpec(_SketchSpec):
    """Dense m x n sketch with i.i.d. N(0, 1/m) entries."""


@dataclass(frozen=True)
class SjltSketchSpec(_SketchSpec):
    """Sparse JL transform: s stacked CountSketch blocks of m/s rows each.

    Every input coordinate receives exactly one nonzero per block, a sign
    scaled by 1/sqrt(s), for s nonzeros per column of S overall.
    """

    @property
    def s(self) -> int:
        """The block count: the largest divisor of m up to 8, so that the
        blocks tile m, and 8 at m = 256, the divisor closest to the usual
        choice of 10 blocks."""
        return max(k for k in range(1, 9) if self.m % k == 0)


def realize_gaussian(spec: GaussianSketchSpec) -> np.ndarray:
    """Materialize the m x n Gaussian sketch matrix for the given seed.

    A single generator seeded with ``spec.seed`` fills S row by row with
    standard normals, which are then scaled in place by 1/sqrt(m).  Use
    :func:`apply_gaussian` when only S X is needed.
    """
    rng = np.random.default_rng(spec.seed)
    S = rng.standard_normal((spec.m, spec.n))
    S /= np.sqrt(spec.m)
    return S


def apply_gaussian(spec: GaussianSketchSpec, X: np.ndarray) -> np.ndarray:
    """S X for the Gaussian sketch S of ``spec``, without materializing S.

    S is drawn in row blocks of about :data:`GAUSSIAN_BLOCK_BYTES` into
    one reused block, from the same generator in the same order as
    :func:`realize_gaussian`; each block is scaled in place and multiplied
    into its rows of the result.  Beyond X and the result, the call holds
    that block instead of the m x n matrix.  X must be a finite 2-d
    array of n rows (:func:`sketch._matrix`, which names its shape or
    first non-finite row); it is checked once per call, before the draw.
    """
    return _gaussian_product(spec, _matrix("X", X, rows=spec.n))


def _gaussian_product(spec: GaussianSketchSpec, X: np.ndarray) -> np.ndarray:
    """The draw and product of :func:`apply_gaussian` for an X already
    checked by its rule, so a loop that redraws S against one data
    matrix reads that matrix for the products alone."""
    rng = np.random.default_rng(spec.seed)
    scale = np.sqrt(spec.m)
    out = np.empty((spec.m, X.shape[1]))
    step = min(max(GAUSSIAN_BLOCK_BYTES // (8 * spec.n), 1), spec.m)
    block = np.empty((step, spec.n))
    for lo in range(0, spec.m, step):
        rows = block[:min(step, spec.m - lo)]
        rng.standard_normal(out=rows)
        rows /= scale
        np.matmul(rows, X, out=out[lo:lo + rows.shape[0]])
    return out


def realize_sjlt(spec: SjltSketchSpec) -> scipy.sparse.csc_matrix:
    """Materialize the SJLT as a CSC matrix with s * n nonzeros.

    Stream discipline: a single generator seeded with ``spec.seed`` draws,
    for block b = 0, 1, ..., s-1 in order, first the n row offsets inside
    the block and then the n signs.  Column j holds one entry per block,
    at row b * m/s + offset, so its row indices are already sorted and
    the CSC arrays are filled straight from the draws.
    """
    import scipy.sparse

    rng = np.random.default_rng(spec.seed)
    rows_per_block = spec.m // spec.s
    scale = 1.0 / np.sqrt(spec.s)
    rows = np.empty((spec.n, spec.s), dtype=np.int64)
    vals = np.empty((spec.n, spec.s))
    for b in range(spec.s):
        offsets = rng.integers(0, rows_per_block, size=spec.n)
        signs = rng.integers(0, 2, size=spec.n) * 2 - 1
        rows[:, b] = b * rows_per_block + offsets
        vals[:, b] = scale * signs
    indptr = np.arange(0, spec.s * spec.n + 1, spec.s, dtype=np.int64)
    return scipy.sparse.csc_matrix(
        (vals.ravel(), rows.ravel(), indptr), shape=(spec.m, spec.n))


def _realize(flavor: str, m: int, n: int, seed: int):
    """The m x n sketch of ``flavor`` drawn from ``seed``.  The draw
    functions are called by their module names, where a tracer may
    rebind them."""
    if flavor == "gauss":
        return realize_gaussian(GaussianSketchSpec(m=m, n=n, seed=seed))
    return realize_sjlt(SjltSketchSpec(m=m, n=n, seed=seed))


def _product(flavor: str, m: int, X: np.ndarray, seed: int) -> np.ndarray:
    """S X for the draw that :func:`_realize` would make, without holding
    a dense Gaussian S.  X must already be checked by its rule, so a
    loop that redraws S against one data matrix does not read it again."""
    if flavor == "gauss":
        return _gaussian_product(
            GaussianSketchSpec(m=m, n=X.shape[0], seed=seed), X)
    return _realize(flavor, m, X.shape[0], seed) @ X
