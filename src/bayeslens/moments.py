"""Folds over blocks of posterior draws, behind every diagnostic.

``linf``, ``dinf``, ``p_w``, ``p_v``, the group penalties of cross-conflict,
the covariance V and the hat-values are statistics of column moments of the
draws. Each kernel takes the moments of one block of rows, and the moments
of disjoint blocks merge by Chan, Golub & LeVeque (1979). The covariance,
the influence moments, the cross-conflict sums and the hat-value pairs fold
blocks of ``BLOCK_BYTES``, so their scratch is a block whatever the number
of draws. Variance convention: unbiased, denominator S - 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Draws per block of every fold (the covariance, the influence moments, the
# cross-conflict sums and the hat-value pairs): about 1 MB. Read at call
# time, so that one assignment changes all four.
BLOCK_BYTES = 1 << 20


def co_moments(values: np.ndarray) -> np.ndarray:
    """The n x n centred co-moment matrix of the columns of ``values``.

    A left fold over contiguous blocks of rows: each block is centred on its
    own mean, its co-moment matrix is one BLAS product, and it is merged into
    the running co-moments in place by Chan, Golub & LeVeque (1979). The
    scratch is one block and one n x n buffer whatever the number of rows.
    """
    n_rows, n_cols = values.shape
    # At least 4n rows: each merge costs n x n work, and with n-row blocks the
    # fold was slower than np.cov (109 vs 96 ms at 20000 x 400, 359 vs 240 ms
    # at 4000 x 2000).
    rows = min(n_rows, max(4 * n_cols, BLOCK_BYTES // values[0].nbytes))
    mean = values[:rows].mean(axis=0)
    work = values[:rows] - mean
    comoment = work.T @ work
    buffer = np.empty_like(comoment) if rows < n_rows else None
    count = rows
    for start in range(rows, n_rows, rows):
        block = values[start:start + rows]
        size = block.shape[0]
        block_mean = block.mean(axis=0)
        centred = np.subtract(block, block_mean, out=work[:size])
        comoment += np.matmul(centred.T, centred, out=buffer)
        delta = block_mean - mean
        comoment += np.multiply.outer(delta, delta * (count * size / (count + size)), out=buffer)
        count += size
        mean += delta * (size / count)
    return comoment


class Sums(NamedTuple):
    """Moments of a set of rows: the row count, the sums along the rows and
    the centred sums of squares."""

    count: int
    total: np.ndarray | float
    sq_dev: np.ndarray | float


def centred_sums(block: np.ndarray, work: np.ndarray) -> Sums:
    """The ``Sums`` of ``block`` along its first axis; ``work`` (``block``'s
    shape, and ``block`` itself when it may be overwritten) receives the
    squared deviations.

    The steps repeat ``numpy.var``'s (sum, divide, subtract, square, sum), so
    ``sq_dev / (count - 1)`` equals ``block.var(axis=0, ddof=1)`` bit for bit.
    """
    count = block.shape[0]
    total = block.sum(axis=0)
    np.subtract(block, total / count, out=work)
    np.square(work, out=work)
    return Sums(count, total, work.sum(axis=0))


def merge_sums(a, b) -> Sums:
    """The ``Sums`` of the union of two disjoint sets of rows from each
    set's ``count``, ``total`` and ``sq_dev``, merged by Chan, Golub &
    LeVeque (1979)."""
    count = a.count + b.count
    delta = b.total / b.count - a.total / a.count
    return Sums(
        count,
        a.total + b.total,
        a.sq_dev + b.sq_dev + delta * delta * (a.count * b.count / count),
    )


def weighted_sums(values: np.ndarray, weights: np.ndarray) -> tuple[Sums, Sums]:
    """The ``Sums`` of the columns of ``values`` and of the columns of
    ``values @ weights``, in one pass over blocks of rows.

    Each block is centred on its own column means and multiplied by
    ``weights``; its totals and sums of squares are BLAS products with a
    vector of ones, and the blocks merge by ``merge_sums``. The scratch is
    one block of ``values`` and one of the product, whatever the number of
    rows. The sums agree with ``centred_sums`` to round-off, not bit for bit.
    """
    n_rows = values.shape[0]
    rows = min(n_rows, max(1, BLOCK_BYTES // values[0].nbytes))
    ones = np.ones(rows)
    work = np.empty((rows, values.shape[1]))
    product = np.empty((rows, weights.shape[1]))
    merged = None
    for start in range(0, n_rows, rows):
        block = values[start:start + rows]
        size = block.shape[0]
        one = ones[:size]
        total = one @ block
        centred = np.subtract(block, total / size, out=work[:size])
        projected = np.matmul(centred, weights, out=product[:size])
        sums = (
            Sums(size, total, one @ np.square(centred, out=centred)),
            Sums(size, total @ weights, one @ np.square(projected, out=projected)),
        )
        merged = sums if merged is None else tuple(map(merge_sums, merged, sums))
    return merged


class Moments(NamedTuple):
    """Column moments of a block of draws: the ``Sums`` fields, then
    maxima, minima and sums of ``exp(x - high)``."""

    count: int
    total: np.ndarray
    sq_dev: np.ndarray
    high: np.ndarray
    low: np.ndarray
    exp_sum: np.ndarray

    def linf(self) -> np.ndarray:
        return self.sq_dev / (self.count - 1)

    def dinf(self) -> np.ndarray:
        logmeanexp = self.high + np.log(self.exp_sum / self.count)
        out = 2.0 * (logmeanexp - self.total / self.count)
        # Jensen guarantees nonnegativity; clamp accumulation round-off and pin
        # constant columns (Jensen equality) to exactly zero.
        out = np.maximum(out, 0.0)
        out[self.low == self.high] = 0.0
        return out


def block_moments(block: np.ndarray) -> Moments:
    """The moments of ``block``; one work array of ``block``'s shape is the
    only temporary.

    The steps repeat ``numpy.var``'s and the max-shifted log-mean-exp's, so
    ``linf()`` and ``dinf()`` of one block equal ``block.var(axis=0, ddof=1)``
    and its Jensen gap bit for bit.
    """
    work = np.empty(block.shape)
    sums = centred_sums(block, work)
    high = block.max(axis=0)
    np.subtract(block, high, out=work)
    np.exp(work, out=work)
    return Moments(*sums, high, block.min(axis=0), work.sum(axis=0))


def pool(blocks: list[Moments]) -> Moments:
    """Moments of the union of the blocks' rows, merged pairwise: sums of
    squares by ``merge_sums``, extrema and shifted exp sums exactly."""
    if len(blocks) == 1:
        return blocks[0]
    a, b = pool(blocks[: len(blocks) // 2]), pool(blocks[len(blocks) // 2:])
    high = np.maximum(a.high, b.high)
    return Moments(
        *merge_sums(a, b),
        high,
        np.minimum(a.low, b.low),
        a.exp_sum * np.exp(a.high - high) + b.exp_sum * np.exp(b.high - high),
    )


def row_moments(values: np.ndarray, rows: np.ndarray) -> Moments:
    """The moments of the rows ``rows`` of ``values``, pooled from pieces of
    at most ``BLOCK_BYTES``.

    ``rows`` must ascend without repeats, as ``replicate_groups`` gives them:
    then a piece is consecutive exactly when its last row less its first is
    its length less one, and it is taken as a view; any other piece is
    gathered, one block at most. Rows that fit in one block give
    ``block_moments(values[rows])`` bit for bit.
    """
    size = max(1, BLOCK_BYTES // values[0].nbytes)
    blocks = []
    for start in range(0, rows.size, size):
        piece = rows[start:start + size]
        first, last = piece[0], piece[-1]
        block = values[first:last + 1] if last - first + 1 == piece.size else values[piece]
        blocks.append(block_moments(block))
    return pool(blocks)


def mcse(replicates: list) -> np.ndarray | float:
    """Standard error of the mean of the replicate statistics: an array for
    array statistics, a float for scalar ones."""
    stacked = np.stack([np.asarray(r, dtype=float) for r in replicates])
    error = stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])
    return error if error.ndim else float(error)
