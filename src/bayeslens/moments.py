"""Folds over blocks of posterior draws, behind every diagnostic.

``linf``, ``dinf``, ``p_w``, ``p_v``, the group penalties of cross-conflict,
the covariance V and the hat-values are statistics of column moments of the
draws. Each kernel takes the moments of one block of rows, and the moments
of disjoint blocks merge by Chan, Golub & LeVeque (1979). The covariance,
the influence moments, the cross-conflict sums and the hat-value pairs fold
the blocks of one walker, ``row_blocks``, so their scratch is a block
whatever the number of draws. A column operation on a block of narrow rows
would run one short numpy loop per draw, so each fold views k draws as one
row (``widen``) and reduces the k copies at the end (``column_reduce``).
Variance convention: unbiased, denominator S - 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Bytes per block of draws: about 1 MB. Only ``row_blocks`` reads it, at
# call time, so that one assignment changes every fold.
BLOCK_BYTES = 1 << 20
# Blocks hold a multiple of this many draws, so that ``widen`` can view up to
# that many as one row. Only ``row_blocks`` reads it.
BLOCK_ROW_STEP = 64


def row_blocks(values: np.ndarray, rows: np.ndarray | None = None, min_rows: int = 1):
    """The rows ``rows`` of ``values`` (all rows when None) in their given
    order, in blocks of ``max(min_rows, budget)`` rows of which only the last
    may be shorter. The budget is ``BLOCK_BYTES // row bytes`` rounded down to
    a multiple of ``BLOCK_ROW_STEP`` (unrounded when under one step). A block
    of consecutive ascending rows is a view of ``values``; any other block is
    gathered."""
    budget = BLOCK_BYTES // values[0].nbytes
    if budget >= BLOCK_ROW_STEP:
        budget -= budget % BLOCK_ROW_STEP
    size = max(min_rows, budget)
    for start in range(0, values.shape[0] if rows is None else rows.size, size):
        if rows is None:
            yield values[start:start + size]
            continue
        piece = rows[start:start + size]
        first, last = piece[0], piece[-1]
        # the ends alone do not decide it: [5, 7, 6, 8] spans its length
        if last - first + 1 == piece.size and np.array_equal(piece, np.arange(first, last + 1)):
            piece = slice(first, last + 1)
        yield values[piece]


def widen(block: np.ndarray) -> tuple[np.ndarray, int]:
    """``block`` viewed with k consecutive rows as one, and k: the smallest
    power of two with k * row >= 512 elements, or the largest that divides
    the row count if that is smaller. A column operation on the view runs
    loops of 512 elements where ``block`` would run one per row; a row to
    broadcast against it is ``np.tile(row, k)``. A 1-D or non-C-contiguous
    block comes back as it is, with k = 1."""
    rows = block.shape[0]
    if block.ndim < 2 or not block.flags.c_contiguous:
        return block, 1
    row = block[0].size
    k = 1
    while k * row < 512 and rows % (2 * k) == 0:
        k *= 2
    return block.reshape(rows // k, k * row), k


def column_reduce(ufunc: np.ufunc, wide: np.ndarray, k: int) -> np.ndarray:
    """``ufunc`` reduced over the rows of a block that ``widen`` viewed as
    ``wide``: over the rows of the view, then over its k copies of a row.
    For a C-contiguous block of three or more dimensions the reduced row
    comes back flattened."""
    columns = ufunc.reduce(wide, axis=0)
    return ufunc.reduce(columns.reshape(k, -1), axis=0) if k > 1 else columns


def co_moments(values: np.ndarray) -> np.ndarray:
    """The n x n centred co-moment matrix of the columns of ``values``.

    A left fold over contiguous blocks of rows: each block is centred on its
    own mean, its co-moment matrix is one BLAS product, and it is merged into
    the running co-moments in place by Chan, Golub & LeVeque (1979). The
    scratch is one block and one n x n buffer whatever the number of rows.
    """
    # At least 4n rows: each merge costs n x n work, and with n-row blocks the
    # fold was slower than np.cov (109 vs 96 ms at 20000 x 400, 359 vs 240 ms
    # at 4000 x 2000).
    blocks = row_blocks(values, min_rows=4 * values.shape[1])
    first = next(blocks)
    count = first.shape[0]
    mean = column_reduce(np.add, *widen(first)) / count
    work = np.empty(first.shape)
    _centre(first, mean, work)
    comoment = work.T @ work
    buffer = np.empty_like(comoment) if count < values.shape[0] else None
    for block in blocks:
        size = block.shape[0]
        block_mean = column_reduce(np.add, *widen(block)) / size
        centred = work[:size]
        _centre(block, block_mean, centred)
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


def _centre(block: np.ndarray, mean: np.ndarray, out: np.ndarray) -> None:
    """Writes ``block`` less the row ``mean`` into ``out`` (C-contiguous and of
    ``block``'s shape, or ``block`` itself), on ``widen``'s view."""
    wide, k = widen(block)
    np.subtract(wide, np.tile(mean, k), out=out.reshape(wide.shape))


def centred_sums(block: np.ndarray, work: np.ndarray) -> Sums:
    """The ``Sums`` of ``block`` along its first axis; ``work`` (C-contiguous
    and of ``block``'s shape, or ``block`` itself when it may be overwritten)
    receives the squared deviations.

    The steps are ``numpy.var``'s (sum, divide, subtract, square, sum) on
    ``widen``'s views, so ``sq_dev / (count - 1)`` agrees with
    ``block.var(axis=0, ddof=1)`` to round-off; a 1-D block, or one of an
    odd number of rows (k = 1), takes numpy's steps bit for bit.
    """
    count = block.shape[0]
    total = column_reduce(np.add, *widen(block))
    _centre(block, total / count, work)
    wide, k = widen(work)
    np.square(wide, out=wide)
    return Sums(count, total, column_reduce(np.add, wide, k))


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
    merged = None
    for block in row_blocks(values):
        size = block.shape[0]
        if merged is None:  # the first block is the largest
            ones = np.ones(size)
            work = np.empty((size, values.shape[1]))
            product = np.empty((size, weights.shape[1]))
        one = ones[:size]
        total = one @ block
        centred = work[:size]
        _centre(block, total / size, centred)
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
    """The moments of a 2-D ``block``; one work array of ``block``'s shape is
    the only temporary larger than a few rows.

    The steps are ``centred_sums``' and the max-shifted log-mean-exp's on
    ``widen``'s views, with ufunc reductions only (no BLAS, so the bits do not
    depend on the thread count). The extrema are exact; ``linf()`` and
    ``dinf()`` agree with ``block.var(axis=0, ddof=1)`` and its Jensen gap to
    round-off.
    """
    work = np.empty(block.shape)
    sums = centred_sums(block, work)
    wide, k = widen(block)
    high = column_reduce(np.maximum, wide, k)
    _centre(block, high, work)
    work = work.reshape(wide.shape)
    np.exp(work, out=work)
    return Moments(
        *sums, high, column_reduce(np.minimum, wide, k), column_reduce(np.add, work, k)
    )


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


def mcse(replicates: list) -> np.ndarray | float:
    """Standard error of the mean of the replicate statistics: an array for
    array statistics, a float for scalar ones."""
    stacked = np.stack([np.asarray(r, dtype=float) for r in replicates])
    error = stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])
    return error if error.ndim else float(error)
