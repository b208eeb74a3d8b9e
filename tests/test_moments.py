"""The folds over blocks of draws, and the package's module boundaries."""

import ast
import functools
import pathlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeslens import GroupMap, LogLikSamples, cross_conflict, moments
from bayeslens.moments import (
    block_moments,
    centred_sums,
    co_moments,
    column_reduce,
    merge_sums,
    pool,
    row_blocks,
    widen,
)

PACKAGE = pathlib.Path(moments.__file__).resolve().parent


def _spread_draws(rng, draws, n_obs):
    """Columns on different scales, some centred hundreds of nats below zero."""
    scale = rng.uniform(0.1, 20.0, n_obs)
    offset = rng.uniform(-400.0, 5.0, n_obs)
    return rng.standard_normal((draws, n_obs)) * scale + offset


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(2, 120),
    n_obs=st.integers(1, 5),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_pooling_any_contiguous_split(seed, draws, n_obs, cuts):
    values = _spread_draws(np.random.default_rng(seed), draws, n_obs)
    edges = sorted({0, draws, *(int(c * draws) for c in cuts)})
    pooled = pool([block_moments(values[a:b]) for a, b in zip(edges, edges[1:])])
    whole = block_moments(values)
    assert pooled.count == whole.count
    np.testing.assert_array_equal(pooled.high, whole.high)
    np.testing.assert_array_equal(pooled.low, whole.low)
    np.testing.assert_allclose(pooled.linf(), whole.linf(), rtol=1e-12)
    np.testing.assert_allclose(pooled.dinf(), whole.dinf(), rtol=1e-9)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 120),
    n_obs=st.integers(1, 5),
    layout=st.sampled_from(["contiguous", "strided", "subset"]),
    block_bytes=st.integers(1, 4000),
)
def test_row_moments_any_row_set_and_block_size(seed, draws, n_obs, layout, block_bytes):
    """Folding an ascending row set in blocks of ``BLOCK_BYTES`` gives the
    moments of its gathered rows: extrema exactly, linf within 1e-12 and dinf
    within 1e-9, and every field bit for bit when the rows fit in one block."""
    rng = np.random.default_rng(seed)
    values = _spread_draws(rng, draws, n_obs)
    if layout == "contiguous":
        start = int(rng.integers(0, draws - 1))
        rows = np.arange(start, int(rng.integers(start + 2, draws + 1)))
    elif layout == "strided":
        rows = np.arange(int(rng.integers(0, 2)), draws, int(rng.integers(2, 5)))
    else:
        size = int(rng.integers(2, draws + 1))
        rows = np.sort(rng.choice(draws, size=size, replace=False))
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        folded = pool([block_moments(b) for b in row_blocks(values, rows)])
    whole = block_moments(values[rows])
    assert folded.count == whole.count == rows.size
    np.testing.assert_array_equal(folded.high, whole.high)
    np.testing.assert_array_equal(folded.low, whole.low)
    np.testing.assert_allclose(folded.linf(), whole.linf(), rtol=1e-12)
    np.testing.assert_allclose(folded.dinf(), whole.dinf(), rtol=1e-9)
    if rows.size <= block_bytes // values[0].nbytes:
        for got, expected in zip(folded, whole):
            np.testing.assert_array_equal(got, expected)


def _requested_rows(rng, draws, layout):
    """A row set of ``draws`` rows: None for all rows, or an index array."""
    if layout == "all":
        return None
    if layout == "contiguous":
        start = int(rng.integers(0, draws))
        return np.arange(start, int(rng.integers(start + 1, draws + 1)))
    if layout == "strided":
        return np.arange(int(rng.integers(0, min(2, draws))), draws, int(rng.integers(2, 5)))
    if layout == "subset":
        return np.sort(rng.choice(draws, size=int(rng.integers(1, draws + 1)), replace=False))
    if layout == "swapped":
        # swapping neighbours makes pieces such as [5, 7, 6, 8], whose ends
        # span their length although they are not consecutive
        rows = np.arange(draws)
        for i in rng.integers(0, max(1, draws - 1), size=draws // 3):
            rows[i:i + 2] = rows[i:i + 2][::-1]
        return rows
    return rng.permutation(draws)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 120),
    row_shape=st.sampled_from([(1,), (3,), (2, 2)]),
    layout=st.sampled_from(["all", "contiguous", "strided", "subset", "swapped", "permutation"]),
    block_bytes=st.integers(1, 4000),
    min_rows=st.integers(1, 12),
)
def test_row_blocks_any_row_set_and_block_size(seed, draws, row_shape, layout, block_bytes,
                                               min_rows):
    """Every requested row comes once and in the given order, in blocks of
    ``max(min_rows, budget)`` rows of which only the last is shorter, and a
    block is a view exactly when its rows are consecutive. The budget is
    ``BLOCK_BYTES // row bytes`` cut to a multiple of 64 rows when it holds
    64 or more, so no block outgrows ``max(min_rows, BLOCK_BYTES // row bytes)``."""
    rng = np.random.default_rng(seed)
    values = np.arange(draws, dtype=float).reshape(-1, *[1] * len(row_shape)) * np.ones(row_shape)
    rows = _requested_rows(rng, draws, layout)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        blocks = list(row_blocks(values, rows, min_rows))
    wanted = np.arange(draws) if rows is None else rows
    budget = block_bytes // values[0].nbytes
    size = max(min_rows, budget if budget < 64 else budget // 64 * 64)
    assert size <= max(min_rows, budget)
    pieces = [wanted[start:start + size] for start in range(0, wanted.size, size)]
    assert len(blocks) == len(pieces)
    for block, piece in zip(blocks, pieces):
        np.testing.assert_array_equal(block, values[piece])
        consecutive = np.array_equal(piece, np.arange(piece[0], piece[0] + piece.size))
        assert np.shares_memory(block, values) == consecutive, piece


def _laid_out(values, layout, rng):
    """``values``, or a gathered, strided or F-ordered array of its rows."""
    if layout == "gathered":
        return values[np.sort(rng.choice(values.shape[0], values.shape[0], replace=False))]
    if layout == "strided":
        return np.repeat(values, 2, axis=0)[::2]
    if layout == "fortran":
        return np.asfortranarray(values)
    return values


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 300),
    multiple=st.sampled_from([1, 64]),
    width=st.integers(1, 700),
    pairs=st.booleans(),
    layout=st.sampled_from(["contiguous", "gathered", "strided", "fortran"]),
)
def test_widened_column_folds(exact_sums, seed, rows, multiple, width, pairs, layout):
    """``widen`` views k rows as one, k the smallest power of two with
    k * row >= 512 elements unless a smaller one is the most that divides the
    row count, or 1 for a non-C-contiguous block. ``column_reduce`` over the
    view gives numpy's column maxima and minima bit for bit, and column sums
    within R eps sum|x| of ``math.fsum``, the bound of any summation order."""
    rng = np.random.default_rng(seed)
    rows = rows * multiple if rows * multiple * width <= 1 << 16 else rows
    shape = (rows, width, 2) if pairs else (rows, width)
    block = _laid_out(rng.standard_normal(shape) * 50.0 - 300.0, layout, rng)
    wide, k = widen(block)
    row = block[0].size
    if block.flags.c_contiguous:
        assert np.shares_memory(wide, block) and wide.shape == (rows // k, k * row)
        assert rows % k == 0 and k & (k - 1) == 0
        assert k * row >= 512 or rows % (2 * k), (k, row, rows)
        assert k == 1 or k // 2 * row < 512
    else:
        assert k == 1 and wide is block
    for ufunc in (np.maximum, np.minimum):
        got = column_reduce(ufunc, wide, k).reshape(block.shape[1:])
        np.testing.assert_array_equal(got, ufunc.reduce(block, axis=0))
    total, _, total_error, _ = exact_sums(block)
    got = column_reduce(np.add, wide, k).reshape(block.shape[1:])
    assert np.all(np.abs(got - total) <= total_error)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(2, 120),
    n_obs=st.integers(1, 5),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_merge_sums_any_contiguous_split(exact_sums, seed, draws, n_obs, cuts):
    """Folding the parts' sums in order, as hat_values does, gives the
    sums of the whole, for columns and for row totals alike; the sums of the
    whole lie within the error bound of any float64 fold of ``exact_sums``."""
    values = _spread_draws(np.random.default_rng(seed), draws, n_obs)
    edges = sorted({0, draws, *(int(c * draws) for c in cuts)})
    for data in (values, values.sum(axis=1)):
        parts = [centred_sums(data[a:b], np.empty(data[a:b].shape))
                 for a, b in zip(edges, edges[1:])]
        merged = functools.reduce(merge_sums, parts)
        whole = centred_sums(data, np.empty(data.shape))
        assert merged.count == whole.count == draws
        assert np.all(np.abs(merged.total - whole.total) <= 1e-12 * np.abs(data).sum(axis=0))
        np.testing.assert_allclose(merged.sq_dev, whole.sq_dev, rtol=1e-12)
        total, sq_dev, total_error, sq_dev_error = exact_sums(data)
        assert np.all(np.abs(whole.total - total) <= total_error)
        assert np.all(np.abs(whole.sq_dev - sq_dev) <= sq_dev_error)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(2, 120),
    n_obs=st.integers(1, 8),
    block_bytes=st.integers(1, 4000),
)
def test_covariance_fold_any_block_size(seed, draws, n_obs, block_bytes):
    """The blocked co-moment fold gives np.cov within 1e-13 of its largest
    entry; a small block budget makes many blocks of 4n rows or more merge."""
    values = _spread_draws(np.random.default_rng(seed), draws, n_obs)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        cov = co_moments(values) / (draws - 1)
    expected = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    assert np.abs(cov - expected).max() <= 1e-13 * np.abs(expected).max()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(2, 120),
    labels=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    block_bytes=st.integers(1, 4000),
)
def test_cross_conflict_fold_any_block_size(seed, draws, labels, block_bytes):
    """The one-pass group sums give each group's summed member variances and
    twice its total's variance within 1e-12 of the largest reference value,
    for any group map (non-contiguous members, singletons, one group) and a
    block budget small enough that many blocks merge."""
    values = _spread_draws(np.random.default_rng(seed), draws, len(labels))
    ids = [f"o{i}" for i in range(len(labels))]
    samples = LogLikSamples(values=values, draw_chain=[0] * draws, obs_ids=ids)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        result = cross_conflict(samples, GroupMap(dict(zip(ids, map(str, labels)))))
    members = [[i for i, g in enumerate(labels) if str(g) == label]
               for label in result.group_labels]
    p_w = [values[:, idx].var(axis=0, ddof=1).sum() for idx in members]
    p_v = [2.0 * values[:, idx].sum(axis=1).var(ddof=1) for idx in members]
    for got, expected in ((result.p_w, p_w), (result.p_v, p_v)):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_no_module_imports_a_private_name():
    """Each module uses only the public names of its siblings."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def _constant_reads(node, name, scope=None):
    """(enclosing function, line) of each use of the constant ``name`` under
    ``node``, by name or as an attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _constant_reads(child, name, scope)


def test_only_row_blocks_reads_the_block_budget():
    """``BLOCK_BYTES`` and ``BLOCK_ROW_STEP`` are each read in one place,
    ``moments.row_blocks``, so every fold cuts its blocks by one rule."""
    for name in ("BLOCK_BYTES", "BLOCK_ROW_STEP"):
        reads = [(path.name, scope, line)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for scope, line in _constant_reads(ast.parse(path.read_text(encoding="utf-8")),
                                                    name)]
        assert any(read[:2] == ("moments.py", "row_blocks") for read in reads), (name, reads)
        others = [read for read in reads if read[:2] != ("moments.py", "row_blocks")]
        assert not others, (name, others)


# Every function that ``influence_report`` and ``hat_values`` run on the draws.
UFUNC_ONLY = {
    "moments.py": ("row_blocks", "widen", "column_reduce", "_centre", "centred_sums",
                   "merge_sums", "block_moments", "pool", "mcse"),
    "influence.py": ("influence_report", "_statistics"),
    "leverage.py": ("hat_values",),
}


def test_influence_and_leverage_folds_call_no_blas():
    """The folds of ``influence`` and ``leverage`` use ufuncs only: no ``@``,
    ``matmul``, ``dot``, ``vdot``, ``inner``, ``tensordot`` or ``einsum``, so
    their bytes cannot depend on the BLAS library or its thread count (a
    run under 1 and 2 threads cannot show this: OpenBLAS often gives the same
    bits for both)."""
    blas = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}
    found = []
    for file, names in UFUNC_ONLY.items():
        functions = {node.name: node
                     for node in ast.walk(ast.parse((PACKAGE / file).read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(functions), (file, set(names) - set(functions))
        for name in names:
            for node in ast.walk(functions[name]):
                if (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.MatMult)
                        or isinstance(node, ast.Attribute) and node.attr in blas
                        or isinstance(node, ast.Name) and node.id in blas):
                    found.append((file, name, node.lineno))
    assert not found, found
