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
    merge_sums,
    pool,
    row_moments,
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
        folded = row_moments(values, rows)
    whole = block_moments(values[rows])
    assert folded.count == whole.count == rows.size
    np.testing.assert_array_equal(folded.high, whole.high)
    np.testing.assert_array_equal(folded.low, whole.low)
    np.testing.assert_allclose(folded.linf(), whole.linf(), rtol=1e-12)
    np.testing.assert_allclose(folded.dinf(), whole.dinf(), rtol=1e-9)
    if rows.size <= block_bytes // values[0].nbytes:
        for got, expected in zip(folded, whole):
            np.testing.assert_array_equal(got, expected)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(2, 120),
    n_obs=st.integers(1, 5),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_merge_sums_any_contiguous_split(seed, draws, n_obs, cuts):
    """Folding the parts' sums in order, as hat_values does, gives the
    sums of the whole, for columns and for row totals alike."""
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
        np.testing.assert_array_equal(whole.sq_dev / (draws - 1), data.var(axis=0, ddof=1))


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
