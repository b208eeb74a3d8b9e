"""Invariances of the diagnostics over small random corpora.

They need no ground truth: each compares two runs on inputs that differ
only in something the diagnostics must not see, or must only carry along.

- Relabelling chains, rows kept in place: chains are ranked by first
  appearance before any fold, so no fold reads the labels themselves and
  every output keeps its bits.
- Permuting observations: every fold reduces each column along the rows
  in the same order whatever the column's position, so the per-observation
  hat-values, MCSEs and negative-pair counts are permuted bit for bit, and
  so are ``influence_report``'s ``linf`` and ``dinf`` with their MCSEs. Only
  the sums across columns (``p_d_star``, the pair totals behind
  ``p_d_star_mcse``, ``p_w`` and the ``clinf`` that divide by it) are
  reordered, and they move within the rounding bounds stated in the tests.
  ``cross_conflict`` takes its column sums as BLAS products, whose order of
  accumulation may depend on a column's position, so the group statistics
  move within a bound of the fold's round-off.
- Renaming group labels: ``cross_conflict`` indexes the groups by first
  appearance and never reads a label again, so every group statistic keeps
  its bits.

A permuted copy is made C-contiguous, the layout that the loaders return:
``moments.widen`` views only C-contiguous blocks, so a column-sliced array
would take other reduction paths and other bits.
"""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayeslens import (
    GroupMap,
    LogLikSamples,
    cross_conflict,
    hat_values,
    influence_report,
    loglik_covariance,
    moments,
)

EPS = np.finfo(float).eps
FAMILY_NAMES = ("normal_known_var", "normal", "poisson", "binomial", "gamma")
RELABEL = np.array([7, 3, 5, 1])  # chain 0 -> 7, 1 -> 3, 2 -> 5, 3 -> 1

corpora = settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _chains(rng, draws, layout):
    """Labels 0..3 for ``draws`` rows: in four contiguous runs, interleaved
    (``i % 4``), or shuffled with at least two rows per chain."""
    if layout == "contiguous":
        return np.arange(draws) * 4 // draws
    interleaved = np.arange(draws) % 4
    return interleaved if layout == "interleaved" else rng.permutation(interleaved)


def _assert_bit_identical(a, b):
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


def _diagnostics(samples, pred):
    groups = GroupMap({obs: f"g{i % 2}" for i, obs in enumerate(samples.obs_ids)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the same warnings on both sides
        return (
            influence_report(samples),
            hat_values(pred, seed=5),
            hat_values(pred, seed=5, symmetrize=True),
            loglik_covariance(samples),
            cross_conflict(samples, groups),
        )


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    family=st.sampled_from(FAMILY_NAMES),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    block_bytes=st.integers(1, 4000),
)
def test_chain_relabelling_changes_no_bit(random_predictive, seed, draws, n_obs, family,
                                          layout, block_bytes):
    """Chains 0..3 renamed 7, 3, 5, 1 in place: ``influence_report``,
    ``hat_values`` (plain and symmetrized), ``loglik_covariance`` and
    ``cross_conflict`` keep every bit."""
    rng = np.random.default_rng(seed)
    chains = _chains(rng, draws, layout)
    pred = dataclasses.replace(random_predictive(family, rng, draws, n_obs), draw_chain=chains)
    values = rng.standard_normal((draws, n_obs)) * rng.uniform(0.1, 20.0, n_obs)
    samples = LogLikSamples(values=values - rng.uniform(0.0, 400.0, n_obs), draw_chain=chains,
                            obs_ids=pred.obs_ids)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        before = _diagnostics(samples, pred)
        after = _diagnostics(
            dataclasses.replace(samples, draw_chain=RELABEL[chains]),
            dataclasses.replace(pred, draw_chain=RELABEL[chains]),
        )
    for a, b in zip(before, after):
        _assert_bit_identical(a, b)


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    family=st.sampled_from(FAMILY_NAMES),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    symmetrize=st.booleans(),
    block_bytes=st.integers(1, 4000),
)
def test_observation_permutation_permutes_hat_values(random_predictive, seed, draws, n_obs,
                                                     family, layout, symmetrize, block_bytes):
    """Permuted columns permute ``values``, ``mcse`` and ``negative_pairs``
    bit for bit. ``p_d_star`` sums n nonnegative terms in another order, and
    each order errs by at most (n - 1) eps of the sum: the two agree within
    2 n eps ``p_d_star``.

    ``p_d_star_mcse`` is std(t) / sqrt(M) of the M pair totals t. Each total
    moves by at most 2 n eps times the sum of its terms' magnitudes, T_j,
    and std moves by at most the norm of that change over sqrt(M - 1). Each
    fold's own rounding of std adds (M + 4) eps relative and a mean error of
    (M + 1) eps max|t| (the bounds of ``exact_sums``). With ||T|| bounding
    max|t| and sqrt(M - 1) std(t), the two agree within
    2 (n + 3 M + 6) eps ||T|| / sqrt(M), and ||T||^2 <= n sum_ij v_ij^2,
    which the column moments give: M (M - 1) mcse_i^2 + M values_i^2 for
    column i (these pairs differ, so no column is floored)."""
    rng = np.random.default_rng(seed)
    pred = dataclasses.replace(random_predictive(family, rng, draws, n_obs),
                               draw_chain=_chains(rng, draws, layout))
    perm = rng.permutation(n_obs)
    permuted = dataclasses.replace(
        pred,
        params=pred.params[:, perm],
        obs_ids=tuple(pred.obs_ids[i] for i in perm),
        fixed=None if pred.fixed is None else pred.fixed[perm],
    )
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        hat = hat_values(pred, seed=5, symmetrize=symmetrize)
        moved = hat_values(permuted, seed=5, symmetrize=symmetrize)
    assert moved.obs_ids == permuted.obs_ids
    np.testing.assert_array_equal(moved.values, hat.values[perm])
    np.testing.assert_array_equal(moved.mcse, hat.mcse[perm])
    np.testing.assert_array_equal(moved.negative_pairs, hat.negative_pairs[perm])
    assert moved.n_pairs == hat.n_pairs
    assert abs(moved.p_d_star - hat.p_d_star) <= 2 * n_obs * EPS * hat.p_d_star
    pairs = hat.n_pairs
    norm = math.sqrt(n_obs * pairs * float(np.sum((pairs - 1) * hat.mcse**2 + hat.values**2)))
    bound = 2 * (n_obs + 3 * pairs + 6) * EPS * norm / math.sqrt(pairs)
    assert abs(moved.p_d_star_mcse - hat.p_d_star_mcse) <= bound


def _loglik(rng, draws, n_obs, layout):
    """Log-likelihood draws in four chains: columns of spread 0.1 to 20 around
    offsets down to -400, with ids o0, o1, ..."""
    values = rng.standard_normal((draws, n_obs)) * rng.uniform(0.1, 20.0, n_obs)
    return LogLikSamples(values=values - rng.uniform(0.0, 400.0, n_obs),
                         draw_chain=_chains(rng, draws, layout),
                         obs_ids=tuple(f"o{i}" for i in range(n_obs)))


def _permuted(samples, perm):
    return dataclasses.replace(samples, values=np.ascontiguousarray(samples.values[:, perm]),
                               obs_ids=tuple(samples.obs_ids[i] for i in perm))


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    flat=st.integers(0, 6),
    names=st.lists(st.text(max_size=3), min_size=6, max_size=6, unique=True),
    block_bytes=st.integers(1, 4000),
)
def test_group_label_renaming_changes_no_bit(seed, draws, n_obs, layout, flat, names,
                                             block_bytes):
    """Groups g0..g5 renamed one to one (their order of first appearance
    is that of the columns, so renaming keeps it): ``cross_conflict`` keeps
    every bit of ``p_v``, ``p_w`` and ``ratio``, and its zero-trace groups
    sit at the same positions. The first ``flat`` columns hold one integer
    each, whose sums are exact, so a group of only those has a variance of
    exactly zero and is a zero-trace group."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    values = samples.values.copy()
    values[:, :flat] = rng.integers(-400, 0, min(flat, n_obs))
    samples = dataclasses.replace(samples, values=values)
    column_group = rng.integers(0, n_obs, n_obs)
    groups, renamed = (
        GroupMap({obs: label[g] for obs, g in zip(samples.obs_ids, column_group)})
        for label in ([f"g{g}" for g in range(6)], names)
    )
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        before = cross_conflict(samples, groups)
        after = cross_conflict(samples, renamed)
    assert after.group_labels == tuple(names[int(label[1:])] for label in before.group_labels)
    for name in ("p_v", "p_w", "ratio"):
        np.testing.assert_array_equal(getattr(after, name), getattr(before, name), err_msg=name)
    before_flat, after_flat = (
        [r.group_labels.index(label) for label in r.zero_trace] for r in (before, after)
    )
    assert after_flat == before_flat


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    block_bytes=st.integers(1, 4000),
)
def test_observation_permutation_keeps_group_statistics(exact_sums, seed, draws, n_obs, layout,
                                                        block_bytes):
    """Columns permuted together with their ids, under one group map: each
    group keeps its ``p_v``, ``p_w`` and ``ratio`` within the round-off of
    the fold, whatever its position among the groups.

    Each run is within a bound B of the exact value, so the two agree within
    2B. For S draws, a column with exact centred sum of squares q and largest
    magnitude M: any fold of it errs by (S + 4) eps q (``exact_sums``); each
    Chan merge adds d^2 w with d a difference of two means, each mean off by
    at most (S + 1) eps M, and since the merges' w d^2 sum to at most q and
    their w to at most S, these add at most 4 (S + 1) eps M sqrt(S q) and
    S (2 (S + 1) eps M)^2. A group's ``p_w`` sums its m members' terms in
    column order, (m + 1) eps more. Its total's fold is that of a column with
    M the sum of the members' M and q the exact Q of the row sums, whose
    means are sums of m column totals, so S + m replaces S + 1. Its folded
    values are also each sum of m centred members, off by at most
    E = 2 (m + 1) eps times the members' M, which adds 2 E sqrt(S Q) + S E^2.
    The ratio then moves by the two penalties' moves over ``p_w``, and by
    its own rounding."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    column_group = rng.integers(0, n_obs, n_obs)
    groups = GroupMap({obs: f"g{g}" for obs, g in zip(samples.obs_ids, column_group)})
    perm = rng.permutation(n_obs)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        base = cross_conflict(samples, groups)
        moved = cross_conflict(_permuted(samples, perm), groups)
    assert sorted(moved.group_labels) == sorted(base.group_labels)
    assert moved.zero_trace == base.zero_trace == ()

    values = samples.values
    _, q, _, _ = exact_sums(values)
    big = np.abs(values).max(axis=0)

    def fold_error(q, big, terms):
        mean_error = 2 * (draws + terms) * EPS * big
        return (draws + 4) * EPS * q + 2 * mean_error * np.sqrt(draws * q) + draws * mean_error**2

    for g, label in enumerate(base.group_labels):
        k = moved.group_labels.index(label)
        members = np.flatnonzero(column_group == int(label[1:]))
        m = members.size
        p_w_bound = 2 * (np.sum(fold_error(q[members], big[members], 1))
                         + (m + 1) * EPS * np.sum(q[members])) / (draws - 1)
        if m == 1:
            p_v_bound = 2 * p_w_bound
        else:
            totals = np.array([math.fsum(row) for row in values[:, members]])
            total_q = exact_sums(totals)[1]
            spread = 2 * (m + 1) * EPS * np.sum(big[members])
            error = (fold_error(total_q, np.sum(big[members]), m)
                     + 2 * spread * math.sqrt(draws * total_q) + draws * spread**2)
            p_v_bound = 4 * (error + 2 * EPS * total_q) / (draws - 1)
        d_w = abs(moved.p_w[k] - base.p_w[g])
        d_v = abs(moved.p_v[k] - base.p_v[g])
        assert d_w <= p_w_bound, (label, d_w, p_w_bound)
        assert d_v <= p_v_bound, (label, d_v, p_v_bound)
        ratio = base.ratio[g]
        ratio_bound = (d_v + ratio * d_w) / moved.p_w[k] + 2 * EPS * (ratio + moved.ratio[k])
        assert abs(moved.ratio[k] - ratio) <= ratio_bound, label


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    block_bytes=st.integers(1, 4000),
)
def test_observation_permutation_permutes_influence(seed, draws, n_obs, layout, block_bytes):
    """Permuted columns permute ``linf``, ``dinf`` and their MCSEs bit for bit.

    ``p_w`` sums n nonnegative ``linf`` in another order, and each order errs
    by at most (n - 1) eps of the sum: the two agree within 2 (n - 1) eps
    ``p_w``. ``clinf`` divides by it, so it agrees within (2 n + 1) eps
    ``clinf``. ``clinf_mcse`` is std(c) / sqrt(R) of R replicates of ``clinf``,
    each at most 1 and moved by at most (2 n + 1) eps: std moves by at most
    sqrt(R / (R - 1)) times that, each run's own rounding of it is at most
    (R + 6) eps std + sqrt(R / (R - 1)) (R + 1) eps (the ``exact_sums``
    bounds), and std is at most sqrt(2); with R >= 2 the MCSEs agree within
    (2 n + 4 R + 17) eps."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    perm = rng.permutation(n_obs)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        base = influence_report(samples)
        moved = influence_report(_permuted(samples, perm))
    assert moved.obs_ids == tuple(base.obs_ids[i] for i in perm)
    for name in ("linf", "dinf", "linf_mcse", "dinf_mcse"):
        np.testing.assert_array_equal(getattr(moved, name), getattr(base, name)[perm],
                                      err_msg=name)
    assert abs(moved.p_w - base.p_w) <= 2 * (n_obs - 1) * EPS * base.p_w
    clinf = base.clinf[perm]
    assert np.all(np.abs(moved.clinf - clinf) <= (2 * n_obs + 1) * EPS * clinf)
    bound = (2 * n_obs + 4 * base.n_chains + 17) * EPS
    assert np.all(np.abs(moved.clinf_mcse - base.clinf_mcse[perm]) <= bound)
