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
- Changing the memory layout: the containers store their arrays in C
  order, so a Fortran-ordered or column-sliced copy of a table gives every
  bit of the C-ordered one.
- Reordering the draws within each chain: every fold sums the same terms
  in another order, so each output moves within a bound of the folds'
  round-off.
- Permuting the columns of the CSVs given to the command line permutes the
  rows of the artifacts, as permuting the observations does in the library.
"""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import tempfile
import warnings
from types import SimpleNamespace
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
from bayeslens.cli import main
from bayeslens.sample_store import (
    chain_order,
    write_loglik_csv,
    write_metadata_json,
    write_predictive_csv,
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
    bound = _p_d_star_mcse_bound(n_obs, hat.n_pairs, hat.mcse, hat.values)
    assert abs(moved.p_d_star_mcse - hat.p_d_star_mcse) <= bound


def _p_d_star_mcse_bound(n_obs, pairs, mcse, values):
    """How far ``p_d_star_mcse`` moves when the columns are permuted (see
    ``test_observation_permutation_permutes_hat_values``)."""
    norm = math.sqrt(n_obs * pairs * float(np.sum((pairs - 1) * mcse**2 + values**2)))
    return 2 * (n_obs + 3 * pairs + 6) * EPS * norm / math.sqrt(pairs)


def _loglik(rng, draws, n_obs, layout):
    """Log-likelihood draws in four chains: columns of spread 0.1 to 20 around
    offsets down to -400, with ids o0, o1, ..."""
    values = rng.standard_normal((draws, n_obs)) * rng.uniform(0.1, 20.0, n_obs)
    return LogLikSamples(values=values - rng.uniform(0.0, 400.0, n_obs),
                         draw_chain=_chains(rng, draws, layout),
                         obs_ids=tuple(f"o{i}" for i in range(n_obs)))


def _permuted(samples, perm):
    return dataclasses.replace(samples, values=samples.values[:, perm],
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


def _fold_error(draws, q, big, terms=1):
    """A bound on any fold's centred sum of squares over ``draws`` rows of a
    column with exact centred sum of squares q and largest magnitude M
    (``big``), blocks merged by Chan: the fold errs by (S + 4) eps q
    (``exact_sums``); each Chan merge adds d^2 w with d a difference of two
    means, each mean off by at most (S + terms) eps M, and since the merges'
    w d^2 sum to at most q and their w to at most S, these add at most
    4 (S + terms) eps M sqrt(S q) and S (2 (S + terms) eps M)^2. A column of
    sums of ``terms`` columns has means that are sums of ``terms`` totals."""
    mean_error = 2 * (draws + terms) * EPS * big
    return (draws + 4) * EPS * q + 2 * mean_error * np.sqrt(draws * q) + draws * mean_error**2


def _total_fold_error(draws, total_q, big, terms):
    """``_fold_error`` of a column of row sums of ``terms`` columns, whose
    exact sums have centred sum of squares ``total_q`` and whose largest
    magnitudes sum to ``big``: each folded sum is also off by at most
    E = 2 (terms + 1) eps ``big``, which adds 2 E sqrt(S Q) + S E^2."""
    spread = 2 * (terms + 1) * EPS * big
    return (_fold_error(draws, total_q, big, terms)
            + 2 * spread * np.sqrt(draws * total_q) + draws * spread**2)


def _assert_group_statistics_agree(base, moved, values, column_group, exact_sums):
    """Two ``cross_conflict`` results of the same draws ``values`` (columns in
    ``base``'s order, groups ``g<column_group>``) agree within twice the bound
    of one run's error.

    A group's ``p_w`` sums its m members' folded terms in column order,
    (m + 1) eps more than the members' ``_fold_error``. Its ``p_v`` is that of
    a fold of the group totals (``_total_fold_error``), each the sum of m
    centred members. The ratio then moves by the two penalties' moves over
    ``p_w``, and by its own rounding."""
    draws = values.shape[0]
    assert sorted(moved.group_labels) == sorted(base.group_labels)
    assert moved.zero_trace == base.zero_trace == ()
    _, q, _, _ = exact_sums(values)
    big = np.abs(values).max(axis=0)
    for g, label in enumerate(base.group_labels):
        k = moved.group_labels.index(label)
        members = np.flatnonzero(column_group == int(label[1:]))
        m = members.size
        p_w_bound = 2 * (np.sum(_fold_error(draws, q[members], big[members]))
                         + (m + 1) * EPS * np.sum(q[members])) / (draws - 1)
        if m == 1:
            p_v_bound = 2 * p_w_bound
        else:
            totals = np.array([math.fsum(row) for row in values[:, members]])
            total_q = exact_sums(totals)[1]
            error = _total_fold_error(draws, total_q, np.sum(big[members]), m)
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
def test_observation_permutation_keeps_group_statistics(exact_sums, seed, draws, n_obs, layout,
                                                        block_bytes):
    """Columns permuted together with their ids, under one group map: each
    group keeps its ``p_v``, ``p_w`` and ``ratio`` within the round-off of
    the fold (``_assert_group_statistics_agree``), whatever its position
    among the groups."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    column_group = rng.integers(0, n_obs, n_obs)
    groups = GroupMap({obs: f"g{g}" for obs, g in zip(samples.obs_ids, column_group)})
    perm = rng.permutation(n_obs)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        base = cross_conflict(samples, groups)
        moved = cross_conflict(_permuted(samples, perm), groups)
    _assert_group_statistics_agree(base, moved, samples.values, column_group, exact_sums)


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


def _layouts(table):
    """Copies of ``table``, writable and read-only: in C order, in Fortran
    order, and as the first half of the columns of an array twice as wide."""
    for read_only in (False, True):
        for copy in (np.array(table, order="C"), np.array(table, order="F"),
                     np.concatenate([table, table], axis=1)):
            copy.setflags(write=not read_only)
            yield copy[:, :table.shape[1]]


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    family=st.sampled_from(FAMILY_NAMES),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    block_bytes=st.integers(1, 4000),
)
def test_memory_layout_changes_no_bit(random_predictive, seed, draws, n_obs, family, layout,
                                      block_bytes):
    """C-ordered, Fortran-ordered and column-sliced copies of one table,
    writable or read-only, give ``influence_report``, ``loglik_covariance``
    and ``hat_values`` with every bit equal: each container keeps its array
    in C order, so the folds see one layout."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    pred = dataclasses.replace(random_predictive(family, rng, draws, n_obs),
                               draw_chain=samples.draw_chain)
    runs = []
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the same warnings on every side
        for values, params in zip(_layouts(samples.values), _layouts(pred.params)):
            copied = dataclasses.replace(samples, values=values)
            moved = dataclasses.replace(pred, params=params)
            runs.append((influence_report(copied), loglik_covariance(copied),
                         hat_values(moved, seed=5)))
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            _assert_bit_identical(a, b)


def _influence_errors(values, exact_sums):
    """Each ``InfluenceReport`` statistic of the draws ``values`` (S rows, n
    columns), near-exact, and a bound on the error of any run's value of it:
    ``{name: (value, error)}``.

    - ``linf`` divides the folded q by S - 1: ``_fold_error`` and one eps.
    - ``dinf`` is 2 (max + log(mean(exp(x - max))) - mean). Each shifted
      exponential is off by (2M + 4) eps relative (its argument, within 2M,
      by 2M eps; the exponential by 4 eps); the sums and at most S merges,
      each rescaling by an exponential of a difference within 2M, add
      (S + 1)(2M + 6) eps relative, so the log is off by
      (S + 2)(2M + 6) eps + 2M eps. The mean is off by (S + 1) eps M, and
      the three additions by 4M eps more: in all within 2 (S + 4)(3M + 6) eps.
    - ``p_w`` and ``p_w_star`` sum n terms: their errors and n eps of the sum.
    - ``p_v`` is twice the variance of the row totals (``_total_fold_error``
      and two eps).
    - ``conflict_ratio`` and ``clinf`` divide by ``p_w``: the numerator's
      error plus the quotient times ``p_w``'s error, over the smallest
      ``p_w``, and two eps of the quotient.
    """
    draws, n_obs = values.shape
    total, q, _, _ = exact_sums(values)
    big = np.abs(values).max(axis=0)
    high = values.max(axis=0)
    stats = {
        "linf": (q / (draws - 1), (_fold_error(draws, q, big) * (1 + EPS) + EPS * q) / (draws - 1)),
        "dinf": (2 * (high + np.log(np.mean(np.exp(values - high), axis=0)) - total / draws),
                 2 * (draws + 4) * (3 * big + 6) * EPS),
    }
    for name, column in (("p_w", "linf"), ("p_w_star", "dinf")):
        value, error = (np.sum(part) for part in stats[column])
        stats[name] = (value, error + n_obs * EPS * (value + error))
    totals = np.array([math.fsum(row) for row in values])
    total_q = exact_sums(totals)[1]
    error = _total_fold_error(draws, total_q, np.sum(big), n_obs)
    stats["p_v"] = (2 * total_q / (draws - 1), 2 * (error + 2 * EPS * total_q) / (draws - 1))
    p_w, p_w_error = stats["p_w"]
    for name, numerator in (("conflict_ratio", "p_v"), ("clinf", "linf")):
        value, error = stats[numerator]
        quotient = value / p_w
        stats[name] = (quotient,
                       (error + quotient * p_w_error) / (p_w - p_w_error) + 2 * EPS * quotient)
    return stats


def _mcse_error(replicates, errors):
    """A bound on the error of any run's ``moments.mcse`` of R replicates
    near ``replicates``, each off by at most ``errors``: the exact standard
    deviation moves by at most ||errors|| / sqrt(R - 1), since centring is a
    projection. Numpy's of R values r errs by at most (R + 6) eps std +
    sqrt(R / (R - 1)) (R + 1) eps max|r| (the ``exact_sums`` bounds), and
    std <= sqrt(R / (R - 1)) max|r|; the division by sqrt(R) adds one eps."""
    count = len(replicates)
    reps, errs = np.array(replicates), np.array(errors)
    biggest = np.max(np.abs(reps) + 2 * errs, axis=0)
    moved = np.sqrt(np.sum(errs**2, axis=0) / (count - 1))
    return (moved + math.sqrt(count / (count - 1)) * (2 * count + 8) * EPS * biggest) / math.sqrt(count)


def _assert_reports_agree(base, moved, values, chains, exact_sums, names):
    """The fields ``names`` of two ``influence_report`` results of the draws
    ``values`` (columns in ``base``'s order, ``moved`` permuted to match)
    agree within twice one run's error bound, of ``_influence_errors`` for
    a statistic and of ``_mcse_error`` over the chains for its MCSE."""
    whole = _influence_errors(values, exact_sums)
    parts = [_influence_errors(values[chains == label], exact_sums)
             for label in chain_order(chains)]
    for name in names:
        if name.endswith("_mcse"):
            error = _mcse_error(*zip(*(part[name[:-5]] for part in parts)))
        else:
            error = whole[name][1]
        difference = np.abs(getattr(moved, name) - getattr(base, name))
        assert np.all(difference <= 2 * error), (name, difference, 2 * error)


@corpora
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 160),
    n_obs=st.integers(1, 6),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
    block_bytes=st.integers(1, 4000),
)
def test_reordering_within_chains_moves_by_round_off(exact_sums, seed, draws, n_obs, layout,
                                                     block_bytes):
    """The draws of each chain shuffled among that chain's rows: every fold
    sums the same terms in another order, so each run is within a bound of
    the exact values and the two runs agree within twice it.
    ``influence_report``: ``_assert_reports_agree`` on every statistic and
    MCSE. ``loglik_covariance``: each co-moment is a fold like ``_fold_error``'s
    with sqrt(q_i q_j) for q and the mean errors of both columns, doubled
    for the additions of the merges, then divided by S - 1 and symmetrized
    (two eps). ``cross_conflict``: ``_assert_group_statistics_agree``.
    ``hat_values`` is left out: its pairs are drawn by row index, so the
    reordering changes the pairs themselves."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    chains = samples.draw_chain
    order = np.arange(draws)
    for label in chain_order(chains):
        rows = np.flatnonzero(chains == label)
        order[rows] = rng.permutation(rows)
    shuffled = dataclasses.replace(samples, values=samples.values[order])
    column_group = rng.integers(0, n_obs, n_obs)
    groups = GroupMap({obs: f"g{g}" for obs, g in zip(samples.obs_ids, column_group)})
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        base, moved = (
            (influence_report(s), loglik_covariance(s), cross_conflict(s, groups))
            for s in (samples, shuffled)
        )
    names = [field.name for field in dataclasses.fields(base[0])
             if field.name not in ("obs_ids", "n_draws", "n_chains")]
    assert (moved[0].obs_ids, moved[0].n_draws, moved[0].n_chains) == (
        base[0].obs_ids, base[0].n_draws, base[0].n_chains)
    _assert_reports_agree(base[0], moved[0], samples.values, chains, exact_sums, names)

    _, q, _, _ = exact_sums(samples.values)
    mean_error = 2 * (draws + 1) * EPS * np.abs(samples.values).max(axis=0)
    root = np.sqrt(draws * q)
    scale = np.sqrt(np.outer(q, q))
    co = 2 * ((draws + 4) * EPS * scale + np.outer(mean_error, root) + np.outer(root, mean_error)
              + draws * np.outer(mean_error, mean_error))
    error = ((1 + 2 * EPS) * co + 2 * EPS * scale) / (draws - 1)
    assert np.all(np.abs(moved[1].matrix - base[1].matrix) <= 2 * error)
    _assert_group_statistics_agree(base[2], moved[2], samples.values, column_group, exact_sums)


def _permute_csv_columns(source, target, perm):
    """Write the CSV ``source`` to ``target`` with its columns in the order ``perm``."""
    lines = source.read_text().splitlines()
    target.write_text("".join(
        ",".join(cells[i] for i in perm) + "\n" for cells in (line.split(",") for line in lines)
    ))


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the same warnings on both sides
        assert main(argv) == 0, argv


@settings(derandomize=True, deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(8, 80),
    n_obs=st.integers(2, 8),
    family=st.sampled_from(FAMILY_NAMES),
    layout=st.sampled_from(["contiguous", "interleaved", "shuffled"]),
)
def test_csv_column_permutation_permutes_artifact_rows(random_predictive, exact_sums, seed,
                                                       draws, n_obs, family, layout):
    """``influence`` and ``leverage`` through ``cli.main`` on a corpus and on
    copies of its loglik and predictive CSVs with the columns permuted:
    matched by observation id, ``linf``, ``dinf``, the hat-values, their
    MCSEs and the negative-pair counts keep every bit, as in the library
    permutation tests. The sums across observations move within those
    tests' bounds: the report's statistics and MCSEs within
    ``_assert_reports_agree``, ``p_d_star`` within 2 n eps of itself,
    ``p_d_star_mcse`` within ``_p_d_star_mcse_bound``, and ``cllev``, which
    divides by ``p_d_star``, within (2 n + 2) eps of itself."""
    rng = np.random.default_rng(seed)
    samples = _loglik(rng, draws, n_obs, layout)
    pred = dataclasses.replace(random_predictive(family, rng, draws, n_obs),
                               draw_chain=samples.draw_chain)
    perm = rng.permutation(n_obs)
    pred_perm = rng.permutation(n_obs * pred.params.shape[2])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        meta = tmp / "meta.json"
        write_metadata_json(pred, meta)
        write_loglik_csv(samples, tmp / "loglik.csv")
        write_predictive_csv(pred, tmp / "pred.csv")
        _permute_csv_columns(tmp / "loglik.csv", tmp / "loglik_p.csv", perm)
        _permute_csv_columns(tmp / "pred.csv", tmp / "pred_p.csv", pred_perm)
        runs = []
        for suffix in ("", "_p"):
            out = tmp / f"out{suffix}"
            _run_cli(["influence", "--loglik", str(tmp / f"loglik{suffix}.csv"),
                      "--meta", str(meta), "--out", str(out)])
            _run_cli(["leverage", "--pred", str(tmp / f"pred{suffix}.csv"),
                      "--meta", str(meta), "--out", str(out)])
            report = json.loads((out / "influence_report.json").read_text())
            hat = json.loads((out / "hat_values.json").read_text())
            runs.append((report, hat))
    (report, hat), (moved_report, moved_hat) = runs

    def by_id(record, ids):
        """Each per-observation array of ``record`` in the order of ``ids``."""
        where = [record["obs_ids"].index(obs) for obs in ids]
        return {key: np.array(value)[where] for key, value in record.items()
                if key != "obs_ids" and isinstance(value, list)}

    base, moved = (SimpleNamespace(**by_id(r["per_observation"], samples.obs_ids), **r["totals"])
                   for r in (report, moved_report))
    assert sorted(moved_report["per_observation"]["obs_ids"]) == sorted(samples.obs_ids)
    for name in ("linf", "dinf", "linf_mcse", "dinf_mcse"):
        np.testing.assert_array_equal(getattr(moved, name), getattr(base, name), err_msg=name)
    assert (moved.n_draws, moved.n_chains) == (base.n_draws, base.n_chains)
    names = ["clinf", "clinf_mcse", "p_w", "p_w_mcse", "p_w_star", "p_w_star_mcse", "p_v",
             "p_v_mcse", "conflict_ratio", "conflict_ratio_mcse"]
    _assert_reports_agree(base, moved, samples.values, samples.draw_chain, exact_sums, names)

    hat_base, hat_moved = (SimpleNamespace(**by_id(h, pred.obs_ids)) for h in (hat, moved_hat))
    for name in ("hat_values", "mcse", "negative_pairs"):
        np.testing.assert_array_equal(getattr(hat_moved, name), getattr(hat_base, name),
                                      err_msg=name)
    assert moved_hat["n_pairs"] == hat["n_pairs"]
    assert abs(moved_hat["p_d_star"] - hat["p_d_star"]) <= 2 * n_obs * EPS * hat["p_d_star"]
    bound = _p_d_star_mcse_bound(n_obs, hat["n_pairs"], hat_base.mcse, hat_base.hat_values)
    assert abs(moved_hat["p_d_star_mcse"] - hat["p_d_star_mcse"]) <= bound
    assert np.all(np.abs(hat_moved.cllev - hat_base.cllev) <= (2 * n_obs + 2) * EPS * hat_base.cllev)
