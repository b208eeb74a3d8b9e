"""Invariances of the diagnostics over small random corpora.

They need no ground truth: each compares two runs on inputs that differ
only in something the diagnostics must not see, or must only carry along.

- Relabelling chains, rows kept in place: chains are ranked by first
  appearance before any fold, so no fold reads the labels themselves and
  every output keeps its bits.
- Permuting observations: every fold reduces each column along the rows
  in the same order whatever the column's position, so the per-observation
  hat-values, MCSEs and negative-pair counts are permuted bit for bit. Only
  the sums across columns (``p_d_star``, and the pair totals behind
  ``p_d_star_mcse``) are reordered, and they move within the rounding
  bounds stated in the test.
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
