"""Influence diagnostics from the posterior covariance of log-likelihoods.

Everything here derives from the n x n posterior covariance matrix of the
per-observation log-likelihood contributions: the per-observation local
influence (its diagonal), the doubling influence, the WAIC-style penalties
``p_w`` and ``p_w_star``, the total-variance penalty ``p_v``, conformal
(direction-normalized) influence, and the prior-data conflict ratio
``p_v / p_w``. Each statistic is written once: its point estimate applies
one function to the moments pooled over all chains, and its Monte Carlo
standard error applies it to each chain (or half of a single chain).

Variance convention: unbiased, denominator S - 1, everywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    InvalidParameter,
    TooFewDrawsForMcse,
    ZeroPerturbation,
    ZeroTrace,
)
from .families import check_params, is_whole
from .moments import Moments, block_moments, co_moments, mcse, pool, row_blocks, weighted_sums
from .sample_store import (
    GroupMap,
    LogLikSamples,
    chain_order,
    group_members,
    replicate_groups,
)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric posterior covariance of log-likelihood contributions (nats^2)."""

    matrix: np.ndarray
    obs_ids: tuple[str, ...]

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameter("covariance matrix must be square")
        matrix = (matrix + matrix.T) / 2.0
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "obs_ids", tuple(str(i) for i in self.obs_ids))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class Perturbation:
    """A direction in case-weight space; must not be identically zero."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float).ravel()
        if eps.size == 0 or not np.any(eps != 0.0):
            raise ZeroPerturbation("perturbation direction is identically zero")
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)

    @classmethod
    def basis(cls, index: int, size: int) -> "Perturbation":
        """Standard basis vector: perturb a single observation."""
        eps = np.zeros(size)
        eps[index] = 1.0
        return cls(eps)

    @classmethod
    def ones(cls, size: int) -> "Perturbation":
        """Common perturbation of every observation at once."""
        return cls(np.ones(size))

    @classmethod
    def vector(cls, eps, size: int) -> np.ndarray:
        """``eps`` (a Perturbation or a sequence) as a direction of ``size``
        entries: its length is checked first, then that it is not zero."""
        vec = eps.eps if isinstance(eps, cls) else np.asarray(eps, dtype=float).ravel()
        if vec.shape != (size,):
            raise InvalidParameter(f"perturbation has length {vec.shape[0]}, expected {size}")
        return cls(vec).eps


def loglik_covariance(samples: LogLikSamples) -> CovMatrix:
    """Unbiased sample covariance of the log-likelihood columns, pooled over chains.

    The co-moments come from a fold over blocks of draws (``moments.co_moments``),
    so the result differs from ``numpy.cov``'s by round-off (about 2e-15 of
    its largest entry).
    """
    comoment = co_moments(samples.values)
    comoment /= samples.n_draws - 1
    return CovMatrix(matrix=comoment, obs_ids=samples.obs_ids)


def clinf_direction(cov, eps) -> float:
    """Conformal local influence of a direction: eps'V eps / (tr(V) eps'eps)."""
    matrix = cov.matrix if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    trace = float(np.trace(matrix))
    if trace <= 0.0:
        raise ZeroTrace("trace of the covariance is zero: all log-likelihoods constant")
    vec = Perturbation.vector(eps, matrix.shape[0])
    return float(vec @ matrix @ vec) / (trace * float(vec @ vec))


CONFLICT_THRESHOLD = 3.0  # the p_v / p_w at or above which a report or a group is flagged


@dataclass(frozen=True)
class CrossConflict:
    """Per-group conflict ratios; groups with constant log-likelihoods get NaN."""

    group_labels: tuple[str, ...]
    p_v: np.ndarray
    p_w: np.ndarray
    ratio: np.ndarray
    zero_trace: tuple[str, ...]

    def flagged(self, threshold: float = CONFLICT_THRESHOLD) -> tuple[str, ...]:
        hits = [
            label
            for label, value in zip(self.group_labels, self.ratio)
            if math.isfinite(value) and value >= threshold
        ]
        return tuple(hits)


def cross_conflict(samples: LogLikSamples, groups: GroupMap) -> CrossConflict:
    """Conflict ratio between each group and the rest of the data.

    For group g: p_v[g] is twice the variance of the summed log-likelihood of
    its members under a single common perturbation, while p_w[g] sums the
    members' individual variances. A one-member group's sum is its member,
    so its p_v is 2 * p_w by definition, and exactly.

    One pass over blocks of draws (``moments.weighted_sums``) gives the
    column variances and, through a 0/1 indicator with one column per group
    of two or more members, the group totals' variances. The product costs
    S * n * G for G such groups, so many small groups cost more than a few
    large ones.
    """
    members = group_members(samples, groups)
    column_group = np.empty(samples.n_obs, dtype=int)
    for g, idx in enumerate(members.values()):
        column_group[idx] = g
    multi = np.flatnonzero(np.bincount(column_group) > 1)
    indicator = (column_group[:, None] == multi).astype(float)
    columns, totals = weighted_sums(samples.values, indicator)
    denominator = samples.n_draws - 1
    p_w = np.bincount(column_group, weights=columns.sq_dev / denominator)
    p_v = 2.0 * p_w
    p_v[multi] = 2.0 * (totals.sq_dev / denominator)
    return CrossConflict(
        group_labels=tuple(members),
        p_v=p_v,
        p_w=p_w,
        ratio=np.divide(p_v, p_w, out=np.full(p_w.shape, math.nan), where=p_w > 0.0),
        zero_trace=tuple(label for label, pw in zip(members, p_w) if pw <= 0.0),
    )


def bernoulli_pw(y, m, pi_draws) -> np.ndarray:
    """Per-observation WAIC-penalty contribution of binomial outcomes, each
    decomposed into individually perturbable Bernoulli trials:
    y * Var(log pi) + (m - y) * Var(log(1 - pi)).

    ``pi_draws`` is (draws x observations); ``y`` and ``m`` hold each
    observation's successes and trials.
    """
    y = np.asarray(y, dtype=float).ravel()
    m = np.asarray(m, dtype=float).ravel()
    pi_draws = np.asarray(pi_draws, dtype=float)
    if pi_draws.ndim != 2 or pi_draws.shape[1] != y.shape[0] or m.shape != y.shape:
        raise InvalidParameter("pi_draws must be (draws x observations) matching y and m")
    if pi_draws.shape[0] < 2:
        raise DegenerateSample("need at least 2 draws")
    check_params("binomial", pi_draws[..., None], m)
    if not np.all((y >= 0) & (y <= m) & is_whole(y)):
        raise InvalidParameter("counts must be whole numbers with 0 <= y <= m")
    var_success = np.log(pi_draws).var(axis=0, ddof=1)
    var_failure = np.log1p(-pi_draws).var(axis=0, ddof=1)
    return y * var_success + (m - y) * var_failure


# ---------------------------------------------------------------------------
# Full report with Monte Carlo standard errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfluenceReport:
    """Per-observation influence diagnostics plus penalty totals and MCSEs."""

    obs_ids: tuple[str, ...]
    linf: np.ndarray
    dinf: np.ndarray
    clinf: np.ndarray
    linf_mcse: np.ndarray
    dinf_mcse: np.ndarray
    clinf_mcse: np.ndarray
    p_w: float
    p_w_star: float
    p_v: float
    conflict_ratio: float
    p_w_mcse: float
    p_w_star_mcse: float
    p_v_mcse: float
    conflict_ratio_mcse: float
    conflict_threshold: float
    flagged: bool
    n_draws: int
    n_chains: int


def _statistics(moments: Moments, row_totals: np.ndarray) -> dict:
    """Every ``InfluenceReport`` statistic of one set of draws, from its
    column moments and its row totals."""
    linf = moments.linf()
    dinf = moments.dinf()
    p_w = float(np.sum(linf))
    p_v = 2.0 * float(row_totals.var(ddof=1))
    return {
        "linf": linf,
        "dinf": dinf,
        "clinf": linf / p_w if p_w > 0.0 else np.full(linf.shape, math.nan),
        "p_w": p_w,
        "p_w_star": float(np.sum(dinf)),
        "p_v": p_v,
        "conflict_ratio": p_v / p_w if p_w > 0.0 else math.nan,
    }


def influence_report(
    samples: LogLikSamples, *, conflict_threshold: float = CONFLICT_THRESHOLD
) -> InfluenceReport:
    """Compute every influence diagnostic with replicate-based standard errors.

    The column moments of each replicate (a chain, or half of a single chain)
    are pooled from the ``block_moments`` of its ``row_blocks``, so the
    scratch is one block whatever the length of a chain. ``_statistics`` of
    the pooled moments gives the point estimates, and of each replicate's
    moments a replicate; each ``*_mcse`` is the standard error of that
    statistic's replicates (NaN for ``clinf`` and the ratio when a replicate's
    ``p_w`` is zero). The conflict flag marks ``p_v / p_w`` at or above the
    threshold; it is a pointer for further investigation, never a hard failure.
    """
    values = samples.values
    # before any fold: its sort is the call's largest transient
    n_chains = len(chain_order(samples.draw_chain))
    groups_idx = replicate_groups(samples.draw_chain)
    replicated = all(len(g) >= 2 for g in groups_idx)
    if not replicated:
        groups_idx = [np.arange(values.shape[0])]
    parts = [pool([block_moments(b) for b in row_blocks(values, idx)]) for idx in groups_idx]
    row_totals = values.sum(axis=1)
    estimates = _statistics(pool(parts), row_totals)
    if estimates["p_w"] <= 0.0:
        raise ZeroTrace("p_w is zero: all log-likelihood contributions constant")

    if replicated:
        replicates = [_statistics(part, row_totals[idx]) for part, idx in zip(parts, groups_idx)]
        errors = {key: mcse([rep[key] for rep in replicates]) for key in estimates}
    else:
        warnings.warn(
            "too few draws per replicate for Monte Carlo standard errors",
            TooFewDrawsForMcse,
            stacklevel=2,
        )
        # NaN in each statistic's shape
        errors = {key: value * math.nan for key, value in estimates.items()}

    return InfluenceReport(
        obs_ids=samples.obs_ids,
        **estimates,
        **{f"{key}_mcse": value for key, value in errors.items()},
        conflict_threshold=conflict_threshold,
        flagged=estimates["conflict_ratio"] >= conflict_threshold,
        n_draws=samples.n_draws,
        n_chains=n_chains,
    )
