"""Influence diagnostics from the posterior covariance of log-likelihoods.

Everything here derives from the n x n posterior covariance matrix of the
per-observation log-likelihood contributions: the per-observation local
influence (its diagonal), the doubling influence, the WAIC-style penalties
``p_w`` and ``p_w_star``, the total-variance penalty ``p_v``, conformal
(direction-normalized) influence, and the prior-data conflict ratio
``p_v / p_w``. Point estimates pool all chains; Monte Carlo standard
errors come from between-chain (or split-half) replication.

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
from .moments import block_moments, co_moments, mcse, pool, row_selector
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


def _require_draws(values: np.ndarray) -> None:
    if values.shape[0] < 2:
        raise DegenerateSample("need at least 2 draws")


def loglik_covariance(samples: LogLikSamples) -> CovMatrix:
    """Unbiased sample covariance of the log-likelihood columns, pooled over chains.

    The co-moments come from a fold over blocks of draws (``moments.co_moments``),
    so the result differs from ``numpy.cov``'s by round-off (about 2e-15 of
    its largest entry).
    """
    _require_draws(samples.values)
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


@dataclass(frozen=True)
class CrossConflict:
    """Per-group conflict ratios; groups with constant log-likelihoods get NaN."""

    group_labels: tuple[str, ...]
    p_v: np.ndarray
    p_w: np.ndarray
    ratio: np.ndarray
    zero_trace: tuple[str, ...]

    def flagged(self, threshold: float = 3.0) -> tuple[str, ...]:
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
    members' individual variances.
    """
    members = group_members(samples, groups)
    labels, pv_list, pw_list, ratio_list, bad = [], [], [], [], []
    for label, idx in members.items():
        block = samples.values[:, idx]
        group_pv = 2.0 * float(block.sum(axis=1).var(ddof=1))
        group_pw = float(block.var(axis=0, ddof=1).sum())
        labels.append(label)
        pv_list.append(group_pv)
        pw_list.append(group_pw)
        if group_pw <= 0.0:
            bad.append(label)
            ratio_list.append(math.nan)
        else:
            ratio_list.append(group_pv / group_pw)
    return CrossConflict(
        group_labels=tuple(labels),
        p_v=np.array(pv_list),
        p_w=np.array(pw_list),
        ratio=np.array(ratio_list),
        zero_trace=tuple(bad),
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
    _require_draws(pi_draws)
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


def influence_report(
    samples: LogLikSamples, *, conflict_threshold: float = 3.0
) -> InfluenceReport:
    """Compute every influence diagnostic with replicate-based standard errors.

    The column moments of each replicate block (a chain, or half of a single
    chain) are computed once, on a view when the block's rows are contiguous.
    The MCSEs come from the blocks' statistics and the point estimates from
    the pooled moments. The conflict flag marks ``p_v / p_w`` at or above the
    threshold; it is a pointer for further investigation, never a hard failure.
    """
    values = samples.values
    _require_draws(values)
    groups_idx = replicate_groups(samples.draw_chain)
    replicated = all(len(g) >= 2 for g in groups_idx)
    if not replicated:
        groups_idx = [np.arange(values.shape[0])]
    rows = [row_selector(idx) for idx in groups_idx]
    scratch = np.empty((max(len(idx) for idx in groups_idx), values.shape[1]))
    blocks = [block_moments(values[r], scratch) for r in rows]
    pooled = pool(blocks)
    linf_vec = pooled.linf()
    dinf_vec = pooled.dinf()
    total_pw = float(np.sum(linf_vec))
    if total_pw <= 0.0:
        raise ZeroTrace("p_w is zero: all log-likelihood contributions constant")
    total_pw_star = float(np.sum(dinf_vec))
    row_totals = values.sum(axis=1)
    total_pv = 2.0 * float(row_totals.var(ddof=1))
    ratio = total_pv / total_pw
    clinf_vec = linf_vec / total_pw

    n_chains = len(chain_order(samples.draw_chain))
    if replicated:
        rep_linf = [block.linf() for block in blocks]
        rep_dinf = [block.dinf() for block in blocks]
        rep_pw = [float(np.sum(v)) for v in rep_linf]
        rep_pws = [float(np.sum(v)) for v in rep_dinf]
        rep_pv = [2.0 * float(row_totals[r].var(ddof=1)) for r in rows]
        have_ratio = all(pw > 0.0 for pw in rep_pw)
        linf_mcse = mcse(rep_linf)
        dinf_mcse = mcse(rep_dinf)
        pw_mcse = float(mcse(rep_pw))
        pws_mcse = float(mcse(rep_pws))
        pv_mcse = float(mcse(rep_pv))
        if have_ratio:
            clinf_mcse = mcse([v / pw for v, pw in zip(rep_linf, rep_pw)])
            ratio_mcse = float(mcse([pv / pw for pv, pw in zip(rep_pv, rep_pw)]))
        else:
            clinf_mcse = np.full(len(linf_vec), np.nan)
            ratio_mcse = math.nan
    else:
        warnings.warn(
            "too few draws per replicate for Monte Carlo standard errors",
            TooFewDrawsForMcse,
            stacklevel=2,
        )
        nan_vec = np.full(len(linf_vec), np.nan)
        linf_mcse = dinf_mcse = clinf_mcse = nan_vec
        pw_mcse = pws_mcse = pv_mcse = ratio_mcse = math.nan

    return InfluenceReport(
        obs_ids=samples.obs_ids,
        linf=linf_vec,
        dinf=dinf_vec,
        clinf=clinf_vec,
        linf_mcse=linf_mcse,
        dinf_mcse=dinf_mcse,
        clinf_mcse=clinf_mcse,
        p_w=total_pw,
        p_w_star=total_pw_star,
        p_v=total_pv,
        conflict_ratio=ratio,
        p_w_mcse=pw_mcse,
        p_w_star_mcse=pws_mcse,
        p_v_mcse=pv_mcse,
        conflict_ratio_mcse=ratio_mcse,
        conflict_threshold=conflict_threshold,
        flagged=ratio >= conflict_threshold,
        n_draws=samples.n_draws,
        n_chains=n_chains,
    )
