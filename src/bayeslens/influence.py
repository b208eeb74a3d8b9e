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
from typing import NamedTuple

import numpy as np

from .errors import (
    CountOutOfRange,
    DegenerateSample,
    InvalidParameter,
    ProbabilityOutOfRange,
    ZeroPerturbation,
    ZeroTrace,
)
from .io_utils import dump_json, format_float, write_csv_rows
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


def _as_direction(eps, size: int) -> np.ndarray:
    vec = eps.eps if isinstance(eps, Perturbation) else np.asarray(eps, dtype=float).ravel()
    if vec.shape != (size,):
        raise InvalidParameter(f"perturbation has length {vec.shape[0]}, expected {size}")
    if not np.any(vec != 0.0):
        raise ZeroPerturbation("perturbation direction is identically zero")
    return vec


def _require_draws(values: np.ndarray) -> None:
    if values.shape[0] < 2:
        raise DegenerateSample("need at least 2 draws")


def loglik_covariance(samples: LogLikSamples) -> CovMatrix:
    """Unbiased sample covariance of the log-likelihood columns, pooled over chains."""
    _require_draws(samples.values)
    cov = np.atleast_2d(np.cov(samples.values, rowvar=False, ddof=1))
    return CovMatrix(matrix=cov, obs_ids=samples.obs_ids)


def linf(samples: LogLikSamples) -> np.ndarray:
    """Local influence per observation: posterior variance of its log-likelihood."""
    _require_draws(samples.values)
    return samples.values.var(axis=0, ddof=1)


class _Moments(NamedTuple):
    """Column moments of a block of draws: the row count, column sums,
    centred sums of squares, maxima, minima and sums of ``exp(x - high)``."""

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


def _block_moments(block: np.ndarray, scratch: np.ndarray) -> _Moments:
    """The moments of ``block``; ``scratch`` (at least as many rows as
    ``block``) is the only temporary.

    The steps repeat ``numpy.var``'s (sum, divide, subtract, square, sum) and
    the max-shifted log-mean-exp's, so ``linf()`` and ``dinf()`` of one block
    equal ``block.var(axis=0, ddof=1)`` and its Jensen gap bit for bit.
    """
    count = block.shape[0]
    total = block.sum(axis=0)
    work = scratch[:count]
    np.subtract(block, total / count, out=work)
    np.square(work, out=work)
    sq_dev = work.sum(axis=0)
    high = block.max(axis=0)
    np.subtract(block, high, out=work)
    np.exp(work, out=work)
    return _Moments(count, total, sq_dev, high, block.min(axis=0), work.sum(axis=0))


def _pool(blocks: list[_Moments]) -> _Moments:
    """Moments of the union of the blocks' rows, merged pairwise: sums of
    squares by Chan, Golub & LeVeque (1979), extrema and shifted exp sums
    exactly."""
    if len(blocks) == 1:
        return blocks[0]
    a, b = _pool(blocks[: len(blocks) // 2]), _pool(blocks[len(blocks) // 2:])
    count = a.count + b.count
    delta = b.total / b.count - a.total / a.count
    high = np.maximum(a.high, b.high)
    return _Moments(
        count,
        a.total + b.total,
        a.sq_dev + b.sq_dev + delta * delta * (a.count * b.count / count),
        high,
        np.minimum(a.low, b.low),
        a.exp_sum * np.exp(a.high - high) + b.exp_sum * np.exp(b.high - high),
    )


def dinf(samples: LogLikSamples) -> np.ndarray:
    """Doubling influence per observation: twice the KL divergence from
    doubling its case weight, i.e. twice the Jensen gap of its likelihood draws."""
    _require_draws(samples.values)
    return _block_moments(samples.values, np.empty(samples.values.shape)).dinf()


def p_v(samples: LogLikSamples) -> float:
    """Total-variance penalty: twice the variance of the per-draw total log-likelihood."""
    _require_draws(samples.values)
    return 2.0 * float(samples.values.sum(axis=1).var(ddof=1))


def clinf_direction(cov, eps) -> float:
    """Conformal local influence of a direction: eps'V eps / (tr(V) eps'eps)."""
    matrix = cov.matrix if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    trace = float(np.trace(matrix))
    if trace <= 0.0:
        raise ZeroTrace("trace of the covariance is zero: all log-likelihoods constant")
    vec = _as_direction(eps, matrix.shape[0])
    return float(vec @ matrix @ vec) / (trace * float(vec @ vec))


def conflict_ratio(samples: LogLikSamples) -> float:
    """Prior-data conflict diagnostic: p_v / p_w."""
    p_w = float(linf(samples).sum())
    if p_w <= 0.0:
        raise ZeroTrace("p_w is zero: all log-likelihood contributions constant")
    return p_v(samples) / p_w


@dataclass(frozen=True)
class CrossConflict:
    """Per-group conflict ratios; groups with constant log-likelihoods get NaN."""

    group_labels: tuple[str, ...]
    p_v: np.ndarray
    p_w: np.ndarray
    ratio: np.ndarray
    zero_trace: tuple[str, ...]
    factor_two: bool

    def flagged(self, threshold: float = 3.0) -> tuple[str, ...]:
        hits = [
            label
            for label, value in zip(self.group_labels, self.ratio)
            if math.isfinite(value) and value >= threshold
        ]
        return tuple(hits)


def cross_conflict(
    samples: LogLikSamples, groups: GroupMap, *, factor_two: bool = True
) -> CrossConflict:
    """Conflict ratio between each group and the rest of the data.

    For group g: p_v[g] is (twice, by default) the variance of the summed
    log-likelihood of its members under a single common perturbation, while
    p_w[g] sums the members' individual variances. ``factor_two=False``
    drops the calibration factor from the group numerator.
    """
    members = group_members(samples, groups)
    factor = 2.0 if factor_two else 1.0
    labels, pv_list, pw_list, ratio_list, bad = [], [], [], [], []
    for label, idx in members.items():
        block = samples.values[:, idx]
        group_pv = factor * float(block.sum(axis=1).var(ddof=1))
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
        factor_two=factor_two,
    )


def binomial_pw(y, m, pi_draws, variant: str = "binomial") -> np.ndarray:
    """Per-observation WAIC-penalty contribution for binomial outcomes.

    ``variant="binomial"`` treats each outcome as the smallest observational
    unit (variance of its full log-likelihood). ``variant="bernoulli"``
    decomposes it into individually perturbable trials:
    y * Var(log pi) + (m - y) * Var(log(1 - pi)).
    """
    y = np.asarray(y, dtype=float).ravel()
    m = np.asarray(m, dtype=float).ravel()
    pi_draws = np.asarray(pi_draws, dtype=float)
    if pi_draws.ndim != 2 or pi_draws.shape[1] != y.shape[0] or m.shape != y.shape:
        raise InvalidParameter("pi_draws must be (draws x observations) matching y and m")
    if pi_draws.shape[0] < 2:
        raise DegenerateSample("need at least 2 draws")
    if np.any(m < 1):
        raise CountOutOfRange("trial counts must be >= 1")
    if np.any(y < 0) or np.any(y > m):
        raise CountOutOfRange("counts must satisfy 0 <= y <= m")
    if not (np.all(pi_draws > 0) and np.all(pi_draws < 1)):
        raise ProbabilityOutOfRange("probabilities must lie in (0, 1)")
    if variant == "binomial":
        loglik = y * np.log(pi_draws) + (m - y) * np.log1p(-pi_draws)
        return loglik.var(axis=0, ddof=1)
    if variant == "bernoulli":
        var_success = np.log(pi_draws).var(axis=0, ddof=1)
        var_failure = np.log1p(-pi_draws).var(axis=0, ddof=1)
        return y * var_success + (m - y) * var_failure
    raise InvalidParameter(f"unknown variant '{variant}'")


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

    def totals_dict(self) -> dict:
        return {
            "p_w": self.p_w,
            "p_w_mcse": self.p_w_mcse,
            "p_w_star": self.p_w_star,
            "p_w_star_mcse": self.p_w_star_mcse,
            "p_v": self.p_v,
            "p_v_mcse": self.p_v_mcse,
            "conflict_ratio": self.conflict_ratio,
            "conflict_ratio_mcse": self.conflict_ratio_mcse,
            "conflict_threshold": self.conflict_threshold,
            "flagged": self.flagged,
            "n_draws": self.n_draws,
            "n_chains": self.n_chains,
        }

    def to_dict(self) -> dict:
        per_obs = {
            "obs_ids": list(self.obs_ids),
            "linf": self.linf,
            "linf_mcse": self.linf_mcse,
            "dinf": self.dinf,
            "dinf_mcse": self.dinf_mcse,
            "clinf": self.clinf,
            "clinf_mcse": self.clinf_mcse,
        }
        return {"per_observation": per_obs, "totals": self.totals_dict()}

    def write_json(self, path) -> None:
        dump_json(path, self.to_dict())

    def write_csv(self, path) -> None:
        header = ["obs_id", "linf", "linf_mcse", "dinf", "dinf_mcse", "clinf", "clinf_mcse"]
        rows = (
            [
                obs,
                format_float(self.linf[i]),
                format_float(self.linf_mcse[i]),
                format_float(self.dinf[i]),
                format_float(self.dinf_mcse[i]),
                format_float(self.clinf[i]),
                format_float(self.clinf_mcse[i]),
            ]
            for i, obs in enumerate(self.obs_ids)
        )
        write_csv_rows(path, header, rows)


def _row_selector(idx: np.ndarray) -> slice | np.ndarray:
    """A slice, so that indexing gives a view, when the ascending row
    indices ``idx`` are contiguous; otherwise ``idx`` itself (a gather)."""
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _mcse(replicates: list) -> np.ndarray | float:
    stacked = np.stack([np.asarray(r, dtype=float) for r in replicates])
    return stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])


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
    rows = [_row_selector(idx) for idx in groups_idx]
    scratch = np.empty((max(len(idx) for idx in groups_idx), values.shape[1]))
    blocks = [_block_moments(values[r], scratch) for r in rows]
    pooled = _pool(blocks)
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
        linf_mcse = _mcse(rep_linf)
        dinf_mcse = _mcse(rep_dinf)
        pw_mcse = float(_mcse(rep_pw))
        pws_mcse = float(_mcse(rep_pws))
        pv_mcse = float(_mcse(rep_pv))
        if have_ratio:
            clinf_mcse = _mcse([v / pw for v, pw in zip(rep_linf, rep_pw)])
            ratio_mcse = float(_mcse([pv / pw for pv, pw in zip(rep_pv, rep_pw)]))
        else:
            clinf_mcse = np.full(len(linf_vec), np.nan)
            ratio_mcse = math.nan
    else:
        warnings.warn(
            "too few draws per replicate for Monte Carlo standard errors",
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
