"""Bayesian hat-values from two independent posterior draw streams.

The hat-value of an observation is the average Kullback-Leibler divergence
between its replicate predictive distributions under two independent
posterior draws. Draws are split into two streams (parallel chains, or a
half-split of a single chain), shuffled with a seeded generator to break
residual alignment, and paired index-by-index. The KL integrand is closed
form for every supported predictive family; an unbiased Monte Carlo
fallback over replicate outcomes is available as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .errors import (
    InvalidParameter,
    NoReplicates,
    SingleDraw,
    ZeroLeverage,
)
from .io_utils import dump_json, format_float, write_csv_rows
from .sample_store import GroupMap, PredictiveDraws, _first_appearance, group_members
from .influence import _as_direction


# ---------------------------------------------------------------------------
# Closed-form KL divergences (nats), vectorized over parameter arrays
# ---------------------------------------------------------------------------

def _check_positive(name: str, *arrays) -> None:
    for arr in arrays:
        if not np.all(np.asarray(arr) > 0):
            raise InvalidParameter(f"{name} must be positive")


def _check_prob(*arrays) -> None:
    for arr in arrays:
        arr = np.asarray(arr)
        if not (np.all(arr > 0) and np.all(arr < 1)):
            raise InvalidParameter("probabilities must lie in (0, 1)")


def _kl_normal_known_var(mean1, var1, mean2, var2):
    _check_positive("variance", var1, var2)
    var1 = np.asarray(var1, dtype=float)
    if not np.allclose(var1, var2, rtol=1e-9, atol=0.0):
        raise InvalidParameter("known-variance normals must share their variance")
    return (np.asarray(mean1) - np.asarray(mean2)) ** 2 / (2.0 * var1)


def _kl_normal(mean1, var1, mean2, var2):
    _check_positive("variance", var1, var2)
    mean1, var1 = np.asarray(mean1, dtype=float), np.asarray(var1, dtype=float)
    mean2, var2 = np.asarray(mean2, dtype=float), np.asarray(var2, dtype=float)
    return 0.5 * (np.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / var2 - 1.0)


def _kl_poisson(rate1, rate2):
    _check_positive("rate", rate1, rate2)
    rate1 = np.asarray(rate1, dtype=float)
    rate2 = np.asarray(rate2, dtype=float)
    return rate1 * np.log(rate1 / rate2) - rate1 + rate2


def _kl_binomial(prob1, trials1, prob2, trials2):
    _check_prob(prob1, prob2)
    trials1 = np.asarray(trials1)
    if np.any(trials1 < 1):
        raise InvalidParameter("binomial trial counts must be >= 1")
    if not np.array_equal(trials1, np.asarray(trials2)):
        raise InvalidParameter("binomial KL needs matching trial counts")
    prob1 = np.asarray(prob1, dtype=float)
    prob2 = np.asarray(prob2, dtype=float)
    per_trial = prob1 * np.log(prob1 / prob2) + (1.0 - prob1) * np.log(
        (1.0 - prob1) / (1.0 - prob2)
    )
    return trials1 * per_trial


def _kl_gamma(shape1, rate1, shape2, rate2):
    _check_positive("shape", shape1, shape2)
    _check_positive("rate", rate1, rate2)
    shape1 = np.asarray(shape1, dtype=float)
    rate1 = np.asarray(rate1, dtype=float)
    shape2 = np.asarray(shape2, dtype=float)
    rate2 = np.asarray(rate2, dtype=float)
    return (
        (shape1 - shape2) * digamma(shape1)
        - gammaln(shape1)
        + gammaln(shape2)
        + shape2 * np.log(rate1 / rate2)
        + shape1 * (rate2 - rate1) / rate1
    )


_KL_FUNCS = {
    "normal_known_var": _kl_normal_known_var,
    "normal": _kl_normal,
    "poisson": _kl_poisson,
    "binomial": _kl_binomial,
    "gamma": _kl_gamma,
}


def family_kl(family: str, params1, params2):
    """Closed-form KL divergence KL(p(.|params1) || p(.|params2)) in nats.

    ``params1``/``params2`` are tuples of scalars or broadcastable arrays:
    normal families take (mean, variance), poisson (rate,), binomial
    (probability, trials), gamma (shape, rate).
    """
    try:
        func = _KL_FUNCS[family]
    except KeyError:
        raise InvalidParameter(
            f"unsupported family '{family}'; expected one of {sorted(_KL_FUNCS)}"
        ) from None
    if not isinstance(params1, (tuple, list)):
        params1 = (params1,)
    if not isinstance(params2, (tuple, list)):
        params2 = (params2,)
    return func(*params1, *params2)


def mc_kl(logp1, logp2) -> float:
    """Unbiased Monte Carlo KL estimate from replicate draws.

    ``logp1`` and ``logp2`` hold both log-densities evaluated at replicates
    drawn from the first distribution; the estimate is their mean difference
    and may be negative by chance.
    """
    logp1 = np.asarray(logp1, dtype=float).ravel()
    logp2 = np.asarray(logp2, dtype=float).ravel()
    if logp1.shape != logp2.shape:
        raise InvalidParameter("log-density arrays must have equal length")
    if logp1.size == 0:
        raise NoReplicates("need at least one replicate draw")
    return float(np.mean(logp1 - logp2))


# ---------------------------------------------------------------------------
# Replicate sampling and log-densities for the Monte Carlo fallback
# ---------------------------------------------------------------------------

def _sample_family(rng: np.random.Generator, family: str, params, trials):
    if family in ("normal_known_var", "normal"):
        return rng.normal(params[..., 0], np.sqrt(params[..., 1]))
    if family == "poisson":
        return rng.poisson(params[..., 0]).astype(float)
    if family == "binomial":
        return rng.binomial(trials, params[..., 0]).astype(float)
    if family == "gamma":
        return rng.gamma(params[..., 0], 1.0 / params[..., 1])
    raise InvalidParameter(f"unsupported family '{family}'")


def _logpdf_family(family: str, outcome, params, trials):
    if family in ("normal_known_var", "normal"):
        mean, var = params[..., 0], params[..., 1]
        return -0.5 * np.log(2.0 * np.pi * var) - (outcome - mean) ** 2 / (2.0 * var)
    if family == "poisson":
        rate = params[..., 0]
        return outcome * np.log(rate) - rate - gammaln(outcome + 1.0)
    if family == "binomial":
        prob = params[..., 0]
        return (
            gammaln(trials + 1.0)
            - gammaln(outcome + 1.0)
            - gammaln(trials - outcome + 1.0)
            + outcome * np.log(prob)
            + (trials - outcome) * np.log1p(-prob)
        )
    if family == "gamma":
        shape, rate = params[..., 0], params[..., 1]
        return (
            shape * np.log(rate)
            - gammaln(shape)
            + (shape - 1.0) * np.log(outcome)
            - rate * outcome
        )
    raise InvalidParameter(f"unsupported family '{family}'")


# ---------------------------------------------------------------------------
# Hat values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HatValues:
    """Per-observation leverage (nonnegative, nats) with Monte Carlo errors.

    ``p_d_star`` is the sum of the hat-values (an effective number of
    parameters); ``cllev`` holds each observation's share of it (NaN when
    total leverage is zero). ``negative_pairs`` counts per observation how
    many pairwise estimates were negative before flooring (only the Monte
    Carlo path can produce them).
    """

    obs_ids: tuple[str, ...]
    values: np.ndarray
    mcse: np.ndarray
    p_d_star: float
    p_d_star_mcse: float
    cllev: np.ndarray
    n_pairs: int
    negative_pairs: np.ndarray

    def to_dict(self) -> dict:
        return {
            "obs_ids": list(self.obs_ids),
            "hat_values": self.values,
            "mcse": self.mcse,
            "cllev": self.cllev,
            "p_d_star": self.p_d_star,
            "p_d_star_mcse": self.p_d_star_mcse,
            "n_pairs": self.n_pairs,
            "negative_pairs": self.negative_pairs,
        }

    def write_json(self, path) -> None:
        dump_json(path, self.to_dict())

    def write_csv(self, path) -> None:
        header = ["obs_id", "hat_value", "mcse", "cllev"]
        rows = (
            [
                obs,
                format_float(self.values[i]),
                format_float(self.mcse[i]),
                format_float(self.cllev[i]),
            ]
            for i, obs in enumerate(self.obs_ids)
        )
        write_csv_rows(path, header, rows)


def _split_streams(draw_chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = _first_appearance(draw_chain.tolist())
    if len(labels) >= 2:
        first = set(labels[: (len(labels) + 1) // 2])
        mask = np.array([label in first for label in draw_chain])
        return np.flatnonzero(mask), np.flatnonzero(~mask)
    warnings.warn(
        "single chain: pairing first half against second half; "
        "halves are not strictly independent",
        stacklevel=3,
    )
    rows = np.arange(draw_chain.shape[0])
    half = rows.shape[0] // 2
    return rows[:half], rows[half:]


def _pair_kl(family, params1, params2, trials):
    if family in ("normal_known_var", "normal"):
        args1 = (params1[:, :, 0], params1[:, :, 1])
        args2 = (params2[:, :, 0], params2[:, :, 1])
    elif family == "poisson":
        args1 = (params1[:, :, 0],)
        args2 = (params2[:, :, 0],)
    elif family == "binomial":
        args1 = (params1[:, :, 0], trials[np.newaxis, :])
        args2 = (params2[:, :, 0], trials[np.newaxis, :])
    else:  # gamma
        args1 = (params1[:, :, 0], params1[:, :, 1])
        args2 = (params2[:, :, 0], params2[:, :, 1])
    return family_kl(family, args1, args2)


def _pair_mc_kl(rng, family, params1, params2, trials, replicates):
    total = np.zeros(params1.shape[:2])
    for _ in range(replicates):
        outcome = _sample_family(rng, family, params1, trials)
        total += _logpdf_family(family, outcome, params1, trials)
        total -= _logpdf_family(family, outcome, params2, trials)
    return total / replicates


def hat_values(
    pred: PredictiveDraws,
    *,
    seed: int = 0,
    symmetrize: bool = False,
    force_mc: bool = False,
    mc_replicates: int = 64,
) -> HatValues:
    """Estimate per-observation hat-values by pairing two draw streams.

    With two or more chains the first half of the chains forms stream one
    and the rest stream two; a single chain is split in half with a warning.
    Streams are shuffled independently (seeded), truncated to the shorter
    length M, and the family KL divergence is averaged over the M pairs.
    ``symmetrize`` averages both KL directions. ``force_mc`` replaces the
    closed form with the unbiased replicate estimator (``mc_replicates``
    outcomes per pair), whose pair averages may dip below zero; negative
    hat-values are floored at zero and counted.
    """
    idx1, idx2 = _split_streams(pred.draw_chain)
    n_pairs = min(idx1.shape[0], idx2.shape[0])
    if n_pairs < 2:
        raise SingleDraw("each draw stream needs at least 2 draws")
    rng = np.random.default_rng(seed)
    rows1 = idx1[rng.permutation(idx1.shape[0])][:n_pairs]
    rows2 = idx2[rng.permutation(idx2.shape[0])][:n_pairs]
    params1 = pred.params[rows1]
    params2 = pred.params[rows2]

    if force_mc:
        pair_values = _pair_mc_kl(
            rng, pred.family, params1, params2, pred.trials, mc_replicates
        )
        if symmetrize:
            reverse = _pair_mc_kl(
                rng, pred.family, params2, params1, pred.trials, mc_replicates
            )
            pair_values = (pair_values + reverse) / 2.0
    else:
        pair_values = _pair_kl(pred.family, params1, params2, pred.trials)
        if symmetrize:
            reverse = _pair_kl(pred.family, params2, params1, pred.trials)
            pair_values = (pair_values + reverse) / 2.0

    raw = pair_values.mean(axis=0)
    mcse = pair_values.std(axis=0, ddof=1) / math.sqrt(n_pairs)
    negative = (pair_values < 0.0).sum(axis=0)
    floored = raw < 0.0
    if np.any(floored):
        warnings.warn(
            f"floored {int(floored.sum())} negative hat-value estimate(s) at zero",
            stacklevel=2,
        )
    values = np.maximum(raw, 0.0)
    total = float(np.sum(values))
    total_mcse = float(
        pair_values.sum(axis=1).std(ddof=1) / math.sqrt(n_pairs)
    )
    cllev = values / total if total > 0.0 else np.full(values.shape, np.nan)
    return HatValues(
        obs_ids=pred.obs_ids,
        values=values,
        mcse=mcse,
        p_d_star=total,
        p_d_star_mcse=total_mcse,
        cllev=cllev,
        n_pairs=n_pairs,
        negative_pairs=negative.astype(int),
    )


def cllev_direction(hat, eps) -> float:
    """Conformal local leverage of a direction: sum h_i eps_i^2 / (sum h_j * sum eps_j^2)."""
    values = hat.values if isinstance(hat, HatValues) else np.asarray(hat, dtype=float)
    total = float(np.sum(values))
    if total <= 0.0:
        raise ZeroLeverage("total leverage is zero")
    vec = _as_direction(eps, values.shape[0])
    return float(np.sum(values * vec**2)) / (total * float(np.sum(vec**2)))


def aggregate_hat_values(hat: HatValues, groups: GroupMap) -> HatValues:
    """Group leverage: exact sums of member hat-values.

    MCSEs combine in quadrature, which ignores cross-observation correlation
    of the pair estimates; treat aggregated errors as approximate.
    """
    members = group_members(hat, groups)
    labels = tuple(members)
    values = np.array([hat.values[idx].sum() for idx in members.values()])
    mcse = np.array(
        [math.sqrt(float(np.sum(hat.mcse[idx] ** 2))) for idx in members.values()]
    )
    negative = np.array(
        [int(hat.negative_pairs[idx].sum()) for idx in members.values()]
    )
    total = float(np.sum(values))
    cllev = values / total if total > 0.0 else np.full(values.shape, np.nan)
    return HatValues(
        obs_ids=labels,
        values=values,
        mcse=mcse,
        p_d_star=total,
        p_d_star_mcse=hat.p_d_star_mcse,
        cllev=cllev,
        n_pairs=hat.n_pairs,
        negative_pairs=negative,
    )
