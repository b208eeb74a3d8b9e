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
from functools import partial

import numpy as np

from .errors import (
    InvalidParameter,
    NoReplicates,
    SingleDraw,
    ZeroLeverage,
)
from .families import FAMILIES, check_params, lookup
from .sample_store import (
    GroupMap,
    PredictiveDraws,
    chain_order,
    group_members,
    replicate_groups,
)
from .influence import _as_direction


def family_kl(family: str, params1, params2):
    """Closed-form KL divergence KL(p(.|params1) || p(.|params2)) in nats.

    ``params1``/``params2`` are tuples of scalars or broadcastable arrays:
    normal families take (mean, variance), poisson (rate,), binomial
    (probability, trials), gamma (shape, rate). The known variance of
    ``normal_known_var`` and the binomial trial counts must be the same on
    both sides.
    """
    spec = lookup(family, InvalidParameter)
    cols1, cols2 = (list(p) if isinstance(p, (tuple, list)) else [p] for p in (params1, params2))
    arity = len(spec.params) + (spec.fixed is not None)
    if len(cols1) != arity or len(cols2) != arity:
        raise TypeError(f"family '{family}' takes {arity} parameters per side")
    fixed = None
    if spec.fixed is not None:
        fixed = np.asarray(cols1.pop())
        if not np.array_equal(fixed, np.asarray(cols2.pop())):
            raise InvalidParameter(f"{family} KL needs the same '{spec.fixed}' on both sides")
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in cols1 + cols2))
    k = len(spec.params)
    # both sides as two draws of one (2, ..., k) array
    pair = np.stack([np.stack(cols[:k], axis=-1), np.stack(cols[k:], axis=-1)])
    check_params(family, pair, fixed)
    return spec.kl(pair[0], pair[1], fixed)


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


@dataclass(frozen=True)
class HatValues:
    """Per-observation leverage (nonnegative, nats) with Monte Carlo errors.

    ``p_d_star`` is the sum of the hat-values (an effective number of
    parameters); ``cllev`` holds each observation's share of it (NaN when
    total leverage is zero). ``negative_pairs`` counts per observation how
    many pairwise estimates were negative before flooring: the Monte Carlo
    path produces them by chance, and the closed form through round-off on
    near-identical pairs.
    """

    obs_ids: tuple[str, ...]
    values: np.ndarray
    mcse: np.ndarray
    p_d_star: float
    p_d_star_mcse: float
    cllev: np.ndarray
    n_pairs: int
    negative_pairs: np.ndarray


def _split_streams(draw_chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = chain_order(draw_chain)
    if labels.size >= 2:
        mask = np.isin(draw_chain, labels[: (labels.size + 1) // 2])
        return np.flatnonzero(mask), np.flatnonzero(~mask)
    warnings.warn(
        "single chain: pairing first half against second half; "
        "halves are not strictly independent",
        stacklevel=3,
    )
    first, second = replicate_groups(draw_chain)
    return first, second


# Gathered params per side and block of pairs: about 1 MB.
_PAIR_BLOCK_BYTES = 1 << 20


def _pair_mc_kl(rng, family, params1, params2, fixed, replicates):
    total = np.zeros(params1.shape[:2])
    for _ in range(replicates):
        outcome = family.sample(rng, params1, fixed)
        total += family.logpdf(outcome, params1, fixed)
        total -= family.logpdf(outcome, params2, fixed)
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
    hat-values are floored at zero and counted. The pairs are evaluated in
    blocks of rows, and the replicate outcomes are drawn block by block, so
    the Monte Carlo values for a seed depend on the block size.
    """
    idx1, idx2 = _split_streams(pred.draw_chain)
    n_pairs = min(idx1.shape[0], idx2.shape[0])
    if n_pairs < 2:
        raise SingleDraw("each draw stream needs at least 2 draws")
    rng = np.random.default_rng(seed)
    rows1 = idx1[rng.permutation(idx1.shape[0])][:n_pairs]
    rows2 = idx2[rng.permutation(idx2.shape[0])][:n_pairs]
    # the draws were checked when ``pred`` was built, so no pair is re-checked
    family = FAMILIES[pred.family]
    kl = family.kl
    if force_mc:
        kl = partial(_pair_mc_kl, rng, family, replicates=mc_replicates)
    # Pairs are gathered a block at a time, so no permuted copy of the whole
    # params array is made. The KL is elementwise: blocking leaves its bits.
    block = max(1, _PAIR_BLOCK_BYTES // pred.params[0].nbytes)
    pair_values = np.empty((n_pairs, pred.n_obs))
    for start in range(0, n_pairs, block):
        params1 = pred.params[rows1[start:start + block]]
        params2 = pred.params[rows2[start:start + block]]
        values = kl(params1, params2, pred.fixed)
        if symmetrize:
            values = (values + kl(params2, params1, pred.fixed)) / 2.0
        pair_values[start:start + block] = values

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
