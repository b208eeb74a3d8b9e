"""Bayesian hat-values from two independent posterior draw streams.

The hat-value of an observation is the average Kullback-Leibler divergence
between its replicate predictive distributions under two independent
posterior draws. Draws are split into two streams (parallel chains, or a
half-split of a single chain), shuffled with a seeded generator to break
residual alignment, and paired index-by-index. The KL is in closed form for
every supported predictive family. Each block of pairs is folded into
running moments, so the scratch is a few blocks of about 1 MB whatever the
number of draws; the MCSEs may therefore differ from a one-pass standard
deviation by round-off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import (
    FlooredHatValues,
    InvalidParameter,
    NoReplicates,
    SingleChain,
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
from .influence import Perturbation


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
    many pairwise KLs were negative before flooring, which round-off produces
    on near-identical pairs.
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
        SingleChain,
        stacklevel=3,
    )
    first, second = replicate_groups(draw_chain)
    return first, second


def hat_values(
    pred: PredictiveDraws,
    *,
    seed: int,
    symmetrize: bool = False,
) -> HatValues:
    """Estimate per-observation hat-values by pairing two draw streams.

    With two or more chains the first half of the chains forms stream one
    and the rest stream two; a single chain is split in half with a warning.
    Streams are shuffled independently (seeded), truncated to the shorter
    length M, and the family KL divergence is averaged over the M pairs.
    ``symmetrize`` averages both KL directions. Round-off can make the KL
    of a near-identical pair negative; such pairs are counted, and negative
    hat-values are floored at zero.

    Each block is folded into running moments (``moments.centred_sums``,
    merged by Chan's rule) rather than kept, with ufunc reductions only, so
    the bits do not depend on the BLAS thread count. The hat-values, ``mcse``
    and ``p_d_star_mcse`` agree with the column means and standard deviations
    of the array of all pair values to round-off; ``negative_pairs`` counts
    exactly.
    """
    idx1, idx2 = _split_streams(pred.draw_chain)
    n_pairs = min(idx1.shape[0], idx2.shape[0])
    if n_pairs < 2:
        raise SingleDraw("each draw stream needs at least 2 draws")
    # in place: the same order as indexing by ``rng.permutation``, without its copies
    rng = np.random.default_rng(seed)
    rng.shuffle(idx1)
    rng.shuffle(idx2)
    rows1, rows2 = idx1[:n_pairs], idx2[:n_pairs]
    # the draws were checked when ``pred`` was built, so no pair is re-checked
    kl = FAMILIES[pred.family].kl
    # Pairs are gathered, evaluated and folded into running moments a block
    # at a time, so neither a permuted copy of the params nor an array of all
    # pair values is made. The KL is elementwise: blocking leaves its bits.
    negative = np.zeros(pred.n_obs, dtype=int)
    scratch = merged = None
    for params1, params2 in zip(moments.row_blocks(pred.params, rows1),
                                moments.row_blocks(pred.params, rows2)):
        count = params1.shape[0]
        if scratch is None:  # the first block is the largest
            scratch = np.empty((count, pred.n_obs))
        values = scratch[:count]
        values[...] = kl(params1, params2, pred.fixed)
        if symmetrize:
            values += kl(params2, params1, pred.fixed)
            values /= 2.0
        del params1, params2  # else the loop names keep this pair alive while the next is gathered
        wide, k = moments.widen(values)
        negative += moments.column_reduce(np.add, wide < 0.0, k)
        block_totals = values.sum(axis=1)
        sums = (
            moments.centred_sums(block_totals, block_totals),
            moments.centred_sums(values, values),  # overwrites the block
        )
        merged = sums if merged is None else tuple(map(moments.merge_sums, merged, sums))
    pair_totals, columns = merged

    raw = columns.total / n_pairs
    mcse = np.sqrt(columns.sq_dev / (n_pairs - 1)) / math.sqrt(n_pairs)
    floored = raw < 0.0
    if np.any(floored):
        warnings.warn(
            f"floored {int(floored.sum())} negative hat-value estimate(s) at zero",
            FlooredHatValues,
            stacklevel=2,
        )
    values = np.maximum(raw, 0.0)
    total = float(np.sum(values))
    total_mcse = math.sqrt(pair_totals.sq_dev / (n_pairs - 1)) / math.sqrt(n_pairs)
    cllev = values / total if total > 0.0 else np.full(values.shape, np.nan)
    return HatValues(
        obs_ids=pred.obs_ids,
        values=values,
        mcse=mcse,
        p_d_star=total,
        p_d_star_mcse=total_mcse,
        cllev=cllev,
        n_pairs=n_pairs,
        negative_pairs=negative,
    )


def cllev_direction(hat, eps) -> float:
    """Conformal local leverage of a direction: sum h_i eps_i^2 / (sum h_j * sum eps_j^2)."""
    values = hat.values if isinstance(hat, HatValues) else np.asarray(hat, dtype=float)
    total = float(np.sum(values))
    if total <= 0.0:
        raise ZeroLeverage("total leverage is zero")
    vec = Perturbation.vector(eps, values.shape[0])
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
