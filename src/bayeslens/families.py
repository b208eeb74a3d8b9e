"""Predictive families: parameter columns, domains, closed-form KL, sampler, log-density.

``FAMILIES`` is the one table of families and ``check_params`` the one
domain check. Parameter arrays hold a family's parameters on their last
axis; binomial trial counts travel apart and broadcast against the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagnosticsError, InvalidParameter


@dataclass(frozen=True)
class Family:
    """Parameter names plus ``kl(p1, p2, trials)``, ``sample(rng, p, trials)``
    and ``logpdf(outcome, p, trials)``, each vectorized over the leading axes."""

    params: tuple[str, ...]
    kl: Callable
    sample: Callable
    logpdf: Callable
    takes_trials: bool = False


def _kl_normal_known_var(p1, p2, trials):
    return (p1[..., 0] - p2[..., 0]) ** 2 / (2.0 * p1[..., 1])


def _kl_normal(p1, p2, trials):
    mean1, var1, mean2, var2 = p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1]
    return 0.5 * (np.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / var2 - 1.0)


def _logpdf_normal(outcome, p, trials):
    mean, var = p[..., 0], p[..., 1]
    return -0.5 * np.log(2.0 * np.pi * var) - (outcome - mean) ** 2 / (2.0 * var)


def _kl_poisson(p1, p2, trials):
    rate1, rate2 = p1[..., 0], p2[..., 0]
    return rate1 * np.log(rate1 / rate2) - rate1 + rate2


def _logpdf_poisson(outcome, p, trials):
    # scipy.special loads on first use: the normal families never need it
    from scipy.special import gammaln
    rate = p[..., 0]
    return outcome * np.log(rate) - rate - gammaln(outcome + 1.0)


def _kl_binomial(p1, p2, trials):
    prob1, prob2 = p1[..., 0], p2[..., 0]
    per_trial = prob1 * np.log(prob1 / prob2) + (1.0 - prob1) * np.log(
        (1.0 - prob1) / (1.0 - prob2)
    )
    return trials * per_trial


def _logpdf_binomial(outcome, p, trials):
    from scipy.special import gammaln
    prob = p[..., 0]
    return (
        gammaln(trials + 1.0)
        - gammaln(outcome + 1.0)
        - gammaln(trials - outcome + 1.0)
        + outcome * np.log(prob)
        + (trials - outcome) * np.log1p(-prob)
    )


def _kl_gamma(p1, p2, trials):
    from scipy.special import digamma, gammaln
    shape1, rate1, shape2, rate2 = p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1]
    return (
        (shape1 - shape2) * digamma(shape1)
        - gammaln(shape1)
        + gammaln(shape2)
        + shape2 * np.log(rate1 / rate2)
        + shape1 * (rate2 - rate1) / rate1
    )


def _logpdf_gamma(outcome, p, trials):
    from scipy.special import gammaln
    shape, rate = p[..., 0], p[..., 1]
    return (
        shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(outcome) - rate * outcome
    )


def _sample_normal(rng, p, trials):
    return rng.normal(p[..., 0], np.sqrt(p[..., 1]))


def _sample_poisson(rng, p, trials):
    return rng.poisson(p[..., 0]).astype(float)


def _sample_binomial(rng, p, trials):
    return rng.binomial(trials, p[..., 0]).astype(float)


def _sample_gamma(rng, p, trials):
    return rng.gamma(p[..., 0], 1.0 / p[..., 1])


FAMILIES: dict[str, Family] = {
    "normal_known_var": Family(
        ("mean", "var"), _kl_normal_known_var, _sample_normal, _logpdf_normal
    ),
    "normal": Family(("mean", "var"), _kl_normal, _sample_normal, _logpdf_normal),
    "poisson": Family(("rate",), _kl_poisson, _sample_poisson, _logpdf_poisson),
    "binomial": Family(
        ("prob",), _kl_binomial, _sample_binomial, _logpdf_binomial, takes_trials=True
    ),
    "gamma": Family(("shape", "rate"), _kl_gamma, _sample_gamma, _logpdf_gamma),
}


def lookup(family: str, error: type[DiagnosticsError]) -> Family:
    """The table entry of ``family``; an unknown name raises ``error``."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise error(
            f"unsupported family '{family}'; expected one of {sorted(FAMILIES)}"
        ) from None


def check_params(family: str, params: np.ndarray, trials=None) -> None:
    """Raise InvalidParameter unless ``params`` (draws first) lie in the family's domain.

    ``var``, ``rate`` and ``shape`` are positive, ``prob`` in (0, 1), a
    known variance the same in every draw (relative 1e-9), and binomial
    trial counts >= 1; the other families take none.
    """
    spec = FAMILIES[family]
    for j, name in enumerate(spec.params):
        block = params[..., j]
        if name in ("var", "rate", "shape") and not np.all(block > 0):
            raise InvalidParameter(f"{family} '{name}' must be positive everywhere")
        if name == "prob" and not (np.all(block > 0) and np.all(block < 1)):
            raise InvalidParameter(f"{family} 'prob' must lie in (0, 1) everywhere")
    if family == "normal_known_var":
        # |var - first| <= 1e-9 first in every draw, through two reductions
        # instead of draw-sized temporaries
        var = params[..., 1]
        first = var[0]
        spread = np.maximum(var.max(axis=0) - first, first - var.min(axis=0))
        if np.any(spread > 1e-9 * first):
            raise InvalidParameter(
                "normal_known_var 'var' must be the same in every draw of an observation"
            )
    if spec.takes_trials:
        if trials is None:
            raise InvalidParameter(f"{family} draws need per-observation trial counts")
        if np.any(np.asarray(trials) < 1):
            raise InvalidParameter(f"{family} trial counts must be >= 1")
    elif trials is not None:
        raise InvalidParameter(f"family '{family}' takes no trial counts")
