"""Predictive families: parameter columns, domains and closed-form KL.

``FAMILIES`` is the one table of families and ``check_params`` the one
domain check. Parameter arrays hold a family's per-draw parameters on their
last axis. A family's per-observation constant (binomial trial counts, the
known variance of ``normal_known_var``) travels apart, one value per
observation, and broadcasts against the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DiagnosticsError, InvalidParameter


@dataclass(frozen=True)
class Family:
    """Per-draw parameter names, the name of the per-observation constant
    (``None`` when there is none), and ``kl(p1, p2, fixed)``, vectorized
    over the leading axes."""

    params: tuple[str, ...]
    kl: Callable
    fixed: str | None = None


def _kl_normal_known_var(p1, p2, var):
    return (p1[..., 0] - p2[..., 0]) ** 2 / (2.0 * var)


def _kl_normal(p1, p2, fixed):
    mean1, var1, mean2, var2 = p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1]
    return 0.5 * (np.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / var2 - 1.0)


def _kl_poisson(p1, p2, fixed):
    rate1, rate2 = p1[..., 0], p2[..., 0]
    return rate1 * np.log(rate1 / rate2) - rate1 + rate2


def _kl_binomial(p1, p2, trials):
    prob1, prob2 = p1[..., 0], p2[..., 0]
    per_trial = prob1 * np.log(prob1 / prob2) + (1.0 - prob1) * np.log(
        (1.0 - prob1) / (1.0 - prob2)
    )
    return trials * per_trial


def _kl_gamma(p1, p2, fixed):
    # scipy.special loads on first use: the other families never need it
    from scipy.special import digamma, gammaln
    shape1, rate1, shape2, rate2 = p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1]
    return (
        (shape1 - shape2) * digamma(shape1)
        - gammaln(shape1)
        + gammaln(shape2)
        + shape2 * np.log(rate1 / rate2)
        + shape1 * (rate2 - rate1) / rate1
    )


FAMILIES: dict[str, Family] = {
    "normal_known_var": Family(("mean",), _kl_normal_known_var, fixed="var"),
    "normal": Family(("mean", "var"), _kl_normal),
    "poisson": Family(("rate",), _kl_poisson),
    "binomial": Family(("prob",), _kl_binomial, fixed="trials"),
    "gamma": Family(("shape", "rate"), _kl_gamma),
}


def lookup(family: str, error: type[DiagnosticsError]) -> Family:
    """The table entry of ``family``; an unknown name raises ``error``."""
    try:
        return FAMILIES[family]
    except KeyError:
        raise error(
            f"unsupported family '{family}'; expected one of {sorted(FAMILIES)}"
        ) from None


def is_whole(values) -> np.ndarray:
    """Elementwise: is each value a finite whole number (NaN and inf are not)."""
    values = np.asarray(values)
    return np.isfinite(values) & (values == np.floor(values))


def _check_domain(family: str, name: str, values) -> None:
    if name in ("var", "rate", "shape") and not np.all(values > 0):
        raise InvalidParameter(f"{family} '{name}' must be positive everywhere")
    if name == "prob" and not (np.all(values > 0) and np.all(values < 1)):
        raise InvalidParameter(f"{family} 'prob' must lie in (0, 1) everywhere")
    if name == "trials" and not np.all((values >= 1) & is_whole(values)):
        raise InvalidParameter(f"{family} trial counts must be whole numbers >= 1")


def check_params(family: str, params: np.ndarray, fixed=None) -> None:
    """Raise InvalidParameter unless ``params`` and ``fixed`` lie in the family's domain.

    ``var``, ``rate`` and ``shape`` are positive, ``prob`` in (0, 1) and
    binomial trial counts finite whole numbers >= 1. ``fixed`` holds the
    per-observation constant of a family that has one and is ``None`` for
    the others.
    """
    spec = FAMILIES[family]
    for j, name in enumerate(spec.params):
        _check_domain(family, name, params[..., j])
    if spec.fixed is None:
        if fixed is not None:
            raise InvalidParameter(f"family '{family}' takes no per-observation constant")
    elif fixed is None:
        raise InvalidParameter(f"{family} draws need a per-observation '{spec.fixed}'")
    else:
        _check_domain(family, spec.fixed, np.asarray(fixed))
