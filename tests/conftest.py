"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from bayeslens import PredictiveDraws


def _random_predictive(family, rng, n_draws, n_obs, chains=2):
    """In-domain predictive draws of ``family``, in ``chains`` equal blocks of rows.

    Binomial observations get trial counts 1, 2, ..., n_obs, and
    ``normal_known_var`` observations a variance in [0.5, 2).
    """
    shape = (n_draws, n_obs)
    columns = {
        "normal_known_var": lambda: [rng.standard_normal(shape)],
        "normal": lambda: [rng.standard_normal(shape), rng.uniform(0.5, 2.0, shape)],
        "poisson": lambda: [rng.uniform(0.5, 6.0, shape)],
        "binomial": lambda: [rng.uniform(0.1, 0.9, shape)],
        "gamma": lambda: [rng.uniform(0.5, 5.0, shape), rng.uniform(0.5, 3.0, shape)],
    }[family]()
    fixed = {
        "normal_known_var": lambda: rng.uniform(0.5, 2.0, n_obs),
        "binomial": lambda: list(range(1, n_obs + 1)),
    }.get(family, lambda: None)()
    return PredictiveDraws(
        family=family,
        params=np.stack(columns, axis=2),
        draw_chain=[row * chains // n_draws for row in range(n_draws)],
        obs_ids=tuple(f"o{i}" for i in range(n_obs)),
        fixed=fixed,
    )


@pytest.fixture
def random_predictive():
    """``random_predictive(family, rng, n_draws, n_obs, chains=2)`` -> PredictiveDraws."""
    return _random_predictive


EPS = np.finfo(float).eps


def _exact_sums(data):
    """``(total, sq_dev, total_error, sq_dev_error)`` of the columns of
    ``data`` along its first axis, each in the shape of one row.

    ``total`` is each column's ``math.fsum``, and ``sq_dev`` the ``math.fsum``
    of its squared deviations from the correctly rounded mean: both are
    within a few units in the last place of the exact values. The errors
    bound any float64 fold of the R rows, in any order and any blocking:
    - summing R terms errs by at most (R - 1) eps times the sum of their
      magnitudes, so a total by ``total_error`` = R eps sum|x|;
    - a centred sum of squares errs by (R - 1) eps relative in its summation,
      by 2 eps in each squared deviation and by 3 eps in this reference;
      a mean off by delta <= (R + 1) eps max|x| adds R delta^2 (the
      deviations from the exact mean sum to zero, so delta enters only
      squared). Together ``sq_dev_error`` = (R + 4) eps sq_dev + R delta^2.
    """
    rows = data.shape[0]
    columns = np.asarray(data, dtype=float).reshape(rows, -1).T
    total = np.array([math.fsum(c) for c in columns])
    sq_dev = np.array([math.fsum((c - t / rows) ** 2) for c, t in zip(columns, total)])
    total_error = rows * EPS * np.abs(columns).sum(axis=1)
    delta = (rows + 1) * EPS * np.abs(columns).max(axis=1)
    sq_dev_error = (rows + 4) * EPS * sq_dev + rows * delta**2
    return tuple(a.reshape(data.shape[1:]) for a in (total, sq_dev, total_error, sq_dev_error))


@pytest.fixture(scope="session")
def exact_sums():
    """``exact_sums(data)`` -> ``(total, sq_dev, total_error, sq_dev_error)``
    per column, the references and error bounds of a fold over the rows."""
    return _exact_sums
