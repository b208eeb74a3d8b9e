"""Fixtures shared by the test modules."""

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
