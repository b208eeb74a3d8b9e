"""The README's library example runs as written, so it names only live API,
and its grouping recipe holds."""

import math
import pathlib
import re

import numpy as np

from bayeslens import (
    LogLikSamples,
    exact_sampler,
    hat_values,
    loglik_covariance,
    outlier_matrix,
    random_spec,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library use)", "exec"), {"__name__": "readme_example"})
    ratio, clout_max = (float(word) for word in capsys.readouterr().out.split())
    assert math.isfinite(ratio) and ratio > 0.0
    assert math.isfinite(clout_max) and clout_max > 0.0


def test_grouping_recipe():
    """With A the n x G 0/1 indicator of a group map, the covariance of the
    group-summed draws ``values @ A`` is ``A.T @ V @ A`` to round-off, and an
    identity map in column order gives the ungrouped outlier matrix bit for
    bit (a product with an identity matrix adds only zeros).

    Both routes compute the sample covariance of the same exact group sums.
    In units of S - 1 times nats^2, with s_g the sum of the members' sqrt(q),
    q a column's centred sum of squares, and M_g the sum of their largest
    magnitudes: each fold errs by (S + 4) eps s_g s_h, and its Chan merges,
    whose means are off by up to (S + 1) eps M, by 2 (S + 1) eps sqrt(S)
    (M_g s_h + M_h s_g); the m-term sums, of V's entries on one route and of
    each draw's members on the other (off by m eps M_g, which moves the
    covariance by 2 m eps sqrt(S) (M_g s_h + M_h s_g) + 4 S (m eps)^2 M_g M_h),
    add the rest. With two roundings of the division, the routes agree within
    eps [(2 S + 2 m + 12) s_g s_h + (4 S + 2 m + 4) sqrt(S) (M_g s_h + M_h s_g)
    + 4 S m^2 eps M_g M_h] / (S - 1)."""
    rng = np.random.default_rng(12)
    samples, pred = exact_sampler(random_spec(rng, n_obs=12, n_params=3),
                                  draws=400, chains=4, seed=12)
    cov = loglik_covariance(samples).matrix
    hat = hat_values(pred, seed=12).values
    indicator = (rng.permutation(np.arange(12) % 4)[:, None] == np.arange(4)).astype(float)
    grouped = LogLikSamples(values=samples.values @ indicator, draw_chain=samples.draw_chain,
                            obs_ids=("g0", "g1", "g2", "g3"))
    direct = loglik_covariance(grouped).matrix

    draws, eps, m = samples.n_draws, np.finfo(float).eps, int(indicator.sum(axis=0).max())
    s = np.sqrt((draws - 1) * np.diag(cov)) @ indicator
    big = np.abs(samples.values).max(axis=0) @ indicator
    bound = eps * ((2 * draws + 2 * m + 12) * np.outer(s, s)
                   + (4 * draws + 2 * m + 4) * math.sqrt(draws)
                   * (np.outer(big, s) + np.outer(s, big))
                   + 4 * draws * m**2 * eps * np.outer(big, big)) / (draws - 1)
    assert np.all(np.abs(direct - indicator.T @ cov @ indicator) <= bound)

    identity = np.eye(12)
    ungrouped = outlier_matrix(cov, hat)
    regrouped = outlier_matrix(identity.T @ cov @ identity, identity.T @ hat)
    for name in ("omega", "eigenvalues", "eigenvectors", "rank_tolerance", "clout"):
        np.testing.assert_array_equal(getattr(regrouped, name), getattr(ungrouped, name),
                                      err_msg=name)
