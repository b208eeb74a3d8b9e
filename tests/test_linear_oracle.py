"""Closed-form conjugate linear diagnostics, exact sampler, anomaly planting."""

import math
import tracemalloc

import numpy as np
import pytest

from bayeslens import (
    LinearModelSpec,
    exact_sampler,
    fit,
    hat_values,
    influence_report,
    plant_anomalies,
    random_spec,
)
from bayeslens.errors import (
    DegenerateSample,
    IndexOutOfRange,
    InvalidParameter,
    NonFiniteInput,
    SingularSystem,
)
from bayeslens.linear_oracle import load_spec_json, write_spec_json
from bayeslens.sample_store import write_loglik_csv, write_predictive_csv


def intercept_spec(outcomes=(0.0, 0.0, 3.0), sigma2=1.0, psi=0.0):
    n = len(outcomes)
    return LinearModelSpec(
        design=np.ones((n, 1)),
        outcomes=np.array(outcomes, dtype=float),
        noise_variance=sigma2,
        prior_precision=np.array([[psi]]),
    )


class TestFit:
    def test_intercept_only_example(self):
        """Flat fit of (0, 0, 3): every closed form is hand-checkable."""
        diag = fit(intercept_spec())
        np.testing.assert_allclose(diag.hat_diag, [1 / 3] * 3, rtol=1e-14)
        np.testing.assert_allclose(diag.residuals, [-1.0, -1.0, 2.0], rtol=1e-14)
        assert diag.linf[2] == pytest.approx(4 / 3 + 1 / 18, rel=1e-12)
        assert diag.dinf[2] == pytest.approx(1.0 + 1 / 3 - math.log(4 / 3), rel=1e-12)
        assert diag.zinf[2] == pytest.approx(2.0 - 1 / 3 + math.log(3 / 2), rel=1e-12)
        assert diag.cook[2] == pytest.approx(3.0, rel=1e-12)
        assert diag.p_v == pytest.approx(1.0, rel=1e-12)
        assert diag.p_w == pytest.approx(2.0 + 1 / 6, rel=1e-12)
        assert diag.p_d == pytest.approx(1.0, rel=1e-12)

    def test_flat_prior_projection(self):
        """With a flat prior the hat matrix is an idempotent projector of rank p."""
        rng = np.random.default_rng(60)
        for _ in range(10):
            spec = random_spec(rng, informative_prior=False)
            diag = fit(spec)
            p = spec.n_params
            assert diag.p_d == pytest.approx(p, rel=1e-10)
            np.testing.assert_allclose(
                diag.hat @ diag.hat, diag.hat, atol=1e-10
            )

    def test_strong_prior_shrinks_everything(self):
        spec = intercept_spec(psi=1e12)
        diag = fit(spec)
        assert diag.p_d == pytest.approx(0.0, abs=1e-9)
        assert diag.p_v == pytest.approx(0.0, abs=1e-9)
        assert float(np.max(diag.linf)) == pytest.approx(0.0, abs=1e-9)

    def test_strict_ordering(self):
        """dinf < linf < zinf for every observation with h in (0,1), r != 0."""
        rng = np.random.default_rng(61)
        for _ in range(20):
            diag = fit(random_spec(rng))
            assert np.all(diag.hat_diag >= -1e-12)
            assert np.all(diag.hat_diag <= 1.0 + 1e-12)
            mask = (
                (diag.hat_diag > 1e-8)
                & (diag.hat_diag < 1.0 - 1e-8)
                & (np.abs(diag.residuals) > 1e-8)
            )
            assert np.all(diag.dinf[mask] < diag.linf[mask])
            assert np.all(diag.linf[mask] < diag.zinf[mask])

    def test_divergence_dichotomy(self):
        """zinf and cook blow up as h -> 1 while linf and dinf stay bounded."""
        previous_zinf = previous_cook = 0.0
        for target in (0.9, 0.99, 0.999):
            n = 12
            lever = math.sqrt((n - 1) * target / (1.0 - target))
            design = np.concatenate([[lever], np.ones(n - 1)])[:, np.newaxis]
            residual = np.zeros(n)
            residual[0] = 1.0
            residual -= design[:, 0] * (design[:, 0] @ residual) / (design[:, 0] @ design[:, 0])
            residual /= residual[0]
            outcomes = design[:, 0] * 0.5 + residual
            spec = LinearModelSpec(
                design=design,
                outcomes=outcomes,
                noise_variance=1.0,
                prior_precision=np.zeros((1, 1)),
            )
            diag = fit(spec)
            assert diag.hat_diag[0] == pytest.approx(target, rel=1e-10)
            assert diag.residuals[0] == pytest.approx(1.0, rel=1e-10)
            assert diag.zinf[0] > previous_zinf
            assert diag.cook[0] > previous_cook
            # h -> 1 limits at unit residual: linf < 1.5, dinf < 1.5 - log 2
            assert diag.linf[0] < 1.0 + 0.5
            assert diag.dinf[0] < 0.5 + 1.0 - math.log(2.0)
            previous_zinf, previous_cook = diag.zinf[0], diag.cook[0]

    def test_zinf_infinite_at_unit_hat_value(self):
        spec = LinearModelSpec(
            design=np.array([[1.0], [0.0], [0.0]]),
            outcomes=np.array([2.0, 0.5, -0.5]),
            noise_variance=1.0,
            prior_precision=np.zeros((1, 1)),
        )
        diag = fit(spec)
        assert diag.hat_diag[0] == pytest.approx(1.0)
        assert math.isinf(diag.zinf[0])
        assert math.isfinite(diag.linf[0])

    def test_loglik_covariance_diagonal_is_linf(self):
        rng = np.random.default_rng(62)
        diag = fit(random_spec(rng))
        np.testing.assert_allclose(
            np.diag(diag.loglik_covariance()), diag.linf, rtol=1e-12
        )

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInput):
            LinearModelSpec(
                design=np.array([[1.0], [np.inf]]),
                outcomes=np.array([0.0, 1.0]),
                noise_variance=1.0,
                prior_precision=np.zeros((1, 1)),
            )

    def test_singular_system(self):
        spec = LinearModelSpec(
            design=np.zeros((3, 2)),
            outcomes=np.zeros(3),
            noise_variance=1.0,
            prior_precision=np.zeros((2, 2)),
        )
        with pytest.raises(SingularSystem):
            fit(spec)

    def test_overflowing_precision(self):
        """X'X overflows to inf, which Cholesky factors without complaint; the
        infinite factor is refused, not used to fit a hat-value of 0."""
        spec = LinearModelSpec(
            design=np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            outcomes=np.array([1.0, 2.0, 3.0]),
            noise_variance=1.0,
            prior_precision=np.zeros((2, 2)),
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularSystem):
            fit(spec)

    def test_singular_gram_with_informative_prior(self):
        """p > n makes X'X singular; the prior keeps the posterior proper.

        The Cholesky factorization of X'X = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
        meets an exact zero pivot, so X'X is singular in floating point too.
        """
        spec = LinearModelSpec(
            design=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
            outcomes=np.array([0.5, -1.0]),
            noise_variance=1.0,
            prior_precision=np.eye(3),
        )
        diag = fit(spec)
        assert diag.theta_hat is None
        assert np.all(np.isfinite(diag.theta_bar))
        with pytest.raises(SingularSystem):
            fit(spec).sandwich_identity()


def scipy_reference(spec):
    """The closed forms of ``fit`` solved with scipy's Cholesky routines."""
    from scipy.linalg import cho_factor, cho_solve

    design, outcomes, sigma2 = spec.design, spec.outcomes, spec.noise_variance
    gram = design.T @ design
    factor = cho_factor(spec.prior_precision * sigma2 + gram)
    hat = design @ cho_solve(factor, design.T)
    theta_bar = cho_solve(factor, design.T @ outcomes)
    residuals = outcomes - design @ theta_bar
    h = np.diag(hat)
    posterior_cov = sigma2 * cho_solve(factor, np.eye(spec.n_params))
    return {
        "hat": hat,
        "theta_bar": theta_bar,
        "theta_hat": cho_solve(cho_factor(gram), design.T @ outcomes),
        "sandwich": gram @ posterior_cov @ gram / sigma2**2,
        "p_d": np.trace(hat),
        "p_w": np.sum(residuals**2 * h / sigma2 + h**2 / 2.0),
        "p_v": 2.0 * (residuals @ hat @ residuals / sigma2 + np.sum(hat**2) / 2.0),
    }


class TestAgainstScipyReference:
    def test_fit_matches_reference(self):
        for seed in range(60):
            spec = random_spec(np.random.default_rng(seed))
            diag = fit(spec)
            for name, expected in scipy_reference(spec).items():
                np.testing.assert_allclose(
                    getattr(diag, name), expected, rtol=1e-10,
                    err_msg=f"seed {seed}: {name}",
                )


class TestSandwichIdentity:
    def test_flat_prior_gives_zero(self):
        lhs, rhs = fit(intercept_spec()).sandwich_identity()
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_informative_prior_equality(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            spec = random_spec(rng, informative_prior=True)
            lhs, rhs = fit(spec).sandwich_identity()
            assert rhs == pytest.approx(lhs, rel=1e-8, abs=1e-12)

    def test_intercept_with_unit_prior(self):
        lhs, rhs = fit(intercept_spec(psi=1.0)).sandwich_identity()
        assert lhs > 0.0
        assert rhs == pytest.approx(lhs, rel=1e-8)


class TestExactSampler:
    def test_fixed_seed_reproduces_files_byte_for_byte(self, tmp_path):
        spec = intercept_spec((0.5, 1.5, -0.3, 2.2))
        texts = []
        for run in range(2):
            samples, pred = exact_sampler(spec, draws=50, chains=2, seed=99)
            loglik = tmp_path / f"l{run}.csv"
            predictive = tmp_path / f"p{run}.csv"
            write_loglik_csv(samples, loglik)
            write_predictive_csv(pred, predictive)
            texts.append((loglik.read_bytes(), predictive.read_bytes()))
        assert texts[0] == texts[1]

    def test_posterior_mean_within_three_sd(self):
        rng = np.random.default_rng(64)
        spec = random_spec(rng, n_obs=30, n_params=2)
        diag = fit(spec)
        draws = 40_000
        samples, pred = exact_sampler(spec, draws=draws, chains=4, seed=7)
        # recover theta draws through the predictive means of two observations
        means = pred.params[:, :, 0]
        theta_draws = np.linalg.lstsq(spec.design, means.T, rcond=None)[0]
        posterior_sd = np.sqrt(
            np.diag(spec.noise_variance * np.linalg.inv(
                spec.prior_precision * spec.noise_variance
                + spec.design.T @ spec.design
            ))
        )
        error = np.abs(theta_draws.mean(axis=1) - diag.theta_bar)
        assert np.all(error <= 3.0 * posterior_sd / math.sqrt(draws) + 1e-12)

    def test_loglik_values_match_definition(self):
        spec = intercept_spec((1.0, 2.0, 3.0))
        samples, pred = exact_sampler(spec, draws=10, chains=2, seed=3)
        means = pred.params[:, :, 0]
        expected = -0.5 * math.log(2.0 * math.pi) - (
            spec.outcomes - means
        ) ** 2 / 2.0
        np.testing.assert_allclose(samples.values, expected, rtol=1e-12)

    def test_downstream_linf_matches_closed_form(self):
        rng = np.random.default_rng(65)
        spec = random_spec(rng, n_obs=12, n_params=2)
        diag = fit(spec)
        samples, _ = exact_sampler(spec, draws=60_000, chains=4, seed=21)
        estimate = influence_report(samples).linf
        # generous gate for a smoke check; the acceptance suite is strict
        np.testing.assert_allclose(estimate, diag.linf, rtol=0.1, atol=5e-4)

    def test_chain_split_and_validation(self):
        spec = intercept_spec()
        samples, _ = exact_sampler(spec, draws=10, chains=3, seed=1)
        counts = np.bincount(samples.draw_chain)
        assert counts.tolist() == [4, 3, 3]
        with pytest.raises(DegenerateSample):
            exact_sampler(spec, draws=1, chains=1, seed=1)
        with pytest.raises(DegenerateSample):
            exact_sampler(spec, draws=5, chains=3, seed=1)

    def test_peak_memory_near_the_output(self):
        """Each draw-sized array is built once and handed to its container
        without a copy: no stacked, filled or container-side copies."""
        spec = random_spec(np.random.default_rng(67), n_obs=40, n_params=3)
        tracemalloc.start()
        try:
            samples, pred = exact_sampler(spec, draws=20_000, chains=4, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (samples.values.nbytes + pred.params.nbytes)
        # the predictive params are the means alone; the variance is kept once
        assert pred.params.shape == (20_000, 40, 1)
        assert pred.params.nbytes == 20_000 * 40 * 8
        assert pred.params.flags.c_contiguous
        np.testing.assert_array_equal(pred.fixed, np.full(40, spec.noise_variance))

    def test_hat_values_pipeline(self):
        spec = intercept_spec((0.0, 1.0, 2.0, 3.0, 4.0))
        diag = fit(spec)
        _, pred = exact_sampler(spec, draws=40_000, chains=2, seed=5)
        hat = hat_values(pred, seed=5)
        np.testing.assert_allclose(hat.values, diag.hat_diag, rtol=0.05)


class TestPlantAnomalies:
    def base_spec(self, seed=66, n=60):
        rng = np.random.default_rng(seed)
        design = np.column_stack([np.ones(n), rng.uniform(-2, 2, (n, 2))])
        theta = rng.standard_normal(3)
        outcomes = design @ theta + rng.standard_normal(n)
        return LinearModelSpec(
            design=design,
            outcomes=outcomes,
            noise_variance=1.0,
            prior_precision=np.zeros((3, 3)),
        )

    def test_validation(self):
        spec = self.base_spec()
        with pytest.raises(IndexOutOfRange):
            plant_anomalies(spec, -1, 3)
        with pytest.raises(IndexOutOfRange):
            plant_anomalies(spec, 2, 2)

    def test_leverage_point_has_max_hat_value(self):
        spec = self.base_spec()
        planted = plant_anomalies(spec, 5, 17)
        diag = fit(planted)
        assert int(np.argmax(diag.hat_diag)) == 17

    def test_outlier_has_max_influence_leverage_ratio(self):
        spec = self.base_spec()
        planted = plant_anomalies(spec, 5, 17)
        diag = fit(planted)
        ratio = diag.linf / diag.hat_diag
        assert int(np.argmax(ratio)) == 5

    def test_leverage_point_sits_on_refit_line(self):
        spec = self.base_spec()
        planted = plant_anomalies(spec, 5, 17)
        diag = fit(planted)
        assert diag.residuals[17] == pytest.approx(0.0, abs=1e-9)


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(67)
        spec = random_spec(rng)
        write_spec_json(spec, tmp_path / "spec.json")
        again = load_spec_json(tmp_path / "spec.json")
        np.testing.assert_array_equal(again.design, spec.design)
        np.testing.assert_array_equal(again.outcomes, spec.outcomes)
        np.testing.assert_array_equal(again.prior_precision, spec.prior_precision)
        assert again.noise_variance == spec.noise_variance

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"X": [[1.0]], "y": [0.0]}')
        with pytest.raises(InvalidParameter, match="sigma2"):
            load_spec_json(bad)
