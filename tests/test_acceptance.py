"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo gates use the estimate's replicate-based standard error with a
relative backstop: an estimate passes when |error| <= max(3 * MCSE,
2% * |truth|). Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate, stats

from bayeslens import (
    LinearModelSpec,
    clinf_direction,
    cllev_direction,
    exact_sampler,
    family_kl,
    fit,
    hat_values,
    influence_report,
    loglik_covariance,
    mc_kl,
    outlier_matrix,
    plant_anomalies,
    random_spec,
    truncated_clout,
)
from bayeslens.cli import main


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def gate_ok(estimate, truth, mcse, rel=0.02):
    """Pass when |estimate - truth| <= max(3 * mcse, rel * |truth|)."""
    error = np.abs(np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float))
    bound = np.maximum(3.0 * np.asarray(mcse, dtype=float),
                       rel * np.abs(np.asarray(truth, dtype=float)))
    return bool(np.all(error <= bound))


def test_criterion_1_oracle_equivalence():
    """Influence/leverage estimates from exact-sampler draws match closed forms."""
    with criterion("1 oracle-equivalence"):
        rng = np.random.default_rng(20260101)
        started = time.time()
        for k in range(20):
            spec = random_spec(rng)
            truth = fit(spec)
            samples, pred = exact_sampler(
                spec, draws=200_000, chains=4, seed=int(rng.integers(1 << 31))
            )
            report = influence_report(samples)
            assert gate_ok(report.linf, truth.linf, report.linf_mcse), f"linf, spec {k}"
            assert gate_ok(report.dinf, truth.dinf, report.dinf_mcse), f"dinf, spec {k}"
            assert gate_ok(report.p_w, truth.p_w, report.p_w_mcse), f"p_w, spec {k}"
            assert gate_ok(report.p_v, truth.p_v, report.p_v_mcse), f"p_v, spec {k}"
            hat = hat_values(pred, seed=int(rng.integers(1 << 31)))
            assert gate_ok(hat.values, truth.hat_diag, hat.mcse), f"h_ii, spec {k}"
            assert gate_ok(
                hat.p_d_star, truth.p_d, hat.p_d_star_mcse
            ), f"p_d_star, spec {k}"
        elapsed = time.time() - started
        print(f"  (20 specs in {elapsed:.1f}s)")
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_2_strict_ordering():
    """dinf < linf < zinf for every observation with h in (0,1) and r != 0."""
    with criterion("2 strict-ordering"):
        rng = np.random.default_rng(20260202)
        checked = 0
        for _ in range(40):
            truth = fit(random_spec(rng))
            mask = (
                (truth.hat_diag > 1e-10)
                & (truth.hat_diag < 1.0 - 1e-10)
                & (np.abs(truth.residuals) > 1e-10)
            )
            assert np.all(truth.dinf[mask] < truth.linf[mask])
            assert np.all(truth.linf[mask] < truth.zinf[mask])
            checked += int(mask.sum())
        assert checked > 500


def _engineered_leverage_spec(target, n=12):
    """One observation at hat-value ``target`` with unit residual, flat prior."""
    lever = math.sqrt((n - 1) * target / (1.0 - target))
    column = np.concatenate([[lever], np.ones(n - 1)])
    residual = np.zeros(n)
    residual[0] = 1.0
    residual -= column * (column @ residual) / (column @ column)
    residual /= residual[0]
    outcomes = column * 0.5 + residual
    return LinearModelSpec(
        design=column[:, np.newaxis],
        outcomes=outcomes,
        noise_variance=1.0,
        prior_precision=np.zeros((1, 1)),
    )


def test_criterion_3_divergence_dichotomy():
    """zinf and cook diverge as h -> 1; linf and dinf stay under their limits."""
    with criterion("3 divergence-dichotomy"):
        zinf_seq, cook_seq = [], []
        for target in (0.9, 0.99, 0.999):
            truth = fit(_engineered_leverage_spec(target))
            assert truth.hat_diag[0] == pytest.approx(target, rel=1e-9)
            assert truth.residuals[0] == pytest.approx(1.0, rel=1e-9)
            zinf_seq.append(truth.zinf[0])
            cook_seq.append(truth.cook[0])
            # closed-form h -> 1 limits at unit residual and sigma2 = 1
            assert truth.linf[0] < 1.0 + 0.5
            assert truth.dinf[0] < 0.5 + 1.0 - math.log(2.0)
        assert zinf_seq[0] < zinf_seq[1] < zinf_seq[2]
        assert cook_seq[0] < cook_seq[1] < cook_seq[2]
        # unbounded growth: each tenfold step toward h = 1 multiplies them
        assert zinf_seq[1] > 5.0 * zinf_seq[0] and zinf_seq[2] > 5.0 * zinf_seq[1]
        assert cook_seq[1] > 50.0 * cook_seq[0] and cook_seq[2] > 50.0 * cook_seq[1]


def test_criterion_4_identity_suite():
    """Algebraic identities at 1e-10 relative (reconstruction/sandwich at 1e-8)."""
    with criterion("4 identity-suite"):
        rng = np.random.default_rng(20260404)
        n_obs = 8
        values = rng.standard_normal((400, n_obs)) * rng.uniform(0.5, 2.0, n_obs)
        from bayeslens import LogLikSamples

        samples = LogLikSamples(
            values=values,
            draw_chain=np.repeat([0, 1], 200),
            obs_ids=tuple(f"o{i}" for i in range(n_obs)),
        )
        cov = loglik_covariance(samples)
        report = influence_report(samples)
        ones = np.ones(n_obs)

        # p_v = 2 * ones' V ones through both code paths
        lhs = report.p_v
        rhs = 2.0 * float(ones @ cov.matrix @ ones)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

        # clinf(ones) = p_v / (2 n p_w)
        lhs = clinf_direction(cov, np.ones(n_obs))
        rhs = report.p_v / (2.0 * n_obs * report.p_w)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

        # conformal shares both sum to one
        hat_vec = rng.uniform(0.05, 0.95, n_obs)
        clinf_sum = sum(
            clinf_direction(cov, np.eye(n_obs)[i]) for i in range(n_obs)
        )
        cllev_sum = sum(
            cllev_direction(hat_vec, np.eye(n_obs)[i])
            for i in range(n_obs)
        )
        assert abs(clinf_sum - 1.0) <= 1e-10
        assert abs(cllev_sum - 1.0) <= 1e-10

        # clout_i = clinf_i / cllev_i
        decomposition = outlier_matrix(cov, hat_vec)
        clinf_shares = report.clinf
        cllev_shares = hat_vec / hat_vec.sum()
        np.testing.assert_allclose(
            decomposition.clout, clinf_shares / cllev_shares, rtol=1e-10
        )

        # full-rank truncation recovers clout; eigenvalues sum to its total
        np.testing.assert_allclose(
            truncated_clout(decomposition, n_obs), decomposition.clout, rtol=1e-10,
            atol=1e-12,
        )
        assert abs(
            float(decomposition.eigenvalues.sum()) - float(decomposition.clout.sum())
        ) <= 1e-10 * float(decomposition.clout.sum())

        # eigensystem reconstruction in max norm
        rebuilt = (
            decomposition.eigenvectors * decomposition.eigenvalues
        ) @ decomposition.eigenvectors.T
        assert np.max(np.abs(rebuilt - decomposition.omega)) <= 1e-8 * np.max(
            np.abs(decomposition.omega)
        )

        # information-sandwich identity on informative-prior specs
        for _ in range(5):
            spec = random_spec(rng, informative_prior=True)
            lhs, rhs = fit(spec).sandwich_identity()
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-12)


def _kl_oracle(family, params1, params2):
    """Quadrature/series KL oracle, independent of the closed forms."""
    if family in ("normal_known_var", "normal"):
        mean1, var1 = params1
        mean2, var2 = params2
        p1 = stats.norm(mean1, math.sqrt(var1))
        p2 = stats.norm(mean2, math.sqrt(var2))
        span = 14.0 * math.sqrt(var1)
        value, _ = integrate.quad(
            lambda x: p1.pdf(x) * (p1.logpdf(x) - p2.logpdf(x)),
            mean1 - span,
            mean1 + span,
            limit=200,
        )
        return value
    if family == "poisson":
        (rate1,) = params1
        (rate2,) = params2
        top = int(stats.poisson.ppf(1.0 - 1e-14, rate1)) + 25
        ks = np.arange(0, top + 1)
        return float(
            np.sum(
                stats.poisson.pmf(ks, rate1)
                * (stats.poisson.logpmf(ks, rate1) - stats.poisson.logpmf(ks, rate2))
            )
        )
    if family == "binomial":
        prob1, trials = params1
        prob2, _ = params2
        ks = np.arange(0, trials + 1)
        return float(
            np.sum(
                stats.binom.pmf(ks, trials, prob1)
                * (
                    stats.binom.logpmf(ks, trials, prob1)
                    - stats.binom.logpmf(ks, trials, prob2)
                )
            )
        )
    if family == "gamma":
        shape1, rate1 = params1
        shape2, rate2 = params2
        p1 = stats.gamma(shape1, scale=1.0 / rate1)
        p2 = stats.gamma(shape2, scale=1.0 / rate2)
        split = shape1 / rate1
        integrand = lambda x: p1.pdf(x) * (p1.logpdf(x) - p2.logpdf(x))
        head, _ = integrate.quad(integrand, 0.0, split, limit=200)
        tail, _ = integrate.quad(integrand, split, np.inf, limit=200)
        return head + tail
    raise ValueError(family)


def _random_pair(rng, family):
    if family == "normal_known_var":
        var = float(rng.uniform(0.3, 3.0))
        return (float(rng.normal(0, 2)), var), (float(rng.normal(0, 2)), var)
    if family == "normal":
        return (
            (float(rng.normal(0, 2)), float(rng.uniform(0.3, 3.0))),
            (float(rng.normal(0, 2)), float(rng.uniform(0.3, 3.0))),
        )
    if family == "poisson":
        return (float(rng.uniform(0.2, 20.0)),), (float(rng.uniform(0.2, 20.0)),)
    if family == "binomial":
        trials = int(rng.integers(1, 41))
        return (
            (float(rng.uniform(0.05, 0.95)), trials),
            (float(rng.uniform(0.05, 0.95)), trials),
        )
    if family == "gamma":
        return (
            (float(rng.uniform(0.6, 6.0)), float(rng.uniform(0.2, 5.0))),
            (float(rng.uniform(0.6, 6.0)), float(rng.uniform(0.2, 5.0))),
        )
    raise ValueError(family)


def test_criterion_5_kl_correctness():
    """Closed-form KLs match quadrature/series oracles; mc_kl matches closed form."""
    with criterion("5 kl-correctness"):
        rng = np.random.default_rng(20260505)
        for family in ("normal_known_var", "normal", "poisson", "binomial", "gamma"):
            for _ in range(100):
                params1, params2 = _random_pair(rng, family)
                closed = float(family_kl(family, params1, params2))
                oracle = _kl_oracle(family, params1, params2)
                assert abs(closed - oracle) <= 1e-6, (family, params1, params2)

        mc_rng = np.random.default_rng(20260515)
        replicates = 100_000
        for _ in range(10):
            mean1, mean2 = mc_rng.normal(0.0, 1.0, 2)
            var1 = float(mc_rng.uniform(0.5, 2.0))
            var2 = float(mc_rng.uniform(0.5, 2.0))
            draws = mc_rng.normal(mean1, math.sqrt(var1), replicates)
            logp1 = stats.norm.logpdf(draws, mean1, math.sqrt(var1))
            logp2 = stats.norm.logpdf(draws, mean2, math.sqrt(var2))
            estimate = mc_kl(logp1, logp2)
            closed = float(family_kl("normal", (mean1, var1), (mean2, var2)))
            se = float(np.std(logp1 - logp2, ddof=1)) / math.sqrt(replicates)
            assert abs(estimate - closed) <= 3.0 * se


def _conflict_model(shift, tau, noise):
    """Conjugate normal-mean model: informative prior on the intercept,
    diffuse prior on a nonzero-mean covariate that can absorb the conflict."""
    n = noise.shape[0]
    design = np.column_stack([np.ones(n), np.linspace(0.5, 1.5, n)])
    return LinearModelSpec(
        design=design,
        outcomes=shift + noise,
        noise_variance=1.0,
        prior_precision=np.diag([1.0 / tau**2, 1e-4]),
    )


def _estimated_ratio(spec, seed):
    samples, _ = exact_sampler(spec, draws=40_000, chains=4, seed=seed)
    report = influence_report(samples)
    assert report.conflict_ratio_mcse < 0.05 * report.conflict_ratio, "MCSE gate"
    return report.conflict_ratio


def test_criterion_6_conflict_trend():
    """Conflict ratio rises with prior-mean shift; concentration peaks then falls."""
    with criterion("6 conflict-trend"):
        started = time.time()
        rng = np.random.default_rng(20260606)
        noise = rng.standard_normal(60)
        noise -= noise.mean()
        tau0 = 0.5

        shift_ratios = [
            _estimated_ratio(_conflict_model(j * tau0, tau0, noise), seed=700 + j)
            for j in range(1, 6)
        ]
        assert all(
            a < b for a, b in zip(shift_ratios, shift_ratios[1:])
        ), f"shift sweep not increasing: {shift_ratios}"

        concentration_ratios = [
            _estimated_ratio(
                _conflict_model(5 * tau0, tau0 / 2**k, noise), seed=800 + k
            )
            for k in range(5)
        ]
        peak = int(np.argmax(concentration_ratios))
        assert 0 < peak < 4, f"maximum not interior: {concentration_ratios}"
        assert all(
            a < b
            for a, b in zip(concentration_ratios[: peak + 1], concentration_ratios[1 : peak + 1])
        ), f"no rise before the peak: {concentration_ratios}"
        assert all(
            a > b
            for a, b in zip(concentration_ratios[peak:], concentration_ratios[peak + 1 :])
        ), f"no fall after the peak: {concentration_ratios}"
        elapsed = time.time() - started
        print(f"  (shift {np.round(shift_ratios, 3).tolist()}, "
              f"concentration {np.round(concentration_ratios, 3).tolist()}, "
              f"{elapsed:.1f}s)")
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_7_planted_anomaly_detection():
    """argmax h finds the leverage point, argmax clout the outlier, 48+/50."""
    with criterion("7 planted-anomalies"):
        rng = np.random.default_rng(20260707)
        n, correct = 100, 0
        for _ in range(50):
            design = np.column_stack([np.ones(n), rng.uniform(-2, 2, (n, 2))])
            theta = rng.standard_normal(3)
            outcomes = design @ theta + rng.standard_normal(n)
            spec = LinearModelSpec(
                design=design,
                outcomes=outcomes,
                noise_variance=1.0,
                prior_precision=np.zeros((3, 3)),
            )
            outlier_idx, leverage_idx = (int(i) for i in rng.choice(n, 2, replace=False))
            planted = plant_anomalies(spec, outlier_idx, leverage_idx)
            truth = fit(planted)
            decomposition = outlier_matrix(
                truth.loglik_covariance(), truth.hat_diag
            )
            clout = decomposition.clout
            hit = (
                int(np.argmax(truth.hat_diag)) == leverage_idx
                and int(np.argmax(clout)) == outlier_idx
                and clout[leverage_idx] < float(np.median(clout))
            )
            correct += hit
        print(f"  ({correct}/50 classified correctly)")
        assert correct >= 48


def test_supplementary_stream_swap_agreement():
    """Swapping the two draw streams moves hat-values only within Monte Carlo
    error on conjugate-model streams (KL is directed; agreement is statistical)."""
    from bayeslens import PredictiveDraws

    rng = np.random.default_rng(20260909)
    for _ in range(5):
        spec = random_spec(rng, n_obs=15)
        _, pred = exact_sampler(spec, draws=40_000, chains=2, seed=int(rng.integers(1 << 31)))
        forward = hat_values(pred, seed=1)
        first = pred.draw_chain == pred.draw_chain[0]
        swapped = PredictiveDraws(
            family=pred.family,
            params=np.concatenate([pred.params[~first], pred.params[first]]),
            draw_chain=np.concatenate(
                [pred.draw_chain[~first], pred.draw_chain[first]]
            ),
            obs_ids=pred.obs_ids,
            fixed=pred.fixed,
        )
        backward = hat_values(swapped, seed=2)
        combined = np.sqrt(forward.mcse**2 + backward.mcse**2)
        assert np.all(
            np.abs(forward.values - backward.values) <= 3.0 * combined
        )


def _run_demo_pipeline(base, seed=42):
    corpus = base / "corpus"
    diag = base / "diag"
    assert main(["simulate", "--demo", "--draws", "2000", "--chains", "4",
                 "--seed", str(seed), "--out", str(corpus)]) == 0
    assert main(["influence", "--loglik", str(corpus / "loglik.csv"),
                 "--meta", str(corpus / "metadata.json"), "--out", str(diag)]) == 0
    assert main(["leverage", "--pred", str(corpus / "predictive.csv"),
                 "--meta", str(corpus / "metadata.json"),
                 "--seed", str(seed), "--out", str(diag)]) == 0
    assert main(["outliers", "--loglik", str(corpus / "loglik.csv"),
                 "--meta", str(corpus / "metadata.json"),
                 "--pred", str(corpus / "predictive.csv"),
                 "--seed", str(seed), "--out", str(diag)]) == 0
    assert main(["oracle", "--spec", str(corpus / "spec_used.json"),
                 "--out", str(diag)]) == 0
    return corpus, diag


def test_criterion_8_determinism(tmp_path):
    """A fixed seed reproduces every pipeline artifact byte for byte."""
    with criterion("8 determinism"):
        first = _run_demo_pipeline(tmp_path / "one")
        second = _run_demo_pipeline(tmp_path / "two")
        compared = 0
        for dir1, dir2 in zip(first, second):
            for path1 in sorted(dir1.iterdir()):
                path2 = dir2 / path1.name
                assert path1.read_bytes() == path2.read_bytes(), path1.name
                compared += 1
        assert compared >= 13
