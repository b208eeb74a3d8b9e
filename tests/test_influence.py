"""Influence diagnostics: covariance, penalties, conformal statistics."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bayeslens import (
    CovMatrix,
    CrossConflict,
    GroupMap,
    LogLikSamples,
    bernoulli_pw,
    clinf_direction,
    cross_conflict,
    exact_sampler,
    influence_report,
    loglik_covariance,
    random_spec,
)
from bayeslens.errors import (
    DegenerateSample,
    InvalidParameter,
    TooFewDrawsForMcse,
    ZeroPerturbation,
    ZeroTrace,
)
from bayeslens.influence import direction
from bayeslens.moments import block_moments
from bayeslens.sample_store import replicate_groups

EPS = np.finfo(float).eps

TOY = [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]


def make(values, chains=None, ids=None):
    values = np.asarray(values, dtype=float)
    chains = chains if chains is not None else [0] * values.shape[0]
    ids = ids if ids is not None else tuple(f"o{i}" for i in range(values.shape[1]))
    return LogLikSamples(values=values, draw_chain=chains, obs_ids=ids)


def report_of(samples):
    """``influence_report(samples)``, also for samples too short for MCSEs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TooFewDrawsForMcse)
        return influence_report(samples)


def one_pass(samples):
    """``linf`` and ``dinf`` of the whole draw array taken as one block."""
    whole = block_moments(samples.values)
    return whole.linf(), whole.dinf()


class TestCovariance:
    def test_hand_example(self):
        """Columns (0,1,2) and (0,2,4) give V = [[1,2],[2,4]] with the S-1 convention."""
        cov = loglik_covariance(make(TOY))
        np.testing.assert_allclose(cov.matrix, [[1, 2], [2, 4]], rtol=1e-15)
        assert np.trace(cov.matrix) == pytest.approx(5.0)

    def test_constant_matrix_is_zero(self):
        cov = loglik_covariance(make([[3.0, -1.0]] * 4))
        np.testing.assert_array_equal(cov.matrix, np.zeros((2, 2)))

    def test_single_observation(self):
        cov = loglik_covariance(make([[0.0], [2.0]]))
        assert cov.matrix.shape == (1, 1)
        np.testing.assert_allclose(cov.matrix, [[2.0]])

    def test_symmetric_and_nonnegative_diagonal(self):
        rng = np.random.default_rng(11)
        cov = loglik_covariance(make(rng.standard_normal((40, 6))))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)
        assert np.all(np.diag(cov.matrix) >= 0)

    def test_non_square_matrix(self):
        with pytest.raises(InvalidParameter, match="square"):
            CovMatrix(matrix=np.ones((2, 3)), obs_ids=("a", "b"))


class TestLinf:
    def test_hand_example(self):
        values = report_of(make(TOY)).linf
        np.testing.assert_allclose(values, [1.0, 4.0], rtol=1e-15)
        assert float(values.sum()) == pytest.approx(5.0)

    def test_constant_column(self):
        values = report_of(make([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])).linf
        assert values[1] == 0.0

    def test_duplicated_draws_rescale_by_denominator(self):
        """Doubling every draw only changes the S-1 denominator factor."""
        rng = np.random.default_rng(5)
        values = rng.standard_normal((9, 3))
        base = influence_report(make(values)).linf
        doubled = influence_report(make(np.vstack([values, values]), chains=[0] * 18)).linf
        n = values.shape[0]
        np.testing.assert_allclose(
            doubled, base * 2.0 * (n - 1) / (2 * n - 1), rtol=1e-12
        )

    def test_matches_covariance_diagonal(self):
        rng = np.random.default_rng(6)
        samples = make(rng.standard_normal((30, 5)))
        np.testing.assert_allclose(
            influence_report(samples).linf, np.diag(loglik_covariance(samples).matrix),
            rtol=1e-12,
        )


class TestDinf:
    def test_two_draw_example(self):
        """Column (ln .5, ln .25): twice the gap between log-mean-exp and mean."""
        column = np.array([[math.log(0.5)], [math.log(0.25)]])
        expected = 2.0 * (
            math.log(0.375) - (math.log(0.5) + math.log(0.25)) / 2.0
        )
        np.testing.assert_allclose(report_of(make(column)).dinf, [expected], rtol=1e-12)
        assert expected == pytest.approx(0.11778, abs=5e-6)

    def test_constant_column_exactly_zero(self):
        """Two constant columns beside one that varies, so that p_w > 0."""
        values = influence_report(make([[0.7, -3.3, x] for x in range(5)])).dinf
        np.testing.assert_array_equal(values[:2], [0.0, 0.0])

    def test_jensen_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            scale = 10.0 ** rng.integers(-3, 3)
            samples = make(rng.standard_normal((20, 4)) * scale)
            assert np.all(influence_report(samples).dinf >= 0.0)

    def test_stable_for_huge_magnitudes(self):
        """Max-shift keeps the estimate finite when values span hundreds of nats."""
        samples = make([[-900.0, 0.0], [-100.0, 0.0], [-500.0, 0.0]])
        values = report_of(samples).dinf
        assert np.all(np.isfinite(values))
        assert values[0] > 0.0


class TestPv:
    def test_hand_example(self):
        """Row sums (0, 3, 6) have variance 9; doubled gives 18."""
        assert report_of(make(TOY)).p_v == pytest.approx(18.0)

    def test_quadratic_form_identity(self):
        """p_v equals 2 * ones' V ones through the covariance path."""
        rng = np.random.default_rng(13)
        samples = make(rng.standard_normal((60, 5)))
        matrix = loglik_covariance(samples).matrix
        ones = np.ones(5)
        np.testing.assert_allclose(
            influence_report(samples).p_v, 2.0 * ones @ matrix @ ones, rtol=1e-10
        )


class TestClinfDirection:
    COV = np.array([[1.0, 2.0], [2.0, 4.0]])

    def test_basis_direction(self):
        assert clinf_direction(self.COV, np.eye(2)[0]) == pytest.approx(0.2)

    def test_ones_direction(self):
        assert clinf_direction(self.COV, np.ones(2)) == pytest.approx(0.9)

    def test_common_perturbation_identity(self):
        """clinf(ones) = p_v / (2 n p_w): 18 / (2*2*5) = 0.9 on the toy input."""
        samples = make(TOY)
        cov = loglik_covariance(samples)
        report = report_of(samples)
        lhs = clinf_direction(cov, np.ones(2))
        rhs = report.p_v / (2.0 * samples.n_obs * report.p_w)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs == pytest.approx(0.9)

    def test_basis_values_sum_to_one(self):
        rng = np.random.default_rng(14)
        samples = make(rng.standard_normal((25, 6)))
        cov = loglik_covariance(samples)
        total = sum(
            clinf_direction(cov, np.eye(6)[i]) for i in range(6)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_random_orthonormal_basis_sums_to_one(self):
        rng = np.random.default_rng(15)
        samples = make(rng.standard_normal((25, 5)))
        cov = loglik_covariance(samples)
        for _ in range(10):
            basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            total = sum(clinf_direction(cov, basis[:, j]) for j in range(5))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_bounds_for_psd(self):
        rng = np.random.default_rng(16)
        samples = make(rng.standard_normal((30, 4)))
        cov = loglik_covariance(samples)
        for _ in range(50):
            value = clinf_direction(cov, rng.standard_normal(4))
            assert 0.0 <= value <= 1.0

    def test_zero_trace(self):
        with pytest.raises(ZeroTrace):
            clinf_direction(np.zeros((2, 2)), np.ones(2))

    def test_wrong_length_direction(self):
        with pytest.raises(InvalidParameter, match="length 3, expected 2"):
            clinf_direction(self.COV, np.ones(3))

    def test_zero_perturbation(self):
        with pytest.raises(ZeroPerturbation):
            clinf_direction(self.COV, np.zeros(2))
        with pytest.raises(ZeroPerturbation, match="identically zero"):
            direction(np.zeros(3), 3)
        # the length is checked first
        with pytest.raises(InvalidParameter, match="length 3, expected 2"):
            direction(np.zeros(3), 2)


class TestConflictRatio:
    def test_hand_example_flagged(self):
        samples = make(TOY, chains=[0, 0, 0])
        with pytest.warns(UserWarning, match="too few draws"):
            report = influence_report(samples)
        assert report.conflict_ratio == pytest.approx(3.6)
        assert report.flagged() is True
        # the rule is "at or above": the ratio itself flags, the next float up does not
        ratio = report.conflict_ratio
        assert report.flagged(ratio) is True
        assert report.flagged(np.nextafter(ratio, math.inf)) is False
        # a NaN ratio flags at no threshold, in a report as in a group
        unknown = dataclasses.replace(report, conflict_ratio=math.nan)
        flat = CrossConflict(group_labels=("g",), p_v=np.zeros(1), p_w=np.zeros(1),
                             ratio=np.full(1, math.nan), zero_trace=("g",))
        for threshold in (-math.inf, 0.0, ratio):
            assert unknown.flagged(threshold) is False
            assert flat.flagged(threshold) == ()

    def test_independent_columns_give_two(self):
        """With independent contributions the calibration factor makes the ratio 2."""
        rng = np.random.default_rng(17)
        draws = 1_000_000
        values = rng.standard_normal((draws, 3))
        chains = np.repeat(np.arange(4), draws // 4)
        report = influence_report(make(values, chains=chains))
        assert abs(report.conflict_ratio - 2.0) <= 3.0 * report.conflict_ratio_mcse
        assert report.conflict_ratio == pytest.approx(2.0, rel=0.02)

    def test_constant_matrix_zero_trace(self):
        with pytest.raises(ZeroTrace):
            report_of(make([[1.0, 2.0]] * 3))


class TestCrossConflict:
    def test_single_group_matches_global(self):
        samples = make(TOY)
        result = cross_conflict(samples, GroupMap(dict.fromkeys(samples.obs_ids, "all")))
        assert result.ratio[0] == pytest.approx(report_of(samples).conflict_ratio, rel=1e-12)

    def test_singleton_groups(self):
        """Per-observation groups give p_v = 2*Var and p_w = Var exactly."""
        samples = make(TOY)
        result = cross_conflict(samples, GroupMap(dict(zip(samples.obs_ids, samples.obs_ids))))
        np.testing.assert_array_equal(result.p_v, 2.0 * result.p_w)
        np.testing.assert_allclose(result.ratio, [2.0, 2.0], rtol=1e-12)

    def test_hand_example(self):
        samples = make(TOY, ids=("a", "b"))
        result = cross_conflict(samples, GroupMap({"a": "g1", "b": "g2"}))
        np.testing.assert_allclose(result.ratio, [2.0, 2.0], rtol=1e-12)

    def test_zero_trace_group_reported_not_raised(self):
        """A flat group gets ratio NaN without a warning of any kind."""
        values = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
        samples = make(values, ids=("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cross_conflict(samples, GroupMap({"a": "live", "b": "flat"}))
        assert result.zero_trace == ("flat",)
        flat = result.group_labels.index("flat")
        live = result.group_labels.index("live")
        assert math.isnan(result.ratio[flat])
        assert result.ratio[live] == pytest.approx(2.0)

    def test_one_group_peak_memory_independent_of_draws(self):
        """No gathered copy of a group's columns: at n=40, S=200000 (64 MB of
        draws) the transient peak of a one-group map stays below 4 MB."""
        samples = make(np.random.default_rng(36).standard_normal((200_000, 40)))
        groups = GroupMap(dict.fromkeys(samples.obs_ids, "all"))
        tracemalloc.start()
        try:
            cross_conflict(samples, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestBinomialPw:
    def test_bernoulli_variant(self):
        """y=1, m=2 with draws 0.4 and 0.6, decomposed per trial: ln(1.5)^2
        with the S-1 convention."""
        result = bernoulli_pw([1], [2], [[0.4], [0.6]])
        np.testing.assert_allclose(result, [math.log(1.5) ** 2], rtol=1e-12)

    def test_single_trial_variants_coincide(self):
        """With one trial per outcome the decomposition is the ``linf`` of the
        outcomes' Bernoulli log-likelihoods."""
        rng = np.random.default_rng(18)
        probs = rng.uniform(0.1, 0.9, (12, 4))
        y = np.array([0, 1, 1, 0])
        m = np.ones(4, dtype=int)
        loglik = y * np.log(probs) + (m - y) * np.log1p(-probs)
        np.testing.assert_allclose(
            influence_report(make(loglik)).linf,
            bernoulli_pw(y, m, probs),
            rtol=1e-12,
        )

    def test_count_out_of_range(self):
        """Successes and trials are finite whole numbers with 0 <= y <= m."""
        for y in (3, -1, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameter, match="whole numbers with 0 <= y <= m"):
                bernoulli_pw([y], [2], [[0.4], [0.6]])
        for m in (0, 2.5, math.nan, math.inf):
            with pytest.raises(InvalidParameter, match="trial counts must be whole numbers >= 1"):
                bernoulli_pw([0], [m], [[0.4], [0.6]])

    def test_probability_out_of_range(self):
        with pytest.raises(InvalidParameter, match="'prob' must lie in"):
            bernoulli_pw([1], [2], [[0.4], [1.0]])
        with pytest.raises(InvalidParameter, match="'prob' must lie in"):
            bernoulli_pw([1], [2], [[0.0], [0.6]])

    def test_single_draw(self):
        with pytest.raises(DegenerateSample, match="need at least 2 draws"):
            bernoulli_pw([1], [2], [[0.5]])

    @pytest.mark.parametrize(
        "y, m, probs",
        [
            ([1, 2], [3, 3], [[0.5], [0.5]]),
            ([1, 2], [3, 3], [0.5, 0.5]),
            ([1, 2], [3], [[0.5, 0.5], [0.4, 0.6]]),
        ],
        ids=["wrong_width", "one_dimensional", "m_y_mismatch"],
    )
    def test_mis_shaped_input(self, y, m, probs):
        with pytest.raises(InvalidParameter, match="matching y and m"):
            bernoulli_pw(y, m, probs)


class TestInfluenceReport:
    def make_report(self, draws=400, n_obs=5, chains=4, seed=19):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((draws, n_obs)) * rng.uniform(0.5, 2.0, n_obs)
        labels = np.repeat(np.arange(chains), draws // chains)
        return influence_report(make(values, chains=labels))

    def test_totals_are_exact_sums(self):
        report = self.make_report()
        assert report.p_w == float(np.sum(report.linf))
        assert report.p_w_star == float(np.sum(report.dinf))

    def test_clinf_sums_to_one(self):
        report = self.make_report()
        assert float(np.sum(report.clinf)) == pytest.approx(1.0, abs=1e-12)

    def test_mcse_present_with_chains(self):
        report = self.make_report()
        assert np.all(np.isfinite(report.linf_mcse))
        assert math.isfinite(report.p_v_mcse)
        assert report.n_chains == 4

    def test_mcse_nan_when_too_few_draws(self):
        with pytest.warns(UserWarning, match="too few draws"):
            report = influence_report(make([[0.0, 1.0], [1.0, 3.0]]))
        assert math.isnan(report.p_w_mcse)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        values = rng.standard_normal((200, 6))
        labels = np.repeat([0, 1], 100)
        base = influence_report(make(values, chains=labels))
        perm = rng.permutation(6)
        permuted = influence_report(
            make(values[:, perm], chains=labels,
                 ids=tuple(f"o{i}" for i in perm))
        )
        np.testing.assert_allclose(permuted.linf, base.linf[perm], rtol=1e-14)
        np.testing.assert_allclose(permuted.dinf, base.dinf[perm], rtol=1e-14)
        np.testing.assert_allclose(permuted.clinf, base.clinf[perm], rtol=1e-12)
        assert permuted.p_w == pytest.approx(base.p_w, rel=1e-12)
        assert permuted.p_w_star == pytest.approx(base.p_w_star, rel=1e-12)
        assert permuted.p_v == pytest.approx(base.p_v, rel=1e-12)

    def test_all_constant_raises_zero_trace(self):
        with pytest.raises(ZeroTrace):
            influence_report(make([[1.0, 2.0]] * 4))

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            LogLikSamples(values=[[0.0, 1.0]], draw_chain=[0], obs_ids=("a", "b"))


def _reference_dinf(values):
    # The per-column Jensen gap as computed before block moments existed.
    shift = values.max(axis=0)
    logmeanexp = shift + np.log(np.exp(values - shift).mean(axis=0))
    out = 2.0 * (logmeanexp - values.mean(axis=0))
    out = np.maximum(out, 0.0)
    out[values.min(axis=0) == shift] = 0.0
    return out


def _reference_mcse(replicates):
    stacked = np.stack([np.asarray(r, dtype=float) for r in replicates])
    return stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])


def _exact_dinf(block):
    """Each column's Jensen gap with every sum taken by ``math.fsum``, and a
    bound on the error of any float64 fold of the block's R rows: the mean
    errs by R eps max|x|; the shifted exp sum by (R + 1) eps relative in its
    summation and eps (high - low) in its shifted terms, which the log turns
    into absolute error; the log-mean-exp then adds eps |high|. Twice the sum
    is below 4 (R + 4) eps (1 + max|x|)."""
    rows = block.shape[0]
    high = block.max(axis=0)
    gaps = [2.0 * (h + math.log(math.fsum(np.exp(c - h)) / rows) - math.fsum(c) / rows)
            for c, h in zip(block.T, high)]
    gap = np.maximum(gaps, 0.0)
    gap[block.min(axis=0) == high] = 0.0
    return gap, 4 * (rows + 4) * EPS * (1.0 + np.abs(block).max(axis=0))


def _reference_report(samples, exact_sums):
    """Every MCSE field and ``p_v`` from per-chain sums taken by
    ``math.fsum``, each with a bound on its error.

    A replicate statistic off by at most e moves the standard error of m >= 2
    replicates by at most e (the standard deviation is Lipschitz in each
    entry with constant sqrt(m / (m - 1)) / sqrt(m) <= 1), and its own
    arithmetic adds a few eps of the largest replicate: 8 eps here. ``p_v``
    sums the same row totals as the report, so it and its MCSE carry no bound.
    """
    values = samples.values
    reps = {key: [] for key in ("linf", "dinf", "clinf", "p_w", "p_w_star", "p_v", "ratio")}
    errors = {key: [] for key in reps}
    groups = replicate_groups(samples.draw_chain)
    for idx in groups:
        block = values[idx]
        rows = block.shape[0]
        _, sq_dev, _, sq_dev_error = exact_sums(block)
        linf = sq_dev / (rows - 1)
        linf_error = sq_dev_error / (rows - 1) + EPS * linf
        dinf, dinf_error = _exact_dinf(block)
        p_w = math.fsum(linf)
        p_w_error = float(np.sum(linf_error)) + block.shape[1] * EPS * p_w
        p_v = 2.0 * float(block.sum(axis=1).var(ddof=1))
        for key, value, error in (
            ("linf", linf, linf_error),
            ("dinf", dinf, dinf_error),
            ("p_w", p_w, p_w_error),
            ("p_w_star", math.fsum(dinf), float(np.sum(dinf_error)) + dinf.size * EPS * np.sum(dinf)),
            ("p_v", p_v, 0.0),
        ):
            reps[key].append(value)
            errors[key].append(error)
        if p_w > 0.0:
            # a quotient's relative error is at most the sum of its parts', plus eps
            reps["clinf"].append(linf / p_w)
            errors["clinf"].append(linf / p_w * (linf_error / np.where(linf > 0, linf, 1.0)
                                                 + p_w_error / p_w + EPS))
            reps["ratio"].append(p_v / p_w)
            errors["ratio"].append(p_v / p_w * (p_w_error / p_w + EPS))
    have_ratio = len(reps["ratio"]) == len(groups)
    expected = {}
    for key, field in (("linf", "linf_mcse"), ("dinf", "dinf_mcse"), ("clinf", "clinf_mcse"),
                       ("p_w", "p_w_mcse"), ("p_w_star", "p_w_star_mcse"),
                       ("p_v", "p_v_mcse"), ("ratio", "conflict_ratio_mcse")):
        if key in ("clinf", "ratio") and not have_ratio:
            nan = np.full(values.shape[1], np.nan) if key == "clinf" else math.nan
            expected[field] = (nan, 0.0)
            continue
        stacked = np.stack([np.asarray(r, dtype=float) for r in reps[key]])
        bound = np.max(errors[key], axis=0) + 8 * EPS * np.abs(stacked).max(axis=0)
        expected[field] = (_reference_mcse(reps[key]), 0.0 if key == "p_v" else bound)
    expected["p_v"] = (2.0 * float(values.sum(axis=1).var(ddof=1)), 0.0)
    return expected


def _spread_draws(rng, draws, n_obs):
    """Columns on different scales, some centred hundreds of nats below zero."""
    scale = rng.uniform(0.1, 20.0, n_obs)
    offset = rng.uniform(-400.0, 5.0, n_obs)
    return rng.standard_normal((draws, n_obs)) * scale + offset


CHAIN_LAYOUTS = {
    "equal_contiguous": np.repeat(np.arange(4), 250),
    "unequal_contiguous": np.repeat([2, 0, 1], [150, 600, 250]),
    "interleaved": np.tile([0, 1], 500),
    "single_chain_halves": np.zeros(1000, dtype=int),
    # chain 1 is made constant in every column below
    "one_flat_chain": np.repeat(np.arange(4), 250),
}


class TestBlockMoments:
    @pytest.mark.parametrize("layout", CHAIN_LAYOUTS)
    def test_matches_per_chain_reference(self, exact_sums, layout):
        """Each MCSE lies within its stated bound of the MCSE of per-chain
        statistics summed by ``math.fsum``; ``p_v`` and its MCSE, which sum the
        same row totals, are bit-identical. The pooled point estimates agree
        with the one-pass full-array estimators. A replicate with p_w = 0
        makes the clinf and ratio MCSEs NaN, quietly."""
        chains = CHAIN_LAYOUTS[layout]
        values = _spread_draws(np.random.default_rng(31), 1000, 6)
        if layout == "one_flat_chain":
            # whole numbers, so that each column's mean, and its variance 0, are exact
            values[chains == 1] = np.floor(values[chains == 1][0])
        samples = make(values, chains=chains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = influence_report(samples)
        if layout == "one_flat_chain":
            assert report.p_w > 0.0
            assert np.all(np.isnan(report.clinf_mcse))
            assert math.isnan(report.conflict_ratio_mcse)
        for field, (expected, bound) in _reference_report(samples, exact_sums).items():
            got = getattr(report, field)
            if np.all(bound == 0.0):
                np.testing.assert_array_equal(got, expected, err_msg=field)
            else:
                assert np.all(np.abs(got - expected) <= bound), (field, got - expected, bound)
        full_linf, full_dinf = one_pass(samples)
        np.testing.assert_allclose(report.linf, full_linf, rtol=1e-12)
        np.testing.assert_allclose(report.clinf, full_linf / full_linf.sum(), rtol=1e-12)
        assert report.p_w == pytest.approx(float(full_linf.sum()), rel=1e-12)
        np.testing.assert_allclose(report.dinf, full_dinf, rtol=1e-9)
        assert report.p_w_star == pytest.approx(float(full_dinf.sum()), rel=1e-9)

    def test_one_block_is_bit_identical(self):
        """With too few draws for replicates the whole array is one block."""
        samples = make(_spread_draws(np.random.default_rng(32), 3, 4), chains=[0, 1, 1])
        with pytest.warns(UserWarning, match="too few draws"):
            report = influence_report(samples)
        np.testing.assert_array_equal(report.linf, samples.values.var(axis=0, ddof=1))
        np.testing.assert_array_equal(report.dinf, _reference_dinf(samples.values))
        assert report.p_v == 2.0 * float(samples.values.sum(axis=1).var(ddof=1))

    def test_covariance_peak_memory_independent_of_draws(self):
        """No centred copy of the draws: at n=40, S=200000 (64 MB of draws)
        the transient peak of the covariance stays below 4 MB."""
        samples = make(np.random.default_rng(35).standard_normal((200_000, 40)))
        tracemalloc.start()
        try:
            loglik_covariance(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_column_constant_within_each_chain(self):
        """Each chain's Jensen gap is exactly zero, but pooled over the chains
        the column varies, so its pooled dinf is positive. (The mean of 50
        copies of 0.1 rounds below 0.1, so only the pin zeroes chain 0.)"""
        rng = np.random.default_rng(33)
        chains = np.repeat(np.arange(4), 50)
        values = rng.standard_normal((200, 3))
        values[:, 0] = 0.1 + chains
        samples = make(values, chains=chains)
        report = influence_report(samples)
        assert report.dinf_mcse[0] == 0.0
        assert report.linf_mcse[0] <= 1e-12 * report.linf[0]
        assert report.dinf[0] > 0.0
        full_linf, full_dinf = one_pass(samples)
        np.testing.assert_allclose(report.dinf, full_dinf, rtol=1e-9)
        np.testing.assert_allclose(report.linf, full_linf, rtol=1e-12)

    @pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
    def test_peak_memory_independent_of_chain_length(self, layout):
        """Each chain is folded in blocks, never gathered or held whole: at
        n=40, S=200000 (64 MB of draws) in 4 chains the transient peak stays
        below 12 MB, which the S-long chain indices and row totals set."""
        draws = 200_000
        chains = np.repeat(np.arange(4), draws // 4) if layout == "contiguous" else (
            np.arange(draws) % 4)
        samples = make(np.random.default_rng(37).standard_normal((draws, 40)), chains=chains)
        tracemalloc.start()
        try:
            influence_report(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20

    def test_dinf_of_long_chains_matches_exact_sums(self):
        """Chains of 50000 draws fold in many blocks, and every pooled dinf
        lies within 1e-11 relative of twice the gap between the max-shifted
        log-mean-exp and the mean, each sum taken exactly by math.fsum."""
        spec = random_spec(np.random.default_rng(7), n_obs=40, n_params=3)
        samples, _ = exact_sampler(spec, draws=200_000, chains=4, seed=7)
        report = influence_report(samples)
        for column, dinf in zip(samples.values.T, report.dinf):
            high = column.max()
            logmeanexp = high + math.log(math.fsum(np.exp(column - high)) / column.size)
            expected = 2.0 * (logmeanexp - math.fsum(column) / column.size)
            assert abs(dinf - expected) <= 1e-11 * expected

    def test_peak_memory_below_the_draws(self):
        """No full-size gather or temporary: with 4 contiguous chains the
        transient peak stays under three quarters of the draw matrix."""
        chains = np.repeat(np.arange(4), 10000)
        samples = make(np.random.default_rng(34).standard_normal((40000, 40)), chains=chains)
        tracemalloc.start()
        try:
            influence_report(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * samples.values.nbytes
