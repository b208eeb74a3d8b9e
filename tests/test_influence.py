"""Influence diagnostics: covariance, penalties, conformal statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeslens import (
    CovMatrix,
    GroupMap,
    LogLikSamples,
    Perturbation,
    aggregate,
    binomial_pw,
    clinf_direction,
    conflict_ratio,
    cross_conflict,
    dinf,
    influence_report,
    linf,
    loglik_covariance,
    p_v,
)
from bayeslens.errors import (
    CountOutOfRange,
    DegenerateSample,
    InvalidParameter,
    ProbabilityOutOfRange,
    ZeroPerturbation,
    ZeroTrace,
)
from bayeslens.influence import _block_moments, _pool
from bayeslens.sample_store import replicate_groups

TOY = [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]


def make(values, chains=None, ids=None):
    values = np.asarray(values, dtype=float)
    chains = chains if chains is not None else [0] * values.shape[0]
    ids = ids if ids is not None else tuple(f"o{i}" for i in range(values.shape[1]))
    return LogLikSamples(values=values, draw_chain=chains, obs_ids=ids)


class TestCovariance:
    def test_hand_example(self):
        """Columns (0,1,2) and (0,2,4) give V = [[1,2],[2,4]] with the S-1 convention."""
        cov = loglik_covariance(make(TOY))
        np.testing.assert_allclose(cov.matrix, [[1, 2], [2, 4]], rtol=1e-15)
        assert cov.trace == pytest.approx(5.0)

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
        values = linf(make(TOY))
        np.testing.assert_allclose(values, [1.0, 4.0], rtol=1e-15)
        assert float(values.sum()) == pytest.approx(5.0)

    def test_constant_column(self):
        values = linf(make([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert values[1] == 0.0

    def test_duplicated_draws_rescale_by_denominator(self):
        """Doubling every draw only changes the S-1 denominator factor."""
        rng = np.random.default_rng(5)
        values = rng.standard_normal((9, 3))
        base = linf(make(values))
        doubled = linf(make(np.vstack([values, values]), chains=[0] * 18))
        n = values.shape[0]
        np.testing.assert_allclose(
            doubled, base * 2.0 * (n - 1) / (2 * n - 1), rtol=1e-12
        )

    def test_matches_covariance_diagonal(self):
        rng = np.random.default_rng(6)
        samples = make(rng.standard_normal((30, 5)))
        np.testing.assert_allclose(
            linf(samples), np.diag(loglik_covariance(samples).matrix), rtol=1e-12
        )


class TestDinf:
    def test_two_draw_example(self):
        """Column (ln .5, ln .25): twice the gap between log-mean-exp and mean."""
        column = np.array([[math.log(0.5)], [math.log(0.25)]])
        expected = 2.0 * (
            math.log(0.375) - (math.log(0.5) + math.log(0.25)) / 2.0
        )
        np.testing.assert_allclose(dinf(make(column)), [expected], rtol=1e-12)
        assert expected == pytest.approx(0.11778, abs=5e-6)

    def test_constant_column_exactly_zero(self):
        values = dinf(make([[0.7, -3.3]] * 5))
        np.testing.assert_array_equal(values, [0.0, 0.0])

    def test_jensen_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            scale = 10.0 ** rng.integers(-3, 3)
            samples = make(rng.standard_normal((20, 4)) * scale)
            assert np.all(dinf(samples) >= 0.0)

    def test_stable_for_huge_magnitudes(self):
        """Max-shift keeps the estimate finite when values span hundreds of nats."""
        samples = make([[-900.0, 0.0], [-100.0, 0.0], [-500.0, 0.0]])
        values = dinf(samples)
        assert np.all(np.isfinite(values))
        assert values[0] > 0.0


class TestPv:
    def test_hand_example(self):
        """Row sums (0, 3, 6) have variance 9; doubled gives 18."""
        assert p_v(make(TOY)) == pytest.approx(18.0)

    def test_constant_matrix(self):
        assert p_v(make([[1.0, 2.0]] * 3)) == 0.0

    def test_quadratic_form_identity(self):
        """p_v equals 2 * ones' V ones through the covariance path."""
        rng = np.random.default_rng(13)
        samples = make(rng.standard_normal((60, 5)))
        matrix = loglik_covariance(samples).matrix
        ones = np.ones(5)
        np.testing.assert_allclose(
            p_v(samples), 2.0 * ones @ matrix @ ones, rtol=1e-10
        )


class TestClinfDirection:
    COV = np.array([[1.0, 2.0], [2.0, 4.0]])

    def test_basis_direction(self):
        assert clinf_direction(self.COV, Perturbation.basis(0, 2)) == pytest.approx(0.2)

    def test_ones_direction(self):
        assert clinf_direction(self.COV, Perturbation.ones(2)) == pytest.approx(0.9)

    def test_common_perturbation_identity(self):
        """clinf(ones) = p_v / (2 n p_w): 18 / (2*2*5) = 0.9 on the toy input."""
        samples = make(TOY)
        cov = loglik_covariance(samples)
        total_pw = float(linf(samples).sum())
        lhs = clinf_direction(cov, Perturbation.ones(2))
        rhs = p_v(samples) / (2.0 * samples.n_obs * total_pw)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs == pytest.approx(0.9)

    def test_basis_values_sum_to_one(self):
        rng = np.random.default_rng(14)
        samples = make(rng.standard_normal((25, 6)))
        cov = loglik_covariance(samples)
        total = sum(
            clinf_direction(cov, Perturbation.basis(i, 6)) for i in range(6)
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
            clinf_direction(np.zeros((2, 2)), Perturbation.ones(2))

    def test_wrong_length_direction(self):
        with pytest.raises(InvalidParameter, match="length 3, expected 2"):
            clinf_direction(self.COV, np.ones(3))

    def test_zero_perturbation(self):
        with pytest.raises(ZeroPerturbation):
            clinf_direction(self.COV, np.zeros(2))
        with pytest.raises(ZeroPerturbation):
            Perturbation(np.zeros(3))


class TestConflictRatio:
    def test_hand_example_flagged(self):
        samples = make(TOY, chains=[0, 0, 0])
        assert conflict_ratio(samples) == pytest.approx(3.6)
        with pytest.warns(UserWarning, match="too few draws"):
            report = influence_report(samples)
        assert report.flagged

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
            conflict_ratio(make([[1.0, 2.0]] * 3))


class TestCrossConflict:
    def test_single_group_matches_global(self):
        samples = make(TOY)
        result = cross_conflict(samples, GroupMap.single_group(samples.obs_ids))
        assert result.ratio[0] == pytest.approx(conflict_ratio(samples), rel=1e-12)

    def test_singleton_groups(self):
        """Per-observation groups give 2*Var/Var = 2 with the factor, 1 without."""
        samples = make(TOY)
        identity = GroupMap.identity(samples.obs_ids)
        with_factor = cross_conflict(samples, identity)
        np.testing.assert_allclose(with_factor.ratio, [2.0, 2.0], rtol=1e-12)
        without = cross_conflict(samples, identity, factor_two=False)
        np.testing.assert_allclose(without.ratio, [1.0, 1.0], rtol=1e-12)

    def test_hand_example(self):
        samples = make(TOY, ids=("a", "b"))
        result = cross_conflict(samples, GroupMap({"a": "g1", "b": "g2"}))
        np.testing.assert_allclose(result.ratio, [2.0, 2.0], rtol=1e-12)

    def test_zero_trace_group_reported_not_raised(self):
        values = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
        samples = make(values, ids=("a", "b"))
        result = cross_conflict(samples, GroupMap({"a": "live", "b": "flat"}))
        assert result.zero_trace == ("flat",)
        flat = result.group_labels.index("flat")
        live = result.group_labels.index("live")
        assert math.isnan(result.ratio[flat])
        assert result.ratio[live] == pytest.approx(2.0)


class TestBinomialPw:
    def test_binomial_variant_zero(self):
        """y=1, m=2 with draws 0.4 and 0.6 gives identical log-likelihoods."""
        result = binomial_pw([1], [2], [[0.4], [0.6]], variant="binomial")
        np.testing.assert_allclose(result, [0.0], atol=1e-30)

    def test_bernoulli_variant(self):
        """Same input decomposed per trial: ln(1.5)^2 with the S-1 convention."""
        result = binomial_pw([1], [2], [[0.4], [0.6]], variant="bernoulli")
        np.testing.assert_allclose(result, [math.log(1.5) ** 2], rtol=1e-12)

    def test_single_trial_variants_coincide(self):
        rng = np.random.default_rng(18)
        probs = rng.uniform(0.1, 0.9, (12, 4))
        y = np.array([0, 1, 1, 0])
        m = np.ones(4, dtype=int)
        np.testing.assert_allclose(
            binomial_pw(y, m, probs, variant="binomial"),
            binomial_pw(y, m, probs, variant="bernoulli"),
            rtol=1e-12,
        )

    def test_count_out_of_range(self):
        with pytest.raises(CountOutOfRange):
            binomial_pw([3], [2], [[0.4], [0.6]])
        with pytest.raises(CountOutOfRange):
            binomial_pw([0], [0], [[0.4], [0.6]])

    def test_probability_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            binomial_pw([1], [2], [[0.4], [1.0]])

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
            binomial_pw(y, m, probs)


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

    def test_aggregation_preserves_pv_exactly(self):
        rng = np.random.default_rng(21)
        samples = make(rng.standard_normal((80, 4)), chains=[0] * 40 + [1] * 40)
        merged = aggregate(samples, GroupMap.single_group(samples.obs_ids))
        assert p_v(merged) == p_v(samples)

    def test_all_constant_raises_zero_trace(self):
        with pytest.raises(ZeroTrace):
            influence_report(make([[1.0, 2.0]] * 4))

    def test_report_writers(self, tmp_path):
        report = self.make_report()
        report.write_csv(tmp_path / "r.csv")
        report.write_json(tmp_path / "r.json")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("obs_id,linf")
        assert len(lines) == 6

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


def _reference_report(samples):
    """Every MCSE field and ``p_v`` from the per-chain gather loop that
    ``influence_report`` ran before it pooled block moments."""
    values = samples.values
    rep_linf, rep_dinf, rep_clinf = [], [], []
    rep_pw, rep_pws, rep_pv, rep_ratio = [], [], [], []
    groups = replicate_groups(samples.draw_chain)
    for idx in groups:
        block = values[idx]
        block_linf = block.var(axis=0, ddof=1)
        block_pw = float(np.sum(block_linf))
        block_pv = 2.0 * float(block.sum(axis=1).var(ddof=1))
        rep_linf.append(block_linf)
        rep_dinf.append(_reference_dinf(block))
        rep_pw.append(block_pw)
        rep_pws.append(float(np.sum(rep_dinf[-1])))
        rep_pv.append(block_pv)
        if block_pw > 0.0:
            rep_clinf.append(block_linf / block_pw)
            rep_ratio.append(block_pv / block_pw)
    have_ratio = len(rep_ratio) == len(groups)
    return {
        "linf_mcse": _reference_mcse(rep_linf),
        "dinf_mcse": _reference_mcse(rep_dinf),
        "clinf_mcse": _reference_mcse(rep_clinf) if have_ratio else np.full(values.shape[1], np.nan),
        "p_w_mcse": float(_reference_mcse(rep_pw)),
        "p_w_star_mcse": float(_reference_mcse(rep_pws)),
        "p_v_mcse": float(_reference_mcse(rep_pv)),
        "conflict_ratio_mcse": float(_reference_mcse(rep_ratio)) if have_ratio else math.nan,
        "p_v": 2.0 * float(values.sum(axis=1).var(ddof=1)),
    }


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
}


class TestBlockMoments:
    @pytest.mark.parametrize("chains", CHAIN_LAYOUTS.values(), ids=CHAIN_LAYOUTS.keys())
    def test_matches_per_chain_reference(self, chains):
        """MCSEs and p_v are bit-identical to the gather loop; the pooled
        point estimates agree with the one-pass full-array estimators."""
        samples = make(_spread_draws(np.random.default_rng(31), 1000, 6), chains=chains)
        report = influence_report(samples)
        for field, expected in _reference_report(samples).items():
            np.testing.assert_array_equal(getattr(report, field), expected, err_msg=field)
        full_linf, full_dinf = linf(samples), dinf(samples)
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
        np.testing.assert_array_equal(report.linf, linf(samples))
        np.testing.assert_array_equal(report.dinf, _reference_dinf(samples.values))
        assert report.p_v == p_v(samples)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        draws=st.integers(2, 120),
        n_obs=st.integers(1, 5),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    def test_pooling_any_contiguous_split(self, seed, draws, n_obs, cuts):
        values = _spread_draws(np.random.default_rng(seed), draws, n_obs)
        edges = sorted({0, draws, *(int(c * draws) for c in cuts)})
        scratch = np.empty(values.shape)
        pooled = _pool([_block_moments(values[a:b], scratch) for a, b in zip(edges, edges[1:])])
        whole = _block_moments(values, scratch)
        assert pooled.count == whole.count
        np.testing.assert_array_equal(pooled.high, whole.high)
        np.testing.assert_array_equal(pooled.low, whole.low)
        np.testing.assert_allclose(pooled.linf(), whole.linf(), rtol=1e-12)
        np.testing.assert_allclose(pooled.dinf(), whole.dinf(), rtol=1e-9)

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
        np.testing.assert_allclose(report.dinf, dinf(samples), rtol=1e-9)
        np.testing.assert_allclose(report.linf, linf(samples), rtol=1e-12)

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
