"""Hat-value estimation and closed-form family KL divergences."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bayeslens import (
    GroupMap,
    PredictiveDraws,
    Perturbation,
    aggregate_hat_values,
    cllev_direction,
    family_kl,
    hat_values,
    load_predictive,
    mc_kl,
)
from bayeslens.errors import (
    FlooredHatValues,
    InvalidParameter,
    MalformedCsv,
    NoReplicates,
    SingleChain,
    SingleDraw,
    ZeroLeverage,
    ZeroPerturbation,
)
from bayeslens import moments
from bayeslens.families import FAMILIES
from bayeslens.leverage import _split_streams

EPS = np.finfo(float).eps
FAMILY_NAMES = ("normal_known_var", "normal", "poisson", "binomial", "gamma")

# (family, position in a family_kl side, a value outside that parameter's
# domain); the position past the per-draw parameters is the family's
# per-observation constant
OUT_OF_DOMAIN = [
    ("normal_known_var", 1, 0.0),
    ("normal", 1, -1.0),
    ("poisson", 0, 0.0),
    ("binomial", 0, 0.0),
    ("binomial", 0, 1.0),
    ("binomial", 1, 0.0),
    ("binomial", 1, 2.5),
    ("binomial", 1, math.nan),
    ("binomial", 1, math.inf),
    ("gamma", 0, -0.5),
    ("gamma", 1, 0.0),
]


def normal_pred(means, var=1.0, chains=None, ids=None):
    """Known-variance normal predictive draws from a mean matrix."""
    means = np.asarray(means, dtype=float)
    chains = chains if chains is not None else [0] * (means.shape[0] // 2) + [1] * (
        means.shape[0] - means.shape[0] // 2
    )
    ids = ids if ids is not None else tuple(f"o{i}" for i in range(means.shape[1]))
    return PredictiveDraws(
        family="normal_known_var",
        params=means[:, :, np.newaxis],
        draw_chain=chains,
        obs_ids=ids,
        fixed=np.full(means.shape[1], var),
    )


def near_identical(pred, rng):
    """``pred`` with every draw equal to its first to within 1e-12 relative:
    the pair KLs sit at round-off level, and many of them are negative."""
    params = pred.params[:1] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, pred.params.shape))
    return dataclasses.replace(pred, params=params)


class TestFamilyKl:
    def test_normal_known_var_half(self):
        """KL(N(0,1) || N(1,1)) = 1/2, checked against numerical integration."""
        assert family_kl("normal_known_var", (0.0, 1.0), (1.0, 1.0)) == pytest.approx(0.5)
        integrand = lambda x: stats.norm.pdf(x) * (
            stats.norm.logpdf(x) - stats.norm.logpdf(x, loc=1.0)
        )
        quad, _ = integrate.quad(integrand, -12, 12)
        assert quad == pytest.approx(0.5, abs=1e-9)

    def test_poisson_example(self):
        """KL(Pois(2) || Pois(1)) = 2 ln 2 - 1, checked against a series oracle."""
        closed = family_kl("poisson", (2.0,), (1.0,))
        assert closed == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-12)
        ks = np.arange(0, 200)
        series = float(
            np.sum(
                stats.poisson.pmf(ks, 2.0)
                * (stats.poisson.logpmf(ks, 2.0) - stats.poisson.logpmf(ks, 1.0))
            )
        )
        assert closed == pytest.approx(series, abs=1e-10)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("normal_known_var", (0.3, 2.0)),
            ("normal", (-1.0, 0.7)),
            ("poisson", (3.5,)),
            ("binomial", (0.35, 7)),
            ("gamma", (2.5, 1.3)),
        ],
    )
    def test_identical_params_give_zero(self, family, params):
        assert family_kl(family, params, params) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            mean1, mean2 = rng.normal(0, 3, 2)
            var1, var2 = rng.uniform(0.2, 4.0, 2)
            assert family_kl("normal", (mean1, var1), (mean2, var2)) >= 0.0
            rate1, rate2 = rng.uniform(0.1, 20.0, 2)
            assert family_kl("poisson", (rate1,), (rate2,)) >= 0.0
            prob1, prob2 = rng.uniform(0.05, 0.95, 2)
            m = int(rng.integers(1, 30))
            assert family_kl("binomial", (prob1, m), (prob2, m)) >= 0.0
            shape1, shape2 = rng.uniform(0.5, 6.0, 2)
            beta1, beta2 = rng.uniform(0.2, 5.0, 2)
            assert family_kl("gamma", (shape1, beta1), (shape2, beta2)) >= -1e-13

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            family_kl("normal", (0.0, -1.0), (0.0, 1.0))
        with pytest.raises(InvalidParameter):
            family_kl("poisson", (0.0,), (1.0,))
        with pytest.raises(InvalidParameter):
            family_kl("binomial", (0.5, 3), (0.5, 4))
        with pytest.raises(InvalidParameter):
            family_kl("binomial", (1.2, 3), (0.5, 3))
        with pytest.raises(InvalidParameter):
            family_kl("normal_known_var", (0.0, 1.0), (0.0, 2.0))
        with pytest.raises(InvalidParameter):
            family_kl("cauchy", (0.0,), (1.0,))

    def test_vectorized(self):
        means1 = np.array([[0.0, 1.0], [2.0, 3.0]])
        means2 = means1 + 1.0
        out = family_kl(
            "normal_known_var",
            (means1, np.ones_like(means1)),
            (means2, np.ones_like(means2)),
        )
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), rtol=1e-15)


class TestMcKl:
    def test_identical_distributions(self):
        """Same parameters on both sides: estimate 0 with zero spread."""
        logp = np.full(100, -1.3)
        assert mc_kl(logp, logp) == 0.0

    def test_normal_within_three_se(self):
        rng = np.random.default_rng(24)
        draws = rng.normal(0.0, 1.0, 100_000)
        logp1 = stats.norm.logpdf(draws)
        logp2 = stats.norm.logpdf(draws, loc=1.0)
        estimate = mc_kl(logp1, logp2)
        se = float(np.std(logp1 - logp2, ddof=1)) / math.sqrt(draws.size)
        assert abs(estimate - 0.5) <= 3.0 * se

    def test_two_point_predictive(self):
        """Discrete two-point (0.75, 0.25) vs (0.5, 0.5) has KL ~= 0.13081."""
        truth = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert truth == pytest.approx(0.13081, abs=5e-6)
        rng = np.random.default_rng(25)
        outcomes = rng.random(100_000) < 0.75
        logp1 = np.where(outcomes, math.log(0.75), math.log(0.25))
        logp2 = np.full(outcomes.shape, math.log(0.5))
        estimate = mc_kl(logp1, logp2)
        se = float(np.std(logp1 - logp2, ddof=1)) / math.sqrt(outcomes.size)
        assert abs(estimate - truth) <= 3.0 * se

    def test_no_replicates(self):
        with pytest.raises(NoReplicates):
            mc_kl([], [])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            mc_kl([0.0, 1.0], [0.0])


class TestHatValues:
    def test_constant_equal_streams_give_zero(self):
        pred = normal_pred(np.zeros((8, 3)))
        hat = hat_values(pred, seed=1)
        np.testing.assert_array_equal(hat.values, np.zeros(3))
        assert hat.p_d_star == 0.0
        assert np.all(np.isnan(hat.cllev))

    def test_two_draw_hand_example(self):
        """Stream means {0,0} vs {1,-1} at unit variance average to h = 0.5."""
        means = np.array([[0.0], [0.0], [1.0], [-1.0]])
        pred = normal_pred(means, chains=[0, 0, 1, 1])
        hat = hat_values(pred, seed=2)
        np.testing.assert_allclose(hat.values, [0.5], rtol=1e-15)
        assert hat.n_pairs == 2

    def test_single_chain_warns_and_splits(self):
        means = np.array([[0.0], [0.0], [1.0], [-1.0]])
        pred = normal_pred(means, chains=[0, 0, 0, 0])
        with pytest.warns(UserWarning, match="single chain"):
            hat = hat_values(pred, seed=3)
        np.testing.assert_allclose(hat.values, [0.5], rtol=1e-15)

    def test_warnings_carry_stable_codes(self, random_predictive):
        means = np.array([[0.0], [0.0], [1.0], [-1.0]])
        with pytest.warns(SingleChain) as record:
            hat_values(normal_pred(means, chains=[0, 0, 0, 0]), seed=3)
        assert record[0].message.code == "single_chain"
        # draws 1e-12 apart: the closed-form KLs are round-off, and some
        # hat-values come out negative
        rng = np.random.default_rng(39)
        pred = near_identical(random_predictive("gamma", rng, 40, 20), rng)
        with pytest.warns(FlooredHatValues) as record:
            hat = hat_values(pred, seed=0)
        assert record[0].message.code == "floored_hat_values"
        assert np.any(hat.values == 0.0)
        assert hat.negative_pairs.sum() > 0

    def test_streams_split_chains_in_order_of_first_appearance(self):
        first, second = _split_streams(np.array([2, 2, 0, 1, 1, 0, 3, 3]))
        assert first.tolist() == [0, 1, 2, 5]
        assert second.tolist() == [3, 4, 6, 7]

    def test_single_draw_stream_rejected(self):
        means = np.array([[0.0], [1.0], [2.0]])
        pred = normal_pred(means, chains=[0, 0, 1])
        with pytest.raises(SingleDraw):
            hat_values(pred, seed=4)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(26)
        pred = normal_pred(rng.standard_normal((40, 4)))
        first = hat_values(pred, seed=11)
        second = hat_values(pred, seed=11)
        np.testing.assert_array_equal(first.values, second.values)

    def test_swap_streams_agree_within_error(self):
        """KL direction is statistical: reversed streams agree within 3 MCSE."""
        rng = np.random.default_rng(27)
        means = rng.standard_normal((2000, 3)) * 0.3
        pred = normal_pred(means, chains=[0] * 1000 + [1] * 1000)
        swapped = normal_pred(
            np.vstack([means[1000:], means[:1000]]), chains=[0] * 1000 + [1] * 1000
        )
        forward = hat_values(pred, seed=5)
        backward = hat_values(swapped, seed=6)
        combined = np.sqrt(forward.mcse**2 + backward.mcse**2)
        assert np.all(np.abs(forward.values - backward.values) <= 3.0 * combined)

    def test_symmetrize_averages_directions(self):
        rng = np.random.default_rng(28)
        params = np.stack(
            [rng.standard_normal((20, 2)), rng.uniform(0.5, 2.0, (20, 2))], axis=2
        )
        pred = PredictiveDraws(
            family="normal",
            params=params,
            draw_chain=[0] * 10 + [1] * 10,
            obs_ids=("a", "b"),
        )
        plain = hat_values(pred, seed=7)
        sym = hat_values(pred, seed=7, symmetrize=True)
        assert not np.allclose(plain.values, sym.values)
        assert np.all(sym.values >= 0.0)

    def test_mcse_shrinks_with_pairs(self):
        rng = np.random.default_rng(30)
        small = normal_pred(rng.standard_normal((100, 2)))
        large = normal_pred(rng.standard_normal((10_000, 2)))
        assert np.all(
            hat_values(large, seed=9).mcse < hat_values(small, seed=9).mcse
        )

    def test_poisson_and_gamma_families(self, random_predictive):
        rng = np.random.default_rng(31)
        for family in ("poisson", "gamma"):
            pred = random_predictive(family, rng, 60, 3)
            assert pred.family == family
            hat = hat_values(pred, seed=10)
            assert np.all(hat.values >= 0.0)
            assert hat.p_d_star == float(np.sum(hat.values))

    def test_cllev_sums_to_one(self):
        rng = np.random.default_rng(36)
        hat = hat_values(normal_pred(rng.standard_normal((80, 5))), seed=14)
        assert float(np.sum(hat.cllev)) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_family(self):
        rng = np.random.default_rng(32)
        probs = rng.uniform(0.2, 0.8, (40, 2))
        pred = PredictiveDraws(
            family="binomial",
            params=probs[:, :, np.newaxis],
            draw_chain=[0] * 20 + [1] * 20,
            obs_ids=("a", "b"),
            fixed=[4, 9],
        )
        hat = hat_values(pred, seed=11)
        assert np.all(hat.values >= 0.0)


def one_shot_pairs(pred, seed, symmetrize):
    """Pair values from full permuted copies of the params, all pairs at once."""
    rng = np.random.default_rng(seed)
    idx1, idx2 = _split_streams(pred.draw_chain)
    n_pairs = min(idx1.size, idx2.size)
    params1 = pred.params[idx1[rng.permutation(idx1.size)][:n_pairs]]
    params2 = pred.params[idx2[rng.permutation(idx2.size)][:n_pairs]]
    kl = FAMILIES[pred.family].kl
    pair_values = kl(params1, params2, pred.fixed)
    if symmetrize:
        pair_values = (pair_values + kl(params2, params1, pred.fixed)) / 2.0
    return pair_values


class TestBlockedPairing:
    """Blocked pairing folded into running moments: the hat-values and MCSEs
    within the error bound of any float64 fold of the pair values' exact
    sums, the one-shot MCSEs within 1e-12 relative, and the counts exactly."""

    def check_against_one_shot(self, pred, symmetrize, exact_sums):
        hat = hat_values(pred, seed=13, symmetrize=symmetrize)
        pair_values = one_shot_pairs(pred, 13, symmetrize)
        n_pairs = pair_values.shape[0]
        assert hat.n_pairs == n_pairs
        total, sq_dev, total_error, sq_dev_error = exact_sums(pair_values)
        # a mean is its total's bound over n, plus a rounding in each division;
        # flooring at zero cannot widen the gap
        mean = total / n_pairs
        mean_error = total_error / n_pairs + 2 * EPS * np.abs(mean)
        assert np.all(np.abs(hat.values - np.maximum(mean, 0.0)) <= mean_error)
        assert hat.p_d_star == float(np.sum(hat.values))
        with np.errstate(invalid="ignore"):  # 0 / 0 where every pair floors
            np.testing.assert_array_equal(hat.cllev, hat.values / hat.p_d_star)
        np.testing.assert_array_equal(hat.negative_pairs, (pair_values < 0.0).sum(axis=0))
        # the square root is increasing, so the MCSE lies between those of the
        # sums of squares' bounds, each off by a rounding in its three steps
        scale = 1.0 / ((n_pairs - 1) * n_pairs)
        low = np.sqrt(np.maximum(sq_dev - sq_dev_error, 0.0) * scale) * (1 - 4 * EPS)
        high = np.sqrt((sq_dev + sq_dev_error) * scale) * (1 + 4 * EPS)
        assert np.all((low <= hat.mcse) & (hat.mcse <= high))
        mcse = pair_values.std(axis=0, ddof=1) / math.sqrt(n_pairs)
        total_mcse = float(pair_values.sum(axis=1).std(ddof=1) / math.sqrt(n_pairs))
        # the merge of block moments reorders the sums of squares
        np.testing.assert_allclose(hat.mcse, mcse, rtol=1e-12, atol=0.0)
        if n_pairs <= next(moments.row_blocks(pred.params)).shape[0]:
            # the row totals of a single block take numpy's steps
            assert hat.p_d_star_mcse == total_mcse
        else:
            assert hat.p_d_star_mcse == pytest.approx(total_mcse, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("ignore:floored")
    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    # blocks of 4 pairs: one block, and one below, at and one above the
    # boundary between the second and a third block
    @pytest.mark.parametrize("n_pairs", [3, 7, 8, 9])
    def test_small_blocks(self, random_predictive, exact_sums, monkeypatch, family, symmetrize,
                          n_pairs):
        rng = np.random.default_rng(n_pairs)
        pred = random_predictive(family, rng, 2 * n_pairs, 3)
        monkeypatch.setattr(moments, "BLOCK_BYTES", 4 * pred.params[0].nbytes)
        self.check_against_one_shot(pred, symmetrize, exact_sums)
        # near-identical draws: round-off makes some pair KLs negative, and
        # their counts fold in across blocks like the rest
        self.check_against_one_shot(near_identical(pred, rng), symmetrize, exact_sums)

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_default_block_size(self, random_predictive, exact_sums, family, symmetrize):
        """One pair more than the default block holds (a multiple of 64)."""
        n_obs, k = 3, len(FAMILIES[family].params)
        block = moments.BLOCK_BYTES // (n_obs * k * 8) // 64 * 64
        pred = random_predictive(family, np.random.default_rng(14), 2 * (block + 1), n_obs)
        self.check_against_one_shot(pred, symmetrize, exact_sums)

    def test_peak_memory_bounded(self):
        """No array of all pair values: at n=40, S=200000 (64 MB of draws)
        the transient peak stays below 16 MB."""
        means = np.random.default_rng(40).standard_normal((200_000, 40))
        means.setflags(write=False)
        pred = normal_pred(means)
        tracemalloc.start()
        try:
            hat = hat_values(pred, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hat.n_pairs == 100_000
        assert peak < 16e6


class TestDomainChecks:
    @pytest.mark.parametrize("family,column,value", OUT_OF_DOMAIN)
    def test_predictive_draws_reject(self, random_predictive, family, column, value):
        pred = random_predictive(family, np.random.default_rng(37), 4, 2)
        params = pred.params.copy()
        # a list, so that a trial count can take a value an int array cannot hold
        fixed = None if pred.fixed is None else pred.fixed.tolist()
        if column < params.shape[2]:
            params[:, 0, column] = value
        else:
            fixed[0] = value
        with pytest.raises(InvalidParameter):
            PredictiveDraws(
                family=family,
                params=params,
                draw_chain=pred.draw_chain,
                obs_ids=pred.obs_ids,
                fixed=fixed,
            )

    @pytest.mark.parametrize("family,column,value", OUT_OF_DOMAIN)
    def test_family_kl_rejects(self, random_predictive, family, column, value):
        pred = random_predictive(family, np.random.default_rng(38), 4, 2)
        good = [float(v) for v in pred.params[0, 1]]
        if pred.fixed is not None:
            good.append(pred.fixed[1])
        bad = list(good)
        bad[column] = value
        with pytest.raises(InvalidParameter):
            family_kl(family, tuple(good), tuple(bad))
        with pytest.raises(InvalidParameter):
            family_kl(family, tuple(bad), tuple(good))
        # out of the domain on both sides, where no same-constant check applies
        with pytest.raises(InvalidParameter):
            family_kl(family, tuple(bad), tuple(bad))

    def test_known_variance_column_refused(self, tmp_path):
        """A known variance is read from the metadata, never from a CSV column."""
        meta = tmp_path / "meta.json"
        meta.write_text('{"chains": [0, 0, 1, 1], "families": "normal_known_var", '
                        '"var": {"a": 1}}')
        pred_file = tmp_path / "pred.csv"
        pred_file.write_text("a.mean,a.var\n0,1\n0.5,1\n0,1\n1,1\n")
        with pytest.raises(MalformedCsv, match=r"'a\.var'.*metadata JSON"):
            load_predictive(pred_file, meta)
        pred_file.write_text("a.mean\n0\n0.5\n0\n1\n")
        pred = load_predictive(pred_file, meta)
        assert pred.fixed.tolist() == [1.0]
        np.testing.assert_array_equal(pred.params[:, 0, 0], [0.0, 0.5, 0.0, 1.0])


class TestCllevDirection:
    def test_symmetric_pair(self):
        assert cllev_direction([1.0, 1.0], Perturbation.basis(0, 2)) == pytest.approx(0.5)

    def test_ones_direction(self):
        assert cllev_direction([1.0, 3.0], [1.0, 1.0]) == pytest.approx(0.5)

    def test_second_basis(self):
        assert cllev_direction([1.0, 3.0], Perturbation.basis(1, 2)) == pytest.approx(0.75)

    def test_basis_sums_to_one(self):
        rng = np.random.default_rng(33)
        h = rng.uniform(0.1, 2.0, 7)
        total = sum(cllev_direction(h, Perturbation.basis(i, 7)) for i in range(7))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_leverage(self):
        with pytest.raises(ZeroLeverage):
            cllev_direction([0.0, 0.0], [1.0, 0.0])

    def test_zero_perturbation(self):
        with pytest.raises(ZeroPerturbation):
            cllev_direction([1.0, 2.0], [0.0, 0.0])


class TestAggregateHatValues:
    def test_group_sums_are_exact(self):
        rng = np.random.default_rng(34)
        pred = normal_pred(rng.standard_normal((200, 4)), ids=("a", "b", "c", "d"))
        hat = hat_values(pred, seed=12)
        groups = GroupMap({"a": "g1", "b": "g1", "c": "g2", "d": "g2"})
        merged = aggregate_hat_values(hat, groups)
        assert merged.obs_ids == ("g1", "g2")
        assert merged.values[0] == hat.values[0] + hat.values[1]
        assert merged.values[1] == hat.values[2] + hat.values[3]
        assert merged.p_d_star == pytest.approx(hat.p_d_star, rel=1e-12)

