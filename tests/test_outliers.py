"""Outlier matrix construction, its kept eigenpairs, CLOUT statistics."""

import numpy as np
import pytest

from bayeslens import (
    CovMatrix,
    HatValues,
    clout_direction,
    exact_sampler,
    hat_values,
    loglik_covariance,
    outlier_matrix,
    random_spec,
    scree,
    truncated_clout,
)
from bayeslens.errors import (
    InvalidParameter,
    RankOutOfRange,
    UnknownObsId,
    ZeroHatValue,
    ZeroPerturbation,
    ZeroTrace,
)

V_TOY = np.array([[1.0, 2.0], [2.0, 4.0]])
H_TOY = np.array([1.0, 1.0])


def random_psd(rng, size, scale=1.0):
    """A well-conditioned symmetric positive definite matrix."""
    root = rng.standard_normal((size, size + 2)) * scale
    return root @ root.T


class TestSymmetricEigendecomposition:
    """The eigenpairs that ``outlier_matrix`` keeps, on positive
    semi-definite inputs: with unit hat-values the outlier matrix is V
    rescaled by n / tr(V)."""

    def test_matches_lapack_on_random_matrices(self):
        """Eigenvalues and reconstruction agree with numpy.linalg.eigh."""
        rng = np.random.default_rng(40)
        for _ in range(50):
            size = int(rng.integers(2, 13))
            matrix = random_psd(rng, size, scale=10.0 ** rng.integers(-2, 3))
            dec = outlier_matrix(matrix, np.ones(size))
            values, vectors = dec.eigenvalues, dec.eigenvectors
            reference = np.sort(np.linalg.eigvalsh(dec.omega))[::-1]
            np.testing.assert_allclose(values, reference, atol=1e-10 * reference[0])
            rebuilt = (vectors * values) @ vectors.T
            assert np.max(np.abs(rebuilt - dec.omega)) <= 1e-8 * np.max(np.abs(dec.omega))

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(41)
        vectors = outlier_matrix(random_psd(rng, 9), np.ones(9)).eigenvectors
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(9), atol=1e-10)

    def test_diagonal_matrix(self):
        dec = outlier_matrix(np.diag([3.0, 1.0, 7.0]), np.ones(3))
        np.testing.assert_array_equal(dec.eigenvalues, np.diag(dec.omega)[[2, 0, 1]])
        np.testing.assert_array_equal(np.abs(dec.eigenvectors), np.eye(3)[:, [2, 0, 1]])

    def test_sign_convention(self):
        """Each eigenvector's largest-magnitude entry is positive."""
        rng = np.random.default_rng(42)
        vectors = outlier_matrix(random_psd(rng, 6), rng.uniform(0.2, 1.0, 6)).eigenvectors
        for j in range(6):
            peak = np.argmax(np.abs(vectors[:, j]))
            assert vectors[peak, j] > 0

    def test_single_entry(self):
        dec = outlier_matrix(np.array([[2.0]]), np.array([4.0]))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0])
        np.testing.assert_array_equal(dec.eigenvectors, [[1.0]])

    def test_deterministic_tie_order(self):
        """V = diag(h) with hat-values h that are powers of 4 makes the
        outlier matrix exactly I: the three tied pairs are ordered by their
        first differing entry, the same way on every call."""
        h = np.array([0.25, 1.0, 4.0])
        dec = outlier_matrix(np.diag(h), h)
        np.testing.assert_array_equal(dec.omega, np.eye(3))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dec.eigenvectors, np.eye(3))
        again = outlier_matrix(np.diag(h), h)
        np.testing.assert_array_equal(again.eigenvectors, dec.eigenvectors)
        np.testing.assert_array_equal(again.eigenvalues, dec.eigenvalues)


class TestOutlierMatrix:
    def test_hand_example(self):
        """Unit hat-values rescale V by tr(H)/tr(V) = 2/5; rank-1 spectrum (2, 0),
        of which only the eigenvalue above round-off is kept."""
        dec = outlier_matrix(V_TOY, H_TOY)
        np.testing.assert_allclose(dec.omega, [[0.4, 0.8], [0.8, 1.6]], rtol=1e-15)
        np.testing.assert_allclose(dec.clout, [0.4, 1.6], rtol=1e-15)
        np.testing.assert_allclose(dec.eigenvalues, [2.0], rtol=1e-12)
        assert dec.eigenvectors.shape == (2, 1)

    def test_full_rank_keeps_every_pair(self):
        """A full-rank V keeps all n eigenpairs, each above the tolerance."""
        rng = np.random.default_rng(51)
        cov = np.cov(rng.standard_normal((90, 6)), rowvar=False, ddof=1)
        dec = outlier_matrix(cov, rng.uniform(0.1, 1.0, 6))
        assert dec.eigenvalues.shape == (6,) and dec.eigenvectors.shape == (6, 6)
        assert dec.rank_tolerance == 1e-10 * dec.eigenvalues[0]
        assert np.all(dec.eigenvalues > dec.rank_tolerance)
        assert scree(dec)[-1][2] == 1.0

    def test_keeps_the_pairs_above_the_tolerance(self):
        """Eigenpairs 1..k of a rank-k V are kept, the solver's top k up to
        sign, and the round-off eigenvalues are dropped."""
        rng = np.random.default_rng(52)
        root = rng.standard_normal((7, 3))
        dec = outlier_matrix(root @ root.T, rng.uniform(0.1, 1.0, 7))
        values, vectors = np.linalg.eigh(dec.omega)
        assert np.all(np.abs(values[:4]) <= dec.rank_tolerance)
        np.testing.assert_array_equal(dec.eigenvalues, values[:3:-1])
        np.testing.assert_array_equal(np.abs(dec.eigenvectors), np.abs(vectors[:, :3:-1]))

    def test_proportional_influence_gives_constant_clout(self):
        """V = c * diag(h) collapses the outlier matrix to a multiple of I."""
        rng = np.random.default_rng(43)
        h = rng.uniform(0.2, 1.5, 5)
        c = 0.7
        dec = outlier_matrix(np.diag(c * h), h)
        expected = float(np.sum(h)) / float(np.sum(c * h)) * c
        np.testing.assert_allclose(dec.clout, np.full(5, expected), rtol=1e-12)
        np.testing.assert_allclose(dec.omega, np.eye(5) * expected, atol=1e-12)

    def test_clout_is_clinf_over_cllev(self):
        """CLOUT_i = (V_ii / h_i) (sum h / tr V) = CLINF_i / CLLEV_i exactly."""
        rng = np.random.default_rng(44)
        draws = rng.standard_normal((120, 6))
        cov = np.cov(draws, rowvar=False, ddof=1)
        h = rng.uniform(0.05, 0.9, 6)
        dec = outlier_matrix(cov, h)
        clinf = np.diag(cov) / np.trace(cov)
        cllev = h / np.sum(h)
        np.testing.assert_allclose(dec.clout, clinf / cllev, rtol=1e-12)

    def test_scaling_invariance(self):
        """Scaling V by c and h by d leaves the outlier matrix unchanged."""
        rng = np.random.default_rng(45)
        draws = rng.standard_normal((80, 4))
        cov = np.cov(draws, rowvar=False, ddof=1)
        h = rng.uniform(0.1, 1.0, 4)
        base = outlier_matrix(cov, h)
        scaled = outlier_matrix(cov * 2.0, h * 4.0)
        np.testing.assert_array_equal(scaled.omega, base.omega)

    def test_zero_hat_value_names_observation(self):
        cov = CovMatrix(matrix=V_TOY, obs_ids=("a", "b"))
        with pytest.raises(ZeroHatValue, match="'b'"):
            outlier_matrix(cov, np.array([1.0, 0.0]))

    def test_zero_trace(self):
        with pytest.raises(ZeroTrace):
            outlier_matrix(np.zeros((2, 2)), H_TOY)

    def test_obs_ids_differ(self):
        cov = CovMatrix(matrix=V_TOY, obs_ids=("a", "b"))
        hat = HatValues(
            obs_ids=("a", "c"), values=H_TOY, mcse=np.zeros(2), p_d_star=2.0,
            p_d_star_mcse=0.0, cllev=H_TOY / 2.0, n_pairs=1,
            negative_pairs=np.zeros(2, dtype=int),
        )
        with pytest.raises(UnknownObsId):
            outlier_matrix(cov, hat)

    def test_hat_size_mismatch(self):
        with pytest.raises(InvalidParameter, match="does not match"):
            outlier_matrix(V_TOY, np.ones(3))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(46)
        draws = rng.standard_normal((60, 5))
        cov = np.cov(draws, rowvar=False, ddof=1)
        h = rng.uniform(0.1, 1.0, 5)
        base = outlier_matrix(cov, h)
        perm = rng.permutation(5)
        permuted = outlier_matrix(cov[np.ix_(perm, perm)], h[perm])
        np.testing.assert_allclose(permuted.clout, base.clout[perm], rtol=1e-12)
        np.testing.assert_allclose(
            permuted.omega, base.omega[np.ix_(perm, perm)], rtol=1e-12
        )


class TestCloutDirection:
    def setup_method(self):
        self.dec = outlier_matrix(V_TOY, H_TOY)

    def test_principal_eigenvector_attains_top_eigenvalue(self):
        value = clout_direction(self.dec, self.dec.eigenvectors[:, 0])
        assert value == pytest.approx(self.dec.eigenvalues[0], rel=1e-12)

    def test_basis_gives_diagonal(self):
        for i in range(2):
            value = clout_direction(self.dec, np.eye(2)[i])
            assert value == pytest.approx(self.dec.clout[i], rel=1e-12)

    def test_ones_direction(self):
        assert clout_direction(self.dec, [1.0, 1.0]) == pytest.approx(1.8)

    def test_principal_direction_dominates_random(self):
        rng = np.random.default_rng(47)
        draws = rng.standard_normal((100, 6))
        cov = np.cov(draws, rowvar=False, ddof=1)
        dec = outlier_matrix(cov, rng.uniform(0.2, 1.0, 6))
        top = clout_direction(dec, dec.eigenvectors[:, 0])
        for _ in range(100):
            assert clout_direction(dec, rng.standard_normal(6)) <= top + 1e-12

    def test_zero_perturbation(self):
        with pytest.raises(ZeroPerturbation):
            clout_direction(self.dec, [0.0, 0.0])


class TestTruncatedClout:
    def test_full_rank_recovers_clout(self):
        rng = np.random.default_rng(48)
        draws = rng.standard_normal((90, 7))
        cov = np.cov(draws, rowvar=False, ddof=1)
        dec = outlier_matrix(cov, rng.uniform(0.1, 1.0, 7))
        np.testing.assert_allclose(
            truncated_clout(dec, 7), dec.clout, atol=1e-10
        )

    def test_rank_one_on_rank_one_matrix(self):
        dec = outlier_matrix(V_TOY, H_TOY)
        top = dec.eigenvalues[0] * dec.eigenvectors[:, 0] ** 2
        np.testing.assert_allclose(truncated_clout(dec, 1), top, rtol=1e-12)
        np.testing.assert_allclose(truncated_clout(dec, 1), dec.clout, atol=1e-12)

    def test_monotone_when_spectrum_nonnegative(self):
        rng = np.random.default_rng(49)
        draws = rng.standard_normal((80, 5))
        cov = np.cov(draws, rowvar=False, ddof=1)
        dec = outlier_matrix(cov, rng.uniform(0.1, 1.0, 5))
        previous = truncated_clout(dec, 1)
        for rank in range(2, 6):
            current = truncated_clout(dec, rank)
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_rank_out_of_range(self):
        """Ranks run from 1 to the numerical rank, here 1 of n = 2."""
        dec = outlier_matrix(V_TOY, H_TOY)
        for rank in (0, dec.eigenvalues.size + 1, 3):
            with pytest.raises(RankOutOfRange, match=r"\[1, 1\]"):
                truncated_clout(dec, rank)


class TestScree:
    def test_rank_one_shares(self):
        """A rank-one outlier matrix has one scree row, holding all the share."""
        dec = outlier_matrix(V_TOY, H_TOY)
        assert scree(dec) == [(1, pytest.approx(2.0), 1.0)]

    def test_equal_eigenvalues(self):
        rng = np.random.default_rng(50)
        h = rng.uniform(0.2, 1.0, 4)
        dec = outlier_matrix(np.diag(h), h)  # multiple of the identity
        shares = [row[2] for row in scree(dec)]
        np.testing.assert_allclose(shares, [0.25, 0.5, 0.75, 1.0], rtol=1e-12)

    def test_single_observation(self):
        dec = outlier_matrix(np.array([[2.0]]), np.array([0.5]))
        rows = scree(dec)
        assert len(rows) == 1
        assert rows[0] == (1, pytest.approx(1.0), pytest.approx(1.0))

    def test_last_share_is_exactly_one(self):
        """The shares divide by the last running sum. At n = 120, S = 1000
        (random_spec seed 7) dividing by ``np.sum`` ended at 1 - 2**-52."""
        spec = random_spec(np.random.default_rng(7), n_obs=120, n_params=5)
        samples, pred = exact_sampler(spec, draws=1000, chains=4, seed=7)
        dec = outlier_matrix(loglik_covariance(samples), hat_values(pred, seed=7))
        assert scree(dec)[-1][2] == 1.0
