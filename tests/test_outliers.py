"""Outlier matrix construction, symmetric eigensystem, CLOUT statistics."""

import numpy as np
import pytest

from bayeslens import (
    CovMatrix,
    HatValues,
    Perturbation,
    clout_direction,
    symmetric_eigendecomposition,
    outlier_matrix,
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


def random_symmetric(rng, size, scale=1.0):
    root = rng.standard_normal((size, size)) * scale
    return (root + root.T) / 2.0


class TestSymmetricEigendecomposition:
    def test_matches_lapack_on_random_matrices(self):
        """Eigenvalues and reconstruction agree with numpy.linalg.eigh."""
        rng = np.random.default_rng(40)
        for _ in range(50):
            size = int(rng.integers(2, 13))
            matrix = random_symmetric(rng, size, scale=10.0 ** rng.integers(-2, 3))
            values, vectors = symmetric_eigendecomposition(matrix)
            reference = np.sort(np.linalg.eigvalsh(matrix))[::-1]
            scale = max(np.max(np.abs(reference)), 1e-30)
            np.testing.assert_allclose(values, reference, atol=1e-10 * scale)
            rebuilt = (vectors * values) @ vectors.T
            assert np.max(np.abs(rebuilt - matrix)) <= 1e-8 * np.max(np.abs(matrix))

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(41)
        matrix = random_symmetric(rng, 9)
        _, vectors = symmetric_eigendecomposition(matrix)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(9), atol=1e-10)

    def test_diagonal_matrix(self):
        values, vectors = symmetric_eigendecomposition(np.diag([3.0, -1.0, 7.0]))
        np.testing.assert_array_equal(values, [7.0, 3.0, -1.0])
        np.testing.assert_array_equal(np.abs(vectors), np.eye(3)[:, [2, 0, 1]])

    def test_sign_convention(self):
        """Each eigenvector's largest-magnitude entry is positive."""
        rng = np.random.default_rng(42)
        _, vectors = symmetric_eigendecomposition(random_symmetric(rng, 6))
        for j in range(6):
            peak = np.argmax(np.abs(vectors[:, j]))
            assert vectors[peak, j] > 0

    def test_non_square_matrix(self):
        with pytest.raises(InvalidParameter, match="square"):
            symmetric_eigendecomposition(np.ones((2, 3)))

    def test_single_entry(self):
        values, vectors = symmetric_eigendecomposition(np.array([[5.0]]))
        np.testing.assert_array_equal(values, [5.0])
        np.testing.assert_array_equal(vectors, [[1.0]])

    def test_zero_matrix(self):
        values, vectors = symmetric_eigendecomposition(np.zeros((4, 4)))
        np.testing.assert_array_equal(values, np.zeros(4))
        np.testing.assert_array_equal(vectors, np.eye(4))

    def test_deterministic_tie_order(self):
        values, vectors = symmetric_eigendecomposition(np.eye(3) * 2.0)
        np.testing.assert_array_equal(values, [2.0, 2.0, 2.0])
        again_values, again_vectors = symmetric_eigendecomposition(np.eye(3) * 2.0)
        np.testing.assert_array_equal(vectors, again_vectors)
        np.testing.assert_array_equal(values, again_values)


class TestOutlierMatrix:
    def test_hand_example(self):
        """Unit hat-values rescale V by tr(H)/tr(V) = 2/5; rank-1 spectrum (2, 0)."""
        dec = outlier_matrix(V_TOY, H_TOY)
        np.testing.assert_allclose(dec.omega, [[0.4, 0.8], [0.8, 1.6]], rtol=1e-15)
        np.testing.assert_allclose(dec.clout, [0.4, 1.6], rtol=1e-15)
        np.testing.assert_allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-12)

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
            value = clout_direction(self.dec, Perturbation.basis(i, 2))
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
        dec = outlier_matrix(V_TOY, H_TOY)
        with pytest.raises(RankOutOfRange):
            truncated_clout(dec, 0)
        with pytest.raises(RankOutOfRange):
            truncated_clout(dec, 3)


class TestScree:
    def test_rank_one_shares(self):
        dec = outlier_matrix(V_TOY, H_TOY)
        rows = scree(dec)
        assert [r[0] for r in rows] == [1, 2]
        assert rows[0][2] == pytest.approx(1.0)
        assert rows[1][2] == pytest.approx(1.0)

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
