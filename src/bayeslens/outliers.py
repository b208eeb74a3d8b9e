"""Outlier detection by comparing influence against leverage.

The outlier matrix rescales the log-likelihood covariance by inverse
root hat-values, ``(sum h / tr V) * V_ij / sqrt(h_i h_j)``, so that its
diagonal is the per-observation influence/leverage ratio and its principal
eigenvector is the maximally outlying perturbation direction. The
eigendecomposition is LAPACK's symmetric solver behind ``numpy.linalg.eigh``.
Only the eigenpairs above round-off, 1..k for the numerical rank k, are
kept, and only those get the fixed sign and ordering convention, so that the
eigenvectors written to disk do not depend on the solver's arbitrary choices:
each eigenvector's largest-magnitude entry is positive, and exact eigenvalue
ties are ordered by the first differing eigenvector entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    RankOutOfRange,
    UnknownObsId,
    ZeroHatValue,
    ZeroTrace,
)
from .influence import CovMatrix, direction
from .leverage import HatValues

# Eigenvalues of the outlier matrix at or below this share of the largest
# count as zero: they are round-off in the null space of V.
_RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class OutlierDecomposition:
    """Outlier matrix, its k eigenpairs above ``rank_tolerance``, and CLOUT."""

    omega: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank_tolerance: float
    clout: np.ndarray
    obs_ids: tuple[str, ...]


def outlier_matrix(cov, hat) -> OutlierDecomposition:
    """Build and decompose the outlier matrix from influence and leverage.

    ``cov`` is the log-likelihood covariance (CovMatrix or array); ``hat``
    the hat-values (HatValues or array). Hat-values numerically
    indistinguishable from zero cannot be inverted: those observations are
    reported so the caller can group or exclude them.
    """
    matrix = cov.matrix if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    values = hat.values if isinstance(hat, HatValues) else np.asarray(hat, dtype=float)
    obs_ids = None
    if isinstance(cov, CovMatrix):
        obs_ids = cov.obs_ids
    if isinstance(hat, HatValues):
        if obs_ids is not None and hat.obs_ids != obs_ids:
            raise UnknownObsId("observation ids of covariance and hat-values differ")
        obs_ids = hat.obs_ids
    if obs_ids is None:
        obs_ids = tuple(f"obs{i + 1}" for i in range(matrix.shape[0]))
    if values.shape[0] != matrix.shape[0]:
        raise InvalidParameter("hat-value vector does not match covariance size")

    trace = float(np.trace(matrix))
    if trace <= 0.0:
        raise ZeroTrace("trace of the covariance is zero: all log-likelihoods constant")
    floor = 1e-12 * float(values.max(initial=0.0))
    bad = [obs for obs, h in zip(obs_ids, values) if h <= floor]
    if bad:
        raise ZeroHatValue(
            f"hat-values of {bad} are numerically zero and cannot be inverted; "
            "consider grouping these observations or excluding them"
        )
    scale = float(np.sum(values)) / trace
    inv_root = 1.0 / np.sqrt(values)
    omega = scale * matrix * np.outer(inv_root, inv_root)
    omega = (omega + omega.T) / 2.0
    # LAPACK returns the eigenvalues ascending. Those past the numerical rank
    # k are round-off in the null space of V, so only the last k pairs are
    # signed and ordered.
    eigenvalues, eigenvectors = np.linalg.eigh(omega)
    tolerance = _RANK_TOLERANCE * float(eigenvalues[-1])
    rank = int(np.count_nonzero(eigenvalues > tolerance))
    eigenvalues, eigenvectors = eigenvalues[-rank:], eigenvectors[:, -rank:]
    # sign convention before ordering so that tie-breaking is deterministic
    peaks = np.argmax(np.abs(eigenvectors), axis=0)
    signs = np.where(eigenvectors[peaks, np.arange(rank)] < 0.0, -1.0, 1.0)
    eigenvectors = eigenvectors * signs
    # lexsort keys run from least to most significant: the eigenvalue decides,
    # then the first eigenvector entry, then the second, ...
    order = np.lexsort(np.vstack([-eigenvectors[::-1], -eigenvalues]))
    return OutlierDecomposition(
        omega=omega,
        eigenvalues=eigenvalues[order],
        eigenvectors=eigenvectors[:, order],
        rank_tolerance=tolerance,
        clout=np.diag(omega).copy(),
        obs_ids=obs_ids,
    )


def clout_direction(decomposition: OutlierDecomposition, eps) -> float:
    """Rayleigh quotient of the outlier matrix along a direction."""
    vec = direction(eps, decomposition.omega.shape[0])
    return float(vec @ decomposition.omega @ vec) / float(vec @ vec)


def truncated_clout(decomposition: OutlierDecomposition, rank: int) -> np.ndarray:
    """Per-observation outlier statistic restricted to the top ``rank`` eigenvalues."""
    size = decomposition.eigenvalues.size
    if not 1 <= rank <= size:
        raise RankOutOfRange(f"rank must lie in [1, {size}] (the numerical rank), got {rank}")
    top = decomposition.eigenvectors[:, :rank] ** 2
    return top @ decomposition.eigenvalues[:rank]


def scree(decomposition: OutlierDecomposition) -> list[tuple[int, float, float]]:
    """Rows of (rank, eigenvalue, cumulative eigenvalue share), 1..k, for plot tooling."""
    values = decomposition.eigenvalues
    shares = np.cumsum(values)
    shares /= shares[-1]
    return list(zip(range(1, values.size + 1), values.tolist(), shares.tolist()))
