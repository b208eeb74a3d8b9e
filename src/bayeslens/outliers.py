"""Outlier detection by comparing influence against leverage.

The outlier matrix rescales the log-likelihood covariance by inverse
root hat-values, ``(sum h / tr V) * V_ij / sqrt(h_i h_j)``, so that its
diagonal is the per-observation influence/leverage ratio and its principal
eigenvector is the maximally outlying perturbation direction. The
eigendecomposition is LAPACK's symmetric solver behind ``numpy.linalg.eigh``,
followed by a fixed sign and ordering convention so that the eigenvectors
written to disk do not depend on the solver's arbitrary choices.
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
from .influence import CovMatrix, _as_direction
from .io_utils import dump_json, format_float, write_csv_rows
from .leverage import HatValues


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix via LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues (descending) and the matching orthonormal eigenvector
    columns. Sign convention: each eigenvector's largest-magnitude entry is
    positive; exact eigenvalue ties are ordered by the first differing
    eigenvector entry.
    """
    work = np.asarray(matrix, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise InvalidParameter("matrix must be square")
    eigenvalues, vectors = np.linalg.eigh(work)
    # sign convention before ordering so that tie-breaking is deterministic
    columns = np.arange(work.shape[0])
    peaks = np.argmax(np.abs(vectors), axis=0)
    vectors = vectors * np.where(vectors[peaks, columns] < 0.0, -1.0, 1.0)
    # lexsort keys run from least to most significant: the eigenvalue decides,
    # then the first eigenvector entry, then the second, ...
    order = np.lexsort(np.vstack([-vectors[::-1], -eigenvalues]))
    return eigenvalues[order], vectors[:, order]


@dataclass(frozen=True)
class OutlierDecomposition:
    """Outlier matrix with its eigensystem and per-observation diagnostics."""

    omega: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clout: np.ndarray
    obs_ids: tuple[str, ...]

    @property
    def n_obs(self) -> int:
        return self.omega.shape[0]

    def to_dict(self) -> dict:
        return {
            "obs_ids": list(self.obs_ids),
            "clout": self.clout,
            "eigenvalues": self.eigenvalues,
            "eigenvectors": self.eigenvectors,
        }

    def write_json(self, path) -> None:
        dump_json(path, self.to_dict())


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
    eigenvalues, eigenvectors = symmetric_eigendecomposition(omega)
    return OutlierDecomposition(
        omega=omega,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        clout=np.diag(omega).copy(),
        obs_ids=obs_ids,
    )


def clout_direction(decomposition: OutlierDecomposition, eps) -> float:
    """Rayleigh quotient of the outlier matrix along a direction."""
    vec = _as_direction(eps, decomposition.n_obs)
    return float(vec @ decomposition.omega @ vec) / float(vec @ vec)


def truncated_clout(decomposition: OutlierDecomposition, rank: int) -> np.ndarray:
    """Per-observation outlier statistic restricted to the top ``rank`` eigenvalues."""
    size = decomposition.n_obs
    if not 1 <= rank <= size:
        raise RankOutOfRange(f"rank must lie in [1, {size}], got {rank}")
    top = decomposition.eigenvectors[:, :rank] ** 2
    return top @ decomposition.eigenvalues[:rank]


def scree(decomposition: OutlierDecomposition) -> list[tuple[int, float, float]]:
    """Rows of (rank, eigenvalue, cumulative eigenvalue share) for plot tooling."""
    total = float(np.sum(decomposition.eigenvalues))
    running = 0.0
    rows = []
    for rank, value in enumerate(decomposition.eigenvalues, start=1):
        running += float(value)
        rows.append((rank, float(value), running / total))
    return rows


def write_clout_csv(
    decomposition: OutlierDecomposition, path, truncated: np.ndarray | None = None
) -> None:
    header = ["obs_id", "clout", "clout_truncated"]
    trunc = decomposition.clout if truncated is None else truncated
    rows = (
        [obs, format_float(decomposition.clout[i]), format_float(trunc[i])]
        for i, obs in enumerate(decomposition.obs_ids)
    )
    write_csv_rows(path, header, rows)


def write_scree_csv(decomposition: OutlierDecomposition, path) -> None:
    header = ["rank", "eigenvalue", "cumulative_share"]
    rows = (
        [str(rank), format_float(value), format_float(share)]
        for rank, value, share in scree(decomposition)
    )
    write_csv_rows(path, header, rows)
