"""Conjugate normal linear model with closed-form diagnostics.

The model is y_i ~ N(x_i' theta, sigma2) with theta ~ N(0, Psi^{-1}) and
known residual variance. Everything of interest is available in closed
form: the hat matrix H = X (Psi sigma2 + X'X)^{-1} X', residuals, the
influence statistics and penalty totals, Cook's distance, and the exact
Gaussian posterior. This makes the module both a ground-truth oracle for
the Monte Carlo estimators and a reproducible test-data generator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    IndexOutOfRange,
    InvalidParameter,
    NonFiniteInput,
    SingularSystem,
)
from .io_utils import dump_json, read_json
from .sample_store import LogLikSamples, PredictiveDraws


@dataclass(frozen=True)
class LinearModelSpec:
    """Design matrix, outcomes, known noise variance, and prior precision."""

    design: np.ndarray
    outcomes: np.ndarray
    noise_variance: float
    prior_precision: np.ndarray

    def __post_init__(self):
        design = np.array(self.design, dtype=float)
        outcomes = np.array(self.outcomes, dtype=float).ravel()
        prior = np.array(self.prior_precision, dtype=float)
        if design.ndim != 2:
            raise InvalidParameter("design must be a 2-d array")
        n_obs, n_par = design.shape
        if outcomes.shape != (n_obs,):
            raise InvalidParameter("outcomes must hold one value per design row")
        if prior.shape != (n_par, n_par):
            raise InvalidParameter("prior precision must be square of the parameter size")
        if not (
            np.all(np.isfinite(design))
            and np.all(np.isfinite(outcomes))
            and np.all(np.isfinite(prior))
            and np.isfinite(self.noise_variance)
        ):
            raise NonFiniteInput("model inputs contain non-finite values")
        if self.noise_variance <= 0:
            raise InvalidParameter("noise variance must be positive")
        if not np.allclose(prior, prior.T, rtol=0.0, atol=1e-10):
            raise InvalidParameter("prior precision must be symmetric")
        for arr in (design, outcomes, prior):
            arr.setflags(write=False)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        object.__setattr__(self, "prior_precision", prior)

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def n_params(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class LinearDiagnostics:
    """Closed-form diagnostics for one fitted conjugate linear model."""

    hat: np.ndarray
    hat_diag: np.ndarray
    residuals: np.ndarray
    theta_bar: np.ndarray
    theta_hat: np.ndarray | None
    linf: np.ndarray
    dinf: np.ndarray
    zinf: np.ndarray
    cook: np.ndarray
    p_d: float
    p_w: float
    p_v: float
    sandwich: np.ndarray
    noise_variance: float

    def loglik_covariance(self) -> np.ndarray:
        """Closed-form posterior covariance of the log-likelihood contributions.

        Cov_ij = r_i r_j H_ij / sigma2 + H_ij^2 / 2; its diagonal equals linf.
        """
        outer = np.outer(self.residuals, self.residuals)
        return outer * self.hat / self.noise_variance + self.hat**2 / 2.0

    def sandwich_identity(self) -> tuple[float, float]:
        """Both sides of 2 r'Hr / sigma2 = 2 (theta_hat - theta_bar)' S (theta_hat - theta_bar)."""
        if self.theta_hat is None:
            raise SingularSystem("X'X is singular; the maximum-likelihood estimate is undefined")
        lhs = 2.0 * float(self.residuals @ self.hat @ self.residuals) / self.noise_variance
        delta = self.theta_hat - self.theta_bar
        rhs = 2.0 * float(delta @ self.sandwich @ delta)
        return lhs, rhs


def _cholesky_solver(matrix: np.ndarray):
    """``rhs -> matrix^{-1} rhs`` through a Cholesky factor; None unless positive definite."""
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    return lambda rhs: np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


def _posterior_solver(spec: LinearModelSpec):
    precision = (
        spec.prior_precision * spec.noise_variance + spec.design.T @ spec.design
    )
    solve = _cholesky_solver(precision)
    if solve is None:
        raise SingularSystem("posterior precision Psi*sigma2 + X'X is not positive definite")
    return solve


def fit(spec: LinearModelSpec) -> LinearDiagnostics:
    """Closed-form diagnostics: hat matrix, residuals, influence statistics.

    linf_i = r_i^2 h_ii / sigma2 + h_ii^2 / 2
    dinf_i = r_i^2 h_ii / (sigma2 (1 + h_ii)) + h_ii - log(1 + h_ii)
    zinf_i = r_i^2 h_ii / (sigma2 (1 - h_ii)) - h_ii - log(1 - h_ii),
             +inf at h_ii = 1 (the case-deletion divergence is real)
    cook_i = r_i^2 h_ii / (k sigma2 (1 - h_ii)^2) with k = tr(H)
    p_v    = 2 (r'Hr / sigma2 + tr(H^2) / 2)
    """
    solve = _posterior_solver(spec)
    design = spec.design
    sigma2 = spec.noise_variance
    hat = design @ solve(design.T)
    hat = (hat + hat.T) / 2.0
    theta_bar = solve(design.T @ spec.outcomes)
    residuals = spec.outcomes - design @ theta_bar
    h = np.diag(hat).copy()

    r2 = residuals**2
    linf = r2 * h / sigma2 + h**2 / 2.0
    dinf = r2 * h / (sigma2 * (1.0 + h)) + h - np.log1p(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        zinf = np.where(
            h < 1.0,
            r2 * h / (sigma2 * (1.0 - h)) - h - np.log1p(-h),
            np.inf,
        )
    p_d = float(np.trace(hat))
    with np.errstate(divide="ignore", invalid="ignore"):
        cook_core = np.where(
            h < 1.0, r2 * h / (sigma2 * (1.0 - h) ** 2), np.inf
        )
    cook = cook_core / p_d if p_d > 0.0 else np.zeros_like(h)
    p_w = float(np.sum(linf))
    p_v = 2.0 * (float(residuals @ hat @ residuals) / sigma2 + float(np.sum(hat**2)) / 2.0)

    gram = design.T @ design
    identity = np.eye(spec.n_params)
    posterior_cov = sigma2 * solve(identity)
    fisher = gram / sigma2
    sandwich = fisher @ posterior_cov @ fisher
    gram_solve = _cholesky_solver(gram)
    theta_hat = None if gram_solve is None else gram_solve(design.T @ spec.outcomes)

    return LinearDiagnostics(
        hat=hat,
        hat_diag=h,
        residuals=residuals,
        theta_bar=theta_bar,
        theta_hat=theta_hat,
        linf=linf,
        dinf=dinf,
        zinf=zinf,
        cook=cook,
        p_d=p_d,
        p_w=p_w,
        p_v=p_v,
        sandwich=sandwich,
        noise_variance=sigma2,
    )


def exact_sampler(
    spec: LinearModelSpec, draws: int, chains: int, seed: int
) -> tuple[LogLikSamples, PredictiveDraws]:
    """Draw i.i.d. samples from the exact Gaussian posterior.

    Returns the per-draw, per-observation log-likelihood contributions and
    the matching known-variance normal predictive draws. ``draws`` is the
    total number of rows; they are split into ``chains`` blocks (labels
    0..chains-1) so that replicate-based standard errors and two-stream
    pairing work downstream. Output is reproducible for a fixed seed.
    """
    if draws < 2:
        raise DegenerateSample(f"need at least 2 draws, got {draws}")
    if chains < 1:
        raise InvalidParameter("need at least one chain")
    if draws < 2 * chains:
        raise DegenerateSample(
            f"{draws} draws cannot give every one of {chains} chains two draws"
        )
    solve = _posterior_solver(spec)
    sigma2 = spec.noise_variance
    theta_bar = solve(spec.design.T @ spec.outcomes)
    posterior_cov = sigma2 * solve(np.eye(spec.n_params))
    posterior_cov = (posterior_cov + posterior_cov.T) / 2.0
    try:
        chol = np.linalg.cholesky(posterior_cov)
    except np.linalg.LinAlgError:
        raise SingularSystem("posterior covariance is not positive definite") from None

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((draws, spec.n_params))
    thetas = theta_bar + noise @ chol.T
    # the means are the predictive parameters; the known variance is stored
    # once per observation beside them
    means = thetas @ spec.design.T
    means.setflags(write=False)
    # c - (y - mean)**2 / (2 sigma2), one operation at a time in one array
    loglik = spec.outcomes - means
    loglik **= 2
    loglik /= 2.0 * sigma2
    np.subtract(-0.5 * np.log(2.0 * np.pi * sigma2), loglik, out=loglik)
    loglik.setflags(write=False)

    base, extra = divmod(draws, chains)
    sizes = [base + (1 if c < extra else 0) for c in range(chains)]
    draw_chain = np.repeat(np.arange(chains), sizes)

    width = len(str(spec.n_obs))
    obs_ids = tuple(f"obs{i + 1:0{width}d}" for i in range(spec.n_obs))
    # both arrays are read-only, so the containers take them without a copy
    samples = LogLikSamples(values=loglik, draw_chain=draw_chain, obs_ids=obs_ids)
    pred = PredictiveDraws(
        family="normal_known_var",
        params=means.reshape(draws, spec.n_obs, 1),
        draw_chain=draw_chain,
        obs_ids=obs_ids,
        fixed=np.full(spec.n_obs, sigma2),
    )
    return samples, pred


def plant_anomalies(
    spec: LinearModelSpec,
    outlier_idx: int,
    outlier_scale: float,
    leverage_idx: int,
    leverage_shift: float,
) -> LinearModelSpec:
    """Plant one response outlier and one on-line leverage point.

    The outlier response moves ``outlier_scale`` noise-sds off its fitted
    value under the unmodified fit. The leverage predictor row shifts
    ``leverage_shift`` column-sds along the first nonconstant design column;
    its response is set consistent with the leave-one-out fit of the
    modified data, so the planted point sits exactly on the refitted line
    (zero final residual).
    """
    n_obs = spec.n_obs
    for name, idx in (("outlier_idx", outlier_idx), ("leverage_idx", leverage_idx)):
        if not 0 <= idx < n_obs:
            raise IndexOutOfRange(f"{name}={idx} outside [0, {n_obs - 1}]")
    if outlier_idx == leverage_idx:
        raise IndexOutOfRange("outlier and leverage indices must differ")
    if not outlier_scale > 1.0:
        raise InvalidParameter("outlier scale must exceed 1")
    if leverage_shift == 0.0:
        raise InvalidParameter("leverage shift must be nonzero")

    design = spec.design.copy()
    outcomes = spec.outcomes.copy()
    base = fit(spec)
    fitted = spec.outcomes - base.residuals
    outcomes[outlier_idx] = fitted[outlier_idx] + outlier_scale * np.sqrt(
        spec.noise_variance
    )

    spreads = design.std(axis=0, ddof=1)
    nonconstant = np.flatnonzero(spreads > 0)
    if nonconstant.size == 0:
        raise InvalidParameter("design has no nonconstant column to shift")
    column = int(nonconstant[0])
    design[leverage_idx, column] += leverage_shift * spreads[column]

    keep = np.ones(n_obs, dtype=bool)
    keep[leverage_idx] = False
    loo_spec = LinearModelSpec(
        design=design[keep],
        outcomes=outcomes[keep],
        noise_variance=spec.noise_variance,
        prior_precision=spec.prior_precision,
    )
    theta_loo = fit(loo_spec).theta_bar
    outcomes[leverage_idx] = design[leverage_idx] @ theta_loo

    return LinearModelSpec(
        design=design,
        outcomes=outcomes,
        noise_variance=spec.noise_variance,
        prior_precision=spec.prior_precision,
    )


def random_spec(
    rng: np.random.Generator,
    *,
    n_obs: int | None = None,
    n_params: int | None = None,
    informative_prior: bool | None = None,
    max_condition: float = 1e6,
) -> LinearModelSpec:
    """Randomized well-conditioned spec for property tests and demos.

    Design entries are i.i.d. standard normal with n in [5, 50] and p in
    [1, 5]; the prior precision is zero or a random positive semidefinite
    matrix. Specs whose posterior precision exceeds the condition cap are
    redrawn.
    """
    for _ in range(100):
        n = int(n_obs) if n_obs is not None else int(rng.integers(5, 51))
        p = int(n_params) if n_params is not None else int(rng.integers(1, 6))
        design = rng.standard_normal((n, p))
        theta = rng.standard_normal(p)
        sigma2 = float(rng.uniform(0.5, 2.0))
        outcomes = design @ theta + rng.normal(0.0, np.sqrt(sigma2), n)
        informative = (
            informative_prior
            if informative_prior is not None
            else bool(rng.random() < 0.5)
        )
        if informative:
            root = rng.standard_normal((p, p))
            prior = root.T @ root / p
        else:
            prior = np.zeros((p, p))
        precision = prior * sigma2 + design.T @ design
        if np.linalg.cond(precision) <= max_condition:
            return LinearModelSpec(
                design=design,
                outcomes=outcomes,
                noise_variance=sigma2,
                prior_precision=prior,
            )
    raise SingularSystem("could not draw a well-conditioned spec in 100 attempts")


def load_spec_json(path: str | os.PathLike) -> LinearModelSpec:
    """Read a spec from JSON with keys X (row-major), y, sigma2, Psi (row-major)."""
    raw = read_json(path, InvalidParameter, "spec")
    if not isinstance(raw, dict):
        raise InvalidParameter(f"{path}: spec JSON must be an object")
    missing = [key for key in ("X", "y", "sigma2", "Psi") if key not in raw]
    if missing:
        raise InvalidParameter(f"{path}: spec JSON misses keys {missing}")
    try:
        return LinearModelSpec(
            design=np.array(raw["X"], dtype=float),
            outcomes=np.array(raw["y"], dtype=float),
            noise_variance=float(raw["sigma2"]),
            prior_precision=np.array(raw["Psi"], dtype=float),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{path}: spec values must be numbers ({exc})") from None


def write_spec_json(spec: LinearModelSpec, path: str | os.PathLike) -> None:
    dump_json(
        path,
        {
            "X": spec.design,
            "y": spec.outcomes,
            "sigma2": spec.noise_variance,
            "Psi": spec.prior_precision,
        },
    )
