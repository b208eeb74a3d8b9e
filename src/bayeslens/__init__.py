"""Local influence, leverage, outlier, and prior-data-conflict diagnostics
computed from posterior draws of any Bayesian sampler."""

from .errors import DiagnosticsError, DiagnosticsWarning
from .influence import (
    CovMatrix,
    CrossConflict,
    InfluenceReport,
    Perturbation,
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
from .leverage import (
    HatValues,
    aggregate_hat_values,
    cllev_direction,
    family_kl,
    hat_values,
    mc_kl,
)
from .linear_oracle import (
    LinearDiagnostics,
    LinearModelSpec,
    exact_sampler,
    fit,
    plant_anomalies,
    random_spec,
)
from .outliers import (
    OutlierDecomposition,
    clout_direction,
    outlier_matrix,
    scree,
    symmetric_eigendecomposition,
    truncated_clout,
)
from .sample_store import (
    GroupMap,
    LogLikSamples,
    PredictiveDraws,
    aggregate,
    load_predictive,
    load_samples,
)

__version__ = "0.1.0"

__all__ = [
    "CovMatrix",
    "CrossConflict",
    "DiagnosticsError",
    "DiagnosticsWarning",
    "GroupMap",
    "HatValues",
    "InfluenceReport",
    "LinearDiagnostics",
    "LinearModelSpec",
    "LogLikSamples",
    "OutlierDecomposition",
    "Perturbation",
    "PredictiveDraws",
    "aggregate",
    "aggregate_hat_values",
    "binomial_pw",
    "clinf_direction",
    "cllev_direction",
    "clout_direction",
    "conflict_ratio",
    "cross_conflict",
    "dinf",
    "exact_sampler",
    "family_kl",
    "fit",
    "hat_values",
    "influence_report",
    "linf",
    "load_predictive",
    "load_samples",
    "loglik_covariance",
    "mc_kl",
    "outlier_matrix",
    "p_v",
    "plant_anomalies",
    "random_spec",
    "scree",
    "symmetric_eigendecomposition",
    "truncated_clout",
]
