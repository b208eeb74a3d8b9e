"""Local influence, leverage, outlier, and prior-data-conflict diagnostics
computed from posterior draws of any Bayesian sampler."""

from .errors import DiagnosticsError, DiagnosticsWarning
from .influence import (
    CovMatrix,
    CrossConflict,
    InfluenceReport,
    Perturbation,
    bernoulli_pw,
    clinf_direction,
    cross_conflict,
    influence_report,
    loglik_covariance,
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
    "bernoulli_pw",
    "clinf_direction",
    "cllev_direction",
    "clout_direction",
    "cross_conflict",
    "exact_sampler",
    "family_kl",
    "fit",
    "hat_values",
    "influence_report",
    "load_predictive",
    "load_samples",
    "loglik_covariance",
    "mc_kl",
    "outlier_matrix",
    "plant_anomalies",
    "random_spec",
    "scree",
    "truncated_clout",
]
