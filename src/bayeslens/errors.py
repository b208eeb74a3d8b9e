"""Exception and warning types shared across the diagnostics engine.

Every error class carries a stable ``code`` (its class name) and every
warning class a stable snake_case ``code``, which the CLI uses to emit
machine-readable errors and warnings on stderr.
"""


class DiagnosticsError(Exception):
    """Base class for every error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ingestion -----------------------------------------------------------------

class MalformedCsv(DiagnosticsError):
    """Broken CSV structure: ragged row, empty header cell, non-numeric cell."""


class NonFiniteValue(DiagnosticsError):
    """A value is NaN or infinite; the offending row/column is reported."""


class ChainMismatch(DiagnosticsError):
    """Chain metadata is missing or inconsistent with the sample rows."""


class DuplicateObsId(DiagnosticsError):
    """Observation identifiers must be unique."""


class UnknownObsId(DiagnosticsError):
    """A group map or companion file references a nonexistent observation."""


class UncoveredObsId(DiagnosticsError):
    """A group map fails to cover every observation."""


# influence ------------------------------------------------------------------

class DegenerateSample(DiagnosticsError):
    """Too few draws to estimate a variance (fewer than two)."""


class ZeroTrace(DiagnosticsError):
    """All log-likelihood contributions are constant; influence undefined."""


class ZeroPerturbation(DiagnosticsError):
    """A perturbation direction must have at least one nonzero entry."""


# leverage ---------------------------------------------------------------------

class InvalidParameter(DiagnosticsError):
    """A predictive-family parameter violates its domain."""


class NoReplicates(DiagnosticsError):
    """Monte Carlo KL estimation needs at least one replicate draw."""


class SingleDraw(DiagnosticsError):
    """Each posterior draw stream needs at least two draws."""


class FamilyMismatch(DiagnosticsError):
    """Predictive family tags are absent, mixed, or unsupported."""


class ZeroLeverage(DiagnosticsError):
    """Total leverage is zero; conformal shares are undefined."""


# outliers ---------------------------------------------------------------------

class ZeroHatValue(DiagnosticsError):
    """A hat-value is (numerically) zero and cannot be inverted."""


class RankOutOfRange(DiagnosticsError):
    """Truncation rank must lie between 1 and the number of observations."""


# linear oracle ------------------------------------------------------------------

class SingularSystem(DiagnosticsError):
    """The posterior precision could not be factorized."""


class NonFiniteInput(DiagnosticsError):
    """Model inputs contain NaN or infinite entries."""


class IndexOutOfRange(DiagnosticsError):
    """An observation index is outside the valid range or duplicated."""


# warnings -----------------------------------------------------------------------

class DiagnosticsWarning(UserWarning):
    """Base class for every warning issued by this package."""

    code = "diagnostics_warning"


class SingleChain(DiagnosticsWarning):
    """Hat-values split a single chain into halves, which are not strictly
    independent."""

    code = "single_chain"


class FlooredHatValues(DiagnosticsWarning):
    """Negative hat-value estimates were floored at zero."""

    code = "floored_hat_values"


class TooFewDrawsForMcse(DiagnosticsWarning):
    """A replicate block holds fewer than two draws, so influence MCSEs are NaN."""

    code = "too_few_draws_for_mcse"
