"""Exception classes shared across the package, mapped to CLI exit codes."""


class DynglrError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DynglrError, ValueError):
    """Invalid configuration value (rates, rank-sampling sizes, candidate sets, ...)."""

    exit_code = 2


class ParseError(DynglrError, ValueError):
    """Malformed input file; message carries the offending line number."""

    exit_code = 3


class ValidationError(DynglrError, ValueError):
    """Input violates a domain precondition (single class, non-finite, array
    shapes that do not match, ...)."""

    exit_code = 4


class SamplingError(DynglrError, RuntimeError):
    """Triplet or batch sampling impossible for the given labels."""

    exit_code = 4


class TrainingError(DynglrError, RuntimeError):
    """Optimization aborted (non-finite loss); message carries epoch/batch."""

    exit_code = 1


class SolverError(DynglrError, RuntimeError):
    """Linear solve failed with no safe fallback; message carries N, the
    iteration count and the final relative residual."""

    exit_code = 1


class UsageError(DynglrError, RuntimeError):
    """API or CLI called in an invalid order (e.g. predict before train)."""

    exit_code = 5
