"""Exception hierarchy shared across the toolkit.

Each class maps to one CLI exit code so that scripted pipelines can branch
on failure category without parsing messages.
"""

import numbers


class DvafitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InputDataError(DvafitError):
    """Malformed or unrepairable input data (files, series, curves)."""

    exit_code = 2


class NonConvergenceError(DvafitError):
    """All optimizer starts failed to converge to a feasible solution."""

    exit_code = 3


class InfeasibilityError(DvafitError):
    """Parameters put a stoichiometry outside [0, 1] where that is not allowed."""

    exit_code = 4

    def __init__(self, message, offending_q=None, offending_s=None):
        super().__init__(message)
        self.offending_q = offending_q
        self.offending_s = offending_s


class GenerationError(InfeasibilityError):
    """Synthetic data generation could not satisfy the requested window."""


class ConfigError(DvafitError):
    """Invalid configuration values (weights, windows, bounds, paths)."""

    exit_code = 5


def require_int(value, key: str) -> None:
    """Reject a setting that is not an integer; ``key`` names it in the error.

    A bool is not accepted, and neither is a float, even an integral one:
    no value is coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
