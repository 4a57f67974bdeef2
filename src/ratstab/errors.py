"""Exception types shared across the toolkit, and its one rule for numeric arguments,
:func:`check_numbers`: a value passes when its own condition holds and it is finite."""

from __future__ import annotations

import math


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """A configuration value, file or argument is invalid."""


class ContractViolation(ToolkitError):
    """An operation was invoked outside its documented contract."""


class NotHurwitzError(ToolkitError):
    """A matrix that must be Hurwitz is not, or its Lyapunov solve failed."""


class NoFeasibleThetaError(ToolkitError):
    """No gain parameter in the searched interval satisfies every margin."""


class ConditionsNotSatisfiedError(ToolkitError):
    """Margins handed to a gain-selection rule are not all strictly positive."""


class DivergedError(ToolkitError):
    """The integration state left the admissible region.

    The ``time`` attribute holds the first grid time at which the state was
    non-finite or exceeded the magnitude guard.
    """

    def __init__(self, time: float, message: str | None = None):
        super().__init__(message or f"simulation diverged at t = {time:g}")
        self.time = float(time)


class OutputIOError(ToolkitError):
    """Writing an artifact (CSV, SVG, certificate) failed."""


def check_numbers(*checks, error: type[ToolkitError] = ConfigError) -> None:
    """Raise ``error`` at the first ``(name, value, ok, need)`` check that fails, saying
    "<name> must be <need>, got <value!r>". A value passes when ``ok`` holds and it is
    finite; a Python int counts as finite, as ``math.isfinite`` overflows past 1e308.
    """
    for name, value, ok, need in checks:
        if not (ok and (isinstance(value, int) or math.isfinite(value))):
            raise error(f"{name} must be {need}, got {value!r}")
