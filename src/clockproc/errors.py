"""Error taxonomy shared by all modules."""

from __future__ import annotations

__all__ = [
    "ClockprocError",
    "DimensionMismatchError",
    "ParameterValidationError",
    "HorizonError",
    "DegenerateScaleError",
    "BudgetError",
]


class ClockprocError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(ClockprocError, ValueError):
    """A coupling array does not hold n^p entries."""


class ParameterValidationError(ClockprocError, ValueError):
    """Model parameters violate an admissibility bound (the message names it)."""


class HorizonError(ClockprocError, ValueError):
    """A time beyond the simulated horizon was queried."""


class DegenerateScaleError(ClockprocError, ValueError):
    """A derived scale is zero/undefined at these parameters; an explicit override is required."""


class BudgetError(ClockprocError, ValueError):
    """The requested computation exceeds a configured sampling budget."""
