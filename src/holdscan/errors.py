"""Exception taxonomy shared across the package.

Every error raised by this library subclasses :class:`HoldscanError`, so a
caller (the CLI in particular) can catch one type at the boundary and map it
to a data-validation exit status.
"""

from __future__ import annotations


class HoldscanError(Exception):
    """Base class for all data and configuration errors raised here."""


class MalformedRow(HoldscanError):
    """A CSV row or record has the wrong shape or a non-numeric field."""


class NonMonotonicTime(HoldscanError):
    """Timestamps are not strictly increasing."""


class NonUniformSampling(HoldscanError):
    """Timestamp spacing deviates from 1/sample_rate_hz beyond tolerance."""


class EmptyInput(HoldscanError):
    """No data rows were found."""


class NonPositiveVariance(HoldscanError):
    """A Gaussian variance is zero or negative."""


class NonFiniteInput(HoldscanError):
    """An input value is NaN or infinite where a finite number is required."""


class InvalidRange(HoldscanError):
    """An index window is empty, inverted, or out of bounds."""


class InvalidConfig(HoldscanError):
    """A configuration object or argument violates its invariants."""


class DegenerateDrivingPressure(HoldscanError):
    """Plateau pressure does not exceed PEEP, so compliance is undefined."""


class DegenerateFlow(HoldscanError):
    """End-inspiratory flow is not positive, so resistance is undefined."""
