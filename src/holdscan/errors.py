"""Exception taxonomy shared across the package.

Every error raised by this library subclasses :class:`HoldscanError`, so a
caller (the CLI in particular) can catch one type at the boundary and map it
to a data-validation exit status.
"""

from __future__ import annotations

import numbers


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


def _real(name: str, value) -> float:
    """``value`` as a float, for the range checks of a configuration field.

    A value that is not a real number (text, ``None``, a complex number) or
    that a float cannot hold (an integer beyond 1.8e308) is an
    :class:`InvalidConfig`.
    """
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidConfig(f"{name} is beyond the float range") from None
