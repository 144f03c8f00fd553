"""Shared exception types."""


class BadParameters(ValueError):
    """Parameters outside the documented domain of an operation."""


class PadUndefined(ValueError):
    """Padding a stable label to size n requires n >= norm + first row."""


class NotPadded(ValueError):
    """A label that does not round-trip through pad/stabilize."""


class SizeMismatch(ValueError):
    """Norm bookkeeping violated (e.g. path length vs. norm difference)."""


class DimensionMismatch(ValueError):
    """Matrix or morphism dimensions do not chain."""


class GuardExceeded(RuntimeError):
    """A size guard on an enumeration or search was exceeded."""

    def __init__(self, reason, **limits):
        super().__init__(reason)
        self.reason = reason
        self.limits = dict(limits)


class ActionNotClosed(RuntimeError):
    """A generator maps a point outside the indexed space."""


class InvariantViolated(RuntimeError):
    """An internal identity that must hold for every valid input failed."""
