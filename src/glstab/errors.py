"""Shared exception types, one per command-line exit path."""


class BadParameters(ValueError):
    """Parameters outside the documented domain of an operation (exit 2)."""


class GuardExceeded(RuntimeError):
    """A size guard refused an enumeration or search (exit 2, with its limits)."""

    def __init__(self, reason, **limits):
        super().__init__(reason)
        self.reason = reason
        self.limits = dict(limits)


class InvariantViolated(RuntimeError):
    """An internal identity that must hold for every valid input failed (exit 1)."""
