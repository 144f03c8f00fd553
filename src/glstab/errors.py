"""Shared exception types, one per command-line exit path, and the rule on integers."""


class BadParameters(ValueError):
    """Parameters outside the documented domain of an operation (exit 2)."""


def integer(name, value):
    """value, if it is an int; anything else (2.5, 3.0, "3") is refused, not truncated."""
    if not isinstance(value, int):
        raise BadParameters(f"{name} must be an integer, got {value!r}")
    return value


class GuardExceeded(RuntimeError):
    """A size guard refused an enumeration or search (exit 2, with its limits)."""

    def __init__(self, reason, **limits):
        super().__init__(reason)
        self.limits = dict(limits)


class InvariantViolated(RuntimeError):
    """An internal identity that must hold for every valid input failed (exit 1)."""
