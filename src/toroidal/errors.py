"""Shared exception types."""


class InternalCheckError(RuntimeError):
    """A postcondition the construction guarantees failed: an engine bug,
    not bad input."""

