"""Shared exception types."""


class InternalCheckError(RuntimeError):
    """A postcondition the construction guarantees failed: an engine bug,
    not bad input."""


class RegimeLimit(ValueError):
    """Valid input outside the regime the engine handles: a search, step,
    size or memory bound was reached."""
