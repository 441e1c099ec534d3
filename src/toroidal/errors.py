"""Shared exception types, and the one way an error line quotes an input value
or writes an id."""


class InternalCheckError(RuntimeError):
    """A postcondition the construction guarantees failed: an engine bug,
    not bad input."""


class RegimeLimit(ValueError):
    """Valid input outside the regime the engine handles: a search, step,
    size or memory bound was reached."""


# How much of an input value's `repr` an error line quotes.
QUOTE_LIMIT = 60


def quoted(value) -> str:
    """`repr(value)` for an error line: whole when it is at most
    `QUOTE_LIMIT` characters, else cut to that many and followed by the
    value's length (a string's own, any other value's as `repr` writes it)."""
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:QUOTE_LIMIT]}... ({size} characters)"


def cut(name: str) -> str:
    """An id or a name for an error line, unquoted: whole when it is at most
    `QUOTE_LIMIT` characters, else cut as `quoted` cuts a value."""
    if len(name) <= QUOTE_LIMIT:
        return name
    return f"{name[:QUOTE_LIMIT]}... ({len(name)} characters)"
