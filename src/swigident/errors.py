"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class SwigIdentError(Exception):
    """Base class for all package errors."""


class GraphValidationError(SwigIdentError):
    """A graph failed structural validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid graph: {lines}")


class ExprError(SwigIdentError):
    """Malformed probability expression (unbound symbol, duplicate variable, ...)."""


class RuleRefusedError(SwigIdentError):
    """A rewrite rule's side condition failed; carries the blocking check."""

    def __init__(self, message, blocking=None):
        super().__init__(message)
        self.blocking = blocking


class ZeroProbabilityError(SwigIdentError):
    """A query conditioned on an event with zero probability."""


class StateSpaceLimitError(SwigIdentError):
    """A table the oracle needs is too large: more than oracle.STATE_LIMIT
    entries for one model, or a merge over more labels than one einsum
    takes (oracle.EINSUM_LABELS)."""


class ParseError(SwigIdentError):
    """Syntax error in a DSL document, with position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")


@contextmanager
def malformed(what: str):
    """Report the errors that decoding a malformed document raises (a
    missing key, a value of the wrong type or shape, an infinite number
    where an integer belongs, an expression the classes reject, nesting too
    deep to decode) as SwigIdentError."""
    try:
        yield
    except (
        KeyError, TypeError, ValueError, OverflowError, AttributeError, RecursionError, ExprError
    ) as exc:
        raise SwigIdentError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def parse_field(parse, text: object, where: str, form: str):
    """parse(text) for a document field that holds text in the named form
    ("expression", "graph document"); a field that holds no string, or text
    that parse refuses, raises SwigIdentError prefixed by where ("malformed
    model: graph"), with the parse position."""
    if not isinstance(text, str):
        raise SwigIdentError(f"{where}: expected {form} text, found {type(text).__name__}")
    try:
        return parse(text)
    except SwigIdentError as exc:
        raise SwigIdentError(f"{where}: {exc}") from exc
