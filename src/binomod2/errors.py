"""Shared error types. Each one names a contract violation, not a bug."""


class BinomError(Exception):
    """Base class so callers can catch everything from this package at once."""


class BoundExceeded(BinomError):
    """Work refused past a cap: prefix length, automaton states or state pairs, or modulus."""


class NotSplittable(BinomError):
    """mu() is undefined for even numbers and for numbers whose binary form is all ones."""


class MalformedRecurrence(BinomError):
    """Base sequence violates its invariants (lengths disagree, or S(0) != 1)."""


class ExhaustedBase(BinomError):
    """An explicit base sequence is too short for a requested run length."""


class UncoveredIndex(BinomError):
    """No rule matches an index (incomplete residue coverage)."""


class NegativeValue(BinomError):
    """A rule system produced a negative term value; sequences here are nonnegative."""


class NotFound(BinomError):
    """Registry lookup failed."""


class ParseError(BinomError):
    """Malformed textual input; carries a 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GapError(ParseError):
    """b-file indices are not contiguous."""


class BadId(BinomError):
    """Not a valid sequence id; raised before any cache or network I/O."""


class OfflineMiss(BinomError):
    """Requested id is not cached and network use is disabled."""


class NetworkError(BinomError):
    """Fetch attempt failed."""
