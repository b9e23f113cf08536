"""Exception types raised on contract violations, shared across the package,
and the integer formatting their messages use."""

import decimal
import re

_DECIMAL = re.compile(r"[+-]?(?:0+|[1-9][0-9]*)")


def format_int(n: int) -> str:
    """Decimal digits of n at any size; str() refuses past 4,300 digits."""
    return str(decimal.Decimal(n))


def parse_int(text: str) -> int:
    """int(text, 0), also for a plain decimal string too long for it."""
    try:
        return int(text, 0)
    except ValueError:
        if not _DECIMAL.fullmatch(text):
            raise
        return int(decimal.Decimal(text))


class ToolError(Exception):
    """Base class for errors that report bad inputs or violated preconditions."""


class CapExceeded(ToolError):
    """Expansion was requested for a word longer than the allowed cap."""

    def __init__(self, length: int):
        super().__init__(f"generated word has length {format_int(length)}, beyond the cap")
        self.length = length


class IndexOutOfRange(ToolError):
    pass


class AlphabetMismatch(ToolError):
    pass


class BadRange(ToolError):
    pass


class NonIntegralResult(ToolError):
    pass


class EmptyBase(ToolError):
    pass


class BadShift(ToolError):
    pass


class SymbolMismatch(ToolError):
    pass


class EmptyWord(ToolError):
    pass


class LengthMismatch(ToolError):
    pass


class NotDeterministic(ToolError):
    pass


class FuelExhausted(ToolError):
    pass


class BadTarget(ToolError):
    pass


class BoundTooLarge(ToolError):
    pass


class MalformedPair(ToolError):
    pass


class WordTooLong(ToolError):
    """A word is too long for every tabled fingerprint modulus."""

    def __init__(self, length: int):
        super().__init__(f"a word of length at least 2^{length.bit_length() - 1} is too long "
                         "for every tabled Mersenne modulus")
        self.length = length


class FormatError(ToolError):
    """A text input (.slp / .updpa / pair / expression file) failed to parse."""


class ExprSyntaxError(FormatError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
