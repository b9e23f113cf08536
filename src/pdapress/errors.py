"""Exception types raised on contract violations, shared across the package."""


class ToolError(Exception):
    """Base class for errors that report bad inputs or violated preconditions."""


class CapExceeded(ToolError):
    """Expansion was requested for a word longer than the allowed cap."""

    def __init__(self, length: int):
        super().__init__(f"generated word has length {length}, beyond the cap")
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
