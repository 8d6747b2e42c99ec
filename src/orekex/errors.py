"""Exception hierarchy shared across the package."""


class OreKexError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(OreKexError):
    """Operands belong to different fields or different Ore rings."""


class NotDivisibleError(OreKexError):
    """Exact one-sided division failed: the divisor is not a factor."""


class ResampleExhaustedError(OreKexError):
    """Random sampling hit its retry cap; the public parameters are degenerate."""


class ProtocolError(OreKexError):
    """A protocol precondition is violated (central element, zero message, ...)."""


class EncodingError(OreKexError):
    """Byte/polynomial message encoding or decoding failed."""


class ParseError(OreKexError):
    """Malformed textual serialization."""
