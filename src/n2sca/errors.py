"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for engine errors."""


class TruncationError(EngineError):
    """An exact computation left the explicit truncation window.

    Raised instead of silently returning a clipped value, by a letter
    family that registers only some of its members; the CLI reports it as
    inconclusive (exit 3).
    """


class ValidationError(EngineError):
    """A module description violates a structural requirement."""


class ParseError(ValueError):
    """Malformed text input (scalars, generators, vectors, configs)."""
