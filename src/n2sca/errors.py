"""Exception types shared across the engine."""


class ValidationError(Exception):
    """A module description violates a structural requirement."""


class ParseError(ValueError):
    """Malformed text input (scalars, generators, vectors, configs)."""
