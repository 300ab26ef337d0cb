"""Exception types shared across the package."""

from __future__ import annotations


class ReplicatorLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ReplicatorLabError, ValueError):
    """A parameter, configuration value, or invariant failed validation."""


class DomainError(ReplicatorLabError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ParseError(ReplicatorLabError, ValueError):
    """Config text could not be parsed; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class KnifeEdgeError(ReplicatorLabError, ArithmeticError):
    """A limit is undefined because the parameters sit exactly on the
    boundary separating the two limiting regimes."""


class NotAnEquilibriumError(ReplicatorLabError, ValueError):
    """A stability query was made at a point that is not a fixed point of
    the map (or the requested equilibrium does not exist)."""


class UndefinedDirectionError(ReplicatorLabError, ValueError):
    """The bifurcation direction on the diagonal is undefined because the
    interaction coefficient vanishes (the two firms decouple)."""


class InvalidTaxError(ReplicatorLabError, ValueError):
    """A tax amount was negative."""


class InternalError(ReplicatorLabError, RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""
