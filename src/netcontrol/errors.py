"""Exception types shared across the toolkit."""


class NetcontrolError(Exception):
    """Base class for all toolkit errors."""


class EdgeListParseError(NetcontrolError, ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotMaximumMatchingError(NetcontrolError):
    """An operation required a maximum matching but got a non-maximum one."""


class ExchangeError(NetcontrolError):
    """Invalid input-node exchange request."""


class AlterationError(NetcontrolError):
    """An alteration plan cannot be built for the requested component."""


class GenerationError(NetcontrolError):
    """Synthetic-network generation failed (bad parameters or stall)."""


class OracleInfeasibleError(NetcontrolError):
    """Exhaustive enumeration would exceed the configured guard limits."""


class InternalInvariantError(NetcontrolError):
    """A structural property that must hold by construction was violated."""
