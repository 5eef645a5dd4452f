"""Exception types shared across the package."""


class TscncError(Exception):
    """Base class for all package errors."""


class DimensionError(TscncError):
    """Operand shapes do not compose."""


class ValidationError(TscncError):
    """An argument violates an operation's precondition."""


class NumericError(TscncError):
    """A numerical kernel failed, such as an SVD that did not converge."""


class StateError(TscncError):
    """A cached intermediate no longer matches the live object."""


class FormatError(TscncError):
    """A file is malformed; ``offset`` is the byte position when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ConfigError(TscncError):
    """A configuration document is invalid."""


class DivergenceError(TscncError):
    """Training produced non-finite losses; the epochs recorded before it
    reach the caller through ``run_tscnc``'s ``on_epoch`` only."""
