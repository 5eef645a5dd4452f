"""Exception types shared across the package."""


class TscncError(Exception):
    """Base class for all package errors."""


class DimensionError(TscncError):
    """Operand shapes do not compose."""


class ValidationError(TscncError):
    """An argument violates an operation's precondition."""


class NumericError(TscncError):
    """A numerical kernel failed, such as an SVD that did not converge.

    ``residual`` carries the kernel's remaining error when it reports one.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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
    """Training produced non-finite losses; carries the metrics recorded so far."""

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)
