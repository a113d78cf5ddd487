"""Exception taxonomy shared across the simulator.

Every error raised by the package derives from :class:`FedCalibError`, so
callers (including the CLI) can map failures onto exit-code categories
without string matching.
"""


class FedCalibError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(FedCalibError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(InvalidInputError):
    """Input is structurally valid but degenerate (e.g. zero vector)."""


class ConfigError(FedCalibError, ValueError):
    """An experiment or model configuration is inconsistent or infeasible."""


class TransportError(FedCalibError, ValueError):
    """A parameter vector does not match the expected transport layout."""


class NumericError(FedCalibError, ArithmeticError):
    """A non-finite value appeared where finite math is required.

    ``rows`` lists the batches of a client stack (indices along its leading
    axis) in which the value appeared, when the raiser knows them.
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(int(r) for r in rows)


class FormatError(FedCalibError, ValueError):
    """A data file does not conform to its declared binary/CSV layout."""


class UsageError(FedCalibError, RuntimeError):
    """An API was called out of order (e.g. backward without forward)."""
