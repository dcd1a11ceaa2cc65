"""Exception types shared across the package."""


class SnlsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SnlsError):
    """Invalid grid, solver, or run configuration."""


class UsageError(SnlsError):
    """An operation was called with arguments it cannot accept."""


class FormatError(UsageError):
    """A binary trajectory or noise file is malformed."""


class WorkerError(SnlsError):
    """A worker process of an ensemble died before returning its result."""


class BlowUpError(SnlsError):
    """A non-finite value appeared during time integration."""

    def __init__(self, step: int, time: float, message: str = ""):
        self.step = step
        self.time = time
        super().__init__(
            message or f"non-finite field value detected at step {step} (t = {time:.6g})"
        )
