"""Exception hierarchy and the CLI exit codes attached to it."""


class GrainsortError(Exception):
    """Base class for all grainsort-specific failures."""


class ConfigError(GrainsortError):
    """Invalid configuration file or parameter set (CLI exit code 2)."""


class InvalidParameterError(ConfigError):
    """Physically or numerically inadmissible parameter values; field, if
    given, is the path of the bad value in its object: a name, then indices."""

    def __init__(self, message, field=()):
        super().__init__(message)
        self.field = tuple(field)


class AliasingError(ConfigError):
    """Scatterer range at or beyond the unambiguous range of the radar sweep."""


class DataError(GrainsortError):
    """Invalid, corrupt or inconsistent data (CLI exit code 3)."""


class CorruptDatasetError(DataError):
    """Dataset container failed an integrity check; message names the byte offset."""


class DimensionMismatchError(DataError):
    """Array dimensions do not match what a model or operation expects."""


class DegenerateTrainingError(DataError):
    """Training data does not contain every required class."""


class ConvergenceError(GrainsortError):
    """Optimizer ran out of its update budget (CLI exit code 4).

    The best iterate reached so far is attached as ``model`` so callers can
    inspect or salvage it.
    """

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


class WorkerError(GrainsortError):
    """A worker process died before its job returned (CLI exit code 1)."""


EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_CONVERGENCE_ERROR = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the documented process exit code."""
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE_ERROR
    if isinstance(exc, DataError):
        return EXIT_DATA_ERROR
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG_ERROR
    return 1  # WorkerError, and any other GrainsortError
