"""Exception types shared across the package."""


class QfselectError(Exception):
    """Base class for errors raised by this package."""


class InvalidGateError(QfselectError, ValueError):
    """Gate definition is inconsistent with the circuit or register size."""


class OracleLimitError(QfselectError, ValueError):
    """Exhaustive enumeration requested beyond its size cap (`qfselect oracle`: n <= 20)."""


class MaskError(QfselectError, ValueError):
    """Feature mask is malformed or has the wrong width."""


class DatasetError(QfselectError):
    """CSV ingestion or train/test splitting failed."""


class DegenerateTrainingError(QfselectError):
    """Training data contains a single class; no separator can be fit."""


class EvaluatorError(QfselectError):
    """An accuracy evaluator failed (protocol violation, timeout, bad value)."""


class FitnessError(EvaluatorError):
    """An evaluator failure that names the mask it failed on.

    The mask is kept on the exception, and named in its message, so
    callers can report which feature combination broke the evaluator.
    """

    def __init__(self, message: str, mask: str):
        super().__init__(f"mask {mask}: {message}")
        self.mask = mask


class InsufficientDataError(QfselectError):
    """A metric was requested from an empty per-generation series."""


class RecordError(QfselectError):
    """A run record file is corrupt, incompatible, or inconsistent."""


class StateSizeError(QfselectError):
    """A state would not fit the simulator: n > 62 or over 2^24 amplitudes."""
