"""Exception types shared across the package, and :func:`settle`, the one way
a frozen record stores its normalized fields."""

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented invariant or precondition."""


class ParseError(ValidationError):
    """A data file could not be parsed; the message carries the line number."""


class ConfigError(ValidationError):
    """An experiment configuration is inconsistent or references missing files."""


class InfeasibleProblemError(ValidationError):
    """The bounds and sum constraint of a QP admit no feasible point."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without meeting its tolerance.

    When raised from the outer training loop, ``state`` holds the last valid
    optimizer state so callers can inspect how far the run got.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


def settle(record, **values):
    """Store ``values`` as fields of the frozen dataclass ``record``.

    An array value becomes read-only, so a record built from fresh arrays
    (``np.array`` copies its input) is immutable; ``__post_init__`` calls this
    before it validates the stored fields.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(record, name, value)
