"""Exception types shared across the package; :func:`settle`, the one way a
frozen record stores its normalized fields; and :func:`check_numbers`, the one
type check of its numeric fields, which stores them as Python numbers."""

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


def is_real(value) -> bool:
    """Whether ``value`` is a real number: a bool is not, a numpy scalar is."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_numbers(record, integers=(), reals=()):
    """Raise :class:`ValidationError` naming the first field of ``record`` in
    ``integers`` that is not an integer, or in ``reals`` that is not a finite
    real number. A bool is neither; a numpy scalar of the matching kind passes.
    Each field that passes is stored as a Python ``int`` or ``float``."""
    for name in integers:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        settle(record, **{name: int(value)})
    for name in reals:
        value = getattr(record, name)
        if not is_real(value):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = np.inf
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite")
        settle(record, **{name: value})
