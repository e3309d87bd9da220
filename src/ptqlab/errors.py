"""Exception hierarchy shared across the package."""


class PtqLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PtqLabError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(PtqLabError):
    """A configuration value or argument is outside its allowed range."""


def require_count(name: str, value, least: int = 1) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an ``int`` of at least ``least``.

    A bool, a float such as 2.0, or a string such as "3" is not a count.
    """
    if type(value) is not int or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def is_number(value) -> bool:
    """True for an ``int`` or a ``float``; a bool or a string is no number."""
    return type(value) in (int, float)


def require_positive(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a number in (0, inf), not NaN."""
    if not is_number(value) or not 0 < value < float("inf"):
        raise ParameterError(f"{name} must be a finite number > 0, got {value!r}")


class NumericError(PtqLabError):
    """A computation produced NaN/Inf or otherwise left the finite domain."""


class NotPositiveDefiniteError(NumericError):
    """Cholesky factorization hit a non-positive pivot.

    Callers are expected to add diagonal damping and retry.
    """


class ContractError(PtqLabError):
    """An API precondition was violated (wrong mode, empty mask, ...)."""


class CoverageError(PtqLabError):
    """A quantization plan does not cover the checkpoint it is applied to."""


class DivergenceError(PtqLabError):
    """Training loss became non-finite; the message names the step."""
