"""Exception types shared across the package, and the argument checks that
raise :class:`ArgumentError`.

Each check returns the value it was given, so a caller can check and bind
in one expression; a value that does not compare, such as a string among
numbers, fails.
"""

import math


class NuGammaError(Exception):
    """Base class for package-specific failures."""


class IntegrationError(NuGammaError):
    """Adaptive quadrature failed to reach its tolerance."""


class FitError(NuGammaError):
    """A parametric fit could not be carried out on the given window."""


class ArgumentError(NuGammaError, ValueError):
    """An argument outside the values a function is defined for: the caller's
    mistake, not a property of the data or of a numerical regime."""


class OutOfRegimeError(NuGammaError, ValueError):
    """A parameter outside the domain where a result is valid or tested:
    the unimodal bound's regime d^2 >= 4 sigma^2 / 3, the symmetrized gamma
    density's m in [1e-3, 1e4], or a counting family's p so small that its
    summand counts would overflow int64."""


class DataError(NuGammaError, ValueError):
    """Input data is missing, unparseable or degenerate."""


def _check(name: str, value, ok, bound: str):
    try:  # an array compares elementwise, a string or None not at all
        passed = bool(ok(value))
    except (TypeError, ValueError):
        passed = False
    if not passed:
        shown = repr(value) if isinstance(value, str) else value
        raise ArgumentError(f"{name} must be {bound}, got {shown}")
    return value


def check_positive(name: str, value):
    """value, when it is a finite number > 0; otherwise ArgumentError."""
    return _check(name, value, lambda v: 0.0 < v < math.inf, "finite and positive")


def check_at_least(name: str, value, low: float):
    """value, when it is a finite number >= low; otherwise ArgumentError."""
    return _check(name, value, lambda v: low <= v < math.inf, f"finite and >= {low:g}")


def check_one_of(name: str, value, choices: tuple):
    """value, when it is one of choices; otherwise ArgumentError."""
    return _check(name, value, lambda v: v in choices, f"one of {choices}")
