"""Adaptive quadrature used by the symmetrized gamma CDF tables' tails.

Integration over finite and semi-infinite ranges, plus a sin-weighted
rule for CF inversion (the tests' stable oracle).  Evaluation goes to
scipy's QUADPACK routines, wrapped so that a missed tolerance raises
:class:`IntegrationError` instead of passing a bad value on.

QUADPACK loads on first use: ``scipy.integrate`` also pulls in
``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg``, about 0.4 s
that commands which never integrate should not pay at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError


@dataclass(frozen=True)
class QuadratureSpec:
    """Error targets for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("abs_tol and rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _check_quad(value: float, err: float, extra, spec: QuadratureSpec, what: str):
    if extra is not None:
        raise IntegrationError(f"quadrature did not converge for {what}: {extra}")
    budget = max(spec.abs_tol, spec.rel_tol * abs(value))
    # QUADPACK's own estimate is conservative; reject only clear misses.
    if err > 100.0 * budget and err > 1e-6 * max(1.0, abs(value)):
        raise IntegrationError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for {what}"
        )
    return value, err


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive integral of ``f`` over (a, b); b may be ``math.inf``.

    Returns ``(value, err_est)``.  Integrable endpoint singularities are
    handled by the underlying adaptive subdivision (QAGS extrapolation on
    finite ranges, a rational variable transform on semi-infinite ones).
    Raises :class:`IntegrationError` when the subdivision limit is
    exhausted without reaching ``max(abs_tol, rel_tol * |value|)``.
    """
    from scipy.integrate import quad

    spec = spec or QuadratureSpec()
    upper = np.inf if math.isinf(b) else b
    out = quad(
        f, a, upper,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=True,
    )
    value, err = out[0], out[1]
    extra = out[3] if len(out) > 3 else None
    return _check_quad(float(value), float(err), extra, spec, f"integral on ({a}, {b})")


def integrate_sin(f, a: float, b: float, omega: float,
                  spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Oscillatory integral of ``f(t) * sin(omega * t)`` over a finite (a, b).

    Thin wrapper over the QAWO rule, for characteristic-function inversion
    where the plain rule would need one panel per oscillation.
    """
    from scipy.integrate import quad

    spec = spec or QuadratureSpec()
    out = quad(
        f, a, b,
        weight="sin", wvar=omega,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=True,
    )
    value, err = out[0], out[1]
    extra = out[3] if len(out) > 3 else None
    return _check_quad(float(value), float(err), extra, spec, "oscillatory integral")
