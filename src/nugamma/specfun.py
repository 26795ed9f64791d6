"""Quadrature for the symmetrized gamma CDF tables' tails.

``integrate`` is a 32-point Gauss-Laguerre sum over (a, inf), the rule
for the exponential tail the symmetrized gamma density has beyond a
table's top.  It needs numpy alone and takes one density call per
integral, over every point's nodes at once.

``integrate_sin`` is the sin-weighted QAWO rule for CF inversion (the
tests' stable oracle); it loads ``scipy.integrate`` on first use and has
no runtime caller, so scipy is a test dependency only.  ``QuadratureSpec``
and ``_check_quad`` serve it and the tests' QUADPACK oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import laguerre

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


def _budget(value: float, spec: QuadratureSpec) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def _check_quad(value: float, err: float, extra, spec: QuadratureSpec, what: str):
    if extra is not None:
        raise IntegrationError(f"quadrature did not converge for {what}: {extra}")
    budget = _budget(value, spec)
    # QUADPACK's own estimate is conservative; reject only clear misses.
    if err > 100.0 * budget and err > 1e-6 * max(1.0, abs(value)):
        raise IntegrationError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for {what}"
        )
    return value, err


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w e^y of the 32-point Gauss-Laguerre rule; built on
    first use, since laggauss(32) costs about 1.5 ms."""
    y, w = laguerre.laggauss(32)
    return y, w * np.exp(y)


def integrate(f, a, rate):
    """Integral of ``f`` over (a, inf) by the 32-point Gauss-Laguerre rule.

    sum_i (w_i e^(y_i) / rate) f(a + y_i / rate): exact when f(x) e^(rate x)
    is a polynomial of degree <= 63 beyond a, and accurate when f decays
    like e^(-rate x) there.  ``a`` and ``rate`` broadcast; ``f`` is called
    once, on an array of their shape plus a last axis of 32 nodes.  The
    sum runs over that axis alone, so each point's value does not depend
    on how many points share the call.
    """
    y, w = _laguerre_rule()
    a, rate = (np.asarray(v, dtype=float)[..., None] for v in (a, rate))
    return np.sum(w / rate * f(a + y / rate), axis=-1)


def integrate_sin(f, a: float, b: float, omega: float,
                  spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Oscillatory integral of ``f(t) * sin(omega * t)`` over (a, b).

    Thin wrapper over the QAWO rule (QAWF when ``b`` is inf), for
    characteristic-function inversion where the plain rule would need one
    panel per oscillation.  ``f`` is called on one float at a time.
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
