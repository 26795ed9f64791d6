"""Adaptive quadrature used by the symmetrized gamma CDF tables' tails.

``integrate`` is QUADPACK's QAG scheme in package code: the 7/15-point
Gauss-Kronrod pair of ``dqk15`` (Piessens et al., *QUADPACK*, 1983), the
panel with the largest error estimate bisected first, and QAGI's map for
semi-infinite ranges.  It needs only ``math``, so no command loads
``scipy.integrate``.  A missed tolerance raises
:class:`IntegrationError` instead of passing a bad value on.

``integrate_sin`` is the sin-weighted QAWO rule for CF inversion (the
tests' stable oracle); it loads ``scipy.integrate`` on first use and has
no runtime caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# dqk15: Kronrod abscissae on [0, 1) in decreasing order, then 0; the odd
# entries and 0 are the 7-point Gauss nodes, weighted by _GAUSS_WEIGHTS
_KRONROD_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                  0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245, 0.0)
_KRONROD_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                    0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_WEIGHTS = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                  0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _gauss_kronrod(f, lo: float, hi: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) for the integral of f over one panel."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f0 = f(c)
    kronrod, gauss = _KRONROD_WEIGHTS[7] * f0, _GAUSS_WEIGHTS[3] * f0
    for j in range(7):
        pair = f(c - h * _KRONROD_NODES[j]) + f(c + h * _KRONROD_NODES[j])
        kronrod += _KRONROD_WEIGHTS[j] * pair
        if j % 2:
            gauss += _GAUSS_WEIGHTS[j // 2] * pair
    return kronrod * h, abs((kronrod - gauss) * h)


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive integral of ``f`` over (a, b); a is finite, b may be ``math.inf``.

    Returns ``(value, err_est)``.  ``f`` is called with one float at a
    time.  Each panel gets the 15-point Kronrod rule, and |K15 - G7| is
    its error estimate; the panel with the largest estimate is bisected
    until the estimates sum to ``max(abs_tol, rel_tol * |value|)``.  For
    b = inf the range maps to t in (0, 1] by x = a + (1 - t)/t, as in
    QUADPACK's QAGI.  Raises :class:`IntegrationError` when
    ``max_subdivisions`` panels miss that tolerance.  Bisection alone has
    no extrapolation (QAGS's epsilon algorithm): at the default spec an
    endpoint singularity as strong as |t|^-0.8 converges, and |t|^-0.85
    or stronger raises.
    """
    spec = spec or QuadratureSpec()
    what = f"integral on ({a}, {b})"
    if a == b:  # survival at x = inf integrates over (inf, inf)
        return 0.0, 0.0
    if math.isinf(a) or b == -math.inf:
        raise ValueError(f"{what}: the lower limit must be finite and b finite or inf")
    lo, hi, g = float(a), float(b), f
    if math.isinf(b):
        lo, hi = 0.0, 1.0

        def g(t):
            return f(a + (1.0 - t) / t) / (t * t)
    value, err = _gauss_kronrod(g, lo, hi)
    panels = [(err, lo, hi, value)]
    while err > _budget(value, spec) and len(panels) < spec.max_subdivisions:
        worst = max(panels)
        panels.remove(worst)
        _, lo, hi, _ = worst
        mid = 0.5 * (lo + hi)
        for edges in ((lo, mid), (mid, hi)):
            v, e = _gauss_kronrod(g, *edges)
            panels.append((e, *edges, v))
        err = math.fsum(p[0] for p in panels)
        value = math.fsum(p[3] for p in panels)
    missed = err > _budget(value, spec) or math.isnan(err)
    short = f"error estimate {err:.3e} after {len(panels)} panels" if missed else None
    return _check_quad(value, err, short, spec, what)


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
