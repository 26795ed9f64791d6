"""Closed-form two-sided concentration bounds for unimodal laws.

For a unimodal distribution with mode and mean at mu and variance
sigma^2, the sharp bound on P{|X - mu| >= d} in the regime
d^2 >= 4 sigma^2 / 3 is 4 sigma^2 / (9 d^2), attained by an atom at mu
plus a rectangular component on [mu - 3d/2, mu + 3d/2].  The Chebyshev
bound sigma^2 / d^2 is kept as the baseline it improves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import GaussExtremalMixture
from .errors import OutOfRegimeError


@dataclass(frozen=True)
class BoundResult:
    level_d: float          # deviation level, in the same units as sigma
    bound: float            # P{|X - mu| >= d} upper bound, in [0, 1]
    kind: str               # "gauss-unimodal" or "chebyshev"
    attained_by: GaussExtremalMixture | None = None


def _check_d_sigma(d: float, sigma: float) -> None:
    if not (0 < d < math.inf and 0 < sigma < math.inf):
        raise ValueError("d and sigma must be finite and positive")


def gauss_bound(d: float, sigma: float) -> BoundResult:
    """Sharp unimodal bound 4 sigma^2 / (9 d^2), valid for d^2 >= 4 sigma^2 / 3.

    Outside the validity regime this raises :class:`OutOfRegimeError`
    rather than silently substituting the Chebyshev bound, so tightness
    claims stay attached to the regime they hold in.
    """
    _check_d_sigma(d, sigma)
    if d * d < 4.0 * sigma * sigma / 3.0:
        raise OutOfRegimeError(
            f"gauss bound requires d^2 >= 4 sigma^2 / 3 (d={d}, sigma={sigma})"
        )
    b = 4.0 * sigma * sigma / (9.0 * d * d)
    return BoundResult(
        level_d=d,
        bound=b,
        kind="gauss-unimodal",
        attained_by=GaussExtremalMixture(mu=0.0, sigma=sigma, d=d),
    )


def chebyshev_bound(d: float, sigma: float) -> BoundResult:
    """Chebyshev bound min(1, sigma^2 / d^2); valid for every d > 0."""
    _check_d_sigma(d, sigma)
    return BoundResult(level_d=d, bound=min(1.0, sigma * sigma / (d * d)), kind="chebyshev")


def expected_exceedances(n: int, bound: BoundResult) -> float:
    """Expected count of |X - mu| >= d events in a sample of size n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n * bound.bound
