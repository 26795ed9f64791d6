"""Closed-form two-sided concentration bounds for unimodal laws.

For a unimodal distribution with mode and mean at mu and variance
sigma^2, the sharp bound on P{|X - mu| >= d} in the regime
d^2 >= 4 sigma^2 / 3 is 4 sigma^2 / (9 d^2), attained by an atom at mu
plus a rectangular component on [mu - 3d/2, mu + 3d/2]
(:class:`GaussExtremalMixture`, whose constructor is the one check of
that regime).  The Chebyshev bound sigma^2 / d^2 is kept as the
baseline it improves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRegimeError


def _check_d_sigma(d: float, sigma: float) -> None:
    if not (0 < d < math.inf and 0 < sigma < math.inf):
        raise ValueError("d and sigma must be finite and positive")


@dataclass(frozen=True)
class GaussExtremalMixture:
    """Atom-at-mu plus rectangular mixture attaining the unimodal tail bound.

    A point mass at mu with weight 1 - 4 sigma^2 / (3 d^2) plus a
    rectangular (uniform) component on [mu - 3d/2, mu + 3d/2] with the
    complementary weight.  Exists for d^2 >= 4 sigma^2 / 3, and raises
    :class:`OutOfRegimeError` below; has variance sigma^2 and satisfies
    P{|X - mu| >= d} = 4 sigma^2 / (9 d^2) exactly.
    """

    mu: float
    sigma: float
    d: float

    def __post_init__(self) -> None:
        _check_d_sigma(self.d, self.sigma)
        if self.rect_weight > 1.0:  # d^2 < 4 sigma^2 / 3, as the weight rounds it
            raise OutOfRegimeError(
                f"gauss bound requires d^2 >= 4 sigma^2 / 3 (d={self.d}, sigma={self.sigma})"
            )

    @property
    def rect_weight(self) -> float:
        r = self.sigma / self.d  # neither squared alone, which under- or overflows
        return 4.0 * r * r / 3.0

    @property
    def atom_weight(self) -> float:
        return 1.0 - self.rect_weight

    @property
    def rect_support(self) -> tuple[float, float]:
        return (self.mu - 1.5 * self.d, self.mu + 1.5 * self.d)

    def sample(self, rng: np.random.Generator, n: int):
        """n draws; one uniform decides the branch, one the rectangle position."""
        import numpy as np  # here alone: the bounds themselves are arithmetic

        if n < 1:
            raise ValueError("n must be >= 1")
        lo, hi = self.rect_support
        pick = rng.random(n)
        pos = rng.uniform(lo, hi, n)
        return np.where(pick < self.rect_weight, pos, self.mu)


@dataclass(frozen=True)
class BoundResult:
    level_d: float          # deviation level, in the same units as sigma
    bound: float            # P{|X - mu| >= d} upper bound, in [0, 1]
    kind: str               # "gauss-unimodal" or "chebyshev"
    attained_by: GaussExtremalMixture | None = None


def gauss_bound(d: float, sigma: float) -> BoundResult:
    """Sharp unimodal bound 4 sigma^2 / (9 d^2), valid for d^2 >= 4 sigma^2 / 3.

    Outside the validity regime this raises :class:`OutOfRegimeError`
    rather than silently substituting the Chebyshev bound, so tightness
    claims stay attached to the regime they hold in.
    """
    mixture = GaussExtremalMixture(mu=0.0, sigma=sigma, d=d)
    r = sigma / d  # as in rect_weight: d^2 and sigma^2 can both underflow to 0
    return BoundResult(level_d=d, bound=(4.0 / 9.0) * r * r,
                       kind="gauss-unimodal", attained_by=mixture)


def chebyshev_bound(d: float, sigma: float) -> BoundResult:
    """Chebyshev bound min(1, sigma^2 / d^2); valid for every d > 0."""
    _check_d_sigma(d, sigma)
    q = d / sigma  # 1 / q^2 keeps the bits of sigma^2 / d^2 at sigma = 1, which r * r does not
    return BoundResult(level_d=d, bound=1.0 if q <= 1.0 else 1.0 / (q * q), kind="chebyshev")


def expected_exceedances(n: int, bound: BoundResult) -> float:
    """Expected count of |X - mu| >= d events in a sample of size n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n * bound.bound
