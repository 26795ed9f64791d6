"""Probability models: the symmetrized gamma and symmetric stable laws.

The atom-plus-rectangle law that attains the sharp unimodal bound lives
beside that bound, in :mod:`nugamma.bounds`.

The central object is the symmetrized gamma law, the difference of two
i.i.d. gamma variates with shape 1/m and scale sqrt(m).  In standardized
form it has mean 0, variance 2 for every m > 0, characteristic function

    f(t, m) = (1 + m t^2)^(-1/m),

density

    p_m(x) = 2^(1/2 - 1/m) |x|^(1/m - 1/2)
             K_{1/m - 1/2}(|x| / sqrt(m)) / (sqrt(pi) Gamma(1/m) m^((2+m)/(4m))),

and kurtosis 3(1 + m).  The density is finite at 0 for m < 2 and diverges
(logarithmically at m = 2, like |x|^(2/m - 1) for m > 2) otherwise.

Everything here needs numpy alone.  The density's Bessel factor is a
trapezoid rule summed in logs (:func:`_log_zk`), so it neither overflows
nor underflows on (0, inf) for any m.  Beyond a CDF table's top, at 50
gamma scales, the tail is a 32-point Gauss-Laguerre sum over the density
(:func:`specfun.integrate`): one density call covers all of a lookup's
points there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre

from . import specfun
from .errors import ArgumentError, OutOfRegimeError, check_at_least, check_one_of, check_positive

# m on which the density, and so every CDF table, is tested against mpmath.
# Each end admits a relative 1e-12, so that 1/1000.0 and exp(ln 1e4) =
# 10000.00000000001 still answer.
_M_LO, _M_HI = 1e-3 * (1.0 - 1e-12), 1e4 * (1.0 + 1e-12)

_EULER_GAMMA = 0.5772156649015329
_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi
_LN2 = math.log(2.0)

# |x| below which the CDF uses the two-term small-argument series; the
# truncation error there is O(x^2) relative, far under the 1e-9 absolute
# contract.  Every CDF table starts at this point.
_SERIES_CUTOFF = 1e-6

# CDF tables: equal-width panels in u = ln x, each with a fixed
# Gauss-Legendre rule.  In u the integrand x pdf(x) is smooth even where
# the density diverges at 0.
_PANEL_NODES = 8
_GL_NODES, _GL_WEIGHTS = legendre.leggauss(_PANEL_NODES)
# nodal values on a panel -> Legendre coefficients of their interpolant
_NODES_TO_LEGENDRE = (legendre.legvander(_GL_NODES, _PANEL_NODES - 1)
                      * (_GL_WEIGHTS[:, None] * (np.arange(_PANEL_NODES) + 0.5)))

# a law's one CDF table has 513 panel edges and reaches 50 gamma scales
# sqrt(m); points beyond take the Gauss-Laguerre tail
_TABLE_POINTS = 513
_TABLE_TOP_SCALES = 50.0
_SPLIT_BLOCK = 16384  # points per lookup: at most 16384 x 32 tail nodes

# stable CDF: equal-width panels of the same rule on u in [-40, 40], which
# drops theta-ranges of 7e-18.  Where |alpha - 1| < 0.25 these miss 1e-9
# (5e-9 at 1.15); there each point gets 48 panels instead, graded by sqrt(2)
# from 1/(2|p|) either side of its alpha -> 1 step.
_STABLE_U = 40.0
_STABLE_EDGES = np.linspace(-_STABLE_U, _STABLE_U, 161)
_STABLE_NEAR_ONE = 0.25
_STABLE_STEPS = np.concatenate((-np.sqrt(2.0) ** np.arange(23, -1, -1), [0.0],
                                np.sqrt(2.0) ** np.arange(24))) / 2.0
_STABLE_BLOCK = 256  # points per block: at most 256 x 1280 nodes

# Bessel factor of the density: a trapezoid rule per point, on a window
# where the log-integrand lies within _BESSEL_DROP of its peak.  The density
# goes in blocks of _BESSEL_POINTS points, their nodes in arrays of at most
# _BESSEL_NODES values.
_BESSEL_DROP = 40.0
_BESSEL_POINTS = 4096
_BESSEL_NODES = 1 << 14


def _log_zk(nu: float, z: np.ndarray) -> np.ndarray:
    """ln(z^nu K_nu(z)) for nu >= 0 and a 1-d array of finite z > 0.

    K_nu(z) is the integral over t > 0 of I(t) = e^(-z cosh t) cosh(nu t),
    which peaks near t* = asinh(nu / z), where z cosh t* = A = hypot(z, nu).
    Each point sums I over nodes of step 0.72 / sqrt(A + 7.7) that cover
    [t* - left, t* + right], outside which ln I lies more than _BESSEL_DROP
    below its peak; where that reaches t = 0, the window starts there and
    the node at 0 takes half weight (I is even: this is the trapezoid rule
    on the whole line).  I is entire and falls double-exponentially, so
    the rule's error falls geometrically with the step, and this step keeps
    it under 1e-15 from the small-z limit, where the cut-off near z e^t = 2
    asks for a step of 0.30 at nu = 0.1 and 0.17 at nu = 9.5, to the
    Gaussian peak of large A, which asks for 0.745 / sqrt(A).

    ln I is taken about a centre t0 with z e^t0 = P0 = max(nu + A, 1) (t0
    is t* unless nu + A < 1), through expm1 of t - t0, so the sums keep
    their relative accuracy at large A and nothing overflows at small z.
    """
    a = np.hypot(z, nu)
    ln_z = np.log(z)
    ln_peak = np.log(nu + a)
    ln_p0 = np.maximum(ln_peak, 0.0)
    peak, t0 = ln_peak - ln_z, ln_p0 - ln_z
    p0 = np.maximum(nu + a, 1.0)
    m0 = z * (z / p0)                               # z e^-t0
    step = 0.72 / np.sqrt(a + 7.7)
    # ln I falls from its peak by at least A (cosh s - 1) at t* + s, and by
    # at least (A - nu)(cosh s - 1) and nu s^2 / (2 + s), less ln 2, at t* - s
    d = _BESSEL_DROP
    with np.errstate(divide="ignore"):
        right = 2.0 * np.arcsinh(math.sqrt(d / 2.0) / np.sqrt(a))
        left = np.minimum(peak, 2.0 * np.arcsinh(math.sqrt(d / 2.0 + 1.0)
                                                 / np.sqrt(z * (z / (nu + a)))))
    if nu > 0.0:
        left = np.minimum(left, (d + 2.0 + math.sqrt((d + 2.0) * (d + 2.0 + 8.0 * nu)))
                          / (2.0 * nu))
    count = np.ceil((left + right) / step).astype(np.int64) + 1
    first = ln_peak - ln_p0 - left                  # the first node, from t0
    half_p0, half_m0, ln_mirror = 0.5 * p0, 0.5 * m0, -2.0 * nu * t0
    ln_sum = np.empty_like(z)
    # rows of similar node counts share one array, padded beyond their windows
    order = np.argsort(count, kind="stable")
    sorted_count = count[order]
    k = np.arange(count.max(initial=0), dtype=float)
    start = 0
    while start < z.size:
        rows = _BESSEL_NODES // sorted_count[start]
        rows = max(_BESSEL_NODES // sorted_count[min(start + rows, z.size) - 1], 1)
        idx = order[start:start + rows]
        width = sorted_count[start + len(idx) - 1]
        u = step[idx, None] * k[:width]
        u += first[idx, None]
        with np.errstate(over="ignore"):
            # phi = (nu t - z cosh t) - (nu t0 - z cosh t0), u = t - t0
            phi = np.expm1(u)
            phi *= -half_p0[idx, None]
            mirror = nu * u
            phi += mirror
            np.negative(u, out=u)
            np.expm1(np.minimum(u, 700.0, out=u), out=u)  # the product stays below z
            u *= half_m0[idx, None]
            phi -= u
        # cosh(nu t) = e^(nu t) (1 + e^(-2 nu t)) / 2: both halves, floored
        # at e^-700, so that exp never takes its slow underflow path
        mirror *= -2.0
        mirror += phi
        mirror += ln_mirror[idx, None]
        np.exp(np.maximum(phi, -700.0, out=phi), out=phi)
        phi += np.exp(np.maximum(mirror, -700.0, out=mirror), out=mirror)
        # summed in node order up to each point's own last node, so that its
        # bits do not depend on the rows it shares an array with
        total = np.cumsum(phi, axis=1)[np.arange(len(idx)), count[idx] - 1]
        total -= np.where(left[idx] == peak[idx], 0.5 * phi[:, 0], 0.0)
        ln_sum[idx] = np.log(total * step[idx])
        start += len(idx)
    return nu * ln_p0 - (half_p0 + half_m0) - _LN2 + ln_sum


class _CdfTable:
    """P{X > x} of one symmetrized gamma law at every real x.

    Equal-width panels in u = ln x cover [_SERIES_CUTOFF, top].  On each
    panel x pdf(x) is replaced by its interpolant through the panel's
    Gauss-Legendre nodes, whose integral over the whole panel is the
    Gauss-Legendre value; a point inside a panel takes the interpolant's
    integral up to the panel edge.  The table keeps one sum, downward
    from the tail beyond the top, so deep-tail values keep their relative
    accuracy.  Points below the cutoff take the small-x series, and points
    above the top the same tail rule as the anchor.
    """

    def __init__(self, law: SymmetrizedGamma) -> None:
        self._law = law
        self._top = top = _TABLE_TOP_SCALES * law.scale
        panels = _TABLE_POINTS - 1
        self._u0 = math.log(_SERIES_CUTOFF)
        self._h = (math.log(top) - self._u0) / panels
        mid = self._u0 + self._h * (np.arange(panels) + 0.5)
        x = np.exp(mid[:, None] + 0.5 * self._h * _GL_NODES)
        f = 0.5 * self._h * x * law.pdf(x)
        coef = f @ _NODES_TO_LEGENDRE
        # per panel, tau -> integral of the interpolant from tau to the upper edge
        self._upper = -legendre.legint(coef, lbnd=1, axis=1)
        mass = 2.0 * coef[:, 0]
        self._above = self._tail_from(top) + np.concatenate(
            (np.cumsum(mass[::-1])[::-1], [0.0]))

    def _tail_from(self, x):
        """P{X > x} elementwise for x at or beyond the top, where the density
        is ~ x^(a-1) e^(-x/s): the Laguerre rule at rate c/s, c the log-derivative
        of that term in units of 1/s, kept >= 0.5."""
        law = self._law
        s, a = law.scale, law.shape
        c = np.maximum(1.0 - (a - 1.0) / (x / s), 0.5) if a > 1.0 else 1.0
        return specfun.integrate(law.pdf, x, c / s)

    def survival(self, x):
        """P{X > x} elementwise, clipped to [0, 1]; a 0-d x gives a float."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x).ravel()
        out = np.full_like(ax, np.nan)
        for lo in range(0, ax.size, _SPLIT_BLOCK):
            v = ax[lo:lo + _SPLIT_BLOCK]
            block = out[lo:lo + _SPLIT_BLOCK]
            low = v <= _SERIES_CUTOFF
            high = v > self._top
            inside = (v > _SERIES_CUTOFF) & (v <= self._top)
            t = (np.log(v[inside]) - self._u0) / self._h
            k = np.minimum(t.astype(int), len(self._upper) - 1)
            block[inside] = self._above[k + 1] + legendre.legval(
                2.0 * (t - k) - 1.0, self._upper[k].T, tensor=False)
            block[low] = 0.5 - self._law._cdf_series_delta(v[low])
            if high.any():
                block[high] = self._tail_from(v[high])
        out = np.clip(out, 0.0, 1.0).reshape(x.shape)
        out = np.where(x < 0.0, 1.0 - out, out)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SymmetrizedGamma:
    """Standardized symmetrized gamma law with finite family parameter m > 0."""

    m: float

    def __post_init__(self) -> None:
        check_positive("m", self.m)

    # gamma-component parameters forced by the characteristic function:
    # shape 1/m and scale sqrt(m) give CF (1 + m t^2)^(-1/m) and variance 2.
    @property
    def shape(self) -> float:
        return 1.0 / self.m

    @property
    def scale(self) -> float:
        return math.sqrt(self.m)

    @property
    def sigma(self) -> float:
        return _SQRT2

    @property
    def variance(self) -> float:
        return 2.0

    @property
    def kurtosis(self) -> float:
        """Moment ratio mu_4 / mu_2^2 = 3 (1 + m)."""
        return 3.0 * (1.0 + self.m)

    # ------------------------------------------------------------------
    # characteristic function and density
    # ------------------------------------------------------------------

    def cf(self, t):
        """Characteristic function (1 + m t^2)^(-1/m); even, in (0, 1]."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # m t^2 overflows to inf where f is 0
            out = (1.0 + self.m * t * t) ** (-1.0 / self.m)
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _log_pdf_prefactor(self) -> float:
        a = self.shape
        return ((0.5 - a) * math.log(2.0) - 0.5 * math.log(math.pi)
                - math.lgamma(a) - math.log(self.scale))

    @cached_property
    def _pdf_at_zero(self) -> float:
        if self.m >= 2.0:
            return math.inf
        a = self.shape
        return math.exp(math.lgamma(a - 0.5) - math.lgamma(a)) / (
            2.0 * self.scale * math.sqrt(math.pi)
        )

    def pdf(self, x):
        """Density p_m(x); symmetric, integrates to 1.

        Returns ``inf`` at x = 0 when the density is unbounded there
        (m >= 2); that is the singularity signal, and 0 at x = +-inf.
        Summed in logs, ln(z^nu K_nu(z)) included, so it neither overflows
        nor underflows before the far tail, where it underflows to 0.
        Raises OutOfRegimeError for m outside [1e-3, 1e4], and so do the
        CDF views, whose tables are built from the density.
        """
        if not _M_LO <= self.m <= _M_HI:
            raise OutOfRegimeError(f"m={self.m:g} is outside the symmetrized gamma "
                                   "density's tested domain [1e-3, 1e4]")
        a = self.shape
        nu = abs(a - 0.5)
        z = np.abs(np.asarray(x, dtype=float))
        z /= self.scale
        out = np.full(np.shape(z), np.nan)
        flat_z, flat_out = np.ravel(z), out.reshape(-1)
        for lo in range(0, flat_z.size, _BESSEL_POINTS):
            zb = flat_z[lo:lo + _BESSEL_POINTS]
            ob = flat_out[lo:lo + _BESSEL_POINTS]
            inside = (zb > 0.0) & (zb < math.inf)
            zi = zb[inside]
            # z^(a - 1/2) K = z^(a - 1/2 - nu) (z^nu K); the power is 1 for m <= 2
            ob[inside] = np.exp(self._log_pdf_prefactor + (a - 0.5 - nu) * np.log(zi)
                                + _log_zk(nu, zi))
            ob[zb == 0.0] = self._pdf_at_zero
            ob[zb == math.inf] = 0.0
        return float(out) if out.ndim == 0 else out

    # ------------------------------------------------------------------
    # CDF: views of one panel table
    # ------------------------------------------------------------------

    @cached_property
    def _series_coeff(self):
        """Coefficients of pdf(x) ~ c1 z^e1 + c2 z^e2 near zero (m != 2).

        From K_nu(z) ~ (Gamma(nu)/2)(z/2)^-nu + (Gamma(-nu)/2)(z/2)^nu for
        |nu| < 1, nu != 0; exponents are {2/m - 1, 0} in some order.  For
        nu >= 1 (m <= 2/3) the second term is below the neglected O(z^2)
        correction and is dropped, and the first is the finite pdf(0).
        """
        a = self.shape
        nu = abs(a - 0.5)
        e1 = (a - 0.5) - nu
        e2 = (a - 0.5) + nu
        if nu >= 1.0:
            return self._pdf_at_zero, e1, 0.0, e2
        pref = math.exp(self._log_pdf_prefactor)
        c1 = pref * 0.5 * math.gamma(nu) * 2.0 ** nu
        c2 = pref * 0.5 * math.gamma(-nu) * 2.0 ** (-nu)
        return c1, e1, c2, e2

    def _cdf_series_delta(self, x):
        """F(x) - 1/2 for 0 <= x <= the series cutoff."""
        s = self.scale
        z = np.asarray(x, dtype=float) / s
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(self.m - 2.0) < 1e-12:
                # K_0(z) ~ -ln(z/2) - gamma_E
                c = math.exp(self._log_pdf_prefactor) * s
                out = c * z * (1.0 - _EULER_GAMMA - np.log(0.5 * z))
            else:
                c1, e1, c2, e2 = self._series_coeff
                out = s * (c1 * z ** (e1 + 1.0) / (e1 + 1.0) + c2 * z ** (e2 + 1.0) / (e2 + 1.0))
        return np.where(z == 0.0, 0.0, out)

    @cached_property
    def _cdf_table(self) -> _CdfTable:
        return _CdfTable(self)

    def survival(self, x):
        """P{X > x}, elementwise over x; absolute accuracy ~1e-9."""
        return self._cdf_table.survival(x)

    def cdf(self, x):
        """F(x) = 1 - P{X > x}, elementwise over x; absolute accuracy ~1e-9."""
        return 1.0 - self.survival(x)

    def two_sided_exceed(self, k_sigmas: float, *, unit: str) -> float:
        """P{|X| > threshold} for a deviation level of k 'sigmas'.

        unit="sigma" uses the true standard deviation, threshold
        k * sqrt(2).  unit="sigma_squared" uses threshold k * 2, i.e. the
        level is measured in units of the variance; this is the
        convention under which the reference deviation table was
        computed (its printed values correspond to threshold 2k, not
        k * sqrt(2)).  No default: the two units give different numbers.
        """
        if not k_sigmas > 0:  # an infinite level has probability 0
            raise ArgumentError(f"k_sigmas must be positive, got {k_sigmas}")
        check_one_of("unit", unit, ("sigma", "sigma_squared"))
        return 2.0 * self.survival(k_sigmas * (_SQRT2 if unit == "sigma" else 2.0))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int):
        """n i.i.d. draws of X = Y1 - Y2 (two gamma arrays, in that order)."""
        check_at_least("n", n, 1)
        y1 = rng.gamma(self.shape, self.scale, size=n)
        y2 = rng.gamma(self.shape, self.scale, size=n)
        return y1 - y2

    def cdf_interpolator(self, x_max: float):
        """:meth:`cdf` itself, whatever x_max; it stays only because
        ``perfbench/tracer.py`` hooks it, as it hooks :meth:`SymmetricStable.cdf`."""
        return self.cdf


@dataclass(frozen=True)
class SymmetricStable:
    """Symmetric stable law with CF exp(-lambda |t|^alpha).

    Domain: alpha in (0, 2] and finite lambda > 0.  The CDF is within 1e-9
    absolute of the exact value at every real x.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ArgumentError(f"alpha must be in (0, 2], got {self.alpha}")
        check_positive("lambda", self.lam)

    def cf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-self.lam * np.abs(t) ** self.alpha)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x: float) -> float:
        """F(x) for real x; the one-point view of :meth:`cdf_grid`."""
        return float(self.cdf_grid([x])[0])

    def cdf_grid(self, xs) -> np.ndarray:
        """F at every point of xs, shaped like xs (at least 1-d).

        Points go in blocks of fixed size, so memory does not grow with xs.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ax = np.abs(xs).ravel()
        if self.alpha == 1.0:
            tail = np.arctan2(self.lam, ax) / math.pi
        elif self.alpha == 2.0:
            tail = np.array([0.5 * math.erfc(v) for v in ax / (2.0 * math.sqrt(self.lam))])
        else:
            with np.errstate(divide="ignore"):
                log_z = np.log(ax) - math.log(self.lam) / self.alpha
            tail = np.empty_like(log_z)
            for lo in range(0, log_z.size, _STABLE_BLOCK):
                tail[lo:lo + _STABLE_BLOCK] = self._zolotarev_tail(log_z[lo:lo + _STABLE_BLOCK])
            tail[ax == math.inf] = 0.0  # the clipped integrand leaves up to 1e-289 there
        tail = tail.reshape(xs.shape)
        return np.where(xs == 0.0, 0.5, np.where(xs < 0.0, tail, 1.0 - tail))

    def _zolotarev_tail(self, log_z) -> np.ndarray:
        """P{X > z lam^(1/alpha)} for a 1-d block of ln z, alpha not 1 or 2.

        Nolan (1997), beta = 0: (1/pi) int_0^(pi/2) g dtheta, g = exp(-z^p V)
        for alpha > 1 and 1 - exp(-z^p V) for alpha < 1, with p = alpha/(alpha-1)
        and V = (cos theta / sin(alpha theta))^p cos((alpha-1) theta) / cos theta.
        Nodes are in u = logit(2 theta / pi).
        """
        a = self.alpha
        p = a / (a - 1.0)
        near = abs(a - 1.0) < _STABLE_NEAR_ONE
        if near:
            # g rises from 0 to 1 over about 1/|p| in u; as alpha -> 1 it
            # becomes a step at u*, where theta = arctan z.  The panels take
            # g minus that step, whose own integral is 1 / (2 (1 + e^u*)).
            with np.errstate(divide="ignore", over="ignore"):
                centre = np.log(np.arctan(np.exp(log_z)) / np.arctan(np.exp(-log_z)))[:, None]
                step_mass = 0.5 / (1.0 + np.exp(centre[:, 0]))
            edges = np.clip(centre + _STABLE_STEPS / abs(p), -_STABLE_U, _STABLE_U)
        else:
            edges = _STABLE_EDGES[None, :]
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        u = (edges[:, :-1, None] + half * (1.0 + _GL_NODES)).reshape(len(edges), -1)
        weight = (half * _GL_WEIGHTS).reshape(len(edges), -1)
        # theta = (pi/2) e and pi/2 - theta = (pi/2) d; cos theta is taken as
        # sin((pi/2) d), so the far tail, near theta = pi/2, is not rounded away
        e, d = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
        theta = _HALF_PI * e
        log_v = ((p - 1.0) * np.log(np.sin(_HALF_PI * d)) - p * np.log(np.sin(a * theta))
                 + np.log(np.cos((a - 1.0) * theta)))
        g = p * log_z[:, None] + log_v  # log(z^p V), then g, in place
        # z^p V kept in [e^-700, e^6.5]: g keeps every value above 1e-289,
        # and numpy's exp never takes its slow under- or overflow path
        np.negative(np.exp(np.clip(g, -700.0, 6.5, out=g), out=g), out=g)
        g = np.exp(g, out=g) if a > 1.0 else np.negative(np.expm1(g, out=g), out=g)
        if near:
            g -= u > centre
        tail = np.einsum("ij,ij->i", g, 0.5 * weight * e * d)  # dtheta/pi = e d du/2
        if near:
            tail += step_mass
        return tail

