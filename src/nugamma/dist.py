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

Only the symmetrized gamma density uses scipy, and from it only
``scipy.special.kve``, imported where it is called, so that commands
which evaluate no such density or CDF (``bounds``, ``hill``, ``audit``,
``fig2``, ``table3``) do not pay its 0.3 s import.  Beyond a CDF
table's top the density is in its exponential regime, and the tail is a
32-point Gauss-Laguerre sum over it (:func:`specfun.integrate`): one
density call covers all of a lookup's points there.  The characteristic
functions, the stable CDF and sampling need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre

from . import specfun
from .errors import IntegrationError

_EULER_GAMMA = 0.5772156649015329
_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi

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
        if not np.all(np.isfinite(f)):
            raise IntegrationError(
                f"the density for m={law.m:g} overflows double precision on "
                f"[{_SERIES_CUTOFF:g}, {top:g}]")
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
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"m must be finite and positive, got {self.m}")

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
        (m >= 2); that is the singularity signal, and 0 at x = +-inf.  For
        m < 2, where the Bessel form overflows below the series cutoff, it
        is the CDF's two-term small-z series.
        """
        from scipy.special import kve

        a = self.shape
        ax = np.abs(np.asarray(x, dtype=float))
        z = ax / self.scale
        # summed in logs: for small m the prefactor alone underflows; the
        # scaled Bessel keeps e^-z explicit, so the far tail underflows to 0
        with np.errstate(all="ignore"):
            out = np.exp(self._log_pdf_prefactor + (a - 0.5) * np.log(z)
                         + np.log(kve(abs(a - 0.5), z)) - z)
            if self.m < 2.0:
                # kve overflows at tiny z (|x| <= 1e-7 at m = 0.022), where the
                # density is finite and the series exact to double precision
                c1, e1, c2, e2 = self._series_coeff
                series = (ax <= _SERIES_CUTOFF) & ~np.isfinite(out)
                if series.any():
                    out = np.where(series, c1 * z ** e1 + c2 * z ** e2, out)
        # at z = inf the log form is inf - inf
        out = np.where(z == 0.0, self._pdf_at_zero, np.where(z == math.inf, 0.0, out))
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

    def two_sided_exceed(self, k_sigmas: float, *, unit: str = "sigma") -> float:
        """P{|X| > threshold} for a deviation level of k 'sigmas'.

        unit="sigma" uses the true standard deviation, threshold
        k * sqrt(2).  unit="sigma_squared" uses threshold k * 2, i.e. the
        level is measured in units of the variance; this is the
        convention under which the reference deviation table was
        computed (its printed values correspond to threshold 2k, not
        k * sqrt(2)).
        """
        if not k_sigmas > 0:
            raise ValueError("k_sigmas must be positive")
        if unit == "sigma":
            threshold = k_sigmas * _SQRT2
        elif unit == "sigma_squared":
            threshold = k_sigmas * 2.0
        else:
            raise ValueError(f"unknown unit {unit!r}")
        return 2.0 * self.survival(threshold)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int):
        """n i.i.d. draws of X = Y1 - Y2 (two gamma arrays, in that order)."""
        if n < 1:
            raise ValueError("n must be >= 1")
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
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be finite and positive, got {self.lam}")

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

