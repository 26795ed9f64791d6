"""Independent high-precision oracles used to derive and re-check frozen
test values.

Each function evaluates a quantity through a representation different
from the one the package implements, so agreement is evidence and not
tautology:

* ``sg_tail_mp``: the one-sided tail P{X > x} as a gamma-mixture of
  regularized upper incomplete gamma functions, with the substitution
  u = t^(1/m) near 0 that removes the small-shape endpoint singularity.
  The package integrates the Bessel-form density instead.
* ``sg_pdf_cf_inversion_mp``: the density recovered from the
  characteristic function by an oscillatory cosine inversion
  (mpmath.quadosc); slow, used to freeze values.
* ``bessel_k_integral_mp``, ``bessel_k_peak_mp``: K_nu from its cosh
  integral representation, plainly and split about the peak; the package
  sums the same integral with a trapezoid rule.
* ``quadpack``: scipy's adaptive QUADPACK (QAGS, QAGI); the package's
  tail beyond a CDF table's top is a fixed Gauss-Laguerre sum.
* ``stable_cdf_qawo``: the symmetric stable CDF by inverting the
  characteristic function with QUADPACK's plain and sin-weighted rules.
  The package evaluates the Zolotarev integral instead.
* ``stable_sample_cms``: Chambers-Mallows-Stuck draws of the symmetric
  stable law, for Monte Carlo checks where the inversion fails.
* ``read_return_series_two_pass``: the CSV reader that holds every
  non-blank row before parsing any, each through ``csv.reader``; the
  package reads the rows in one pass, splitting unquoted lines itself.
* ``hill_estimate_full_sort``: the Hill estimator over a stable sort of
  every value; the package partitions and sorts only the top k+1.
* ``random_sum_sample``: one normalized random sum, its nu summands drawn
  one replicate at a time; the package draws replicates in chunks and
  sums symmetrized gamma summands in closed form.

Frozen dictionaries at the bottom were produced by exactly these
functions; the slow ones are cross-checked live on a thin subsample in
the test modules.
"""

import csv
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from nugamma import specfun
from nugamma.diagnostics import MISSING_MARKERS, ReturnSeries
from nugamma.errors import DataError
from nugamma.specfun import QuadratureSpec


def sg_tail_mp(x, m, dps=20):
    """P{X > x} for the standardized symmetrized gamma law, x >= 0.

    E[Q(a, x/s + W)] over W ~ Gamma(a, 1), a = 1/m, s = sqrt(m).  The
    integrand is divided by Q(a, x/s), so that it is at most 1: mp.quad
    stops on an absolute error estimate, which a raw deep tail (1e-47 at
    m = 10, x = 316) meets at once.  The breakpoints are W-points 4x
    apart, from the distance x/s of the branch point of Q at W = -x/s (at
    most 1/16) up to W = 2a + dps ln 10 + 10, where the integral stops:
    beyond it the gamma density times e^-W is below 10^-dps, and mpmath's
    exp at the huge nodes of an infinite interval costs more than the rest.
    Below the first point the integral runs in u = W^a, which absorbs the
    W^(a-1) singularity of the density.  Checked against the package over
    m >= 1e-3; there the gamma bulk, sqrt(a) wide about W = a, needs no
    breakpoints of its own (ones sqrt(a)/2 apart gave the same values at
    m = 0.01, 3e-3 and 1e-3, 10 to 70 times slower).
    """
    mp.mp.dps = dps
    a = mp.mpf(1) / m
    xv = mp.mpf(x) / mp.sqrt(m)
    q0 = mp.gammainc(a, xv, mp.inf, regularized=True)

    def tail(w):
        return mp.exp(-w) * mp.gammainc(a, xv + w, mp.inf, regularized=True) / q0

    top = 2 * a + dps * math.log(10.0) + 10.0
    w = min(xv, mp.mpf(1) / 16) if xv > 0 else mp.mpf(1) / 16
    ws = []
    while w < top:
        ws.append(w)
        w *= 4
    head = mp.quad(lambda u: tail(u ** (1 / a)), [0, ws[0] ** a]) / a
    body = mp.quad(lambda w: w ** (a - 1) * tail(w), ws + [top])
    return q0 * (head + body) / mp.gamma(a)


def sg_pdf_cf_inversion_mp(x, m, dps=30):
    """Density by CF inversion, (1/pi) int_0^inf cos(tx) (1+mt^2)^(-1/m) dt."""
    mp.mp.dps = dps
    m_ = mp.mpf(m)
    f = lambda t: mp.cos(t * x) * (1 + m_ * t * t) ** (-1 / m_)
    return mp.quadosc(f, [0, mp.inf], period=2 * mp.pi / x) / mp.pi


def bessel_k_integral_mp(nu, x, dps=30):
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    mp.mp.dps = dps
    nu_, x_ = mp.mpf(nu), mp.mpf(x)
    return mp.quad(lambda t: mp.e ** (-x_ * mp.cosh(t)) * mp.cosh(nu_ * t), [0, 40])


def bessel_k_peak_mp(nu, x, dps=30):
    """K_nu(x) from the same cosh integral, split about its peak.

    The integrand e^(-x cosh t) cosh(nu t) peaks near t* = asinh(nu/x),
    with width w = (x cosh t*)^(-1/2); breakpoints at 0, at t* + j w for
    j = -40, -36, ..., 40 and 10 beyond the last.  This reaches orders
    where ``mp.besselk`` does not converge (nu = 999.5 at x = 3e3).
    """
    mp.mp.dps = dps
    nu_, x_ = mp.mpf(nu), mp.mpf(x)
    peak = mp.asinh(nu_ / x_)
    w = 1 / mp.sqrt(x_ * mp.cosh(peak))
    points = sorted({mp.mpf(0)} | {peak + j * w for j in range(-40, 41, 4) if peak + j * w > 0})
    f = lambda t: mp.exp(-x_ * (mp.cosh(t) - 1) + nu_ * t) * (1 + mp.exp(-2 * nu_ * t)) / 2
    return mp.quad(f, points + [points[-1] + 10]) * mp.exp(-x_)


def quadpack(f, a, b, spec=QuadratureSpec()):
    """scipy's ``quad`` over (a, b) as ``(value, err)``.

    A missed tolerance raises IntegrationError by the package's rule.
    """
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=True)
    extra = out[3] if len(out) > 3 else None
    return specfun._check_quad(float(out[0]), float(out[1]), extra, spec,
                               f"integral on ({a}, {b})")


def stable_cdf_qawo(alpha, lam, x):
    """F(x) = 1/2 + (1/pi) int_0^inf sin(t x) exp(-lam t^alpha) / t dt.

    The CF is cut where exp(-lam t^alpha) < 1e-18.  Up to the first
    quarter period the plain adaptive rule runs; beyond it the QAWO rule.
    Absolute accuracy ~1e-9 where it converges, for alpha >= 0.3; at some
    points it raises IntegrationError, and for alpha near 0.1 it returns
    wrong values without an error.
    """
    x = float(x)
    if x == 0.0:
        return 0.5
    if x < 0.0:
        return 1.0 - stable_cdf_qawo(alpha, lam, -x)
    T = (41.45 / lam) ** (1.0 / alpha)
    spec = QuadratureSpec(abs_tol=2e-9, rel_tol=1e-9, max_subdivisions=400)

    def integrand(t):
        return math.sin(t * x) / t * math.exp(-lam * t ** alpha) if t > 0 else x

    t1 = min(math.pi / (2.0 * x), T)
    total, _ = quadpack(integrand, 0.0, t1, spec)
    if t1 < T:
        osc, _ = specfun.integrate_sin(
            lambda t: math.exp(-lam * t ** alpha) / t, t1, T, x, spec)
        total += osc
    return min(max(0.5 + total / math.pi, 0.0), 1.0)


def stable_sample_cms(alpha, lam, rng, n):
    """n draws of the symmetric stable law with CF exp(-lam |t|^alpha).

    Chambers, Mallows and Stuck (1976) for beta = 0, with U uniform on
    (-pi/2, pi/2) and W standard exponential.
    """
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    w = rng.standard_exponential(n)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return lam ** (1.0 / alpha) * x


def _parse_cell_finite(cell):
    try:
        v = float(cell)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _is_data_cell(cell):
    # float() accepts it (nan and inf included), or it marks a missing value
    if cell.strip() in MISSING_MARKERS:
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_return_series_two_pass(path, column=None, *, strict=False, label=None):
    """The two-pass CSV reader: every non-blank row is read, then parsed.

    The first row is a header when none of its non-blank cells is data:
    a number ``float()`` accepts or a missing marker (``NA``).
    ``column`` selects by integer index or by header name; by default the
    first column whose first data cell is a finite number is used, or
    failing that the first whose cell is data.  Rows
    whose selected cell is missing or unparseable are skipped and
    counted, unless ``strict`` aborts instead.  Returns the series and
    the skipped-row count.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise DataError(f"empty file: {path}")

    header: list[str] | None = None
    if not any(_is_data_cell(c) for c in rows[0] if c.strip()):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataError("no data rows after header")

    if isinstance(column, str) and not column.lstrip("-").isdigit():
        if header is None or column not in header:
            raise DataError(f"column {column!r} not found (no matching header)")
        idx = header.index(column)
    elif column is not None:
        idx = int(column)
        width = len(rows[0])
        if not -width <= idx < width:
            raise DataError(f"column index {idx} out of range")
    else:
        numeric = [j for j, c in enumerate(rows[0]) if _parse_cell_finite(c) is not None]
        data = [j for j, c in enumerate(rows[0]) if _is_data_cell(c)]
        idx = (numeric or data or [None])[0]
        if idx is None:
            raise DataError("no numeric column found in first data row")

    values, skipped = [], 0
    for r in rows:
        cell = r[idx] if -len(r) <= idx < len(r) else None
        v = _parse_cell_finite(cell) if cell is not None else None
        if v is None:
            if strict:
                raise DataError(f"unparseable value in column {idx}: {cell!r}")
            skipped += 1
        else:
            values.append(v)
    if not values:
        raise DataError(f"column {idx} contains no numeric data")
    name = label or (header[idx] if header and -len(header) <= idx < len(header) else f"col{idx}")
    return ReturnSeries(np.array(values), label=name, source=str(path)), skipped


def hill_estimate_full_sort(sample, k, tail="positive"):
    """Mean log-spacing of the top k order statistics, from a full sort."""
    x = np.asarray(sample, dtype=float)
    vals = np.abs(x) if tail == "abs" else x[x > 0.0]
    n = len(vals)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n}, got k={k}")
    s = np.sort(vals, kind="stable")
    threshold = s[-(k + 1)]
    if threshold <= 0.0:
        raise ValueError("Hill estimator needs at least k+1 strictly positive values")
    return float(np.mean(np.log(s[-k:]) - math.log(threshold)))


def random_sum_sample(config, rng):
    """One draw of p^(1/2) * sum_{j=1}^{nu} Y_j from the given stream."""
    nu = int(config.family.sample(rng))
    y = config.component.sample(rng, nu)
    return math.sqrt(config.family.p) * float(y.sum())


def sg_pdf_mp(x, m, bessel_k=None, dps=30):
    """The density 2^(1/2-a) z^(a-1/2) K_nu(z) / (sqrt(pi) Gamma(a) s) in
    mpmath, z = x/s, from mp.besselk unless ``bessel_k(nu, z)`` is given."""
    mp.mp.dps = dps
    a, s = 1 / mp.mpf(m), mp.sqrt(m)
    z = mp.mpf(x) / s
    k = (bessel_k or bessel_k_mp)(abs(a - 0.5), z)
    mp.mp.dps = dps  # bessel_k_mp sets its own precision
    return mp.power(2, 0.5 - a) * mp.power(z, a - 0.5) * k / (mp.sqrt(mp.pi) * mp.gamma(a) * s)


def log_gamma_mp(x, dps=30):
    mp.mp.dps = dps
    return mp.loggamma(mp.mpf(x))


def bessel_k_mp(nu, x, dps=30):
    mp.mp.dps = dps
    return mp.besselk(mp.mpf(nu), mp.mpf(x))


# ----------------------------------------------------------------------
# frozen oracle values
# ----------------------------------------------------------------------

# ln Gamma(0.1), mpmath dps=30
LOG_GAMMA_01 = 2.252712651734206

# K_0.4(1): Bessel via mpmath and via the cosh integral agree on this
BESSEL_K_04_1 = 0.44628593983466818

# sg_tail_mp-derived CDF / tail points
SG_CDF_M50_X5 = 0.99266221707885864        # F(5) at m=50
SG_CDF_M1_X2 = 0.93233235838169365         # Laplace closed form 1 - e^-2/2

# sg_tail_mp(x, m) at dps 30, beyond the table top; dps 40 agrees to 1e-30
SG_DEEP_TAIL = {
    (10, 316): 6.1605752242626124594e-47,
    (50, 707): 8.1812367250972647667e-48,
    (100, 1000): 3.8526058287697956089e-48,
}

# sg_tail_mp(x, m) at dps 30 below m = 0.022, which the density once
# overflowed; dps 40 agrees to 4e-30, dps 20 to 2e-19 and dps 15 to 1.6e-14
SG_SMALL_M_TAIL = {
    (0.01, 1.5): 0.14385990844719944628,
    (0.01, 24.0): 2.1298297667777081868e-46,
    (0.003, 3.0): 0.016997483120043338078,
    (0.001, 0.3): 0.41597143546066786112,
    (0.001, 4.0): 0.0023517678733513375287,
    (0.001, 20.0): 8.462905876211412284e-44,
}

# P{|X| > 10 sigma} with sigma = sqrt(2) (threshold 10 sqrt(2))
SG_EXCEED_TRUE_SIGMA = {
    10: 4.925729755802e-4,
    50: 1.98332111276e-3,
    100: 2.283584047811e-3,
}

# P{|X| > 20} (threshold 10 sigma^2): the reference deviation table
SG_EXCEED_TABLE = {
    10: 5.89842615734e-5,
    20: 2.30140529546e-4,
    30: 4.01799155256e-4,
    40: 5.4629679479e-4,
    50: 6.6330511847e-4,
    60: 7.57375330574e-4,
    70: 8.33146142273e-4,
    80: 8.94441649163e-4,
    90: 9.44249043511e-4,
    100: 9.84871827496e-4,
}

# sg_pdf_cf_inversion_mp at (m, x); dps=30
SG_PDF_CF_INVERSION = {
    (1, 0.5): 0.30326532985631671,
    (1, 1.0): 0.18393972058572116,
    (1, 2.5): 0.041042499311949398,
    (10, 0.5): 0.12496543741226671,
    (10, 1.0): 0.059247961423535814,
    (10, 2.5): 0.016717394008616055,
    (50, 0.5): 0.034062385076087296,
    (50, 1.0): 0.016244954821222763,
    (50, 2.5): 0.0054074138572557229,
}

# tail-ratio fixtures: sg_tail_mp(x, 50) / sg_tail_mp(1.5 x, 50)
TAIL_RATIO_M50 = {
    1.0: 1.280518617795966,
    2.0: 1.421141588641038,
    5.0: 1.845495083303179,
    10.0: 2.727714633911972,
    15.0: 3.963220059252533,
    20.0: 5.71774486792638,
    25.0: 8.217994453279267,
    30.0: 11.78458987312749,
    40.0: 24.13499272934388,
    50.0: 49.27286912883097,
}

# scipy.stats.levy_stable (S1 parameterization, beta=0, scale=lam^(1/alpha))
STABLE_CDF_POINTS = {
    (1.5, 0.8, 1.3): 0.841726171655,
    (1.8, 0.5, 2.0): 0.968755348556,
    (0.9, 1.2, 0.7): 0.668131348612,
}

# reference sweep rows (n -> alpha, lambda) for m=20, window (0.005, 0.5)
TABLE3_REFERENCE = {
    1: (1.26906, 0.226565),
    10: (1.80697, 0.720949),
    20: (1.89192, 0.835951),
    30: (1.92487, 0.883786),
    40: (1.94241, 0.910016),
    50: (1.9533, 0.926583),
    60: (1.96073, 0.937998),
    70: (1.96612, 0.946341),
    80: (1.97021, 0.952704),
    90: (1.97341, 0.957718),
    100: (1.976, 0.961771),
}

# reference deviation probabilities (printed to 6 significant figures)
TABLE1_REFERENCE = {
    10: 0.0000589843, 20: 0.000230141, 30: 0.000401799, 40: 0.000546297,
    50: 0.000663305, 60: 0.000757375, 70: 0.000833146, 80: 0.000894442,
    90: 0.000944249, 100: 0.000984872,
}

# reference Hill experiment means for m=10, n=10000, 100 simulations
HILL_REFERENCE = (0.37, 0.65, 1.39)
