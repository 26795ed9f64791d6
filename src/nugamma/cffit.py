"""Stable-law fits to the characteristic function of standardized sums.

The CF of the standardized n-fold sum of symmetrized gamma variates
satisfies the summation identity

    f^n(t / sqrt(n)) = f(t, m/n),

so summation only moves the family parameter.  On a window (delta,
Delta) the paper sandwiches

    f(t, m_eff) > exp(-lambda t^alpha) > exp(-t^2),

equivalently  log(1 + m_eff t^2) / (m_eff t^2) < lambda t^(alpha-2) < 1.
At a single t = delta some lambda always fits, because log(1+u)/u < 1
for u > 0; over a whole window the lambdas that fit form one interval,
which may be empty.  This module gives that interval on the window's
grid, and fits (alpha, lambda) to f(t, m/n) by either log-log regression
or least squares on CF values.  Over (0.005, 0.5) the interval is empty
at the fitted alpha of every reference row, n = 1 to 100 at m = 20.

The least-squares method on a linearly spaced grid reproduces the
reference (alpha, lambda) sweep at m = 20 over the window (0.005, 0.5)
to five significant figures, which is why it is the recorded default;
the log-log regression is kept as the cheap starting point and as a
second, exactly-solvable route for pure power-law inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import SymmetrizedGamma
from .errors import FitError

DEFAULT_METHOD = "ls-cf"
_METHODS = ("loglog-regression", "ls-cf")


# Nelder-Mead settings shared by both stable fits
_NM_MAXITER = 500
_NM_TOL = 1e-10  # xatol and fatol


@dataclass(frozen=True)
class MinimizeResult:
    """What :func:`minimize` returns; ``success`` is False at the iteration cap."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    message: str


def minimize(objective, start, *, bounds) -> MinimizeResult:
    """Bounded Nelder-Mead of both stable fits: iteration cap 500, xatol =
    fatol = 1e-10.

    A step-for-step port of scipy's ``_minimize_neldermead`` at these
    options (initial simplex of 5% steps reflected into the bounds,
    coefficients 1, 2, 0.5 and 0.5, every trial point clipped, the same
    sort order), so it returns scipy's ``x``, ``fun``, ``nit`` and
    ``nfev`` without importing scipy.  ``randsum`` binds this same
    function, and each module calls through its own name, so the two
    fits' optimizer calls can be replaced (or counted) one module at a
    time.
    """
    lower, upper = np.array(bounds, dtype=float).T
    x0 = np.clip(np.asarray(start, dtype=float), lower, upper)
    n = len(x0)
    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    nfev = 0

    def f(x) -> float:
        nonlocal nfev
        nfev += 1
        return objective(np.copy(x))

    fsim = np.array([f(x) for x in sim], dtype=float)
    nit = 1
    for _ in range(2):  # scipy sorts twice before the first step
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while nit < _NM_MAXITER:
        if (np.max(np.abs(sim[1:] - sim[0])) <= _NM_TOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _NM_TOL):
            break
        xbar = sim[:-1].sum(axis=0) / n
        xr = np.clip(2 * xbar - sim[-1], lower, upper)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # contract outside the simplex or inside it; if that is no
            # better, shrink toward the best vertex
            if fxr < fsim[-1]:
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lower, upper)
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    success = nit < _NM_MAXITER
    return MinimizeResult(
        x=sim[0], fun=np.min(fsim), nit=nit, nfev=nfev, success=success,
        message=("Optimization terminated successfully." if success
                 else "Maximum number of iterations has been exceeded."))


@dataclass(frozen=True)
class FitWindow:
    """t-window (delta, Delta) with the number of grid points."""

    delta: float
    Delta: float
    grid_size: int = 256

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < self.Delta < math.inf):
            raise ValueError("need 0 < delta < Delta < inf")
        if self.grid_size < 8:
            raise ValueError("grid_size must be >= 8")

    def linear_grid(self) -> np.ndarray:
        return np.linspace(self.delta, self.Delta, self.grid_size)

    def log_grid(self) -> np.ndarray:
        return np.geomspace(self.delta, self.Delta, self.grid_size)


@dataclass(frozen=True)
class StableFit:
    alpha: float
    lam: float
    residual: float
    method: str


def sum_cf(m: float, n: int, t) -> float | np.ndarray:
    """CF of the standardized n-fold sum: f(t, m/n) = (1 + (m/n) t^2)^(-n/m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymmetrizedGamma(m / n).cf(t)


def feasible_lambda_interval(m_eff: float, alpha: float,
                             window: FitWindow) -> tuple[float, float]:
    """Bounds (lo, hi) of the lambdas that sandwich f(t, m_eff) on the window.

    log(1 + m t^2)/(m t^2) < lambda t^(alpha-2) < 1 holds at every point
    of the log-spaced grid exactly when lo < lambda < hi, where lo is the
    largest t^(2-alpha) log(1 + m t^2)/(m t^2) on the grid and hi is
    delta^(2-alpha), the smallest t^(2-alpha).  The interval may be
    empty (lo >= hi).
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0, 2)")
    if not 0.0 < m_eff < math.inf:
        raise ValueError("m_eff must be finite and positive")
    ts = window.log_grid()
    u = m_eff * ts * ts
    lo = float(np.max(ts ** (2.0 - alpha) * np.log1p(u) / u))
    return lo, window.delta ** (2.0 - alpha)


def _loglog_fit(ts: np.ndarray, fvals: np.ndarray) -> tuple[float, float, float]:
    if not np.all(fvals > 0.0):
        raise FitError("f underflows to 0 on the grid; window too far from 0")
    neglog = -np.log(fvals)
    if np.any(neglog <= 0.0):
        raise FitError("-ln f underflows on the grid; window too close to 0")
    y = np.log(neglog)
    A = np.column_stack([np.log(ts), np.ones_like(ts)])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sum((A @ sol - y) ** 2))
    return float(sol[0]), float(math.exp(sol[1])), resid


def fit_stable_cf_values(cf, window: FitWindow, method: str = DEFAULT_METHOD) -> StableFit:
    """Fit exp(-lambda t^alpha) to a CF callable on the window.

    loglog-regression: OLS of ln(-ln f) on ln t over the log-spaced grid;
    exact for a pure stable CF.  ls-cf: bounded Nelder-Mead on the sum of
    squared CF differences over the linearly spaced grid, started from
    the regression (see :func:`minimize`).  Raises FitError when
    Nelder-Mead does not converge.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    ts_log = window.log_grid()
    alpha0, lam0, resid_ll = _loglog_fit(ts_log, np.asarray(cf(ts_log), dtype=float))
    if method == "loglog-regression":
        return StableFit(alpha=alpha0, lam=lam0, residual=resid_ll, method=method)

    ts = window.linear_grid()
    fvals = np.asarray(cf(ts), dtype=float)

    def objective(p) -> float:
        a, lam = p
        return float(np.sum((fvals - np.exp(-lam * ts ** a)) ** 2))

    start = (min(max(alpha0, 0.1), 1.99), min(max(lam0, 1e-6), 50.0))
    res = minimize(objective, start, bounds=[(0.05, 2.0), (1e-8, 100.0)])
    if not res.success:
        raise FitError(f"Nelder-Mead did not converge: {res.message}")
    return StableFit(alpha=float(res.x[0]), lam=float(res.x[1]),
                     residual=float(res.fun), method=method)


def fit_stable_to_cf(m: float, n: int, window: FitWindow,
                     method: str = DEFAULT_METHOD) -> StableFit:
    """Fit exp(-lambda t^alpha) to the standardized-sum CF f(t, m/n)."""
    return fit_stable_cf_values(lambda t: sum_cf(m, n, t), window, method)

