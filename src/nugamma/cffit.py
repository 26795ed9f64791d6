"""Stable-law fits to the characteristic function of standardized sums.

The CF of the standardized n-fold sum of symmetrized gamma variates
satisfies the summation identity

    f^n(t / sqrt(n)) = f(t, m/n),

so summation only moves the family parameter.  On a window (delta,
Delta) one can always sandwich

    f(t, m_eff) > exp(-lambda t^alpha) > exp(-t^2),

equivalently  log(1 + m_eff t^2) / (m_eff t^2) < lambda t^(alpha-2) < 1,
by taking lambda small enough at t = delta.  This module checks that
sandwich on a grid, reports the feasible lambda interval at delta, and
fits (alpha, lambda) to f(t, m/n) by either log-log regression or least
squares on CF values.

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

TABLE3_M = 20.0
TABLE3_N_LIST = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def minimize(objective, start, *, bounds):
    """Bounded Nelder-Mead of both stable fits: iteration cap 500, xatol =
    fatol = 1e-10; returns scipy's ``OptimizeResult``.

    scipy.optimize loads on the first call, keeping that 0.25 s import out
    of ``import nugamma``.  ``randsum`` binds this same function, and each
    module calls through its own name, so the two fits' optimizer calls
    can be replaced (or counted) one module at a time.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(objective, start, method="Nelder-Mead", bounds=bounds,
                          options={"maxiter": 500, "xatol": 1e-10, "fatol": 1e-10})


@dataclass(frozen=True)
class FitWindow:
    """t-window (delta, Delta) with the number of grid points."""

    delta: float
    Delta: float
    grid_size: int = 256

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < self.Delta):
            raise ValueError("need 0 < delta < Delta")
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


@dataclass(frozen=True)
class SandwichCheck:
    holds: bool
    violation_t: float | None = None
    violated_side: str | None = None  # "lower" or "upper"


def sum_cf(m: float, n: int, t) -> float | np.ndarray:
    """CF of the standardized n-fold sum: f(t, m/n) = (1 + (m/n) t^2)^(-n/m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SymmetrizedGamma(m / n).cf(t)


def verify_sandwich(m_eff: float, alpha: float, lam: float, window: FitWindow) -> SandwichCheck:
    """Check log(1+m t^2)/(m t^2) < lambda t^(alpha-2) < 1 on the window grid.

    Both inequalities are strict and are checked at every point of the
    log-spaced grid (a violation of the upper inequality concentrates at
    small t, of the lower one at large t, so neither end may be skipped).
    Returns the first violating grid point when the sandwich fails.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0, 2)")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    ts = window.log_grid()
    u = m_eff * ts * ts
    lower = np.log1p(u) / u
    mid = lam * ts ** (alpha - 2.0)
    bad_lower = lower >= mid
    bad_upper = mid >= 1.0
    if not (bad_lower.any() or bad_upper.any()):
        return SandwichCheck(holds=True)
    idx_l = np.argmax(bad_lower) if bad_lower.any() else len(ts)
    idx_u = np.argmax(bad_upper) if bad_upper.any() else len(ts)
    if idx_u <= idx_l:
        return SandwichCheck(holds=False, violation_t=float(ts[idx_u]), violated_side="upper")
    return SandwichCheck(holds=False, violation_t=float(ts[idx_l]), violated_side="lower")


def feasible_lambda_interval(m_eff: float, alpha: float, delta: float) -> tuple[float, float]:
    """Open interval of lambda satisfying the sandwich at t = delta.

    (delta^(2-alpha) * log(1 + m delta^2)/(m delta^2),  delta^(2-alpha));
    nonempty for every delta > 0 because log(1+u)/u < 1 for u > 0.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must be in (0, 2)")
    if not (delta > 0 and m_eff > 0):
        raise ValueError("delta and m_eff must be positive")
    u = m_eff * delta * delta
    hi = delta ** (2.0 - alpha)
    lo = hi * math.log1p(u) / u
    return lo, hi


def _loglog_fit(ts: np.ndarray, fvals: np.ndarray) -> tuple[float, float, float]:
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


def table3_sweep(m: float = TABLE3_M, n_list=TABLE3_N_LIST,
                 window: FitWindow | None = None,
                 method: str = DEFAULT_METHOD) -> list[tuple[int, StableFit]]:
    """One stable fit per summand count n; alpha and lambda grow with n.

    With the defaults (m=20, window (0.005, 0.5)) the ls-cf fits land on
    the reference sweep values; rows are independent and emitted in the
    order of ``n_list``.
    """
    window = window or FitWindow(0.005, 0.5, 256)
    return [(int(n), fit_stable_to_cf(m, int(n), window, method)) for n in n_list]
