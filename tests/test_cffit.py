import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from nugamma import cffit
from nugamma.cffit import (
    FitWindow,
    feasible_lambda_interval,
    minimize,
    fit_stable_cf_values,
    fit_stable_to_cf,
    sum_cf,
)
from nugamma.dist import SymmetricStable, SymmetrizedGamma
from nugamma.errors import FitError
from nugamma.randsum import fit_stable_to_ecdf

import oracles


class TestSumCf:
    def test_identity_at_n1(self):
        ts = np.linspace(-3.0, 3.0, 31)
        np.testing.assert_allclose(sum_cf(7.0, 1, ts), SymmetrizedGamma(7.0).cf(ts), rtol=1e-15)

    def test_direct_substitution(self):
        assert sum_cf(20.0, 10, 1.0) == pytest.approx(3.0 ** -0.5, rel=1e-14)

    @pytest.mark.parametrize("m", [1.0, 5.0, 20.0, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_summation_identity(self, m, n):
        # f^n(t / sqrt(n)) = f(t, m/n) on a wide grid
        ts = np.linspace(-10.0, 10.0, 401)
        lhs = SymmetrizedGamma(m).cf(ts / math.sqrt(n)) ** n
        rhs = sum_cf(m, n, ts)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sum_cf(5.0, 0, 1.0)


def _sides(m_eff, alpha, lam, window) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point, log(1 + m t^2)/(m t^2) < lambda t^(alpha-2) and
    lambda t^(alpha-2) < 1: the lower and the upper half of the sandwich."""
    ts = window.log_grid()
    u = m_eff * ts * ts
    mid = lam * ts ** (alpha - 2.0)
    return np.log1p(u) / u < mid, mid < 1.0


def _holds(m_eff, alpha, lam, window) -> bool:
    lower, upper = _sides(m_eff, alpha, lam, window)
    return bool(lower.all() and upper.all())


# log-uniform delta and relative window width, so that narrow windows,
# on which the interval is often nonempty, are drawn as often as wide ones
_WINDOWS = st.builds(lambda delta, width, size: FitWindow(delta, delta * (1.0 + width), size),
                     st.floats(math.log(1e-4), 0.0).map(math.exp),
                     st.floats(math.log(1e-12), math.log(1e3)).map(math.exp),
                     st.integers(8, 256))


class TestVerifySandwich:
    """The sandwich, verified through the interval of feasible lambdas."""

    def test_upper_violation_at_delta(self):
        # lambda = delta^(2-alpha) is the interval's open upper end
        alpha = 1.3
        lam = 0.005 ** (2.0 - alpha)
        lo, hi = feasible_lambda_interval(20.0, alpha, FitWindow(0.005, 0.5, 64))
        assert hi == lam and not lo < lam < hi

    def test_lower_violation_for_tiny_lambda(self):
        w = FitWindow(0.005, 0.5, 64)
        assert 1e-12 < feasible_lambda_interval(20.0, 1.3, w)[0]
        assert not _sides(20.0, 1.3, 1e-12, w)[0].all()

    def test_feasible_lambda_passes_at_delta(self):
        # narrow window around delta: any lambda inside the interval
        # satisfies both inequalities at every grid point
        w = FitWindow(0.005, 0.005 * 1.000001, 8)
        lo, hi = feasible_lambda_interval(20.0, 1.5, w)
        assert lo < hi
        assert _holds(20.0, 1.5, 0.5 * (lo + hi), w)

    def test_reference_row_fails_sandwich_on_full_window(self):
        # no lambda sandwiches f(t, 20/n) on (0.005, 0.5) at a reference
        # row's alpha; the reference lambda itself breaks the upper
        # inequality, lambda t^(alpha-2) >= 1, at t = delta (n = 1: lo
        # 0.2373, hi 0.0208)
        w = FitWindow(0.005, 0.5, 256)
        for n, (alpha, lam) in oracles.TABLE3_REFERENCE.items():
            lo, hi = feasible_lambda_interval(20.0 / n, alpha, w)
            assert lo > hi and lam >= hi, n
        assert feasible_lambda_interval(20.0, 1.26906, w) == pytest.approx((0.23733, 0.020801),
                                                                          rel=1e-4)

    def test_validation(self):
        for m_eff, alpha in [(20.0, 2.0), (20.0, 0.0), (0.0, 1.5), (-1.0, 1.5), (math.inf, 1.5)]:
            with pytest.raises(ValueError):
                feasible_lambda_interval(m_eff, alpha, FitWindow(0.01, 0.5))


class TestFeasibleLambdaInterval:
    @pytest.mark.parametrize("m_eff", [0.2, 1.0, 20.0, 500.0])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.95])
    @pytest.mark.parametrize("delta", [0.001, 0.05, 0.8])
    def test_nonempty(self, m_eff, alpha, delta):
        # a window of relative width 1e-12 gives the interval at t = delta,
        # (delta^(2-alpha) log(1+u)/u, delta^(2-alpha)) with u = m delta^2;
        # at small u it stays nonempty only while the width is below about
        # u / (2(2-alpha)), which 1e-6 is not for 5 of these cases
        lo, hi = feasible_lambda_interval(m_eff, alpha, FitWindow(delta, delta * (1 + 1e-12), 8))
        u = m_eff * delta * delta
        assert 0.0 < lo < hi
        assert hi == delta ** (2.0 - alpha)
        assert lo == pytest.approx(hi * math.log1p(u) / u, rel=1e-9)

    def test_alpha_to_two_limit(self):
        m_eff, delta = 20.0, 0.01
        u = m_eff * delta * delta
        lo, hi = feasible_lambda_interval(m_eff, 1.9999999,
                                          FitWindow(delta, delta * (1 + 1e-12), 8))
        assert hi == pytest.approx(1.0, abs=1e-5)
        assert lo == pytest.approx(math.log1p(u) / u, rel=1e-5)

    @given(st.floats(math.log(1e-2), math.log(1e3)).map(math.exp), st.floats(0.05, 1.99),
           _WINDOWS, st.floats(0.001, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_interval_is_the_sandwich(self, m_eff, alpha, window, frac):
        lo, hi = feasible_lambda_interval(m_eff, alpha, window)
        # lambda exactly at lo or hi is decided by rounding, hence the margins
        assert not _sides(m_eff, alpha, hi * (1 + 1e-9), window)[1][0]  # fails at delta
        assert not _sides(m_eff, alpha, lo * (1 - 1e-9), window)[0].all()
        assume(hi - lo > 1e-9 * hi)
        assert _holds(m_eff, alpha, lo + frac * (hi - lo), window)


class TestFitStable:
    def test_exact_stable_recovery(self):
        # log-log regression is exactly linear for a pure stable CF
        alpha0, lam0 = 1.42, 0.37
        cf = lambda t: np.exp(-lam0 * np.asarray(t) ** alpha0)
        fit = fit_stable_cf_values(cf, FitWindow(0.005, 0.5, 256), "loglog-regression")
        assert fit.alpha == pytest.approx(alpha0, abs=1e-6)
        assert fit.lam == pytest.approx(lam0, abs=1e-6)
        fit2 = fit_stable_cf_values(cf, FitWindow(0.005, 0.5, 256), "ls-cf")
        assert fit2.alpha == pytest.approx(alpha0, abs=1e-5)
        assert fit2.lam == pytest.approx(lam0, abs=1e-5)

    def test_clt_limit(self):
        # f(t, m/n) -> exp(-t^2): alpha -> 2, lambda -> 1
        fit = fit_stable_to_cf(20.0, 10 ** 5, FitWindow(0.005, 0.5, 256), "ls-cf")
        assert fit.alpha > 1.99
        assert fit.lam == pytest.approx(1.0, abs=0.01)

    def test_underflow_window_raises(self):
        with pytest.raises(FitError):
            fit_stable_to_cf(20.0, 1, FitWindow(1e-200, 1e-150, 16))

    def test_bad_method(self):
        with pytest.raises(ValueError):
            fit_stable_to_cf(20.0, 1, FitWindow(0.005, 0.5), "nope")

    def test_nonconvergence_raises(self, monkeypatch, stalled_minimize):
        monkeypatch.setattr(cffit, "minimize", stalled_minimize)
        w = FitWindow(0.005, 0.5, 256)
        with pytest.raises(FitError, match="did not converge"):
            fit_stable_to_cf(20.0, 10, w, "ls-cf")
        # the regression method runs no optimizer
        assert fit_stable_to_cf(20.0, 10, w, "loglog-regression").alpha > 1.0


class TestWindowValidation:
    def test_bad_windows(self):
        with pytest.raises(ValueError):
            FitWindow(0.5, 0.005)
        with pytest.raises(ValueError, match="Delta < inf"):
            FitWindow(0.005, math.inf)
        with pytest.raises(ValueError):
            FitWindow(0.0, 0.5)
        with pytest.raises(ValueError):
            FitWindow(0.005, 0.5, 4)


def _rosenbrock(x) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestMinimize:
    """The package Nelder-Mead against scipy's, run at the same options."""

    @pytest.mark.parametrize("start, bounds, converges", [
        ((-1.2, 1.0), [(-2.0, 2.0), (-1.0, 3.0)], True),  # interior start and optimum
        ((2.0, 0.5), [(-2.0, 2.0), (-1.0, 3.0)], True),   # on an upper bound: reflected simplex
        ((0.0,) * 5, [(-2.0, 2.0)] * 5, False),           # 5-d: exhausts the iteration cap
    ], ids=["interior", "upper-bound-start", "iteration-cap"])
    def test_matches_scipy_step_for_step(self, start, bounds, converges):
        ref = scipy_minimize(_rosenbrock, start, method="Nelder-Mead", bounds=bounds,
                             options={"maxiter": 500, "xatol": 1e-10, "fatol": 1e-10})
        res = minimize(_rosenbrock, start, bounds=bounds)
        assert res.x.tolist() == ref.x.tolist()
        assert (res.fun, res.nit, res.nfev, res.success) == (ref.fun, ref.nit, ref.nfev,
                                                             ref.success)
        assert res.message == ref.message
        assert res.success is converges

    def test_exhausted_cap_fails_both_fits(self, monkeypatch):
        # the real optimizer with too few iterations for either fit
        monkeypatch.setattr(cffit, "_NM_MAXITER", 5)
        assert not minimize(_rosenbrock, (-1.2, 1.0), bounds=[(-2.0, 2.0)] * 2).success
        with pytest.raises(FitError, match="Maximum number of iterations"):
            fit_stable_to_cf(20.0, 10, FitWindow(0.005, 0.5, 256))
        grid = np.linspace(-6.0, 6.0, 64)
        with pytest.raises(FitError, match="Maximum number of iterations"):
            fit_stable_to_ecdf(grid, SymmetricStable(1.5, 0.8).cdf_grid(grid), (1.9, 0.5))
