import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from nugamma import cffit
from nugamma.cffit import (
    FitWindow,
    feasible_lambda_interval,
    minimize,
    fit_stable_cf_values,
    fit_stable_to_cf,
    sum_cf,
    verify_sandwich,
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


class TestVerifySandwich:
    def test_upper_violation_at_delta(self):
        # lambda >= delta^(2-alpha): the upper inequality fails right at t=delta
        w = FitWindow(0.005, 0.5, 64)
        alpha = 1.3
        lam = 0.005 ** (2.0 - alpha)  # equality -> strict check fails
        chk = verify_sandwich(20.0, alpha, lam, w)
        assert not chk.holds
        assert chk.violated_side == "upper"
        assert chk.violation_t == pytest.approx(0.005, rel=1e-12)

    def test_lower_violation_for_tiny_lambda(self):
        chk = verify_sandwich(20.0, 1.3, 1e-12, FitWindow(0.005, 0.5, 64))
        assert not chk.holds
        assert chk.violated_side == "lower"

    def test_feasible_lambda_passes_at_delta(self):
        # narrow window around delta: any lambda inside the feasibility
        # interval satisfies both inequalities there
        delta = 0.005
        lo, hi = feasible_lambda_interval(20.0, 1.5, delta)
        lam = 0.5 * (lo + hi)
        w = FitWindow(delta, delta * 1.000001, 8)
        assert verify_sandwich(20.0, 1.5, lam, w).holds

    def test_reference_row_fails_sandwich_on_full_window(self):
        # the reference n=1 fit (alpha=1.26906, lambda=0.226565) does NOT
        # satisfy the sandwich on (0.005, 0.5): lambda t^(alpha-2) >= 1
        # for t below lambda^(1/(2-alpha)) ~ 0.131, so the upper
        # inequality fails over the lower part of the window
        chk = verify_sandwich(20.0, 1.26906, 0.226565, FitWindow(0.005, 0.5, 256))
        assert not chk.holds
        assert chk.violated_side == "upper"
        t_star = 0.226565 ** (1.0 / (2.0 - 1.26906))
        assert chk.violation_t < t_star

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_sandwich(20.0, 2.0, 0.1, FitWindow(0.01, 0.5))
        with pytest.raises(ValueError):
            verify_sandwich(20.0, 1.5, 0.0, FitWindow(0.01, 0.5))


class TestFeasibleLambdaInterval:
    @pytest.mark.parametrize("m_eff", [0.2, 1.0, 20.0, 500.0])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.95])
    @pytest.mark.parametrize("delta", [0.001, 0.05, 0.8])
    def test_nonempty(self, m_eff, alpha, delta):
        lo, hi = feasible_lambda_interval(m_eff, alpha, delta)
        assert 0.0 < lo < hi

    def test_alpha_to_two_limit(self):
        m_eff, delta = 20.0, 0.01
        u = m_eff * delta * delta
        lo, hi = feasible_lambda_interval(m_eff, 1.9999999, delta)
        assert hi == pytest.approx(1.0, abs=1e-5)
        assert lo == pytest.approx(math.log1p(u) / u, rel=1e-5)


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

    def test_reference_endpoint_rows(self):
        w = FitWindow(0.005, 0.5, 256)
        f1 = fit_stable_to_cf(20.0, 1, w, "ls-cf")
        assert f1.alpha == pytest.approx(1.26906, abs=0.05)
        assert f1.lam == pytest.approx(0.226565, abs=0.1)
        f100 = fit_stable_to_cf(20.0, 100, w, "ls-cf")
        assert f100.alpha == pytest.approx(1.976, abs=0.05)
        assert f100.lam == pytest.approx(0.961771, abs=0.1)

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


class TestTable3Sweep:
    """The reference sweep: one ls-cf fit per n at m = 20 over (0.005, 0.5)."""

    @staticmethod
    def _sweep():
        w = FitWindow(0.005, 0.5, 256)
        return [(n, fit_stable_to_cf(20.0, n, w)) for n in sorted(oracles.TABLE3_REFERENCE)]

    def test_matches_reference_within_tolerance(self):
        for n, fit in self._sweep():
            ra, rl = oracles.TABLE3_REFERENCE[n]
            assert fit.alpha == pytest.approx(ra, abs=0.05), n
            assert fit.lam == pytest.approx(rl, abs=0.1), n

    def test_columns_strictly_increasing(self):
        rows = self._sweep()
        alphas = [f.alpha for _, f in rows]
        lams = [f.lam for _, f in rows]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert all(b > a for a, b in zip(lams, lams[1:]))


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
            fit_stable_to_ecdf(grid, SymmetricStable(1.5, 0.8).cdf_grid(grid))
