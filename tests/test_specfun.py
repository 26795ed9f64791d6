import math

import numpy as np
import pytest

from nugamma import dist
from nugamma.dist import SymmetrizedGamma
from nugamma.errors import IntegrationError
from nugamma.specfun import QuadratureSpec, integrate

import oracles

# The density of shape a = 1/m is
#     pdf(x) = 2^(1/2-a) z^(a-1/2) K_{|a-1/2|}(z) / (sqrt(pi) Gamma(a) s),  z = |x|/s,
# with s = sqrt(m).  The log-gamma and Bessel-K checks below read those
# two factors back off SymmetrizedGamma.pdf.


def _log_norm(a: float, z: float, s: float) -> float:
    """ln of the density's factors other than K and 1/Gamma(a)."""
    return (0.5 - a) * math.log(2.0) - 0.5 * math.log(math.pi) - math.log(s) \
        + (a - 0.5) * math.log(z)


def log_gamma_via_pdf(a: float) -> float:
    """ln Gamma(a) from the density of shape a, with mpmath's K at z = a + 1."""
    d = SymmetrizedGamma(1.0 / a)
    z = a + 1.0
    log_k = float(oracles.mp.log(oracles.bessel_k_mp(abs(a - 0.5), z)))
    return _log_norm(a, z, d.scale) + log_k - math.log(d.pdf(z * d.scale))


def bessel_k_via_pdf(nu: float, x: float) -> float:
    """K_nu(x) from the density of the shape a with |a - 1/2| = |nu|.

    Orders in (-1/2, 1/2) map to a = nu + 1/2, so negative and positive
    orders go through the m > 2 and m < 2 forms of the density.
    """
    a = nu + 0.5 if nu > -0.5 else 0.5 - nu
    d = SymmetrizedGamma(1.0 / a)
    return d.pdf(x * d.scale) / math.exp(_log_norm(a, x, d.scale) - math.lgamma(a))


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma_via_pdf(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert log_gamma_via_pdf(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_small_argument_oracle(self):
        assert log_gamma_via_pdf(0.1) == pytest.approx(oracles.LOG_GAMMA_01, rel=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.03, 0.2, 1.7, 9.5, 42.0, 99.0, 170.0])
    def test_relative_accuracy(self, x):
        exact = float(oracles.log_gamma_mp(x))
        if exact == 0.0:
            assert abs(log_gamma_via_pdf(x)) < 1e-13
        else:
            assert abs(log_gamma_via_pdf(x) - exact) <= 1e-13 * abs(exact)

    def test_functional_equation(self):
        xs = np.geomspace(0.02, 160.0, 40)
        for x in xs:
            lhs = log_gamma_via_pdf(x + 1.0) - log_gamma_via_pdf(x)
            assert lhs == pytest.approx(math.log(x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        # Gamma(1/m) needs m > 0
        with pytest.raises(ValueError):
            SymmetrizedGamma(x)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(z) = sqrt(pi / 2z) e^{-z}
        expect = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
        assert bessel_k_via_pdf(0.5, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_order_symmetry(self):
        # shapes 0.1 (m = 10) and 0.9 share the order 0.4
        assert bessel_k_via_pdf(-0.4, 1.0) == pytest.approx(bessel_k_via_pdf(0.4, 1.0), rel=1e-13)

    def test_integral_representation_oracle(self):
        assert bessel_k_via_pdf(0.4, 1.0) == pytest.approx(oracles.BESSEL_K_04_1, rel=1e-12)
        live = float(oracles.bessel_k_integral_mp(0.4, 1.0))
        assert bessel_k_via_pdf(0.4, 1.0) == pytest.approx(live, rel=1e-12)

    @pytest.mark.parametrize("nu", [-1.0, -0.45, 0.0, 0.13, 0.5, 0.99])
    @pytest.mark.parametrize("x", [1e-3, 0.4, 3.0, 60.0])
    def test_relative_accuracy(self, nu, x):
        exact = float(oracles.bessel_k_mp(nu, x))
        assert abs(bessel_k_via_pdf(nu, x) - exact) <= 1e-10 * abs(exact)

    def test_recurrence(self):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        for nu in (-0.3, 0.0, 0.25, 0.5):
            for x in np.geomspace(0.05, 50.0, 12):
                lhs = bessel_k_via_pdf(nu + 1.0, x)
                rhs = bessel_k_via_pdf(nu - 1.0, x) + (2.0 * nu / x) * bessel_k_via_pdf(nu, x)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_underflow_signal(self):
        assert bessel_k_via_pdf(0.3, 800.0) == 0.0

    @pytest.mark.parametrize("x", [0.0, -2.0])
    def test_domain_error(self, x):
        # the Bessel argument |x| / sqrt(m) needs m > 0
        with pytest.raises(ValueError):
            SymmetrizedGamma(x)


class TestIntegrate:
    def test_exponential(self):
        v, err = integrate(lambda t: math.exp(-t), 0.0, math.inf)
        assert v == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-8

    def test_gaussian(self):
        v, _ = integrate(lambda t: math.exp(-t * t), 0.0, math.inf)
        assert v == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_endpoint_singularity(self):
        v, _ = integrate(lambda t: t ** -0.4, 0.0, 1.0)
        assert v == pytest.approx(1.0 / 0.6, rel=1e-9)

    def test_linearity(self):
        f = lambda t: math.exp(-t)
        g = lambda t: math.exp(-t * t)
        a, b = 2.5, -1.25
        lhs, _ = integrate(lambda t: a * f(t) + b * g(t), 0.0, math.inf)
        vf, _ = integrate(f, 0.0, math.inf)
        vg, _ = integrate(g, 0.0, math.inf)
        assert lhs == pytest.approx(a * vf + b * vg, abs=1e-9)

    def test_non_convergence_error(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(IntegrationError):
            integrate(lambda t: math.sin(1e4 * t), 0.0, 1.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_one_panel_raises_where_bisection_converges(self):
        f = lambda t: math.sin(50.0 * t)
        v, _ = integrate(f, 0.0, 1.0)
        assert v == pytest.approx((1.0 - math.cos(50.0)) / 50.0, rel=1e-10)
        with pytest.raises(IntegrationError, match="did not converge"):
            integrate(f, 0.0, 1.0, QuadratureSpec(max_subdivisions=1))

    @pytest.mark.parametrize("b", [1.0, math.inf])
    def test_integrand_gets_one_float_at_a_time(self, b):
        seen = []

        def f(t):
            seen.append(t)
            return math.exp(-t)

        integrate(f, 0, b)
        assert seen and all(type(t) is float for t in seen)

    def test_infinite_lower_limit(self):
        with pytest.raises(ValueError, match="lower limit"):
            integrate(lambda t: math.exp(t), -math.inf, 0.0)
        assert integrate(lambda t: math.exp(-t), math.inf, math.inf) == (0.0, 0.0)

    @pytest.mark.parametrize("m", [50.0, 100.0])
    def test_strong_endpoint_singularity_raises(self, m):
        # near 0 the density is |x|^(2/m - 1); QUADPACK's epsilon
        # extrapolation reaches the tolerance, bisection alone does not
        pdf = SymmetrizedGamma(m).pdf
        with pytest.raises(IntegrationError, match="did not converge"):
            integrate(pdf, 0.0, 5.0)

    @pytest.mark.parametrize("m", [0.022, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4])
    def test_sg_tail_matches_quadpack(self, m):
        # the tail of every CDF table, at 1 to 10 times the table's top
        d = SymmetrizedGamma(m)
        for k in (1.0, 1.5, 3.0, 10.0):
            x = k * dist._TABLE_TOP_SCALES * d.scale
            got, _ = integrate(d.pdf, x, math.inf, dist._TAIL_SPEC)
            expect, _ = oracles.quadpack(d.pdf, x, math.inf, dist._TAIL_SPEC)
            assert got == pytest.approx(expect, rel=1e-13, abs=0.0), (m, k)
