import math

import numpy as np
import pytest

from nugamma import dist
from nugamma.dist import SymmetrizedGamma
from nugamma.specfun import QuadratureSpec, integrate, integrate_sin

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

    @pytest.mark.parametrize("nu, a", [(0.0, 0.5), (0.4, 0.9), (0.4, 0.1), (0.49, 0.99),
                                       (0.49, 0.01), (1.5, 2.0), (9.5, 10.0), (44.95, 45.45),
                                       (99.5, 100.0)])
    def test_density_against_mpmath(self, nu, a):
        # the whole density, Bessel factor and Gamma(a) included, at both
        # shapes a = 1/2 +- nu of an order below 1/2; where the exact value
        # underflows (z >= 745 or so) the density must too
        d = SymmetrizedGamma(1.0 / a)
        for z in np.geomspace(1e-8, 3e3, 12):
            x = z * d.scale
            want = float(oracles.sg_pdf_mp(x, d.m))
            got = d.pdf(x)
            if want > 1e-300:
                assert abs(got / want - 1.0) <= 1e-10, z
            else:
                assert got <= 1e-290, z

    @pytest.mark.parametrize("z", [1e-8, 50.0, 3e3])
    def test_order_999_5_against_quadrature(self, z):
        # m = 1e-3, a = 1000: mp.besselk does not converge at z = 3e3, so the
        # oracle is the cosh integral split about its peak.  ln(z^nu K) is
        # about 6.6e3 here, whose last bit is 9e-13, and ln Gamma(1000) is
        # 5.9e3: both sides are held to 1e-11 relative.
        nu = 999.5
        k = oracles.bessel_k_peak_mp(nu, z, dps=20)
        want = float(oracles.mp.log(k) + nu * oracles.mp.log(z))
        assert abs(dist._log_zk(nu, np.array([z]))[0] - want) <= 1e-11
        d = SymmetrizedGamma(1.0 / 1000.0)
        want = float(oracles.sg_pdf_mp(z * d.scale, d.m, lambda nu_, z_: k, dps=20))
        got = d.pdf(z * d.scale)
        if want > 1e-300:
            assert abs(got / want - 1.0) <= 1e-11
        else:
            assert got == 0.0


class TestIntegrate:
    @pytest.mark.parametrize("k", [0, 1, 5, 20, 40, 63])
    @pytest.mark.parametrize("a,rate", [(0.0, 1.0), (3.5, 0.2), (-2.0, 7.0)])
    def test_exact_for_polynomial_times_exponential(self, k, a, rate):
        # 32 Gauss-Laguerre nodes integrate t^k e^-t exactly for k <= 63
        got = integrate(lambda x: (x - a) ** k * np.exp(-rate * (x - a)), a, rate)
        assert got == pytest.approx(math.factorial(k) / rate ** (k + 1), rel=1e-13)

    def test_exponential(self):
        assert integrate(lambda t: np.exp(-t), 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_linearity(self):
        f = lambda t: np.exp(-t)
        g = lambda t: t * t * np.exp(-2.0 * t)
        a, b = 2.5, -1.25
        lhs = integrate(lambda t: a * f(t) + b * g(t), 0.0, 1.0)
        assert lhs == pytest.approx(a * integrate(f, 0.0, 1.0) + b * integrate(g, 0.0, 1.0),
                                    rel=1e-14)

    def test_integrand_gets_all_nodes_in_one_call(self):
        # a and rate broadcast; f sees their shape plus one axis of 32 nodes
        seen = []
        decay = lambda t: np.exp(-t)

        def f(t):
            seen.append(t.shape)
            return decay(t)

        a = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        rate = np.array([1.0, 0.5, 2.0])
        got = integrate(f, a, rate)
        assert seen == [(2, 3, 32)]
        # each point's sum has the bits of its own one-point call
        want = [[integrate(decay, a_ij, r) for a_ij, r in zip(row, rate)] for row in a]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [1.0, math.inf])
    def test_integrand_gets_one_float_at_a_time(self, b):
        # integrate_sin, the QUADPACK rule left for CF inversion, keeps the
        # scalar convention: its integrands (the oracles') use math, not numpy
        seen = []

        def f(t):
            seen.append(t)
            return math.exp(-t)

        got, _ = integrate_sin(f, 0.0, b, 3.0)
        # int_0^b e^-t sin(3t) dt = (3 - e^-b (sin 3b + 3 cos 3b)) / 10
        tail = 0.0 if b == math.inf else math.exp(-b) * (math.sin(3 * b) + 3 * math.cos(3 * b))
        assert got == pytest.approx((3.0 - tail) / 10.0, rel=1e-9)
        assert seen and all(type(t) is float for t in seen)

    def test_infinite_lower_limit(self):
        assert integrate(lambda t: np.exp(-t), math.inf, 1.0) == 0.0
        got = integrate(SymmetrizedGamma(2.0).pdf, np.array([1.0, math.inf]), 0.5)
        assert got[1] == 0.0 and got[0] > 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    @pytest.mark.parametrize("m", [0.022, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4])
    def test_sg_tail_matches_quadpack(self, m):
        # survival at 1 to 10 times a table's top, against QUADPACK held to a
        # relative-only tolerance, so that tiny tails are checked too
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-10, max_subdivisions=400)
        d = SymmetrizedGamma(m)
        for k in (1.0, 1.5, 3.0, 10.0):
            x = k * dist._TABLE_TOP_SCALES * d.scale
            expect, _ = oracles.quadpack(d.pdf, x, math.inf, spec)
            assert d.survival(x) == pytest.approx(expect, rel=1e-13, abs=0.0), (m, k)
