import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from nugamma import dist
from nugamma.dist import GaussExtremalMixture, SymmetricStable, SymmetrizedGamma
from nugamma.diagnostics import ks_critical_value, ks_distance
from nugamma.errors import IntegrationError
from nugamma.parallel import child_rng

import oracles

SEED = 0x5EED

STABLE_ALPHAS = (0.3, 0.5, 0.8, 0.9, 0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01,
                 1.1, 1.2, 1.5, 1.9, 1.9999)


class TestSymmetrizedGammaCF:
    def test_at_zero(self):
        for m in (0.5, 1.0, 7.0, 100.0):
            assert SymmetrizedGamma(m).cf(0.0) == 1.0

    def test_laplace_point(self):
        assert SymmetrizedGamma(1.0).cf(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_direct_substitution(self):
        assert SymmetrizedGamma(4.0).cf(1.0) == pytest.approx(5.0 ** -0.25, rel=1e-14)

    def test_even(self):
        d = SymmetrizedGamma(3.0)
        t = np.linspace(0.1, 8.0, 23)
        np.testing.assert_allclose(d.cf(t), d.cf(-t), rtol=0, atol=0)

    def test_gaussian_lower_bound(self):
        # f(t, m) >= exp(-t^2), equality only at t = 0
        ts = np.linspace(-6.0, 6.0, 241)
        for m in (0.5, 1.0, 2.0, 10.0, 50.0, 100.0):
            f = SymmetrizedGamma(m).cf(ts)
            g = np.exp(-ts * ts)
            assert np.all(f >= g)
            assert np.all((f > g) | (ts == 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SymmetrizedGamma(0.0)
        with pytest.raises(ValueError):
            SymmetrizedGamma(-3.0)
        with pytest.raises(ValueError, match="m must be finite and positive"):
            SymmetrizedGamma(math.inf)
        with pytest.raises(ValueError, match="m must be finite and positive"):
            SymmetrizedGamma(math.nan)


class TestSymmetrizedGammaPdf:
    def test_laplace_at_zero(self):
        assert SymmetrizedGamma(1.0).pdf(0.0) == pytest.approx(0.5, rel=1e-13)

    def test_laplace_closed_form(self):
        assert SymmetrizedGamma(1.0).pdf(2.0) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)

    def test_cf_inversion_oracle(self):
        # density and CF inversion agree through two unrelated routes
        for (m, x), expect in oracles.SG_PDF_CF_INVERSION.items():
            got = SymmetrizedGamma(float(m)).pdf(x)
            assert got == pytest.approx(expect, rel=1e-7), (m, x)

    def test_singularity_signal(self):
        assert SymmetrizedGamma(10.0).pdf(0.0) == math.inf
        assert SymmetrizedGamma(2.0).pdf(0.0) == math.inf  # K_0 log divergence

    def test_finite_at_zero_below_two(self):
        d = SymmetrizedGamma(1.5)
        v = d.pdf(0.0)
        assert math.isfinite(v) and v > 0
        # approaches the limit from below with an |x|^(1/3) cusp
        assert d.pdf(1e-12) == pytest.approx(v, rel=1e-3)
        assert d.pdf(1e-12) < v

    @pytest.mark.parametrize("m", [0.022, 0.1, 0.5, 1.0, 1.9])
    def test_finite_near_zero_below_two(self, m):
        # the Bessel form overflows at tiny |x| (|x| <= 1e-7 at m = 0.022)
        a, mp = 1.0 / m, oracles.mp
        mp.mp.dps = 30
        xs = np.logspace(-320, -6)
        for x, got in zip(xs, SymmetrizedGamma(m).pdf(xs)):
            z = mp.mpf(float(x)) / mp.sqrt(m)
            expect = float(mp.power(2, 0.5 - a) * mp.power(z, a - 0.5)
                           * oracles.bessel_k_mp(abs(a - 0.5), z)
                           / (mp.sqrt(mp.pi) * mp.gamma(a) * mp.sqrt(m)))
            assert math.isfinite(got) and got == pytest.approx(expect, rel=1e-12, abs=0.0), x

    def test_symmetry(self):
        d = SymmetrizedGamma(7.0)
        for x in (0.2, 1.0, 3.7, 12.0):
            assert d.pdf(x) == d.pdf(-x)

    def test_far_tail_underflows_to_zero(self):
        assert SymmetrizedGamma(1.0).pdf(1e4) == 0.0

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 10.0])
    def test_zero_at_infinity(self, m):
        # the log form is inf - inf there; a RuntimeWarning would fail the test
        d = SymmetrizedGamma(m)
        assert d.pdf(math.inf) == 0.0 and d.pdf(-math.inf) == 0.0
        got = d.pdf(np.array([-math.inf, 1.0, math.inf]))
        assert np.array_equal(got, [0.0, d.pdf(1.0), 0.0])


class TestSymmetrizedGammaCdf:
    def test_symmetry_at_zero(self):
        for m in (0.5, 2.0, 50.0):
            assert SymmetrizedGamma(m).cdf(0.0) == 0.5

    def test_laplace_closed_form(self):
        assert SymmetrizedGamma(1.0).cdf(2.0) == pytest.approx(oracles.SG_CDF_M1_X2, abs=1e-11)

    def test_m50_oracle_point(self):
        assert SymmetrizedGamma(50.0).cdf(5.0) == pytest.approx(oracles.SG_CDF_M50_X5, abs=1e-9)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0, 50.0, 100.0])
    def test_reflection(self, m):
        d = SymmetrizedGamma(m)
        for x in (1e-8, 0.3, 1.0, 4.0, 7.5, 20.0):
            assert d.cdf(x) + d.cdf(-x) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0, 50.0, 100.0])
    def test_normalization(self, m):
        # two independent quadratures of the density: QUADPACK over (0, 5)
        # and the table's survival at 5 must sum to exactly half the mass
        d = SymmetrizedGamma(m)
        center, _ = oracles.quadpack(d.pdf, 0.0, 5.0)
        assert center + d.survival(5.0) == pytest.approx(0.5, abs=1e-8)

    def test_infinite_arguments(self):
        d = SymmetrizedGamma(1.0)
        assert d.survival(math.inf) == 0.0 and d.cdf(-math.inf) == 0.0
        assert d.cdf(math.inf) == 1.0

    def test_monotone(self):
        d = SymmetrizedGamma(10.0)
        xs = np.linspace(-9.0, 9.0, 61)
        vals = [d.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_series_region_continuity(self):
        # the small-x series and the quadrature route agree where both
        # apply; the quadrature sums the panel masses down from the adaptive
        # tail, so agreement also checks that the density has total mass 1
        for m in (0.5, 1.0, 2.0, 10.0, 50.0, 100.0):
            d = SymmetrizedGamma(m)
            x = 2e-6  # just above the series cutoff
            series_val = 0.5 + d._cdf_series_delta(x)
            assert d.cdf(x) == pytest.approx(series_val, abs=1e-8)

    def test_near_zero_mass_concentration(self):
        # for large m a macroscopic fraction of the mass sits within
        # microscopic |x|; value frozen from the mixture-form oracle
        assert SymmetrizedGamma(50.0).cdf(1.1e-6) == pytest.approx(
            0.773508440868216, abs=1e-9)

    @pytest.mark.parametrize("m,x", [(10.0, 200.0), (1.0, 75.0), (10.0, 316.0), (50.0, 707.0),
                                     (100.0, 1000.0)])
    def test_tail_beyond_table_top_relative(self, m, x):
        # x lies beyond the 50 sqrt(m) table top: the adaptive tail alone
        # must keep relative accuracy there, however small the survival
        d = SymmetrizedGamma(m)
        assert x > d._cdf_table._top
        want = float(oracles.sg_tail_mp(x, m))
        assert abs(d.survival(x) / want - 1.0) <= 1e-8

    @pytest.mark.parametrize("m,x", list(oracles.SG_DEEP_TAIL))
    @pytest.mark.parametrize("dps", [15, 20])
    def test_tail_oracle_converges(self, m, x, dps):
        # with fixed breakpoints and an unscaled integrand these deep tails
        # were 1.5e-5 to 2.5e-5 off, at every precision alike
        got = oracles.sg_tail_mp(x, m, dps=dps)
        assert abs(float(got) / oracles.SG_DEEP_TAIL[m, x] - 1.0) <= 1e-13

    def test_interpolator_is_cdf(self):
        # the law keeps one table: the interpolator is cdf, whatever x_max
        for m in (1.0, 2.0, 50.0):
            d = SymmetrizedGamma(m)
            top = d._cdf_table._top
            xs = np.array([-1.2 * top, -8.0, -1e-7, 0.0, 2e-7, 0.5, 3.3, 11.0, 1.5 * top])
            for x_max in (0.5, 12.0, 2.0 * top):
                assert np.array_equal(d.cdf_interpolator(x_max)(xs), d.cdf(xs))

    @pytest.mark.parametrize("m", [0.5, 2.0, 50.0])
    def test_array_matches_scalar(self, m):
        # negative, zero, series-region, panel and beyond-the-top points in
        # one n-d call: bit for bit the scalar values, shape kept
        d = SymmetrizedGamma(m)
        top = d._cdf_table._top
        xs = np.array([[-1.2 * top, -3.0, -1e-7, 0.0],
                       [5e-7, 2e-6, 0.7, 1.1 * top]])
        for view in (d.survival, d.cdf):
            got = view(xs)
            assert got.shape == xs.shape
            want = np.array([view(float(x)) for x in xs.ravel()]).reshape(xs.shape)
            assert np.array_equal(got, want)

    def test_zero_dim_input_gives_float(self):
        d = SymmetrizedGamma(10.0)
        for view in (d.survival, d.cdf):
            got = view(np.array(-1.5))
            assert type(got) is float
            assert got == view(-1.5)

    def test_more_points_than_one_block(self):
        d = SymmetrizedGamma(10.0)
        n = dist._SPLIT_BLOCK + 1000
        xs = np.linspace(-40.0, 40.0, n)
        got = d.survival(xs)
        picks = np.r_[0:n:997, dist._SPLIT_BLOCK - 1:dist._SPLIT_BLOCK + 2, n - 1]
        want = np.array([d.survival(float(xs[i])) for i in picks])
        assert np.array_equal(got[picks], want)


class TestExceedProbabilities:
    def test_true_sigma_values(self):
        for m, expect in oracles.SG_EXCEED_TRUE_SIGMA.items():
            got = SymmetrizedGamma(float(m)).two_sided_exceed(10.0)
            assert got == pytest.approx(expect, rel=1e-8)

    def test_reference_table_convention(self):
        for m, expect in oracles.SG_EXCEED_TABLE.items():
            got = SymmetrizedGamma(float(m)).two_sided_exceed(10.0, unit="sigma_squared")
            assert got == pytest.approx(expect, rel=1e-9)

    def test_reference_table_printed_values(self):
        # printed reference values carry ~6 significant figures
        for m, printed in oracles.TABLE1_REFERENCE.items():
            got = SymmetrizedGamma(float(m)).two_sided_exceed(10.0, unit="sigma_squared")
            assert got == pytest.approx(printed, rel=5e-6)

    def test_monotone_in_m(self):
        vals = [SymmetrizedGamma(float(m)).two_sided_exceed(10.0, unit="sigma_squared")
                for m in range(10, 101, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_near_zero_threshold(self):
        # approaches 1 only where the density is bounded near 0 (small m);
        # at larger m the near-zero mass concentration keeps it visibly
        # below 1 (m=5 value frozen from the mixture-form oracle)
        assert SymmetrizedGamma(1.0).two_sided_exceed(1e-4) == pytest.approx(1.0, abs=2e-4)
        assert SymmetrizedGamma(5.0).two_sided_exceed(1e-4) == pytest.approx(
            0.9708995322142528, rel=1e-10)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            SymmetrizedGamma(5.0).two_sided_exceed(-1.0)
        with pytest.raises(ValueError):
            SymmetrizedGamma(5.0).two_sided_exceed(1.0, unit="nope")


class TestMoments:
    def test_kurtosis_formula(self):
        assert SymmetrizedGamma(1.0).kurtosis == 6.0
        assert SymmetrizedGamma(100.0).kurtosis == 303.0
        assert SymmetrizedGamma(1e-9).kurtosis == pytest.approx(3.0, abs=1e-8)

    def test_kurtosis_exceeds_normal(self):
        # infinitely divisible non-normal law: kurtosis strictly above 3
        for m in (1e-6, 0.5, 1.0, 10.0, 1000.0):
            assert SymmetrizedGamma(m).kurtosis > 3.0

    def test_variance_constant(self):
        for m in (0.5, 3.0, 77.0):
            d = SymmetrizedGamma(m)
            assert d.variance == 2.0
            assert d.sigma == math.sqrt(2.0)


class TestSymmetrizedGammaSampler:
    def test_variance_all_m(self):
        rng = child_rng(SEED, 5)
        for m in (1.0, 10.0):
            x = SymmetrizedGamma(m).sample(rng, 10 ** 6)
            assert x.var() == pytest.approx(2.0, abs=0.03)

    def test_kurtosis_m10(self):
        rng = child_rng(SEED, 6)
        x = SymmetrizedGamma(10.0).sample(rng, 10 ** 6)
        c = x - x.mean()
        kurt = np.mean(c ** 4) / np.mean(c ** 2) ** 2
        assert kurt == pytest.approx(33.0, abs=3.0)

    def test_exceed_fraction_matches_table_row(self):
        # m=50 reference row under the table threshold convention (2k)
        rng = child_rng(SEED, 7)
        x = SymmetrizedGamma(50.0).sample(rng, 10 ** 6)
        p = oracles.SG_EXCEED_TABLE[50]
        frac = np.mean(np.abs(x) > 20.0)
        se = math.sqrt(p * (1 - p) / 10 ** 6)
        assert abs(frac - p) <= 3 * se

    def test_ks_against_analytic_cdf(self):
        rng = child_rng(SEED, 8)
        d = SymmetrizedGamma(10.0)
        x = d.sample(rng, 10 ** 5)
        assert ks_distance(x, d.cdf) < ks_critical_value(10 ** 5)


class TestSymmetricStable:
    def test_cf_examples(self):
        assert SymmetricStable(1.3, 0.7).cf(0.0) == 1.0
        assert SymmetricStable(2.0, 1.0).cf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert SymmetricStable(1.8, 0.5).cf(2.0) == pytest.approx(
            math.exp(-0.5 * 2.0 ** 1.8), rel=1e-14)

    def test_cdf_at_zero(self):
        assert SymmetricStable(1.4, 0.9).cdf(0.0) == 0.5

    def test_cauchy_closed_form(self):
        got = SymmetricStable(1.0, 1.0).cdf(1.0)
        assert got == pytest.approx(0.75, abs=1e-8)

    def test_normal_closed_form(self):
        got = SymmetricStable(2.0, 1.0).cdf(1.0)
        assert got == pytest.approx(0.7602499389065233, abs=1e-8)

    def test_external_oracle_points(self):
        for (alpha, lam, x), expect in oracles.STABLE_CDF_POINTS.items():
            assert SymmetricStable(alpha, lam).cdf(x) == pytest.approx(expect, abs=1e-7)

    def test_reflection(self):
        s = SymmetricStable(1.7, 0.6)
        for x in (0.3, 1.0, 2.5, 8.0):
            assert s.cdf(x) + s.cdf(-x) == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        s = SymmetricStable(1.2, 1.1)
        xs = np.linspace(-10.0, 10.0, 41)
        vals = [s.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_qawo_oracle(self):
        # the engine against characteristic-function inversion wherever
        # QAWO converges: |alpha - 1| down to 1e-4 at lam = 1, and the
        # graded rule near alpha = 1 at other scales out to x = 1e6
        cases = [(alpha, 1.0, np.logspace(-4.0, 3.0, 29)) for alpha in STABLE_ALPHAS]
        cases += [(alpha, lam, np.logspace(-4.0, 6.0, 21))
                  for alpha in (0.76, 0.8, 0.9, 0.97, 1.03, 1.1, 1.2, 1.24) for lam in (0.3, 5.0)]
        checked = total = 0
        for alpha, lam, xs in cases:
            for x, got in zip(xs, SymmetricStable(alpha, lam).cdf_grid(xs)):
                total += 1
                try:
                    expect = oracles.stable_cdf_qawo(alpha, lam, x)
                except IntegrationError:
                    continue
                checked += 1
                assert abs(got - expect) <= 1e-9, (alpha, lam, x, got, expect)
        assert checked >= 0.95 * total

    def test_closed_forms(self):
        xs = np.concatenate((-np.logspace(-4.0, 4.0, 17), np.logspace(-4.0, 4.0, 17)))
        for lam in (0.3, 1.0, 7.0):
            np.testing.assert_allclose(
                SymmetricStable(1.0, lam).cdf_grid(xs),
                0.5 + np.arctan(xs / lam) / math.pi, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                SymmetricStable(2.0, lam).cdf_grid(xs),
                ndtr(xs / math.sqrt(2.0 * lam)), rtol=0.0, atol=1e-12)

    def test_continuous_at_closed_forms(self):
        # F moves by about 0.13 |alpha - 1| next to alpha = 1 and by about
        # 0.06 (2 - alpha) next to alpha = 2; a bad rule shows as ~1e-3
        xs = np.concatenate((-np.logspace(-4.0, 4.0, 33), np.logspace(-4.0, 4.0, 33)))
        cauchy = SymmetricStable(1.0, 1.0).cdf_grid(xs)
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            got = SymmetricStable(alpha, 1.0).cdf_grid(xs)
            assert np.max(np.abs(got - cauchy)) <= 2e-7
        normal = SymmetricStable(2.0, 1.0).cdf_grid(xs)
        got = SymmetricStable(2.0 - 1e-6, 1.0).cdf_grid(xs)
        assert np.max(np.abs(got - normal)) <= 1e-7

    @pytest.mark.parametrize("alpha, lam, x", [
        (0.3, 1.0, 1e20), (0.5, 2.0, 1e12), (1.5, 1.0, 1e4), (1.9, 1.0, 1e5)])
    def test_power_law_tail(self, alpha, lam, x):
        # P{X > x} against three terms of its series in lam x^-alpha; the
        # worst case here (alpha = 1.9, a tail of 1.5e-11) is 1.4e-7 off
        series = sum((-1) ** (k + 1) * math.gamma(k * alpha) * math.sin(k * math.pi * alpha / 2)
                     / math.factorial(k) * lam ** k * x ** (-k * alpha) for k in (1, 2, 3))
        got = SymmetricStable(alpha, lam).cdf(-x)
        assert got == pytest.approx(series / math.pi, rel=5e-7, abs=0.0)

    def test_far_point(self):
        # a Fourier rule sized by max|x| needs an 11.9 GiB node matrix here
        expect = oracles.stable_cdf_qawo(1.5, 1.0, 1e4)
        assert abs(SymmetricStable(1.5, 1.0).cdf_grid([1e4])[0] - expect) <= 1e-9

    def test_monotone_through_zero(self):
        # near alpha = 1 the tail at tiny x is the step's 1/2 plus the
        # panels' share, which must not round above 1/2
        xs = np.logspace(-300.0, 0.0, 600)
        for alpha in (0.77, 0.94, 1.09, 1.19):
            s = SymmetricStable(alpha, 1.0)
            assert np.all(s.cdf_grid(-xs) <= 0.5) and np.all(s.cdf_grid(xs) >= 0.5)

    def test_cdf_is_view_of_grid(self):
        s = SymmetricStable(1.3, 0.8)
        xs = np.array([-7.0, -0.2, 0.0, 0.4, 3.0])
        assert [s.cdf(x) for x in xs] == s.cdf_grid(xs).tolist()
        assert s.cdf_grid(xs.reshape(5, 1)).shape == (5, 1)

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_small_alpha_against_monte_carlo(self, alpha):
        # DKW: sup |ECDF - F| <= eps with probability 1 - 1e-6, and a
        # subset of the order statistics can only lower the sup
        n = 10 ** 6
        lam = 1.3
        x = np.sort(oracles.stable_sample_cms(alpha, lam, child_rng(SEED, 9), n))
        assert not np.isnan(x).any()
        idx = np.linspace(0, n - 1, 2001).astype(int)
        F = SymmetricStable(alpha, lam).cdf_grid(x[idx])
        dev = np.maximum((idx + 1) / n - F, F - idx / n)
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert np.max(dev) <= eps

    @given(st.floats(0.3, 2.0), st.floats(0.05, 20.0),
           st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    @settings(max_examples=80, deadline=None)
    def test_cdf_properties(self, alpha, lam, x1, x2):
        s = SymmetricStable(alpha, lam)
        lo, hi = sorted((x1, x2))
        F = s.cdf_grid([lo, hi, -lo, -hi])
        assert np.all((F >= 0.0) & (F <= 1.0))
        # two points each within the 1e-9 contract
        assert F[0] <= F[1] + 2e-9
        assert F[0] + F[2] == pytest.approx(1.0, abs=1e-15)
        assert F[1] + F[3] == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetricStable(0.0, 1.0)
        with pytest.raises(ValueError):
            SymmetricStable(2.1, 1.0)
        with pytest.raises(ValueError):
            SymmetricStable(1.0, 0.0)


class TestGaussExtremalMixture:
    def test_parameter_error(self):
        with pytest.raises(ValueError):
            GaussExtremalMixture(mu=0.0, sigma=1.0, d=1.0)  # d^2 < 4/3

    def test_boundary_all_rectangle(self):
        mix = GaussExtremalMixture(mu=0.0, sigma=1.0, d=2.0 / math.sqrt(3.0))
        assert mix.rect_weight == pytest.approx(1.0, rel=1e-12)

    def test_weights_and_support(self):
        mix = GaussExtremalMixture(mu=0.0, sigma=1.0, d=10.0)
        assert mix.rect_weight == pytest.approx(4.0 / 300.0, rel=1e-14)
        assert mix.atom_weight == pytest.approx(1.0 - 4.0 / 300.0, rel=1e-14)
        assert mix.rect_support == (-15.0, 15.0)
        # moment identity behind the variance claim: w * (3d/2)^2 / 3 = sigma^2
        assert mix.rect_weight * (1.5 * mix.d) ** 2 / 3.0 == pytest.approx(1.0, rel=1e-14)

    def test_sample_variance(self):
        mix = GaussExtremalMixture(mu=0.0, sigma=1.0, d=10.0)
        x = mix.sample(child_rng(SEED, 9), 10 ** 6)
        se = math.sqrt(2.0 / 10 ** 6) * 15.0  # loose but sufficient
        assert x.var() == pytest.approx(1.0, abs=0.02)

    def test_sample_exceedance_attains_bound(self):
        mix = GaussExtremalMixture(mu=0.0, sigma=1.0, d=10.0)
        x = mix.sample(child_rng(SEED, 10), 10 ** 6)
        p = 1.0 / 225.0
        se = math.sqrt(p * (1 - p) / 10 ** 6)
        assert abs(np.mean(np.abs(x) >= 10.0) - p) <= 3 * se

    def test_location_shift(self):
        mix = GaussExtremalMixture(mu=5.0, sigma=1.0, d=10.0)
        x = mix.sample(child_rng(SEED, 11), 10 ** 6)
        assert x.mean() == pytest.approx(5.0, abs=0.01)
