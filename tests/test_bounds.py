import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nugamma.bounds import (
    GaussExtremalMixture,
    chebyshev_bound,
    expected_exceedances,
    gauss_bound,
)
from nugamma.errors import OutOfRegimeError
from nugamma.parallel import child_rng


class TestGaussBound:
    def test_ten_sigma(self):
        r = gauss_bound(10.0, 1.0)
        assert r.bound == pytest.approx(1.0 / 225.0, rel=1e-15)
        assert r.kind == "gauss-unimodal"
        assert r.attained_by is not None

    def test_forty_sigma(self):
        assert gauss_bound(40.0, 1.0).bound == pytest.approx(1.0 / 3600.0, rel=1e-15)

    def test_scale_invariance_example(self):
        assert gauss_bound(20.0, 2.0).bound == pytest.approx(1.0 / 225.0, rel=1e-15)

    @given(st.floats(1.2, 50.0), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_property(self, ratio, c):
        base = gauss_bound(ratio, 1.0).bound
        scaled = gauss_bound(ratio * c, c).bound
        assert math.isclose(base, scaled, rel_tol=1e-12)

    @pytest.mark.parametrize("scale", [2.0 ** -570, 2.0 ** -665, 2.0 ** 500])
    def test_bound_is_a_function_of_the_ratio(self, scale):
        # d^2 and sigma^2 under- or overflowed: ZeroDivisionError at tiny
        # scales.  Powers of 2 scale d and sigma without rounding.
        for bound in (gauss_bound, chebyshev_bound):
            assert bound(10.0 * scale, scale).bound == bound(10.0, 1.0).bound
        assert gauss_bound(10.0, 1.0).bound == 4.0 / 900.0
        assert chebyshev_bound(10.0, 1.0).bound == 0.01

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            gauss_bound(1.0, 1.0)
        # boundary case d^2 = 4/3 sigma^2 is valid
        r = gauss_bound(2.0 / math.sqrt(3.0), 1.0)
        assert r.bound == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gauss_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_bound(1.0, 0.0)
        for d, sigma in [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="finite and positive"):
                gauss_bound(d, sigma)
            with pytest.raises(ValueError, match="finite and positive"):
                chebyshev_bound(d, sigma)


def _out_of_regime(fn, *args) -> bool:
    try:
        fn(*args)
    except OutOfRegimeError:
        return True
    return False


class TestOneRegimeRule:
    """d^2 >= 4 sigma^2 / 3 is decided by the mixture's constructor alone."""

    def test_tiny_scales_out_of_regime(self):
        # an absolute 1e-15 slack once accepted this point, with rectangle
        # weight 133.3 and atom weight -132.3
        with pytest.raises(OutOfRegimeError, match=r"^gauss bound requires d\^2 >= 4 sigma\^2 / 3"):
            GaussExtremalMixture(0.0, 1e-9, 1e-10)
        with pytest.raises(OutOfRegimeError):
            gauss_bound(1e-10, 1e-9)

    @given(st.floats(1e-12, 1e6), st.floats(1e-12, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_bound_raises_exactly_when_mixture_does(self, d, sigma):
        # at the edge d*d and 4 sigma^2 / 3 can round apart; the regime test is
        # the reported weight itself, so an accepted mixture's weights stay in [0, 1]
        edge = 2.0 * sigma / math.sqrt(3.0)
        for level in (d, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            raised = _out_of_regime(gauss_bound, level, sigma)
            assert raised == _out_of_regime(GaussExtremalMixture, 0.0, sigma, level)
            if not raised:
                assert 0.0 <= GaussExtremalMixture(0.0, sigma, level).atom_weight <= 1.0

    def test_bad_arguments_are_not_a_regime_question(self):
        for d, sigma in [(0.0, 1.0), (2.0, -1.0), (math.nan, 1.0), (2.0, math.inf)]:
            with pytest.raises(ValueError, match="finite and positive") as info:
                GaussExtremalMixture(0.0, sigma, d)
            assert not isinstance(info.value, OutOfRegimeError)


class TestChebyshevBound:
    def test_values(self):
        assert chebyshev_bound(10.0, 1.0).bound == pytest.approx(0.01, rel=1e-15)
        assert chebyshev_bound(0.5, 1.0).bound == 1.0  # clamped

    def test_dominance(self):
        # in the shared validity regime the unimodal bound is strictly tighter
        for ratio in (1.2, 2.0, 5.0, 10.0, 40.0):
            g = gauss_bound(ratio, 1.0).bound
            c = chebyshev_bound(ratio, 1.0).bound
            assert g < c


class TestExpectedExceedances:
    def test_reference_counts(self):
        g10 = gauss_bound(10.0, 1.0)
        g40 = gauss_bound(40.0, 1.0)
        assert expected_exceedances(50000, g10) == pytest.approx(222.222, abs=5e-3)
        assert expected_exceedances(50000, g40) == pytest.approx(13.889, abs=5e-3)

    def test_zero_n(self):
        assert expected_exceedances(0, chebyshev_bound(2.0, 1.0)) == 0.0

    def test_negative_n(self):
        with pytest.raises(ValueError):
            expected_exceedances(-1, chebyshev_bound(2.0, 1.0))


class TestTightness:
    @pytest.mark.parametrize("ratio", [2.0, 5.0, 10.0, 40.0])
    def test_extremal_mixture_attains_bound(self, ratio):
        r = gauss_bound(ratio, 1.0)
        draws = r.attained_by.sample(child_rng(404, int(ratio)), 10 ** 6)
        freq = float(np.mean(np.abs(draws) >= ratio))
        se = math.sqrt(r.bound * (1.0 - r.bound) / 10 ** 6)
        assert abs(freq - r.bound) <= 3.0 * se
