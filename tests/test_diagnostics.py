import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nugamma import diagnostics
from nugamma.diagnostics import (
    HILL_RULES,
    KS_CRITICAL_1PCT,
    ReturnSeries,
    build_tail_report,
    empirical_kurtosis,
    exceedance_counts,
    hill_estimate,
    hill_experiment,
    hill_k,
    ks_critical_value,
    ks_distance,
    read_return_series,
    tail_ratio_curve,
)
from nugamma.dist import SymmetrizedGamma
from nugamma.bounds import expected_exceedances, gauss_bound
from nugamma.errors import ArgumentError, DataError, OutOfRegimeError
from nugamma.parallel import child_rng

import oracles

SEED = 0x5EED


class TestHillEstimate:
    def test_exponential_grid_fixture(self):
        # sample e^0 .. e^9, k = 9: gamma_hat = mean of (9, 8, ..., 1) = 5
        sample = np.exp(np.arange(10.0))
        assert hill_estimate(sample, 9) == pytest.approx(5.0, rel=1e-14)

    def test_pareto_grid_exact(self):
        # |X| = c * i^(-1/alpha0): gamma = (1/alpha0)(ln(k+1) - mean ln i)
        alpha0, c, n, k = 2.5, 3.7, 500, 120
        sample = c * np.arange(1, n + 1) ** (-1.0 / alpha0)
        expect = (math.log(k + 1) - np.mean(np.log(np.arange(1, k + 1)))) / alpha0
        assert hill_estimate(sample, k) == pytest.approx(expect, rel=1e-12)

    def test_pareto_grid_approaches_tail_index(self):
        alpha0, n = 2.0, 20000
        sample = np.arange(1, n + 1) ** (-1.0 / alpha0)
        got = hill_estimate(sample, n - 1)
        # mean log-spacing tends to 1/alpha0 as k -> n
        assert got == pytest.approx(1.0 / alpha0, rel=2e-3)

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c):
        sample = np.array([0.3, 1.7, 2.2, 5.5, 9.1, 14.0, 33.0, 41.5])
        base = hill_estimate(sample, 3)
        scaled = hill_estimate(c * sample, 3)
        assert math.isclose(base, scaled, rel_tol=1e-10, abs_tol=1e-12)

    def test_ties_contribute_zero(self):
        sample = np.array([1.0, 2.0, 2.0, 2.0, 5.0])
        # k=3: top values (2, 2, 5), threshold 2 -> spacings (0, 0, ln 2.5)
        assert hill_estimate(sample, 3) == pytest.approx(math.log(2.5) / 3.0, rel=1e-14)

    def test_positive_tail_mode(self):
        sample = np.array([-10.0, -5.0, 1.0, 2.0, 4.0, 8.0])
        got = hill_estimate(sample, 2, tail="positive")
        expect = np.mean([math.log(8.0 / 2.0), math.log(4.0 / 2.0)])
        assert got == pytest.approx(expect, rel=1e-14)
        # the estimator's default tail is the experiment's and the report's
        assert hill_estimate(sample, 2) == got

    def test_k_range_errors(self):
        sample = np.arange(1.0, 11.0)
        with pytest.raises(ValueError):
            hill_estimate(sample, 0)
        with pytest.raises(ValueError):
            hill_estimate(sample, 10)
        # a fractional k was numpy's TypeError from the partition
        with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
            hill_estimate(sample, 1.5)

    def test_k_range_error_counts_tail_values(self):
        # the bound is the number of values in the chosen tail, not the sample size
        with pytest.raises(ValueError, match=r"need 1 <= k < 1 positive values, got k=1"):
            hill_estimate([-1.0, -2.0, 3.0], 1, tail="positive")

    def test_nonpositive_threshold_error(self):
        sample = np.array([0.0, 0.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="strictly positive"):
            hill_estimate(sample, 4, tail="abs")

    @given(st.lists(st.sampled_from([-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.0, 7.25]), min_size=2,
                    max_size=60) | st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_sort_reference(self, values, data):
        # few distinct values put ties at the threshold X_(n-k); k = n-1
        # reaches down to the smallest value
        sample = np.array(values)
        k = data.draw(st.sampled_from([1, len(values) - 1])
                      | st.integers(1, len(values) - 1), label="k")
        for tail in ("abs", "positive"):
            try:
                expect = oracles.hill_estimate_full_sort(sample, k, tail)
            except ValueError:
                with pytest.raises(ValueError):
                    hill_estimate(sample, k, tail=tail)
                continue
            assert hill_estimate(sample, k, tail=tail) == expect


class TestHillK:
    def test_reference_sizes(self):
        assert hill_k("sqrt", 10000) == 100
        assert hill_k("pow-2/3", 10000) == 464
        assert hill_k("pow-4/5", 10000) == 1584

    def test_small_n(self):
        assert hill_k("sqrt", 100) == 10
        assert hill_k("pow-2/3", 100) == 21
        assert hill_k("pow-4/5", 100) == 39

    def test_float_floor_guard(self):
        assert hill_k("pow-2/3", 64) == 16  # 64^(2/3) is exactly 16

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            hill_k("cube", 100)

    @pytest.mark.parametrize("n", [0, -5, math.nan])
    def test_n_below_one(self, n):
        # -5 was a TypeError from the fractional power of a negative number
        with pytest.raises(ArgumentError, match="n must be finite and >= 1"):
            hill_k("sqrt", n)


class TestHillExperiment:
    def test_reference_triple(self):
        res = hill_experiment(10.0, 10000, sims=100, seed=SEED)
        for mean, ref in zip(res.means, oracles.HILL_REFERENCE):
            assert mean == pytest.approx(ref, abs=0.1)

    def test_monotone_in_k(self):
        res = hill_experiment(10.0, 10000, sims=20, seed=SEED)
        assert res.means[0] < res.means[1] < res.means[2]

    def test_single_sim_deterministic(self):
        a = hill_experiment(10.0, 2000, sims=1, seed=7)
        b = hill_experiment(10.0, 2000, sims=1, seed=7)
        assert a.means == b.means

    # 20 simulations on 2 workers go in batches of 3
    @pytest.mark.parametrize("sims", [6, 20])
    def test_workers_do_not_change_result(self, sims):
        a = hill_experiment(10.0, 1000, sims=sims, seed=3, workers=1)
        b = hill_experiment(10.0, 1000, sims=sims, seed=3, workers=2)
        assert a.means == b.means
        np.testing.assert_array_equal(a.per_sim, b.per_sim)

    def test_sims_below_one(self):
        # formerly empty-mean warnings, then a TypeError
        with pytest.raises(ValueError, match="sims"):
            hill_experiment(10.0, 1000, sims=0, seed=0)


class TestEmpiricalKurtosis:
    def test_two_point_law(self):
        assert empirical_kurtosis(np.array([-1.0, 1.0] * 10)) == pytest.approx(1.0, rel=1e-14)

    def test_normal_sample(self):
        x = child_rng(SEED, 20).normal(size=10 ** 6)
        assert empirical_kurtosis(x) == pytest.approx(3.0, abs=0.02)

    def test_symmetrized_gamma_sample(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 21), 10 ** 6)
        assert empirical_kurtosis(x) == pytest.approx(33.0, abs=3.0)

    @given(st.floats(0.1, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, b):
        x = np.array([0.1, -2.2, 3.3, 0.9, -1.4, 2.6, 0.0, -0.7])
        assert math.isclose(empirical_kurtosis(a * x + b), empirical_kurtosis(x),
                            rel_tol=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_kurtosis(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            empirical_kurtosis(np.ones(10))
        # m4 and m2^2 underflowed to 0 and the ratio was nan, with a warning
        with pytest.raises(ValueError, match="squared underflows"):
            empirical_kurtosis(np.array([3.54341554e-90, 0.0, 0.0, 0.0]))

    def test_fourth_powers_that_overflow_are_refused(self):
        # the fourth powers overflowed to inf and the ratio was nan, after
        # two numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="the fourth powers overflow"):
                empirical_kurtosis(np.array([1e99, -3e99, 1e100, -1e100, 5e99]))


class TestExceedanceCounts:
    def test_gauss_bound_expectations(self):
        x = child_rng(SEED, 22).normal(size=50000)
        rows = exceedance_counts(x, [10.0, 40.0])
        assert rows[0].gauss_bound_expected == pytest.approx(50000.0 / 225.0, rel=1e-12)
        assert rows[1].gauss_bound_expected == pytest.approx(50000.0 / 3600.0, rel=1e-12)

    def test_normal_sample_far_level(self):
        x = child_rng(SEED, 23).normal(size=50000)
        row = exceedance_counts(x, [10.0])[0]
        assert row.observed == 0
        assert row.expected_normal < 1e-15

    def test_out_of_regime_level_has_no_gauss_bound(self):
        x = child_rng(SEED, 24).normal(size=100)
        row = exceedance_counts(x, [1.0])[0]
        assert row.gauss_bound_expected is None

    def test_no_gauss_bound_exactly_where_the_bound_raises(self):
        # the regime lives in bounds alone; 2/sqrt(3) is its edge at sigma = 1
        edge = 2.0 / math.sqrt(3.0)
        levels = [0.5, 1.0, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0),
                  1.2, 3.0, 5.0, 10.0, 1e150]
        x = child_rng(SEED, 24).normal(size=1000)
        for level, row in zip(levels, exceedance_counts(x, levels)):
            try:
                want = expected_exceedances(1000, gauss_bound(level, 1.0))
            except OutOfRegimeError:
                want = None
            assert row.gauss_bound_expected == want, level

    def test_observed_monotone_nonincreasing(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 25), 50000)
        rows = exceedance_counts(x, [1.0, 2.0, 3.0, 5.0, 10.0])
        obs = [r.observed for r in rows]
        assert all(b <= a for a, b in zip(obs, obs[1:]))

    def test_degenerate(self):
        with pytest.raises(ValueError):
            exceedance_counts(np.ones(50), [2.0])

    def test_normal_expectation_is_two_sided_tail(self):
        # n * 2 Phi-bar(k), against scipy's normal CDF at -k
        from scipy.special import ndtr

        x = child_rng(SEED, 27).normal(size=1000)
        for row in exceedance_counts(x, [0.5, 3.0, 5.0, 10.0, 30.0]):
            want = 2000.0 * ndtr(-row.k_sigmas)
            assert row.expected_normal == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("level", [-1.0, 0.0, math.nan, math.inf])
    def test_level_must_be_finite_and_positive(self, level):
        x = child_rng(SEED, 26).normal(size=100)
        with pytest.raises(ValueError, match="k_sigmas must be finite and positive"):
            exceedance_counts(x, [3.0, level])


class TestTailRatioCurve:
    def test_exponential_callable(self):
        xs = np.linspace(0.5, 6.0, 12)
        curve = tail_ratio_curve(lambda x: np.exp(-x), xs, 1.5)
        for x, r in curve:
            assert r == pytest.approx(math.exp(0.5 * x), rel=1e-12)

    def test_pareto_callable_constant(self):
        alpha0 = 2.3
        xs = np.linspace(1.0, 40.0, 9)
        curve = tail_ratio_curve(lambda x: x ** -alpha0, xs, 1.5)
        for _, r in curve:
            assert r == pytest.approx(1.5 ** alpha0, rel=1e-12)

    def test_factor_one_degenerate(self):
        curve = tail_ratio_curve(lambda x: np.exp(-x), [1.0, 2.0], 1.0)
        assert all(r == pytest.approx(1.0) for _, r in curve)

    def test_factor_below_one_rejected(self):
        for factor in (0.9, math.nan, math.inf):  # and a factor that is not finite
            with pytest.raises(ValueError, match="factor must be finite and >= 1"):
                tail_ratio_curve(lambda x: np.exp(-x), [1.0, 2.0], factor)

    def test_analytic_m50_fixtures(self):
        d = SymmetrizedGamma(50.0)
        xs = sorted(oracles.TAIL_RATIO_M50)
        curve = dict(tail_ratio_curve(d.survival, xs, 1.5))
        for x, expect in oracles.TAIL_RATIO_M50.items():
            assert curve[x] == pytest.approx(expect, rel=1e-6), x

    def test_ratio_at_least_one_for_log_convex_survival(self):
        d = SymmetrizedGamma(50.0)
        curve = tail_ratio_curve(d.survival, np.linspace(1.0, 50.0, 25), 1.5)
        assert all(r >= 1.0 for _, r in curve if r is not None)

    def test_equals_pointwise_survival(self):
        # one array call per side gives the per-point scalar ratios exactly
        d = SymmetrizedGamma(10.0)
        xs = np.linspace(0.2, 60.0, 40)
        expect = [(float(x), d.survival(float(x)) / d.survival(1.5 * x)) for x in xs]
        assert tail_ratio_curve(d.survival, xs, 1.5) == expect

    def test_empirical_survival_strict(self):
        sample = np.array([1.0, 2.0, 3.0, 4.0])
        curve = tail_ratio_curve(sample, np.array([1.0, 2.0]), 1.5)
        # P{X > 1}/P{X > 1.5} = (3/4)/(3/4) = 1; P{X > 2}/P{X > 3} = 2/1
        assert curve[0][1] == pytest.approx(1.0)
        assert curve[1][1] == pytest.approx(2.0)

    def test_empirical_undefined_marker(self):
        sample = np.array([1.0, 2.0, 3.0])
        curve = tail_ratio_curve(sample, np.array([2.5]), 1.5)
        assert curve[0][1] is None  # nothing above 3.75

    def test_grid_validation(self):
        for grid in ([2.0, 1.0], [-1.0, 1.0], [1.0, math.inf], [math.nan, 1.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="x_grid must be finite"):
                tail_ratio_curve(lambda x: np.exp(-x), grid, 1.5)


class TestFiniteSampleRule:
    # each of these once returned a number or raised numpy's own error:
    # exceedance counts over [1, 2, nan, 4, 5] reported observed 0, and the
    # empirical tail ratio over a sample holding nan read 1.0
    CALLS = {
        "kurtosis": lambda x: empirical_kurtosis(x),
        "exceedances": lambda x: exceedance_counts(x, [1.0]),
        "tail-ratio": lambda x: tail_ratio_curve(x, [0.5, 1.0], 1.5),
        "hill-positive": lambda x: hill_estimate(x, 1, tail="positive"),
        "hill-abs": lambda x: hill_estimate(x, 1, tail="abs"),
    }
    # samples the rule refuses: not 1-d, empty, or not finite
    BAD = {"0-d": 3.0, "2-d": [[0.1, 0.2], [0.3, 0.4]], "empty": [], "nan": [np.nan],
           "inf": [0.1, np.inf], "-inf": [-np.inf, 0.2, 0.3],
           "nan-inside": [1.0, 2.0, np.nan, 4.0, 5.0]}

    @pytest.mark.parametrize("sample", BAD.values(), ids=BAD.keys())
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_refused_with_data_error(self, call, sample):
        with pytest.raises(DataError, match="needs a 1-d sample of at least one value, all finite"):
            call(sample)

    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e3, 1e3)))
    @settings(max_examples=100, deadline=None)
    def test_inputs_are_never_written(self, x):
        before = x.tobytes()
        for call in self.CALLS.values():
            try:
                call(x)
            except ValueError:  # too few values, or a degenerate sample
                pass
            assert x.tobytes() == before
        if len(x) >= 2:
            for tail in diagnostics.HILL_TAILS:
                series = ReturnSeries(x)
                assert series.values is x
                if x.std() == 0.0:  # refused before any section is computed
                    with pytest.raises(DataError, match="^degenerate series: zero variance$"):
                        build_tail_report(series, hill_tail=tail)
                    continue
                rep = build_tail_report(series, hill_tail=tail)
                assert x.tobytes() == before
                assert rep == build_tail_report(ReturnSeries(x.copy()), hill_tail=tail)


def _peak_bytes(fn, *args, **kwargs):
    """(result, peak traced bytes above those allocated before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    # audit's working memory: the column once plus one scratch array of its
    # length; 1.5 x 8n bytes leaves room for the reader's block buffers
    # and the Hill top-k arrays, which grow slower than n.
    N = 200_000
    BUDGET = 1.5 * 8 * N

    @pytest.fixture(scope="class")
    def sample(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 40), self.N)
        # the first np.unique call imports numpy.ma: a fixed cost, not one per row
        build_tail_report(ReturnSeries(x[:100]))
        return x

    def test_reader_holds_the_column_once(self, tmp_path, sample):
        p = tmp_path / "returns.csv"
        p.write_text("t,ret\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(sample.tolist())))
        (series, skipped), peak = _peak_bytes(read_return_series, p, "ret")
        np.testing.assert_array_equal(series.values, sample)
        assert skipped == 0
        assert peak <= self.BUDGET, peak / (8 * self.N)

    @pytest.mark.parametrize("tail", ["positive", "abs"])
    def test_report_holds_one_scratch_array(self, sample, tail):
        rep, peak = _peak_bytes(build_tail_report, ReturnSeries(sample), hill_tail=tail)
        assert rep.n == self.N and rep.kurtosis is not None and len(rep.hill) == len(HILL_RULES)
        assert peak <= self.BUDGET, peak / (8 * self.N)


class TestKolmogorovSmirnov:
    def test_distance_exact_uniform(self):
        sample = np.array([0.1, 0.2, 0.3, 0.4])
        d = ks_distance(sample, lambda x: np.asarray(x))
        assert d == pytest.approx(0.6, rel=1e-12)

    @pytest.mark.parametrize("sample", [[], [np.nan], [0.1, np.inf], [-np.inf, 0.2, 0.3],
                                        3.0, [[0.1, 0.2], [0.3, 0.4]]],
                             ids=["empty", "nan", "inf", "-inf", "0-d", "2-d"])
    def test_empty_or_non_finite_sample_raises(self, sample):
        # a 0-d sample was numpy's AxisError from the sort
        with pytest.raises(DataError, match="at least one value, all finite"):
            ks_distance(sample, lambda x: np.asarray(x))

    def test_critical_value(self):
        assert ks_critical_value(10 ** 6) == pytest.approx(1.6276 / 1000.0, rel=1e-3)

    def test_critical_constant_is_kolmogi(self):
        from scipy.special import kolmogi

        assert KS_CRITICAL_1PCT == float(kolmogi(0.01))
        assert ks_critical_value(10 ** 5) == float(kolmogi(0.01) / math.sqrt(10 ** 5))


# CSV text for the reader equivalence test: numbers with whitespace, signs
# and exponents, non-finite and missing tokens, quoted cells holding
# commas, short and blank rows, with or without a header row
_NUMBER = st.builds(str.format, st.sampled_from(["{!r}", "{:.3e}", "{:+.2f}", " {} ", "{:E}\t"]),
                    st.floats(allow_nan=False, allow_infinity=False, width=32))
_TOKEN = st.sampled_from(["", "  ", "NA", "nan", "NaN", "-inf", "Infinity", "1e400", "abc",
                          "ret", '"1,5"', '"2.5"', '" -3e-2 "', '"r,et"'])
_ROW = st.lists(st.one_of(_NUMBER, _NUMBER, _TOKEN), max_size=4).map(",".join)  # 2:1 numbers
_HEADER = st.lists(st.sampled_from(["t", "ret", " ret ", "x", '"r,et"', ""]),
                   min_size=1, max_size=4).map(",".join)
_CSV_TEXT = st.builds(lambda header, rows, eol: eol.join(header + rows) + eol,
                      st.lists(_HEADER, max_size=1), st.lists(_ROW, min_size=2, max_size=16),
                      st.sampled_from(["\n", "\r\n"]))
_COLUMN = st.one_of(st.none(), st.sampled_from(["ret", "t", "r,et", "zz"]),
                    st.integers(-3, 3), st.integers(-3, 3).map(str))


# unquoted CSV text for the block path: cells float() accepts or rejects,
# with whitespace, signs, exponents and underscores, missing and empty
# cells, short and blank lines, and a last line with or without a newline
_PLAIN_CELL = st.one_of(_NUMBER, st.sampled_from(
    ["", "  ", "NA", " NA ", "nan", "-inf", "inf", "1_0", " -1_0.5e1_0 ", "+.5", "1e400",
     "1e-400", "abc", "_1", "1__0"]))
_PLAIN_ROW = st.lists(_PLAIN_CELL, max_size=4).map(",".join)
_PLAIN_ROWS = st.lists(_PLAIN_ROW, max_size=24)
# what makes the reader hand the rest of the file to csv.reader
_CSV_ONLY_ROW = st.sampled_from(['"1,5"', '2,"3.5"', '" -3e-2 ",1', '"NA"', 'x"y'])


def _read_outcome(reader, path, column, strict):
    try:
        series, skipped = reader(path, column, strict=strict)
    except DataError as exc:
        return str(exc)
    return series.values.tolist(), skipped, series.label


class TestReturnSeriesIngestion:
    def test_headered_named_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,ret\n2020-01-01,0.5\n2020-01-02,-0.25\n2020-01-03,0.125\n")
        series, skipped = read_return_series(p, "ret")
        assert skipped == 0
        np.testing.assert_allclose(series.values, [0.5, -0.25, 0.125])
        assert series.label == "ret"

    def test_headerless_auto_detect(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("0.5\n-0.25\n0.125\n")
        series, skipped = read_return_series(p)
        assert skipped == 0
        assert len(series.values) == 3

    def test_first_numeric_column_detected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,x\nr1,1.5\nr2,2.5\n")
        series, _ = read_return_series(p)
        np.testing.assert_allclose(series.values, [1.5, 2.5])

    def test_skipped_rows_counted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n1.0\noops\n2.0\nnan\n3.0\n")
        series, skipped = read_return_series(p)
        assert skipped == 2
        assert len(series.values) == 3

    def test_strict_mode_raises(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x\n1.0\noops\n")
        with pytest.raises(DataError):
            read_return_series(p, strict=True)

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_return_series("/nonexistent/file.csv")

    def test_empty_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x\n\n")
        with pytest.raises(DataError):
            read_return_series(p)

    @pytest.mark.parametrize("body", [
        b'x\n1.0\n"' + b"9" * (csv.field_size_limit() + 1) + b'"\n2.0\n',  # data field
        b'"' + b"x" * (csv.field_size_limit() + 1) + b'"\n1.0\n2.0\n',      # header cell
        b"x\n1.0\n\xff\xfe\n2.0\n",                                         # not UTF-8
        # the same rule without quotes, though float() takes both cells
        b"x\n1.0\n" + b"9" * (csv.field_size_limit() + 1) + b"\n2.0\n",
        b"x\n1.0\n" + b"0" * (csv.field_size_limit() + 1) + b"\n2.0\n",
    ], ids=["long-field", "long-header", "undecodable", "long-unquoted", "long-zeros"])
    def test_unreadable_file_is_data_error(self, tmp_path, body):
        p = tmp_path / "bad.csv"
        p.write_bytes(body)
        with pytest.raises(DataError, match="malformed CSV|cannot decode"):
            read_return_series(p)

    def test_unknown_named_column(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("x\n1.0\n2.0\n")
        with pytest.raises(DataError):
            read_return_series(p, "y")

    @pytest.mark.parametrize("text, values, skipped, label", [
        ("NA\n1.0\n2.0\n", [1.0, 2.0], 1, "col0"),
        ("nan\n1.0\n2.0\n", [1.0, 2.0], 1, "col0"),
        (",NA\n1,2\n3,4\n", [2.0, 4.0], 1, "col1"),
        ("t,ret\n0,NA\n1,2.5\n", [0.0, 1.0], 0, "t"),  # a real header stays one
        ("x\nNA\n1\n2\n", [1.0, 2.0], 1, "x"),
    ])
    def test_missing_first_row_is_data(self, tmp_path, text, values, skipped, label):
        p = tmp_path / "na.csv"
        p.write_text(text)
        for reader in (read_return_series, oracles.read_return_series_two_pass):
            assert _read_outcome(reader, p, None, False) == (values, skipped, label)

    def test_negative_index_past_header_width(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("ret\n0.5,1.5\n2.5,3.5\n")
        series, _ = read_return_series(p, -2)
        np.testing.assert_allclose(series.values, [0.5, 2.5])
        assert series.label == "col-2"

    def test_series_validation(self):
        with pytest.raises(DataError):
            ReturnSeries(np.array([1.0]))
        with pytest.raises(DataError):
            ReturnSeries(np.array([1.0, np.inf]))

    @settings(max_examples=300, deadline=None)
    @given(text=_CSV_TEXT, column=_COLUMN, strict=st.booleans())
    def test_matches_two_pass_reference(self, tmp_path_factory, text, column, strict):
        p = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        p.write_bytes(text.encode())
        assert (_read_outcome(read_return_series, p, column, strict)
                == _read_outcome(oracles.read_return_series_two_pass, p, column, strict))


class TestBlockPath:
    """The block path against the csv.reader reference, with blocks shrunk
    so that a small file spans many of them."""

    @staticmethod
    def _compare(path, column, strict, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "CSV_BLOCK", block)
            got = _read_outcome(read_return_series, path, column, strict)
        assert got == _read_outcome(oracles.read_return_series_two_pass, path, column, strict)

    @settings(max_examples=300, deadline=None)
    @given(header=st.lists(_HEADER.filter(lambda h: '"' not in h), max_size=1),
           rows=st.lists(_PLAIN_ROW, min_size=1, max_size=40), last_eol=st.booleans(),
           column=_COLUMN, strict=st.booleans(), block=st.sampled_from([1, 2, 5, 16, 64]))
    def test_matches_csv_reader(self, tmp_path_factory, header, rows, last_eol, column,
                                strict, block):
        p = tmp_path_factory.getbasetemp() / "block.csv"
        p.write_bytes(("\n".join(header + rows) + ("\n" if last_eol else "")).encode())
        self._compare(p, column, strict, block)

    @settings(max_examples=200, deadline=None)
    @given(before=st.lists(_PLAIN_ROW, min_size=1, max_size=20), special=_CSV_ONLY_ROW,
           after=_PLAIN_ROWS, crlf=st.booleans(), column=_COLUMN, strict=st.booleans(),
           block=st.sampled_from([1, 3, 16]))
    def test_quote_or_carriage_return_mid_file(self, tmp_path_factory, before, special, after,
                                               crlf, column, strict, block):
        # the quoted row, or CRLF line ends from there on, first appear mid-file
        tail = "\r\n".join(after) if crlf else "\n".join([special] + after)
        p = tmp_path_factory.getbasetemp() / "mid.csv"
        p.write_bytes(("t,ret\n" + "\n".join(before) + "\n" + tail + "\n").encode())
        self._compare(p, column, strict, block)

    @pytest.mark.parametrize("bad, first", [
        ("1\n2\ninf\nabc\n5\n", "'inf'"),    # non-finite first
        ("1\n2\nabc\ninf\n5\n", "'abc'"),    # unparseable first
        ("1,1\n2,2\n3\n4,inf\n", "None"),    # a short row, no cell at all
    ])
    def test_strict_names_first_bad_cell(self, tmp_path, monkeypatch, bad, first):
        monkeypatch.setattr(diagnostics, "CSV_BLOCK", 6)
        p = tmp_path / "s.csv"
        p.write_text("x,y\n" + bad)
        column = 1 if "," in bad else 0
        with pytest.raises(DataError) as exc:
            read_return_series(p, column, strict=True)
        assert str(exc.value) == f"unparseable value in column {column}: {first}"
        assert str(exc.value) == _read_outcome(oracles.read_return_series_two_pass, p,
                                               column, True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_short_lines_fill_a_block(self, tmp_path, strict):
        # at the real block size, lines of at most 4 characters put more than
        # 8192 of them in one block; NA rows, nan, inf and an unparseable
        # cell send their blocks row by row
        cells = [str(i % 97) for i in range(60000)]
        for i in range(100, 9000, 1000):
            cells[i] = "NA"
        cells[30000], cells[31000], cells[50000] = "nan", "inf", "abc"
        assert diagnostics.CSV_BLOCK // max(len(c) + 1 for c in cells) > 8192
        p = tmp_path / "short.csv"
        p.write_text("x\n" + "\n".join(cells) + "\n")
        got = _read_outcome(read_return_series, p, None, strict)
        assert got == _read_outcome(oracles.read_return_series_two_pass, p, None, strict)
        if not strict:
            assert got[1] == 9 + 3


class TestBuildTailReport:
    def test_simulated_self_consistency(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 30), 10000)
        rep = build_tail_report(ReturnSeries(x, label="sim"))
        assert rep.n == 10000
        assert rep.kurtosis is not None and rep.kurtosis > 3.0
        ref = hill_experiment(10.0, 10000, sims=100, seed=SEED)
        by_rule = {h.rule: h.gamma_hat for h in rep.hill}
        for rule, mean in zip(HILL_RULES, ref.means):
            # single sample vs the experiment mean: a few per-sim sd apart
            assert abs(by_rule[rule] - mean) < 0.15

    def test_options_reach_each_field(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 32), 2000)
        rep = build_tail_report(ReturnSeries(x), levels=(2.0,), hill_tail="abs",
                                ratio_factor=1.0)
        assert [r.k_sigmas for r in rep.exceedances] == [2.0]
        assert [h.gamma_hat for h in rep.hill] == [
            hill_estimate(x, hill_k(rule, len(x)), tail="abs") for rule in HILL_RULES]
        assert all(r == 1.0 for _, r in rep.tail_ratio)

    @pytest.mark.parametrize("option", [{"levels": (3.0, -1.0)}, {"levels": (math.nan,)},
                                        {"levels": (math.inf,)}, {"ratio_factor": 0.5},
                                        {"ratio_factor": math.nan}, {"hill_tail": "bogus"}],
                             ids=str)
    def test_bad_option_raises_before_any_section(self, monkeypatch, option):
        # a bad hill_tail once gave three "hill[...] unavailable" notes instead
        def no_section(*args, **kwargs):
            raise AssertionError("a section ran before the options were checked")

        monkeypatch.setattr(diagnostics, "empirical_kurtosis", no_section)
        message = "tail must be one of" if "hill_tail" in option else "must be finite"
        with pytest.raises(ValueError, match=message):
            build_tail_report(ReturnSeries(np.ones(50)), **option)

    def test_constant_series_is_refused(self, monkeypatch):
        # this once returned a report of notes with sigma 0, which audit then refused
        monkeypatch.setattr(diagnostics, "empirical_kurtosis", None)  # no section runs
        with pytest.raises(DataError, match="^degenerate series: zero variance$"):
            build_tail_report(ReturnSeries(np.ones(50)))

    @pytest.mark.parametrize("values, message", [
        ([1e200, -1e200, 5e199], "mean 1.66667e+199, sigma inf"),
        ([1.7e308, 1.7e308, 1.0], "mean inf, sigma inf")], ids=["squares", "sum"])
    def test_series_out_of_double_range_is_refused(self, values, message, monkeypatch):
        # sigma, or the mean too, overflowed: the report held inf or nan
        # after numpy warnings
        monkeypatch.setattr(diagnostics, "empirical_kurtosis", None)  # no section runs
        pattern = re.escape(f"series out of double range: {message}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{pattern}$"):
                build_tail_report(ReturnSeries(np.array(values)))

    def test_minimal_series_kurtosis_unavailable(self):
        rep = build_tail_report(ReturnSeries(np.array([1.0, 2.0])))
        assert rep.kurtosis is None
        assert any("kurtosis" in n for n in rep.notes)

    def test_hill_reciprocal_field(self):
        x = SymmetrizedGamma(10.0).sample(child_rng(SEED, 31), 5000)
        rep = build_tail_report(ReturnSeries(x))
        for h in rep.hill:
            assert h.alpha_implied == pytest.approx(1.0 / h.gamma_hat, rel=1e-12)
