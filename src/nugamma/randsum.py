"""Random summation: the counting family nu_p, random-sum sampling and
the convergence / pre-limit experiments.

The summand count nu_p has probability generating function

    P_p(z, m) = p^(1/m) z / (1 - (1-p) z^m)^(1/m),

supported on {1, 1+m, 1+2m, ...} with mean 1/p.  Writing nu = 1 + m N
with N negative-binomial (size 1/m, success p) reproduces exactly that
pgf, and N itself is drawn through the gamma-Poisson mixture so the
non-integer size 1/m is no obstacle.

A law X is a fixed point of random summation when X =d p^(1/2) * sum of
nu_p i.i.d. copies, for every p; the symmetrized gamma family has this
property with respect to its own m, and for arbitrary centered
variance-2 summands the normalized sums converge to it as p -> 0.  The
normalization p^(1/2) is required: without it the sum's variance grows
like 1/p and no limit exists.

Sampling is batched: replicates come in fixed-size chunks with one
random stream each (see ``parallel``), and a chunk draws all its nu at
once.  Symmetrized gamma summands are then summed in closed form -- nu
SG(m) variates add up to Gamma(nu/m, sqrt(m)) - Gamma(nu/m, sqrt(m)) --
and uniform ones are drawn flat and reduced per replicate; the literal
one-replicate loop in ``tests/oracles.py`` is the batched path's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cffit import minimize
from .diagnostics import ks_distance
from .dist import SymmetricStable, SymmetrizedGamma
from .errors import FitError, OutOfRegimeError
from .parallel import chunked_draws

ECDF_GRID_POINTS = 512
ECDF_CENTRAL_SPAN = 0.999

# sg summands are summed in closed form, O(1) draws per replicate, so
# their stages need no draw budget and no process pool.  Summands drawn
# one by one (uniform) cost one draw each: a stage whose expected count,
# replicates / p, exceeds this is refused before drawing
MAX_EXPECTED_SUMMANDS = 2 ** 34
# nu = 1 + m N is drawn in int64, N ~ Poisson(lam) with lam = G (1 - p)/p
# and G ~ Gamma(1/m, 1).  As 1/m <= 1, G lies stochastically below Exp(1),
# so P{G > 50} <= e^-50 ~ 2e-22 per draw and nu's tail scale is m/p.  For
# p >= 50 m 2^-62 every G up to 50 keeps m lam below 2^62, half of int64's
# range, which leaves room for N's Poisson spread of sqrt(lam) and the + 1.
# Far below it 1 + m N wraps around to negative counts (m = 3, p = 1e-18),
# or numpy's Poisson refuses lam outright (p = 1e-300)
COUNT_TAIL_SCALES = 50.0
# flat summand draws are reduced in sub-batches of about this many, split
# on replicate boundaries, so memory stays flat at every p; 1 MiB of
# doubles stays in a core's L2 cache while it is drawn, scaled and summed
FLAT_BATCH = 2 ** 17


@dataclass(frozen=True)
class NuFamily:
    """Counting family nu_p: positive whole-number m, p in (0, 1) and
    p >= COUNT_TAIL_SCALES m 2^-62, so that every count fits in int64."""

    m: int
    p: float

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if self.m > self.p * 2.0 ** 62 / COUNT_TAIL_SCALES:
            raise OutOfRegimeError(
                f"p={self.p:g} is below {COUNT_TAIL_SCALES:g} m 2^-62 at m={self.m}: "
                "its summand counts 1 + m N would overflow int64")

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    def pgf(self, z):
        """P_p(z, m) for z in [0, 1]."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("pgf defined here for z in [0, 1]")
        out = self.p ** (1.0 / self.m) * z / (1.0 - (1.0 - self.p) * z ** self.m) ** (1.0 / self.m)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        """nu = 1 + m * N, N negative binomial via the gamma-Poisson mixture."""
        lam = rng.gamma(1.0 / self.m, (1.0 - self.p) / self.p, size=size)
        return 1 + self.m * rng.poisson(lam)


@dataclass(frozen=True)
class Component:
    """Picklable spec of a centered summand distribution: ``uniform`` on
    [-param, param], or ``sg``, the symmetrized gamma law with m = param."""

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "sg"):
            raise ValueError(f"unknown component kind {self.kind!r}")

    @property
    def variance(self) -> float:
        return self.param ** 2 / 3.0 if self.kind == "uniform" else 2.0

    @classmethod
    def uniform_var2(cls) -> "Component":
        return cls(kind="uniform", param=math.sqrt(6.0))

    @classmethod
    def symmetrized_gamma(cls, m: float) -> "Component":
        return cls(kind="sg", param=float(m))

    def sample(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """n draws; uniform ones fill ``out`` (length n) when it is given.

        Uniform draws are scaled in place, bit for bit the values of
        ``rng.uniform(-param, param, n)``.
        """
        if self.kind == "sg":
            return SymmetrizedGamma(self.param).sample(rng, n)
        y = rng.random(n, out=out)
        y *= 2.0 * self.param
        y -= self.param
        return y


@dataclass(frozen=True)
class RandomSumConfig:
    family: NuFamily
    component: Component
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


def _flat_sums(rng: np.random.Generator, nu: np.ndarray, component: Component) -> np.ndarray:
    """Per-replicate sums of flat ``component.sample`` draws, in sub-batches
    of about FLAT_BATCH summands that end on replicate boundaries; every
    sub-batch is drawn into the same buffer."""
    ends = np.cumsum(nu)
    out = np.empty(len(nu))
    # a sub-batch holds at most FLAT_BATCH summands, or one replicate's
    buf = np.empty(min(int(ends[-1]), max(FLAT_BATCH, int(nu.max()))))
    lo = 0
    while lo < len(nu):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + FLAT_BATCH, side="right")))
        size = int(ends[hi - 1]) - start
        y = component.sample(rng, size, out=buf[:size])
        out[lo:hi] = np.add.reduceat(y, ends[lo:hi] - nu[lo:hi] - start)
        lo = hi
    return out


def _sums_chunk(rng: np.random.Generator, k: int, family: NuFamily,
                component: Component) -> np.ndarray:
    nu = family.sample(rng, size=k)
    if component.kind == "sg":
        shape, scale = nu / component.param, math.sqrt(component.param)
        sums = rng.gamma(shape, scale) - rng.gamma(shape, scale)
    else:
        sums = _flat_sums(rng, nu, component)
    return math.sqrt(family.p) * sums


def _check_draw_budget(config: RandomSumConfig) -> None:
    if config.component.kind == "sg":
        return
    expected = config.replicates / config.family.p
    if expected > MAX_EXPECTED_SUMMANDS:
        raise ValueError(
            f"{config.replicates} replicates at p={config.family.p:g} need about "
            f"{expected:.3g} summand draws, over the budget of {MAX_EXPECTED_SUMMANDS:.3g}")


def random_sum_draws(config: RandomSumConfig, *, stage: int = 0, workers: int = 1) -> np.ndarray:
    """All replicates, one child stream per (stage, chunk index)."""
    _check_draw_budget(config)
    if config.component.kind == "sg":
        workers = 1  # the streams, and so the draws, do not depend on it
    return chunked_draws(_sums_chunk, (config.family, config.component),
                         config.replicates, config.seed, (stage,), workers)


def theorem1_experiment(m: int, component: Component, p_schedule,
                        replicates: int, seed: int,
                        workers: int = 1) -> list[tuple[float, float]]:
    """KS distance between normalized random sums and the symmetrized
    gamma law with the same m, per p of a decreasing schedule.

    Summands must be centered with variance 2 so that the limit is the
    standardized law itself; the distances shrink along the schedule up
    to Monte Carlo noise (and sit at the noise floor when the summands
    are symmetrized gamma already, the fixed-point case).
    """
    p_schedule = list(p_schedule)
    if any(b >= a for a, b in zip(p_schedule, p_schedule[1:])):
        raise ValueError("p_schedule must be strictly decreasing")
    if abs(component.variance - 2.0) > 1e-9:
        raise ValueError("theorem1_experiment requires a variance-2 component")
    configs = [RandomSumConfig(NuFamily(m, p), component, replicates, seed) for p in p_schedule]
    for cfg in configs:
        _check_draw_budget(cfg)
    target = SymmetrizedGamma(float(m))
    target._cdf_table  # built before any draw: it refuses an m outside its domain
    rows = []
    for stage, (p, cfg) in enumerate(zip(p_schedule, configs)):
        sums = random_sum_draws(cfg, stage=stage, workers=workers)
        rows.append((float(p), ks_distance(sums, target.cdf)))
    return rows


def _prelimit_chunk(rng: np.random.Generator, k: int, m_eff: float, factor: float) -> np.ndarray:
    return SymmetrizedGamma(m_eff).sample(rng, k) * factor


def evaluation_grid(draws: np.ndarray) -> np.ndarray:
    """ECDF_GRID_POINTS equally spaced points over the central 99.9% of the draws."""
    tail = 0.5 * (1.0 - ECDF_CENTRAL_SPAN)
    lo, hi = np.quantile(draws, [tail, 1.0 - tail])
    return np.linspace(lo, hi, ECDF_GRID_POINTS)


def ecdf_values(draws: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.searchsorted(np.sort(draws), grid, side="right") / len(draws)


@dataclass(frozen=True)
class PrelimitResult:
    sums: np.ndarray
    grid: np.ndarray
    ecdf: np.ndarray


def prelimit_experiment(m: int, n: int, replicates: int, exponent_alpha: float,
                        seed: int) -> PrelimitResult:
    """Replicate sums of n symmetrized gamma(m) variates, each divided by
    n^(1/exponent_alpha), with their empirical CDF on the standard grid.

    By gamma additivity such a sum has exactly the law sqrt(n) SG(m/n),
    so each replicate costs two gamma draws whatever n is; chunk c of
    the replicates draws from the stream (seed, c).  That is too little
    work for a process pool, so the draws always run in-process, as for
    sg summands in :func:`random_sum_draws`.
    """
    if n < 1 or replicates < 2:  # one draw spans no central interval for the grid
        raise ValueError(f"need n >= 1 and replicates >= 2, got n={n}, replicates={replicates}")
    if not 0.0 < exponent_alpha <= 2.0:
        raise ValueError(f"exponent_alpha must be in (0, 2], got {exponent_alpha}")
    scale = float(n) ** (1.0 / exponent_alpha)
    sums = chunked_draws(_prelimit_chunk, (m / n, math.sqrt(n) / scale), replicates, seed, ())
    grid = evaluation_grid(sums)
    return PrelimitResult(sums=sums, grid=grid, ecdf=ecdf_values(sums, grid))


@dataclass(frozen=True)
class EcdfStableFit:
    alpha: float
    lam: float
    residual: float
    ks: float
    cdf: np.ndarray  # the fitted CDF on the grid of the fit


def fit_stable_to_ecdf(grid: np.ndarray, ecdf: np.ndarray,
                       start: tuple[float, float]) -> EcdfStableFit:
    """Least-squares symmetric-stable CDF fit to an empirical CDF table.

    Deterministic bounded Nelder-Mead over (alpha, lambda) from ``start``
    (``fig2`` takes (1.9, var/2) of its sums); the reported ks is the sup
    distance between the table and the fitted CDF ``cdf`` on the same
    grid.  Raises FitError when Nelder-Mead does not converge.
    """
    a0 = min(max(start[0], 0.81), 1.99)
    l0 = min(max(start[1], 2e-3), 49.0)

    def objective(p) -> float:
        model = SymmetricStable(alpha=float(p[0]), lam=float(p[1])).cdf_grid(grid)
        return float(np.sum((ecdf - model) ** 2))

    res = minimize(objective, (a0, l0), bounds=[(0.8, 2.0), (1e-3, 50.0)])
    if not res.success:
        raise FitError(f"Nelder-Mead did not converge: {res.message}")
    alpha, lam = float(res.x[0]), float(res.x[1])
    model = SymmetricStable(alpha=alpha, lam=lam).cdf_grid(grid)
    return EcdfStableFit(alpha=alpha, lam=lam, residual=float(res.fun),
                         ks=float(np.max(np.abs(ecdf - model))), cdf=model)
