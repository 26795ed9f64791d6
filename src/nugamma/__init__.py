"""Symmetrized-gamma (nu-normal) distribution toolkit.

A numerical library plus CLI around the symmetrized gamma family: exact
moments and deviation probabilities, sharp unimodal tail bounds, Hill
estimator experiments, tail-ratio curves, random-sum limit simulations
and stable characteristic-function fits.
"""

from .bounds import (
    BoundResult,
    GaussExtremalMixture,
    chebyshev_bound,
    expected_exceedances,
    gauss_bound,
)
from .cffit import (
    FitWindow,
    StableFit,
    feasible_lambda_interval,
    fit_stable_cf_values,
    fit_stable_to_cf,
    sum_cf,
)
from .diagnostics import (
    ReturnSeries,
    TailReport,
    build_tail_report,
    empirical_kurtosis,
    exceedance_counts,
    hill_estimate,
    hill_experiment,
    ks_critical_value,
    ks_distance,
    read_return_series,
    tail_ratio_curve,
)
from .dist import SymmetricStable, SymmetrizedGamma
from .errors import DataError, FitError, IntegrationError, NuGammaError, OutOfRegimeError
from .randsum import (
    Component,
    NuFamily,
    RandomSumConfig,
    fit_stable_to_ecdf,
    prelimit_experiment,
    random_sum_draws,
    theorem1_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "chebyshev_bound", "expected_exceedances", "gauss_bound",
    "FitWindow", "StableFit", "feasible_lambda_interval",
    "fit_stable_cf_values", "fit_stable_to_cf", "sum_cf",
    "ReturnSeries", "TailReport", "build_tail_report",
    "empirical_kurtosis", "exceedance_counts", "hill_estimate", "hill_experiment",
    "ks_critical_value", "ks_distance", "read_return_series", "tail_ratio_curve",
    "GaussExtremalMixture", "SymmetricStable", "SymmetrizedGamma",
    "DataError", "FitError", "IntegrationError", "NuGammaError", "OutOfRegimeError",
    "Component", "NuFamily", "RandomSumConfig", "fit_stable_to_ecdf",
    "prelimit_experiment", "random_sum_draws", "theorem1_experiment",
]
