"""Symmetrized-gamma (nu-normal) distribution toolkit.

A numerical library plus CLI around the symmetrized gamma family: exact
moments and deviation probabilities, sharp unimodal tail bounds, Hill
estimator experiments, tail-ratio curves, random-sum limit simulations
and stable characteristic-function fits.

The public names load on first use (PEP 562), each with its home
module, so ``import nugamma.cli`` and a command that needs only
arithmetic do not pay for numpy and the modules they never call.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "bounds": ("BoundResult", "chebyshev_bound", "expected_exceedances", "gauss_bound",
               "GaussExtremalMixture"),
    "cffit": ("FitWindow", "StableFit", "feasible_lambda_interval",
              "fit_stable_cf_values", "fit_stable_to_cf", "sum_cf"),
    "diagnostics": ("ReturnSeries", "TailReport", "build_tail_report",
                    "empirical_kurtosis", "exceedance_counts", "hill_estimate",
                    "hill_experiment", "ks_critical_value", "ks_distance",
                    "read_return_series", "tail_ratio_curve"),
    "dist": ("SymmetricStable", "SymmetrizedGamma"),
    "errors": ("ArgumentError", "DataError", "FitError", "IntegrationError", "NuGammaError",
               "OutOfRegimeError"),
    "randsum": ("Component", "NuFamily", "RandomSumConfig", "fit_stable_to_ecdf",
                "prelimit_experiment", "random_sum_draws", "theorem1_experiment"),
}.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(_import_module(f"{__name__}.{home}"), name)
        globals()[name] = value
        return value
    try:  # nugamma.<submodule> without importing it first
        return _import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
