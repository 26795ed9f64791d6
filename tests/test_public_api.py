"""The package's public surface: its export list names exactly its public
non-module names, each resolved lazily from its home module, its source
imports from scipy only what it must, and each public callable refuses a
bad argument with a NuGammaError that is also a ValueError."""

import ast
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import nugamma
from nugamma.errors import ArgumentError, DataError, NuGammaError, OutOfRegimeError


def test_all_matches_public_names():
    # the names resolve on first use, so read them through dir() and getattr
    public = {name for name in dir(nugamma)
              if not name.startswith("_") and not inspect.ismodule(getattr(nugamma, name))}
    assert set(nugamma.__all__) == public


@pytest.mark.parametrize("name", nugamma.__all__)
def test_export_is_the_object_of_its_home_module(name):
    value = getattr(nugamma, name)
    home = value.__module__
    assert home.startswith("nugamma.") and getattr(sys.modules[home], name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nugamma import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nugamma.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nugamma.no_such_name


def test_submodule_resolves_without_an_import(monkeypatch):
    # the import system binds a submodule on its parent once imported;
    # without that binding the attribute still resolves
    monkeypatch.delattr(nugamma, "dist")
    assert nugamma.dist is sys.modules["nugamma.dist"]


def test_scipy_imports():
    # the runtime needs no scipy; quad serves specfun.integrate_sin, which
    # no command calls.  Any further scipy use shows up here.
    found = set()
    for path in sorted(Path(nugamma.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found |= {(path.name, mod, name) for mod, name in names
                      if mod.split(".")[0] == "scipy"}
    assert found == {("specfun.py", "scipy.integrate", "quad")}


def test_no_bare_value_or_type_error_is_raised():
    # a refusal is a NuGammaError: ArgumentError for a bad argument, and the
    # other subclasses for data, regime, fit and quadrature failures
    found = []
    for path in sorted(Path(nugamma.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in {"ValueError", "TypeError"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_argument_error_is_no_data_or_regime_error():
    # the CLI maps it to exit 1 as a ValueError, and bounds' per-row regime
    # rule does not swallow it
    assert issubclass(ArgumentError, NuGammaError) and issubclass(ArgumentError, ValueError)
    assert not issubclass(ArgumentError, (DataError, OutOfRegimeError))


ng = nugamma
NUMBERS = (0.0, -1.0, math.nan, math.inf)
_SAMPLE = np.linspace(-1.0, 2.0, 50)


def _window():
    return ng.FitWindow(0.005, 0.5)


def _config(replicates=10):
    return ng.RandomSumConfig(ng.NuFamily(2, 0.1), ng.Component.uniform_var2(), replicates, 1)


# (public name and argument, call of one bad value of that argument, the bad
# values, the error); the records BoundResult, StableFit and TailReport hold
# results and check nothing
BAD_CALLS = [
    ("chebyshev_bound(d)", lambda v: ng.chebyshev_bound(v, 1.0), NUMBERS, ArgumentError),
    ("chebyshev_bound(sigma)", lambda v: ng.chebyshev_bound(2.0, v), NUMBERS, ArgumentError),
    ("expected_exceedances(n)",
     lambda v: ng.expected_exceedances(v, ng.chebyshev_bound(2.0, 1.0)),
     (-1.0, -math.inf), ArgumentError),
    ("gauss_bound(d)", lambda v: ng.gauss_bound(v, 1.0), NUMBERS, ArgumentError),
    ("gauss_bound(sigma)", lambda v: ng.gauss_bound(2.0, v), NUMBERS, ArgumentError),
    ("GaussExtremalMixture(d)", lambda v: ng.GaussExtremalMixture(0.0, 1.0, v),
     NUMBERS, ArgumentError),
    ("GaussExtremalMixture.sample(n)",
     lambda v: ng.GaussExtremalMixture(0.0, 1.0, 2.0).sample(np.random.default_rng(0), v),
     NUMBERS, ArgumentError),
    ("FitWindow(delta)", lambda v: ng.FitWindow(v, 0.5), NUMBERS, ArgumentError),
    ("FitWindow(grid_size)", lambda v: ng.FitWindow(0.005, 0.5, v), NUMBERS, ArgumentError),
    ("feasible_lambda_interval(m_eff)",
     lambda v: ng.feasible_lambda_interval(v, 1.5, _window()), NUMBERS, ArgumentError),
    ("feasible_lambda_interval(alpha)",
     lambda v: ng.feasible_lambda_interval(20.0, v, _window()), NUMBERS, ArgumentError),
    ("fit_stable_cf_values(method)",
     lambda v: ng.fit_stable_cf_values(np.exp, _window(), v), ("bogus",), ArgumentError),
    ("fit_stable_to_cf(n)", lambda v: ng.fit_stable_to_cf(20.0, v, _window()),
     NUMBERS, ArgumentError),
    ("sum_cf(n)", lambda v: ng.sum_cf(20.0, v, 0.1), NUMBERS, ArgumentError),
    ("ReturnSeries(values)", lambda v: ng.ReturnSeries([0.0, v, 1.0]),
     (math.nan, math.inf), DataError),
    ("build_tail_report(levels)",
     lambda v: ng.build_tail_report(ng.ReturnSeries(_SAMPLE), levels=(3.0, v)),
     NUMBERS, ArgumentError),
    ("build_tail_report(ratio_factor)",
     lambda v: ng.build_tail_report(ng.ReturnSeries(_SAMPLE), ratio_factor=v),
     NUMBERS, ArgumentError),
    ("build_tail_report(hill_tail)",
     lambda v: ng.build_tail_report(ng.ReturnSeries(_SAMPLE), hill_tail=v),
     ("bogus",), ArgumentError),
    ("empirical_kurtosis(sample)", lambda v: ng.empirical_kurtosis([1.0, 2.0, v, 4.0]),
     (math.nan, math.inf), DataError),
    ("exceedance_counts(k_sigmas_list)", lambda v: ng.exceedance_counts(_SAMPLE, [v]),
     NUMBERS, ArgumentError),
    ("hill_estimate(k)", lambda v: ng.hill_estimate(_SAMPLE, v), NUMBERS, ArgumentError),
    ("hill_estimate(tail)", lambda v: ng.hill_estimate(_SAMPLE, 2, tail=v),
     ("bogus",), ArgumentError),
    ("hill_experiment(sims)", lambda v: ng.hill_experiment(10.0, 100, sims=v, seed=0),
     NUMBERS, ArgumentError),
    ("hill_experiment(tail)",
     lambda v: ng.hill_experiment(10.0, 100, sims=1, seed=0, tail=v), ("bogus",), ArgumentError),
    ("ks_critical_value(n)", lambda v: ng.ks_critical_value(v), (0.0, -1.0), ArgumentError),
    ("ks_distance(sample)", lambda v: ng.ks_distance([0.5, v], np.exp),
     (math.nan, math.inf), DataError),
    ("read_return_series(path)", lambda v: ng.read_return_series(v),
     ("no/such/directory/returns.csv",), DataError),
    ("tail_ratio_curve(factor)", lambda v: ng.tail_ratio_curve(np.exp, [1.0], v),
     NUMBERS, ArgumentError),
    ("tail_ratio_curve(x_grid)", lambda v: ng.tail_ratio_curve(np.exp, [v], 1.5),
     NUMBERS, ArgumentError),
    ("SymmetricStable(alpha)", lambda v: ng.SymmetricStable(v, 1.0), NUMBERS, ArgumentError),
    ("SymmetricStable(lam)", lambda v: ng.SymmetricStable(1.5, v), NUMBERS, ArgumentError),
    ("SymmetrizedGamma(m)", lambda v: ng.SymmetrizedGamma(v), NUMBERS, ArgumentError),
    ("SymmetrizedGamma.sample(n)",
     lambda v: ng.SymmetrizedGamma(2.0).sample(np.random.default_rng(0), v),
     NUMBERS, ArgumentError),
    ("SymmetrizedGamma.two_sided_exceed(k_sigmas)",  # an infinite level has probability 0
     lambda v: ng.SymmetrizedGamma(2.0).two_sided_exceed(v, unit="sigma"),
     (0.0, -1.0, math.nan), ArgumentError),
    ("SymmetrizedGamma.two_sided_exceed(unit)",
     lambda v: ng.SymmetrizedGamma(2.0).two_sided_exceed(3.0, unit=v), ("bogus",), ArgumentError),
    ("Component(kind)", lambda v: ng.Component(v, 1.0), ("bogus",), ArgumentError),
    ("NuFamily(m)", lambda v: ng.NuFamily(v, 0.5), NUMBERS, ArgumentError),
    ("NuFamily(p)", lambda v: ng.NuFamily(2, v), NUMBERS, ArgumentError),
    ("NuFamily.pgf(z)", lambda v: ng.NuFamily(2, 0.5).pgf(v), (-1.0, math.inf), ArgumentError),
    ("RandomSumConfig(replicates)", _config, NUMBERS, ArgumentError),
    ("fit_stable_to_ecdf(ecdf)",
     lambda v: ng.fit_stable_to_ecdf(np.linspace(-1.0, 1.0, 8),
                                     np.r_[np.linspace(0.0, 1.0, 7), v]),
     (math.nan, math.inf), DataError),
    ("prelimit_experiment(n)", lambda v: ng.prelimit_experiment(5, v, 10, 1.83, 1),
     NUMBERS, ArgumentError),
    ("prelimit_experiment(replicates)", lambda v: ng.prelimit_experiment(5, 50, v, 1.83, 1),
     NUMBERS, ArgumentError),
    ("prelimit_experiment(exponent_alpha)",
     lambda v: ng.prelimit_experiment(5, 50, 10, v, 1), NUMBERS, ArgumentError),
    ("random_sum_draws(stage)", lambda v: ng.random_sum_draws(_config(), stage=v),
     (-1.0, math.nan, math.inf), ArgumentError),
    ("theorem1_experiment(m)",
     lambda v: ng.theorem1_experiment(v, ng.Component.uniform_var2(), [0.1], 10, 1),
     NUMBERS, ArgumentError),
]


@pytest.mark.parametrize("call, value, error", [
    pytest.param(call, value, error, id=f"{label}={value}")
    for label, call, values, error in BAD_CALLS for value in values])
def test_a_bad_value_raises_a_package_error(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert isinstance(info.value, NuGammaError) and isinstance(info.value, ValueError)


def test_every_public_callable_has_bad_calls():
    records = {"BoundResult", "StableFit", "TailReport"}
    exceptions = {name for name in nugamma.__all__
                  if isinstance(getattr(nugamma, name), type)
                  and issubclass(getattr(nugamma, name), BaseException)}
    covered = {re.split(r"[(.]", label)[0] for label, *_ in BAD_CALLS}
    assert covered == set(nugamma.__all__) - records - exceptions
