"""Command-line frontend.

Each subcommand produces one report document (table/CSV/JSON, optional
SVG chart) from the library layer.  Identical command line and seed give
byte-identical payloads regardless of ``--workers``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
non-convergence.

Each handler imports the modules it runs, and ``run`` imports the
renderers once a handler has returned: building the parser loads no
numpy, and ``bounds`` runs without it.
"""

from __future__ import annotations

import argparse
import sys

from .conventions import DEFAULT_HILL_TAIL, DEFAULT_SEED, HILL_TAILS
from .errors import DataError, FitError, IntegrationError, OutOfRegimeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise _UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    values = _float_list(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"not all whole numbers: {text!r}")
    return [int(v) for v in values]


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed (default 0x5EED)")
    common.add_argument("--workers", type=_count, default=1,
                        help="worker processes for Monte Carlo commands")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument("--svg", default=None, help="also write a line chart to this path")

    p = _Parser(prog="nugamma",
                description="Symmetrized-gamma distribution toolkit and tail diagnostics")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, help):
        q = sub.add_parser(name, parents=[common], help=help)
        q.set_defaults(handler=handler)
        return q

    q = command("table1", _cmd_table1,
                "two-sided deviation probabilities per family parameter m")
    q.add_argument("--m-list", type=_float_list, default=[float(v) for v in range(10, 101, 10)])
    q.add_argument("--k-sigmas", type=float, default=10.0)
    q.add_argument("--strict-sigma", action="store_true",
                   help="measure the level in true sigma units instead of the "
                        "reference table's sigma^2 units")

    q = command("table3", _cmd_table3,
                "stable (alpha, lambda) fits to the CF of standardized sums")
    q.add_argument("--m", type=float, default=20.0)
    q.add_argument("--n-list", type=_int_list, default=[1, *range(10, 101, 10)])
    q.add_argument("--delta", type=float, default=0.005)
    q.add_argument("--Delta", type=float, default=0.5)
    q.add_argument("--grid-size", type=int, default=256)
    q.add_argument("--method", choices=("ls-cf", "loglog", "both"), default="ls-cf")

    q = command("fig1", _cmd_fig1,
                "tail-ratio curve P{X>x}/P{X>1.5x} of the analytic law")
    q.add_argument("--m", type=float, default=50.0)
    q.add_argument("--x-min", type=float, default=1.0)
    q.add_argument("--x-max", type=float, default=50.0)
    q.add_argument("--points", type=_count, default=50)
    q.add_argument("--factor", type=float, default=1.5)

    q = command("fig2", _cmd_fig2,
                "pre-limit experiment: ECDF of normalized sums vs stable fit")
    q.add_argument("--m", type=int, default=100)
    q.add_argument("--n", type=int, default=10000)
    q.add_argument("--exponent", type=float, default=1.83)
    q.add_argument("--reps", dest="replicates", type=_count, default=1000,
                   help="replicate sums (at least 2)")

    q = command("hill", _cmd_hill,
                "mean Hill estimate for k = sqrt(n), n^(2/3), n^(4/5)")
    q.add_argument("--m", type=float, default=10.0)
    q.add_argument("--n", type=_count, default=10000)
    q.add_argument("--sims", type=_count, default=100)
    q.add_argument("--tail", choices=HILL_TAILS, default=DEFAULT_HILL_TAIL)

    q = command("bounds", _cmd_bounds,
                "unimodal and Chebyshev deviation bounds with expected counts")
    q.add_argument("--d-list", type=_float_list, default=[2.0, 5.0, 10.0, 40.0])
    q.add_argument("--sigma", type=float, default=1.0)
    q.add_argument("--n", type=int, default=50000)

    q = command("audit", _cmd_audit,
                "full tail diagnostic report over a CSV return series")
    q.add_argument("input_path")
    q.add_argument("--column", default=None, help="column name or index (default: first numeric)")
    q.add_argument("--strict", action="store_true", help="abort on unparseable rows")
    q.add_argument("--levels", type=_float_list, default=[3.0, 5.0, 10.0])
    q.add_argument("--factor", type=float, default=1.5)
    q.add_argument("--hill-tail", choices=HILL_TAILS, default=DEFAULT_HILL_TAIL)

    q = command("randsum", _cmd_randsum,
                "random-sum convergence: KS distance to the limit law per p")
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--component", choices=("uniform", "sg"), default="uniform")
    q.add_argument("--p-schedule", type=_float_list, default=[0.1, 0.01, 0.001])
    q.add_argument("--reps", dest="replicates", type=_count, default=100000,
                   help="replicate sums per p")

    return p


# ----------------------------------------------------------------------
# command handlers: payload, provenance and chart, where the chart is
# (title, ylabel, rows, x column, y columns) drawn from payload rows
# ----------------------------------------------------------------------

def _cmd_table1(args):
    from .dist import SymmetrizedGamma

    unit = "sigma" if args.strict_sigma else "sigma_squared"
    rows = [{"m": m, "probability": SymmetrizedGamma(m).two_sided_exceed(args.k_sigmas, unit=unit)}
            for m in args.m_list]
    prov = [
        f"deviation level {args.k_sigmas:g} measured in units of "
        + ("sigma (threshold k*sqrt(2))" if unit == "sigma" else
           "sigma^2 (threshold 2k; the convention that reproduces the reference table)"),
        "analytic quadrature of the Bessel density; absolute accuracy 1e-9, "
        "reference agreement 4 significant digits",
    ]
    return rows, prov, ("two-sided deviation probability", "P{|X| > level}",
                        rows, "m", ["probability"])


def _fit_rows(m, n_list, window, method):
    """One fit row per n; a row whose fit raises FitError is blank with the
    message under "error".  Raises FitError when every row failed."""
    from . import cffit

    rows = []
    for n in n_list:
        try:
            fit = cffit.fit_stable_to_cf(m, n, window, method)
        except FitError as exc:
            rows.append({"n": n, "alpha": None, "lambda": None, "residual": None,
                         "method": method, "error": str(exc)})
        else:
            rows.append({"n": n, "alpha": fit.alpha, "lambda": fit.lam,
                         "residual": fit.residual, "method": fit.method})
    if all("error" in r for r in rows):
        raise FitError(f"every row failed; first: {rows[0]['error']}")
    return rows


# --method choice -> the cffit methods it fits, the first one charted
_TABLE3_METHODS = {"ls-cf": ["ls-cf"], "loglog": ["loglog-regression"],
                   "both": ["ls-cf", "loglog-regression"]}


def _cmd_table3(args):
    from . import cffit

    window = cffit.FitWindow(args.delta, args.Delta, args.grid_size)
    prov = [
        f"window ({args.delta:g}, {args.Delta:g}), {args.grid_size} grid points",
        "ls-cf: least squares on CF values over a linear grid (reference tolerance "
        "alpha +/- 0.05, lambda +/- 0.1); loglog-regression: OLS in log-log space",
    ]
    methods = _TABLE3_METHODS[args.method]
    fits = {method: _fit_rows(args.m, args.n_list, window, method) for method in methods}
    payload = fits if len(methods) > 1 else fits[methods[0]]
    if len(methods) > 1:
        prov.append("comparison mode: both methods emitted")
    return payload, prov, ("stable fit exponent vs summand count", "alpha",
                           fits[methods[0]], "n", ["alpha"])


def _cmd_fig1(args):
    import numpy as np

    from .diagnostics import tail_ratio_curve
    from .dist import SymmetrizedGamma

    d = SymmetrizedGamma(args.m)
    if not np.isfinite([args.x_min, args.x_max]).all():  # linspace would warn
        raise ValueError(f"x range must be finite, got {args.x_min} to {args.x_max}")
    xs = np.linspace(args.x_min, args.x_max, args.points)
    curve = tail_ratio_curve(d.survival, xs, args.factor)
    rows = [{"x": x, "ratio": r} for x, r in curve]
    defined = [r for _, r in curve if r is not None]
    prov = [
        f"analytic survival ratio P{{X>x}}/P{{X>{args.factor:g}x}} for m={args.m:g}",
        "quadrature tails, relative accuracy ~1e-8; frozen fixtures agree to 1e-6 relative",
    ]
    if defined:
        prov.append(f"curve band over the window: min {min(defined):.6g}, max {max(defined):.6g} "
                    "(slowly varying; compare the explosive growth of an exponential-tail ratio)")
    return rows, prov, ("tail ratio", "ratio", rows, "x", ["ratio"])


def _cmd_fig2(args):
    from . import randsum

    res = randsum.prelimit_experiment(args.m, args.n, args.replicates, args.exponent, args.seed)
    start = (1.9, float(res.sums.var()) / 2.0)
    fit = randsum.fit_stable_to_ecdf(res.grid, res.ecdf, start)
    payload = {
        "fit": [{"alpha": fit.alpha, "lambda": fit.lam, "ks": fit.ks,
                 "residual": fit.residual}],
        "ecdf": [{"x": float(x), "empirical": float(e), "stable_fit": float(s)}
                 for x, e, s in zip(res.grid, res.ecdf, fit.cdf)],
    }
    prov = [
        f"{args.replicates} replicate sums of n={args.n} variates (m={args.m}), "
        f"each scaled by n^(-1/{args.exponent:g})",
        "stable overlay fitted to the ECDF by least squares on the evaluation grid; "
        "the reported ks is the sup distance between the two curves",
    ]
    return payload, prov, ("normalized-sum ECDF vs fitted stable CDF", "F(x)",
                           payload["ecdf"], "x", ["empirical", "stable_fit"])


def _cmd_hill(args):
    from . import diagnostics

    res = diagnostics.hill_experiment(args.m, args.n, sims=args.sims, seed=args.seed,
                                      workers=args.workers, tail=args.tail)
    rows = [
        {"rule": rule, "k": k, "mean_gamma_hat": mean,
         "alpha_implied": (1.0 / mean) if mean > 0 else None}
        for rule, k, mean in zip(diagnostics.HILL_RULES, res.ks, res.means)
    ]
    prov = [
        f"mean over {args.sims} simulations of n={args.n} draws at m={args.m:g}",
        f"estimator: raw mean log-spacing gamma_hat on the {args.tail} tail "
        "(alpha_implied is its reciprocal); the positive-tail convention reproduces "
        "the reference triple (0.37, 0.65, 1.39) within +/-0.1",
    ]
    return rows, prov, ("Hill estimate vs k", "mean gamma_hat", rows, "k", ["mean_gamma_hat"])


def _cmd_bounds(args):
    from . import bounds

    rows = []
    for d in args.d_list:
        try:
            g = bounds.gauss_bound(d, args.sigma)
            rows.append({"d": d, "kind": g.kind, "bound": g.bound,
                         "expected_exceedances": bounds.expected_exceedances(args.n, g)})
        except OutOfRegimeError as exc:
            rows.append({"d": d, "kind": "gauss-unimodal", "bound": None,
                         "expected_exceedances": None, "error": str(exc)})
        c = bounds.chebyshev_bound(d, args.sigma)
        rows.append({"d": d, "kind": c.kind, "bound": c.bound,
                     "expected_exceedances": bounds.expected_exceedances(args.n, c)})
    prov = [
        f"two-sided deviation bounds at sigma={args.sigma:g}, expected counts for n={args.n}",
        "gauss-unimodal bound 4 sigma^2/(9 d^2) is sharp (atom plus rectangle attains it); "
        "valid for d^2 >= 4 sigma^2/3, error reported outside that regime",
    ]
    # rows without a bound would still widen the chart's x axis
    gauss_rows = [r for r in rows if r["kind"] == "gauss-unimodal" and r["bound"] is not None]
    return rows, prov, ("deviation bounds", "gauss-unimodal bound", gauss_rows, "d", ["bound"])


def _cmd_audit(args):
    from dataclasses import asdict

    from . import diagnostics

    # a bad option fails before the file is read
    levels = [diagnostics._check_level(k) for k in args.levels]
    diagnostics._check_factor(args.factor)
    series, skipped = diagnostics.read_return_series(args.input_path, args.column,
                                                     strict=args.strict)
    if float(series.values.std()) == 0.0:
        raise DataError("degenerate series: zero variance")
    rep = diagnostics.build_tail_report(series, levels=levels,
                                        hill_tail=args.hill_tail, ratio_factor=args.factor)
    payload = {
        "summary": [{"label": series.label, "n": rep.n, "mean": rep.mean,
                     "sigma": rep.sigma, "kurtosis": rep.kurtosis,
                     "skipped_rows": skipped}],
        "exceedances": [asdict(r) for r in rep.exceedances],
        "hill": [asdict(r) for r in rep.hill],
        "tail_ratio": [{"x": x, "ratio": r} for x, r in rep.tail_ratio],
        "notes": [{"note": n} for n in rep.notes],
    }
    prov = [
        f"source: {series.source} (column {series.label!r}, {skipped} rows skipped)",
        "exceedance expectations: normal two-sided tail vs the unimodal bound 4/(9k^2)",
        f"hill convention: {args.hill_tail} tail, raw log-spacing mean",
    ]
    return payload, prov, ("empirical tail ratio", "ratio", payload["tail_ratio"], "x", ["ratio"])


def _cmd_randsum(args):
    from . import randsum
    from .diagnostics import ks_critical_value

    comp = (randsum.Component.uniform_var2() if args.component == "uniform"
            else randsum.Component.symmetrized_gamma(args.m))
    rows_raw = randsum.theorem1_experiment(args.m, comp, args.p_schedule,
                                           args.replicates, args.seed, args.workers)
    crit = ks_critical_value(args.replicates)
    rows = [{"p": p, "ks_distance": ks, "ks_critical_1pct": crit} for p, ks in rows_raw]
    prov = [
        f"{args.replicates} normalized random sums p^(1/2)*sum of {args.component} "
        f"variance-2 summands per p, counting family m={args.m}",
        "KS distance to the analytic symmetrized gamma CDF with the same m; "
        "with symmetrized gamma summands the law is an exact fixed point and the "
        "distance sits at the noise floor",
    ]
    return rows, prov, ("random-sum convergence", "KS distance", rows, "p", ["ks_distance"])


def _config_echo(args) -> dict:
    """The parsed options, sorted, less the subcommand and its output paths."""
    return {key: val for key, val in sorted(vars(args).items())
            if key not in {"command", "handler", "out", "svg"}}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        payload, provenance, chart = args.handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IntegrationError, FitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as exc:  # a size option too large to allocate
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a numeric failure no layer anticipated
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    from . import report

    doc = report.make_document(args.command, _config_echo(args), payload, provenance)
    text = report.render(doc, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        title, ylabel, rows, x, ys = chart
        series = [(y, [r[x] for r in rows], [r[y] for r in rows]) for y in ys]
        with open(args.svg, "w") as fh:
            fh.write(report.svg_line_chart(series, title, x, ylabel))
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
