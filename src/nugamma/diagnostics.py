"""Empirical tail diagnostics: Hill estimator, kurtosis, exceedance
counts, tail-ratio curves and the aggregated report over a return series.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import expected_exceedances, gauss_bound
from .conventions import DEFAULT_HILL_TAIL, HILL_TAILS
from .dist import SymmetrizedGamma
from .errors import (ArgumentError, DataError, OutOfRegimeError, check_at_least, check_one_of,
                     check_positive)
from .parallel import child_rng, run_tasks

# Hill k rules, in report order: rule name -> exponent e of k = floor(n^e)
HILL_RULES = {"sqrt": 0.5, "pow-2/3": 2.0 / 3.0, "pow-4/5": 0.8}
# quantiles of |x - mean| that form the tail report's tail-ratio grid
RATIO_QUANTILES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
# the Kolmogorov distribution's upper 1% point, scipy.special.kolmogi(0.01)
KS_CRITICAL_1PCT = 1.6276236115189504


# ----------------------------------------------------------------------
# series container and ingestion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnSeries:
    values: np.ndarray
    label: str = "series"
    source: str = "simulated"

    def __post_init__(self) -> None:
        vals = _finite_sample(self.values, "a return series")
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise DataError("a return series needs at least two values")


# cells that count as data, never as a header name, besides every string
# float() accepts (nan and inf included)
MISSING_MARKERS = frozenset({"NA"})

# after the first data row, the file is read in blocks of this many
# characters, cut at their last newline, and the selected cells of a
# block are converted in one pass; a block holding a short row, a cell
# float() rejects or a value that is not finite is parsed again row by
# row.  Larger blocks raise audit's peak memory and gain nothing.
CSV_BLOCK = 1 << 16


def _parse_cell(cell: str) -> float | None:
    try:
        v = float(cell)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _is_data(cell: str) -> bool:
    if cell.strip() in MISSING_MARKERS:
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _nonblank(row: list[str]) -> bool:
    return any(c.strip() for c in row)


def _take_rows(rows, idx: int, strict: bool, values: array) -> int:
    """Append each row's cell idx to values when it is a finite number;
    returns the count of non-blank rows skipped."""
    skipped = 0
    for r in rows:
        try:
            v = float(r[idx])
        except (IndexError, ValueError):
            v = math.nan
        if math.isfinite(v):
            values.append(v)
        elif _nonblank(r):
            if strict:
                cell = r[idx] if -len(r) <= idx < len(r) else None
                raise DataError(f"unparseable value in column {idx}: {cell!r}")
            skipped += 1
    return skipped


def _take_lines(lines: list[str], idx: int, strict: bool, values: array) -> int:
    """:func:`_take_rows` over lines holding no quote or carriage return,
    with one ``float`` conversion for all of them when every value is
    finite; any other block goes to :func:`_take_rows` row by row."""
    try:
        # into a fresh array: values.extend would keep the cells before a bad one
        vals = array("d", map(float, [ln.split(",")[idx] for ln in lines]))
    except (IndexError, ValueError):
        pass
    else:
        if np.isfinite(np.frombuffer(vals)).all():
            values.extend(vals)
            return 0
    return _take_rows([ln.split(",") for ln in lines], idx, strict, values)


def _take_rest(fh, idx: int, strict: bool, values: array) -> int:
    """:func:`_take_rows` over the rest of ``fh``, read in blocks as
    :func:`read_return_series` describes."""
    skipped, carry = 0, ""
    while block := fh.read(CSV_BLOCK):
        if '"' in block or "\r" in block or len(carry) + len(block) > csv.field_size_limit():
            # carry + block + the rest of its last line: whole lines, as csv reads them
            head = io.StringIO(carry + block + fh.readline(), newline="")
            return skipped + _take_rows(csv.reader(chain(head, fh)), idx, strict, values)
        lines = (carry + block).split("\n")
        carry = lines.pop()  # the last line, unless the block ends with a newline
        skipped += _take_lines(lines, idx, strict, values)
    return skipped + _take_lines([carry] if carry else [], idx, strict, values)


def read_return_series(path, column=None, *, strict: bool = False) -> tuple[ReturnSeries, int]:
    """Read one numeric column from a CSV file, in one pass.

    Blank lines are ignored.  The first non-blank row is a header when
    none of its cells is data; a cell is data when ``float()`` accepts it
    (``nan`` and ``inf`` included) or when it is a missing marker of
    ``MISSING_MARKERS`` (``NA``).  ``column`` selects by integer index or
    by header name; by default it is the first column whose first data
    cell is a finite number or, when there is none, the first whose cell
    is data.  Rows whose selected cell is missing, unparseable or not
    finite are skipped and counted, unless ``strict`` aborts instead.
    Returns the series and the skipped-row count; a file that does not
    decode or parse as CSV raises DataError.

    ``csv.reader`` reads the header and the first data row.  The rest is
    read in blocks of ``CSV_BLOCK`` characters, each line's cell taken as
    ``line.split(",")[column]``, until a block holds a quote, a carriage
    return or a line that may exceed ``csv.field_size_limit()``; then
    ``csv.reader`` reads the rest, and a longer field fails, quoted or not.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="") as fh:
            rows = csv.reader(fh)
            first = next(filter(_nonblank, rows), None)
            if first is None:
                raise DataError(f"empty file: {path}")

            header: list[str] | None = None
            if not any(_is_data(c) for c in first if c.strip()):
                header = [c.strip() for c in first]
                first = next(filter(_nonblank, rows), None)
                if first is None:
                    raise DataError("no data rows after header")

            if isinstance(column, str) and not column.lstrip("-").isdigit():
                if header is None or column not in header:
                    raise DataError(f"column {column!r} not found (no matching header)")
                idx = header.index(column)
            elif column is not None:
                idx = int(column)
                if not -len(first) <= idx < len(first):
                    raise DataError(f"column index {idx} out of range")
            else:
                idx = next((j for j, c in enumerate(first) if _parse_cell(c) is not None),
                           next((j for j, c in enumerate(first) if _is_data(c)), None))
                if idx is None:
                    raise DataError("no numeric column found in first data row")

            values = array("d")
            skipped = _take_rows((first,), idx, strict, values)
            skipped += _take_rest(fh, idx, strict, values)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"malformed CSV in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path}: {exc}") from None
    if not values:
        raise DataError(f"column {idx} contains no numeric data")
    name = header[idx] if header and -len(header) <= idx < len(header) else f"col{idx}"
    # a view of the filled array, not a copy: the column is held once
    return ReturnSeries(np.frombuffer(values), label=name, source=str(path)), skipped


def _finite_sample(sample, what: str) -> np.ndarray:
    """sample as a 1-d float64 array, without a copy when it is one; a
    sample that is not 1-d, is empty or holds a value that is not finite
    raises DataError."""
    try:  # min and max propagate nan and keep an infinity, without an n-length temporary
        x = np.asarray(sample, dtype=float)
        ok = x.ndim == 1 and len(x) and math.isfinite(x.min()) and math.isfinite(x.max())
    except (TypeError, ValueError):  # cells that are not numbers, or a ragged list
        ok = False
    if not ok:
        raise DataError(f"{what} needs a 1-d sample of at least one value, all finite")
    return x


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov helpers
# ----------------------------------------------------------------------

def ks_distance(sample, cdf) -> float:
    """Exact sup distance between the sample ECDF and a CDF that works
    elementwise; a sample that is not 1-d, is empty or is not finite
    raises DataError."""
    s = np.sort(_finite_sample(sample, "a KS distance"))
    n = len(s)
    F = np.asarray(cdf(s), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return float(max(up, down))


def ks_critical_value(n: int) -> float:
    """Asymptotic 1% critical value of the KS statistic of n points."""
    if n <= 0:  # an infinite n has its limit, 0
        raise ArgumentError(f"n must be positive, got {n}")
    return KS_CRITICAL_1PCT / math.sqrt(n)


# ----------------------------------------------------------------------
# Hill estimator
# ----------------------------------------------------------------------

def hill_estimate(sample, k: int, *, tail: str = DEFAULT_HILL_TAIL) -> float:
    """Mean log-spacing of the top k order statistics.

    gamma_hat = (1/k) sum_{i=1..k} ln(X_(n-i+1) / X_(n-k)) over the order
    statistics of the positive (tail="positive") or absolute ("abs") values.
    The raw log-spacing mean is returned, not its reciprocal; ties at X_(n-k)
    contribute zero spacings.  Scale-invariant by construction.  A sample
    that is not 1-d, is empty or is not finite raises DataError.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ArgumentError(f"k must be an integer, got {k!r}") from None
    check_one_of("tail", tail, HILL_TAILS)
    x = _finite_sample(sample, "a Hill estimate")
    vals = np.abs(x) if tail == "abs" else x[x > 0.0]  # a fresh array, reordered below
    n = len(vals)
    if not 1 <= k < n:
        raise ArgumentError(f"need 1 <= k < {n} {tail} values, got k={k}")
    # only the top k+1 order statistics enter, so sort only those
    vals.partition(n - k - 1)
    top = np.sort(vals[n - k - 1:])
    threshold = top[0]
    if threshold <= 0.0:
        raise ArgumentError("Hill estimator needs at least k+1 strictly positive values")
    return float(np.mean(np.log(top[1:]) - math.log(threshold)))


def hill_k(rule: str, n: int) -> int:
    """k = floor(n^e) for the exponent e of a rule of HILL_RULES."""
    e = HILL_RULES[check_one_of("rule", rule, tuple(HILL_RULES))]
    return int(math.floor(check_at_least("n", n, 1) ** e + 1e-9))  # guard against 15.999999...


def _hill_sim(args):
    m, n, seed, sim, ks, tail = args
    x = SymmetrizedGamma(m).sample(child_rng(seed, sim), n)
    return tuple(hill_estimate(x, k, tail=tail) for k in ks)


@dataclass(frozen=True)
class HillExperimentResult:
    ks: tuple[int, ...]  # one per rule of HILL_RULES, as are the means
    means: tuple[float, ...]
    per_sim: np.ndarray  # shape (sims, len(HILL_RULES))


def hill_experiment(m: float, n: int, *, sims: int, seed: int,
                    workers: int = 1, tail: str = DEFAULT_HILL_TAIL) -> HillExperimentResult:
    """Across-simulation mean of the Hill estimate for each rule of HILL_RULES.

    One derived stream, and one task, per simulation index; aggregation
    order is fixed, so the result does not depend on the worker count.
    A bad sims or tail raises ArgumentError before the first simulation.
    """
    check_at_least("sims", sims, 1)
    check_one_of("tail", tail, HILL_TAILS)
    ks = tuple(hill_k(r, n) for r in HILL_RULES)
    args = [(float(m), int(n), int(seed), s, ks, tail) for s in range(sims)]
    per_sim = np.array(run_tasks(_hill_sim, args, workers))
    means = tuple(float(v) for v in per_sim.mean(axis=0))
    return HillExperimentResult(ks=ks, means=means, per_sim=per_sim)


# ----------------------------------------------------------------------
# moments and exceedances
# ----------------------------------------------------------------------

def empirical_kurtosis(sample) -> float:
    """Uncorrected moment ratio m4 / m2^2 of centered sample moments.  A
    sample that is not 1-d, is empty or is not finite, has fewer than 4
    values or zero variance, or whose moments leave double range raises
    DataError."""
    x = _finite_sample(sample, "kurtosis")
    if len(x) < 4:
        raise DataError("kurtosis needs at least 4 observations")
    with np.errstate(over="ignore", invalid="ignore"):  # out of range: refused below
        c = x - x.mean()
        c *= c  # squared in place: c ** 4 would go through the generic pow
        m2 = float(np.mean(c))
        c *= c  # the fourth powers, in the same array
        m4 = float(np.mean(c))
    if m2 == 0.0:
        raise DataError("kurtosis undefined for a degenerate (zero-variance) sample")
    if m2 * m2 < sys.float_info.min:  # m4 and m2^2 would underflow, to 0/0 at worst
        raise DataError(f"kurtosis out of double range: the variance {m2:g} squared underflows")
    if not (m4 < math.inf and m2 * m2 < math.inf):  # inf / inf at worst
        raise DataError("kurtosis out of double range: the fourth powers overflow")
    return m4 / (m2 * m2)


@dataclass(frozen=True)
class ExceedanceRow:
    k_sigmas: float
    observed: int
    expected_normal: float
    gauss_bound_expected: float | None  # None outside the bound's regime


def exceedance_counts(sample, k_sigmas_list) -> list[ExceedanceRow]:
    """Observed vs expected counts of |x - mean| > k * sigma.

    sigma is estimated from the sample itself (population convention);
    the normal expectation uses the two-sided tail 2 Phi-bar(k) and the
    unimodal-bound expectation is n times :func:`bounds.gauss_bound` at
    d = k, sigma = 1, or None outside that bound's regime.  A sample that
    is not 1-d, is empty or is not finite raises DataError.
    """
    x = _finite_sample(sample, "exceedance counts")
    mu = float(x.mean())
    sigma = float(x.std())
    if sigma == 0.0:
        raise DataError("exceedance counts undefined for a degenerate sample")
    n = len(x)
    dev = x - mu
    np.abs(dev, out=dev)
    rows = []
    for k in k_sigmas_list:
        k = float(check_positive("k_sigmas", k))
        observed = int(np.count_nonzero(dev > k * sigma))
        expected_normal = n * math.erfc(k / math.sqrt(2.0))
        try:
            gauss = expected_exceedances(n, gauss_bound(k, 1.0))
        except OutOfRegimeError:
            gauss = None
        rows.append(ExceedanceRow(k, observed, expected_normal, gauss))
    return rows


# ----------------------------------------------------------------------
# tail-ratio curve
# ----------------------------------------------------------------------

_ANALYTIC_FLOOR = 1e-300


def _empirical_survival(data: np.ndarray):
    """The strict empirical survival #{v > x}/n of sorted data."""
    n = len(data)

    def surv(x: np.ndarray) -> np.ndarray:
        return (n - np.searchsorted(data, x, side="right")) / n

    return surv


def tail_ratio_curve(survival_or_sample, x_grid,
                     factor: float = 1.5) -> list[tuple[float, float | None]]:
    """Points (x, P{X > x} / P{X > factor x}); None marks undefined points.

    Accepts a survival callable that works elementwise over an array,
    such as ``SymmetrizedGamma(m).survival``, or a sample array (strict
    empirical survival #{v > x}/n); each side of the ratio is one call on
    the grid.  A point is undefined when the denominator is 0 (empirical)
    or below the analytic floor.  A sample that is not 1-d, is empty or is
    not finite raises DataError.
    """
    check_at_least("factor", factor, 1)
    xs = np.asarray(x_grid, dtype=float)
    if len(xs) == 0 or not np.all((xs > 0) & (xs < np.inf)) or np.any(np.diff(xs) <= 0):
        raise ArgumentError("x_grid must be finite, increasing and positive")

    surv = survival_or_sample
    if not callable(surv):
        surv = _empirical_survival(np.sort(_finite_sample(surv, "an empirical tail ratio")))
    num = np.asarray(surv(xs), dtype=float).tolist()
    den = np.asarray(surv(factor * xs), dtype=float).tolist()
    return [(x, None if d <= _ANALYTIC_FLOOR else s / d)
            for x, s, d in zip(xs.tolist(), num, den)]


# ----------------------------------------------------------------------
# aggregated report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HillRow:
    rule: str
    k: int
    gamma_hat: float
    alpha_implied: float  # reciprocal, the tail-index reading of the same number


@dataclass(frozen=True)
class TailReport:
    n: int
    mean: float
    sigma: float
    kurtosis: float | None
    exceedances: list[ExceedanceRow] = field(default_factory=list)
    hill: list[HillRow] = field(default_factory=list)
    tail_ratio: list[tuple[float, float | None]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def build_tail_report(series: ReturnSeries, *, levels=(3.0, 5.0, 10.0),
                      hill_tail: str = DEFAULT_HILL_TAIL, ratio_factor: float = 1.5) -> TailReport:
    """All diagnostics over one series: exceedance counts at each k-sigma
    level of ``levels``, Hill estimates on the ``hill_tail`` tail, and the
    empirical tail ratio at ``ratio_factor`` over the RATIO_QUANTILES grid.
    Before any section, a bad level, tail or factor raises ArgumentError, and
    zero variance or a mean or sigma out of double range raises DataError; a
    field the data do not support is marked in ``notes`` instead.  Besides the
    series, at most one float array of its length is held at a time, and
    ``series.values`` is never written."""
    levels = [float(check_positive("k_sigmas", k)) for k in levels]
    check_one_of("tail", hill_tail, HILL_TAILS)
    check_at_least("factor", ratio_factor, 1)
    x = series.values
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        mean = float(x.mean())
        sigma = float(x.std())
    if sigma == 0.0:
        raise DataError("degenerate series: zero variance")
    if not (math.isfinite(mean) and math.isfinite(sigma)):
        raise DataError(f"series out of double range: mean {mean:g}, sigma {sigma:g}")
    notes: list[str] = []

    kurt: float | None = None
    try:
        kurt = empirical_kurtosis(x)
    except DataError as exc:
        notes.append(f"kurtosis unavailable: {exc}")

    exceed = exceedance_counts(x, levels)

    hill_rows: list[HillRow] = []
    for rule in HILL_RULES:
        try:
            k = hill_k(rule, n)
            g = hill_estimate(x, k, tail=hill_tail)
            hill_rows.append(HillRow(rule, k, g, (1.0 / g) if g > 0 else math.inf))
        except ArgumentError as exc:  # too few values in the tail for this k
            notes.append(f"hill[{rule}] unavailable: {exc}")

    # one scratch array: |x - mean| for the grid, then sorted x - mean
    scratch = x - mean
    np.abs(scratch, out=scratch)
    grid = np.unique(np.quantile(scratch, RATIO_QUANTILES, overwrite_input=True))
    grid = grid[grid > 0]
    ratio: list[tuple[float, float | None]] = []
    if len(grid):
        np.subtract(x, mean, out=scratch)
        scratch.sort()
        ratio = tail_ratio_curve(_empirical_survival(scratch), grid, ratio_factor)
    else:
        notes.append("tail ratio unavailable: no positive quantile grid points")

    return TailReport(n=n, mean=mean, sigma=sigma, kurtosis=kurt,
                      exceedances=exceed, hill=hill_rows, tail_ratio=ratio, notes=notes)
