"""Empirical tail diagnostics: Hill estimator, kurtosis, exceedance
counts, tail-ratio curves and the aggregated report over a return series.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .dist import SymmetrizedGamma
from .errors import DataError
from .parallel import child_rng, run_tasks

# Hill k rules, in report order: rule name -> exponent e of k = floor(n^e)
HILL_RULES = {"sqrt": 0.5, "pow-2/3": 2.0 / 3.0, "pow-4/5": 0.8}
# quantiles of |x - mean| that form the tail report's tail-ratio grid
RATIO_QUANTILES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
# the Kolmogorov distribution's upper 1% point, scipy.special.kolmogi(0.01)
KS_CRITICAL_1PCT = 1.6276236115189504

# Hill applied to the positive tail with k rules computed from the full
# sample size reproduces the reference simulation means for symmetrized
# gamma(10) data, (0.37, 0.65, 1.39); the |values| variant sits well
# below them at the two larger k rules, so "positive" is the default for
# experiments and reports.
DEFAULT_HILL_TAIL = "positive"
HILL_TAILS = ("positive", "abs")


# ----------------------------------------------------------------------
# series container and ingestion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnSeries:
    values: np.ndarray
    label: str = "series"
    source: str = "simulated"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or len(vals) < 2:
            raise DataError("a return series needs at least two values")
        if not np.all(np.isfinite(vals)):
            raise DataError("return series values must all be finite")


# cells that count as data, never as a header name, besides every string
# float() accepts (nan and inf included)
MISSING_MARKERS = frozenset({"NA"})

# after the first data row, the file is read in blocks of this many
# characters, cut at their last newline, and the selected cells of a
# block are converted in one pass; a block holding a short row or a cell
# float() rejects is parsed again row by row.  Larger blocks raise
# audit's peak memory and gain nothing.
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


def _unparseable(idx: int, cell: str | None) -> DataError:
    return DataError(f"unparseable value in column {idx}: {cell!r}")


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
                raise _unparseable(idx, r[idx] if -len(r) <= idx < len(r) else None)
            skipped += 1
    return skipped


def _take_lines(lines: list[str], idx: int, strict: bool, values: array) -> int:
    """:func:`_take_rows` over lines holding no quote or carriage return,
    with one ``float`` conversion for all of them."""
    try:
        cells = [ln.split(",")[idx] for ln in lines]
        # into a fresh array: values.extend would keep the cells before a bad one
        vals = array("d", map(float, cells))
    except (IndexError, ValueError):
        return _take_rows([ln.split(",") for ln in lines], idx, strict, values)
    arr = np.frombuffer(vals)
    finite = np.isfinite(arr)
    if finite.all():
        values.extend(vals)
        return 0
    if strict:
        raise _unparseable(idx, cells[int(np.argmin(finite))])
    values.frombytes(arr[finite].tobytes())
    return len(arr) - int(np.count_nonzero(finite))


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
    return ReturnSeries(np.array(values), label=name, source=str(path)), skipped


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov helpers
# ----------------------------------------------------------------------

def ks_distance(sample, cdf) -> float:
    """Exact sup distance between the sample ECDF and a vectorized CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    F = np.asarray(cdf(s), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return float(max(up, down))


def ks_critical_value(n: int) -> float:
    """Asymptotic 1% critical value of the KS statistic of n points."""
    return KS_CRITICAL_1PCT / math.sqrt(n)


# ----------------------------------------------------------------------
# Hill estimator
# ----------------------------------------------------------------------

def _check_tail(tail: str) -> str:
    if tail not in HILL_TAILS:
        raise ValueError(f"tail must be one of {HILL_TAILS}, got {tail!r}")
    return tail


def _hill_values(sample, tail: str) -> np.ndarray:
    x = np.asarray(sample, dtype=float)
    return np.abs(x) if _check_tail(tail) == "abs" else x[x > 0.0]


def hill_estimate(sample, k: int, *, tail: str = "abs") -> float:
    """Mean log-spacing of the top k order statistics.

    gamma_hat = (1/k) sum_{i=1..k} ln(X_(n-i+1) / X_(n-k)) over the order
    statistics of the absolute (or positive-side) values.  The raw
    log-spacing mean is returned, not its reciprocal; ties at X_(n-k)
    contribute zero spacings.  Scale-invariant by construction.
    """
    vals = _hill_values(sample, tail)
    n = len(vals)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < {n} {tail} values, got k={k}")
    # only the top k+1 order statistics enter, so sort only those
    top = np.sort(np.partition(vals, n - k - 1)[n - k - 1:])
    threshold = top[0]
    if threshold <= 0.0:
        raise ValueError("Hill estimator needs at least k+1 strictly positive values")
    return float(np.mean(np.log(top[1:]) - math.log(threshold)))


def hill_k(rule: str, n: int) -> int:
    """k = floor(n^e) for the exponent e of a rule of HILL_RULES."""
    if rule not in HILL_RULES:
        raise ValueError(f"unknown Hill k rule {rule!r}")
    return int(math.floor(n ** HILL_RULES[rule] + 1e-9))  # guard against 15.999999... artifacts


def _hill_sim(args):
    m, n, seed, sim, ks, tail = args
    x = SymmetrizedGamma(m).sample(child_rng(seed, sim), n)
    return tuple(hill_estimate(x, k, tail=tail) for k in ks)


@dataclass(frozen=True)
class HillExperimentResult:
    ks: tuple[int, ...]  # one per rule of HILL_RULES, as are the means
    means: tuple[float, ...]
    per_sim: np.ndarray  # shape (sims, len(HILL_RULES))


def hill_experiment(m: float = 10.0, n: int = 10000, *, sims: int = 100, seed: int = 0,
                    workers: int = 1, tail: str = DEFAULT_HILL_TAIL) -> HillExperimentResult:
    """Across-simulation mean of the Hill estimate for each rule of HILL_RULES.

    One derived stream, and one task, per simulation index; aggregation
    order is fixed, so the result does not depend on the worker count.
    Raises ValueError when sims < 1.
    """
    if sims < 1:
        raise ValueError(f"sims must be >= 1, got {sims}")
    ks = tuple(hill_k(r, n) for r in HILL_RULES)
    args = [(float(m), int(n), int(seed), s, ks, tail) for s in range(sims)]
    per_sim = np.array(run_tasks(_hill_sim, args, workers))
    means = tuple(float(v) for v in per_sim.mean(axis=0))
    return HillExperimentResult(ks=ks, means=means, per_sim=per_sim)


# ----------------------------------------------------------------------
# moments and exceedances
# ----------------------------------------------------------------------

def empirical_kurtosis(sample) -> float:
    """Uncorrected moment ratio m4 / m2^2 of centered sample moments."""
    x = np.asarray(sample, dtype=float)
    if len(x) < 4:
        raise ValueError("kurtosis needs at least 4 observations")
    c = x - x.mean()
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        raise ValueError("kurtosis undefined for a degenerate (zero-variance) sample")
    return float(np.mean(c ** 4) / (m2 * m2))


def _check_level(k) -> float:
    if not 0.0 < float(k) < math.inf:
        raise ValueError(f"k_sigmas must be finite and positive, got {k}")
    return float(k)


def _check_factor(factor) -> None:
    if not 1.0 <= factor < math.inf:
        raise ValueError(f"factor must be finite and >= 1, got {factor}")


@dataclass(frozen=True)
class ExceedanceRow:
    k_sigmas: float
    observed: int
    expected_normal: float
    gauss_bound_expected: float | None  # None when k^2 < 4/3 (bound out of regime)


def exceedance_counts(sample, k_sigmas_list) -> list[ExceedanceRow]:
    """Observed vs expected counts of |x - mean| > k * sigma.

    sigma is estimated from the sample itself (population convention);
    the normal expectation uses the two-sided tail 2 Phi-bar(k) and the
    unimodal-bound expectation uses 4 / (9 k^2) where valid.
    """
    x = np.asarray(sample, dtype=float)
    mu = float(x.mean())
    sigma = float(x.std())
    if sigma == 0.0:
        raise ValueError("exceedance counts undefined for a degenerate sample")
    n = len(x)
    dev = np.abs(x - mu)
    rows = []
    for k in map(_check_level, k_sigmas_list):
        observed = int(np.count_nonzero(dev > k * sigma))
        expected_normal = n * math.erfc(k / math.sqrt(2.0))
        gauss = n * 4.0 / (9.0 * k * k) if k * k >= 4.0 / 3.0 else None
        rows.append(ExceedanceRow(k, observed, expected_normal, gauss))
    return rows


# ----------------------------------------------------------------------
# tail-ratio curve
# ----------------------------------------------------------------------

_ANALYTIC_FLOOR = 1e-300


def tail_ratio_curve(dist_or_sample, x_grid, factor: float = 1.5) -> list[tuple[float, float | None]]:
    """Points (x, P{X > x} / P{X > factor x}); None marks undefined points.

    Accepts an object with an elementwise ``survival`` method, a bare
    scalar survival callable, or a sample array (strict empirical
    survival #{v > x}/n); each side of the ratio is one call on the grid.
    A point is undefined when the denominator is 0 (empirical) or below
    the analytic floor.
    """
    _check_factor(factor)
    xs = np.asarray(x_grid, dtype=float)
    if len(xs) == 0 or not np.all((xs > 0) & (xs < np.inf)) or np.any(np.diff(xs) <= 0):
        raise ValueError("x_grid must be finite, increasing and positive")

    if hasattr(dist_or_sample, "survival"):
        surv = dist_or_sample.survival
    elif callable(dist_or_sample):
        surv = np.vectorize(dist_or_sample, otypes=[float])
    else:
        data = np.sort(np.asarray(dist_or_sample, dtype=float))
        n = len(data)

        def surv(x: np.ndarray) -> np.ndarray:
            return (n - np.searchsorted(data, x, side="right")) / n

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
    A bad level, tail or factor raises ValueError before any section is
    computed; a field the data do not support is marked in ``notes`` instead."""
    levels = [_check_level(k) for k in levels]
    _check_tail(hill_tail)
    _check_factor(ratio_factor)
    x = series.values
    n = len(x)
    mean = float(x.mean())
    sigma = float(x.std())
    notes: list[str] = []

    kurt: float | None = None
    try:
        kurt = empirical_kurtosis(x)
    except ValueError as exc:
        notes.append(f"kurtosis unavailable: {exc}")

    exceed: list[ExceedanceRow] = []
    try:
        exceed = exceedance_counts(x, levels)
    except ValueError as exc:
        notes.append(f"exceedances unavailable: {exc}")

    hill_rows: list[HillRow] = []
    for rule in HILL_RULES:
        try:
            k = hill_k(rule, n)
            g = hill_estimate(x, k, tail=hill_tail)
            hill_rows.append(HillRow(rule, k, g, (1.0 / g) if g > 0 else math.inf))
        except ValueError as exc:
            notes.append(f"hill[{rule}] unavailable: {exc}")

    ratio: list[tuple[float, float | None]] = []
    try:
        dev = np.abs(x - mean)
        grid = np.unique(np.quantile(dev, RATIO_QUANTILES))
        grid = grid[grid > 0]
        if len(grid) == 0:
            raise ValueError("no positive quantile grid points")
        ratio = tail_ratio_curve(x - mean, grid, ratio_factor)
    except ValueError as exc:
        notes.append(f"tail ratio unavailable: {exc}")

    return TailReport(n=n, mean=mean, sigma=sigma, kurtosis=kurt,
                      exceedances=exceed, hill=hill_rows, tail_ratio=ratio, notes=notes)
