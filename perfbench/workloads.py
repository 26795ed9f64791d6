"""The two workloads: their ops, generated inputs and output checks.

An op is one CLI invocation, ``nugamma <argv> --seed S --format json
--out FILE``.  Each op's check reads the JSON report and returns None
when the output is right, or the reason it is not.

Monte Carlo checks allow for sampling noise through the
Dvoretzky-Kiefer-Wolfowitz bound P(sup|F_n - F| > eps) <= 2 exp(-2 n
eps^2), so a correct program fails one with probability below 1e-6 at
any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

# frozen reference values of the source paper's tables
TABLE1_REFERENCE = {
    10: 0.0000589843, 20: 0.000230141, 30: 0.000401799, 40: 0.000546297,
    50: 0.000663305, 60: 0.000757375, 70: 0.000833146, 80: 0.000894442,
    90: 0.000944249, 100: 0.000984872,
}
TABLE3_REFERENCE = {
    1: (1.26906, 0.226565), 10: (1.80697, 0.720949), 20: (1.89192, 0.835951),
    30: (1.92487, 0.883786), 40: (1.94241, 0.910016), 50: (1.9533, 0.926583),
    60: (1.96073, 0.937998), 70: (1.96612, 0.946341), 80: (1.97021, 0.952704),
    90: (1.97341, 0.957718), 100: (1.976, 0.961771),
}
HILL_REFERENCE = (0.37, 0.65, 1.39)

AUDIT_ROWS = 10 ** 6
AUDIT_NA_EVERY = 100_000  # every such row holds "NA", which audit must skip
AUDIT_M = 10.0

RANDSUM_UNIFORM_REPS = 100_000  # the CLI default
RANDSUM_SG_REPS = 20_000
P_SCHEDULE = (0.1, 0.01, 0.001)  # the CLI default
FIG2_REPS, FIG2_N = 1000, 10_000  # the CLI defaults
HILL_SIMS, HILL_N = 100, 10_000  # the CLI defaults


def dkw_eps(n: int, prob: float) -> float:
    """eps with P(sup|F_n - F| > eps) <= prob for an n-point ECDF."""
    return math.sqrt(math.log(2.0 / prob) / (2.0 * n))


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[object], str | None]


# ----------------------------------------------------------------------
# generated input of the audit op
# ----------------------------------------------------------------------

def write_audit_input(csv_path: str, seed: int) -> None:
    """Write the return CSV and, beside it, the statistics audit must report.

    Symmetrized gamma (m = 10) draws, one per row, under a "t,ret"
    header; every AUDIT_NA_EVERY-th row holds "NA".  Values are written
    in shortest round-trip form, so the parsed series equals the array.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xA0D1])
    shape, scale = 1.0 / AUDIT_M, math.sqrt(AUDIT_M)
    x = rng.gamma(shape, scale, AUDIT_ROWS) - rng.gamma(shape, scale, AUDIT_ROWS)
    cells = list(map(repr, x.tolist()))
    na_rows = range(AUDIT_NA_EVERY // 2, AUDIT_ROWS, AUDIT_NA_EVERY)
    for i in na_rows:
        cells[i] = "NA"
    kept = np.delete(x, list(na_rows))
    c = kept - kept.mean()
    m2 = float(np.mean(c * c))
    stats = {"rows": AUDIT_ROWS, "n": len(kept), "skipped": len(na_rows),
             "kurtosis": float(np.mean(c ** 4) / (m2 * m2))}
    with open(csv_path, "w") as fh:
        fh.write("t,ret\n")
        fh.write("\n".join(f"{i},{v}" for i, v in enumerate(cells)))
        fh.write("\n")
    with open(csv_path + ".json", "w") as fh:
        json.dump(stats, fh)


def audit_input(workdir: str, seed: int) -> tuple[str, dict]:
    """The audit CSV of this seed and its statistics, generated on first use.

    Generation runs in a child process: the benchmark process stays
    small, because a child it starts inherits its peak RSS as a floor.
    Files of other seeds are removed, so one CSV stays on disk.
    """
    os.makedirs(workdir, exist_ok=True)
    csv_path = os.path.join(workdir, f"audit-{seed}.csv")
    stats_path = csv_path + ".json"
    if not (os.path.exists(csv_path) and os.path.exists(stats_path)):
        for name in os.listdir(workdir):
            if name.startswith("audit-"):
                os.remove(os.path.join(workdir, name))
        subprocess.run([sys.executable, os.path.abspath(__file__), csv_path, str(seed)],
                       check=True, timeout=120)
    with open(stats_path) as fh:
        return csv_path, json.load(fh)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _increasing(vals) -> bool:
    return all(b > a for a, b in zip(vals, vals[1:]))


def check_table1(p):
    if sorted(int(r["m"]) for r in p) != sorted(TABLE1_REFERENCE):
        return "rows are not m = 10..100"
    worst = max(abs(r["probability"] - TABLE1_REFERENCE[int(r["m"])])
                / TABLE1_REFERENCE[int(r["m"])] for r in p)
    return None if worst < 5e-5 else f"worst relative deviation {worst:.2e} >= 5e-5"


def check_table3(p):
    rows = p["ls-cf"]
    if [r["n"] for r in rows] != sorted(TABLE3_REFERENCE):
        return "ls-cf rows are not the reference n list"
    for r in rows:
        ra, rl = TABLE3_REFERENCE[r["n"]]
        if not (abs(r["alpha"] - ra) <= 0.05 and abs(r["lambda"] - rl) <= 0.1):
            return f"n={r['n']}: ({r['alpha']}, {r['lambda']}) off reference ({ra}, {rl})"
    if not (_increasing([r["alpha"] for r in rows]) and _increasing([r["lambda"] for r in rows])):
        return "ls-cf alpha or lambda column not increasing"
    loglog = p["loglog-regression"]
    if len(loglog) != len(rows) or not all(_finite(r["alpha"]) for r in loglog):
        return "loglog-regression rows missing or not finite"
    return None


def check_fig1(p):
    if len(p) != 50:
        return f"{len(p)} rows, expected 50"
    bad = [r["x"] for r in p if not (_finite(r["ratio"]) and r["ratio"] > 0)]
    return None if not bad else f"ratio not finite and positive at x={bad[:3]}"


def check_bounds(p):
    row = next((r for r in p if r["d"] == 10.0 and r["kind"] == "gauss-unimodal"), None)
    if row is None:
        return "no gauss-unimodal row at d=10"
    if row["bound"] != 1.0 / 225.0:
        return f"bound at d=10 is {row['bound']!r}, expected exactly 1/225"
    if round(row["expected_exceedances"], 2) != 222.22:
        return f"expected exceedances {row['expected_exceedances']!r}, expected 222.22"
    return None


def make_check_audit(stats: dict):
    def check(p):
        s = p["summary"][0]
        if s["n"] != stats["n"] or s["skipped_rows"] != stats["skipped"]:
            return (f"n={s['n']} skipped={s['skipped_rows']}, "
                    f"wrote n={stats['n']} skipped={stats['skipped']}")
        if not abs(s["kurtosis"] - stats["kurtosis"]) <= 1e-12 * stats["kurtosis"]:
            return f"kurtosis {s['kurtosis']!r} != {stats['kurtosis']!r} of the written array"
        return None
    return check


def _ks_column(p):
    if [r["p"] for r in p] != list(P_SCHEDULE):
        raise ValueError("rows are not the p schedule")
    return [r["ks_distance"] for r in p]


def check_randsum_uniform(p):
    """KS falls along the schedule; steps may rise only by sampling noise.

    Each KS is within eps of the distance of the true law (prob. 1e-7
    each), so a rise above 2 eps, or a total fall under 2 eps (the true
    distances fall by about 0.05), marks a wrong program.
    """
    ks = _ks_column(p)
    eps = dkw_eps(RANDSUM_UNIFORM_REPS, 1e-7)
    if any(b >= a + 2 * eps for a, b in zip(ks, ks[1:])):
        return f"KS {ks} rises by more than 2 eps = {2 * eps:.4f}"
    if not ks[-1] < ks[0] - 2 * eps:
        return f"KS {ks} does not fall by more than 2 eps = {2 * eps:.4f}"
    return None


def check_randsum_sg(p):
    """The fixed-point case: every KS at the noise floor."""
    ks = _ks_column(p)
    floor = dkw_eps(RANDSUM_SG_REPS, 1e-7) + 1e-6  # plus the CDF table's accuracy
    return None if max(ks) < floor else f"KS {ks} above the noise floor {floor:.4f}"


def check_fig2(p):
    """KS overlay within the 1e-6 DKW band of a 1000-point ECDF.

    Criterion 9's 0.05 is not used: over 80 seeds the same statistic
    reached 0.048, so 0.05 would fail a correct program far more often
    than once in 1e6 seeds.
    """
    fit = p["fit"][0]
    if len(p["ecdf"]) != 512 or not 0.8 <= fit["alpha"] <= 2.0:
        return f"{len(p['ecdf'])} ECDF rows, alpha {fit['alpha']}"
    limit = dkw_eps(FIG2_REPS, 1e-6)
    return None if fit["ks"] <= limit else f"KS overlay {fit['ks']:.4f} > {limit:.4f}"


def check_hill(p):
    means = [r["mean_gamma_hat"] for r in p]
    if len(means) != 3 or any(abs(m - ref) > 0.1 for m, ref in zip(means, HILL_REFERENCE)):
        return f"means {means} not within 0.1 of {HILL_REFERENCE}"
    return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

# Layers each workload must exercise; a traced pass in which one of
# them records no call reports that layer's metrics as missing.
EXPECTED_LAYERS = {
    "tables": ("cffit", "diagnostics", "bounds", "report", "cli"),
    "montecarlo": ("specfun", "dist", "parallel", "randsum", "diagnostics", "report", "cli"),
}

WORKLOADS = tuple(EXPECTED_LAYERS)


def ops(workload: str, workdir: str, seed: int) -> tuple[list[Op], dict]:
    """The workload's ops and the sizes of their inputs.

    Input generation happens here, before any timing.
    """
    if workload == "tables":
        csv_path, stats = audit_input(os.path.join(workdir, "inputs"), seed)
        return [
            Op("table1", ("table1",), check_table1),
            Op("table3", ("table3", "--method", "both"), check_table3),
            Op("fig1", ("fig1",), check_fig1),
            Op("bounds", ("bounds",), check_bounds),
            Op("audit", ("audit", csv_path, "--column", "ret"), make_check_audit(stats)),
        ], {"audit_rows": stats["rows"], "audit_na_rows": stats["skipped"]}
    if workload == "montecarlo":
        stages = sum(1.0 / p for p in P_SCHEDULE)
        return [
            Op("randsum.uniform", ("randsum", "--workers", "1"), check_randsum_uniform),
            Op("randsum.sg", ("randsum", "--component", "sg", "--reps", str(RANDSUM_SG_REPS),
                              "--workers", "2"), check_randsum_sg),
            Op("fig2", ("fig2", "--workers", "1"), check_fig2),
            Op("hill", ("hill", "--workers", "1"), check_hill),
        ], {"uniform_replicates": RANDSUM_UNIFORM_REPS * len(P_SCHEDULE),
            "uniform_mean_summands": round(RANDSUM_UNIFORM_REPS * stages),
            "sg_replicates": RANDSUM_SG_REPS * len(P_SCHEDULE),
            "sg_mean_summands": round(RANDSUM_SG_REPS * stages),
            "fig2_sg_draws": FIG2_REPS * FIG2_N, "hill_sg_draws": HILL_SIMS * HILL_N}
    raise ValueError(f"unknown workload {workload!r}")


def check_report(op: Op, path: str) -> tuple[str | None, str | None]:
    """(failure reason or None, sha256 of the payload) for one op's report."""
    try:
        with open(path) as fh:
            payload = json.load(fh)["payload"]
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable report: {exc}", None
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    try:
        return op.check(payload), digest
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed payload: {exc!r}", digest


if __name__ == "__main__":
    write_audit_input(sys.argv[1], int(sys.argv[2]))
