"""Benchmark of the nugamma CLI: cold-start workloads plus a traced pass.

    python3 perfbench/run.py --workload {tables,montecarlo} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; the package is used from ``src/``.

``--trace 0`` measures what a user sees.  It times ``SETUP_SAMPLES``
cold ``import nugamma.cli`` processes, then repeats the workload's ops
(one cold ``python -m nugamma.cli`` process each, one at a time) as
often as whole repeats fit in ``--seconds`` (at least once), checking
every op's output.  Each op's figures are medians over the repeats.

``--trace 1`` gives the per-layer metrics.  It parses ``python -X
importtime`` and runs the workload's ops twice in fresh interpreters
through ``nugamma.cli.run``, first plain, then with the hooks of
``tracer.py`` installed; the difference of the two wall times is the
tracing overhead.  Both in-process passes use ``--workers 1``, so pool
work runs inside the traced process and its spans are counted.

The last line of standard output is the JSON result; the line before it
holds per-op detail (times, checks, payload sha256) and input sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import workloads

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# every op of every workload; its in-process time is a per-layer metric
OP_NAMES = ("table1", "table3", "fig1", "bounds", "audit",
            "randsum.uniform", "randsum.sg", "fig2", "hill")

IMPORT_MODULES = {
    "import.nugamma_cli_s": "nugamma.cli",
    "import.scipy_interpolate_s": "scipy.interpolate",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.numpy_s": "numpy",
}


def _hook_metrics(hook: str, *quantities: str):
    return [(f"{hook}.{q}", "s" if q.endswith("_s") else "count", hook, q) for q in quantities]


# (metric, unit, hook, quantity): quantity is calls, total_s, self_s or a counter
LAYER_METRICS = (
    _hook_metrics("specfun.integrate", "calls", "evals", "self_s")
    + _hook_metrics("specfun.integrate_sin", "calls", "self_s")
    + _hook_metrics("dist.survival", "calls", "self_s")
    + _hook_metrics("dist.cdf_interpolator", "calls", "total_s")
    + _hook_metrics("dist.pdf", "calls")
    + _hook_metrics("dist.sample", "calls", "draws", "self_s")
    + _hook_metrics("dist.stable_cdf_grid", "calls", "points", "self_s")
    + _hook_metrics("dist.stable_cdf", "calls")
    + _hook_metrics("parallel.child_rng", "calls", "self_s")
    + _hook_metrics("parallel.run_tasks", "calls", "tasks", "total_s")
    + _hook_metrics("randsum.random_sum_draws", "replicates", "self_s")
    + [("randsum.summands", "count", "randsum.component_sample", "summands")]
    + _hook_metrics("randsum.prelimit_experiment", "total_s")
    + _hook_metrics("randsum.fit_stable_to_ecdf", "total_s")
    + _hook_metrics("randsum.nm", "calls", "nfev", "nit", "failures")
    + _hook_metrics("cffit.fit_stable_cf_values", "calls", "self_s")
    + _hook_metrics("cffit.nm", "calls", "nfev", "nit", "failures")
    + _hook_metrics("diagnostics.read_return_series", "rows", "self_s")
    + _hook_metrics("diagnostics.build_tail_report", "self_s")
    + _hook_metrics("diagnostics.hill_estimate", "calls", "self_s")
    + _hook_metrics("diagnostics.ks_distance", "points", "self_s")
    + _hook_metrics("diagnostics.tail_ratio_curve", "calls", "self_s")
    + _hook_metrics("bounds.gauss_bound", "calls", "self_s")
    + _hook_metrics("report.render", "bytes", "self_s")
    + _hook_metrics("cli.run", "self_s")
)


class RunError(Exception):
    """The benchmark cannot produce a result (e.g. the program does not start)."""


class Runner:
    """Starts the program's processes from the checkout root, one at a time."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        src = os.path.join(root, "src")
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.log_path = os.path.join(workdir, "children.log")
        self.log = open(self.log_path, "w")

    def close(self) -> None:
        self.log.close()

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion: wall time, its own rusage, exit code.

        CPU and peak RSS come from the child's wait4 rusage, which covers
        the child and the pool workers it waited for, and no other op.
        """
        self.log.write(f"$ {' '.join(argv)}\n")
        self.log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=self.log, stderr=self.log)
        killer = threading.Timer(max(self.time_left(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}

    def log_tail(self, lines: int = 20) -> str:
        self.log.flush()
        with open(self.log_path) as fh:
            return "".join(fh.readlines()[-lines:])


def _out_path(dirname: str, op: workloads.Op) -> str:
    os.makedirs(dirname, exist_ok=True)
    path = os.path.join(dirname, op.name + ".json")
    if os.path.exists(path):
        os.remove(path)  # a stale report must not pass the check
    return path


def _op_argv(op: workloads.Op, seed: int, out: str, serial: bool = False) -> list[str]:
    argv = list(op.argv)
    if serial and "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return argv + ["--seed", str(seed), "--format", "json", "--out", out]


def _verdict(op: workloads.Op, code, path: str) -> tuple[str | None, str | None]:
    """(failure reason or None, payload sha256) of one finished op."""
    if code != 0:
        return f"exit code {code}", None
    return workloads.check_report(op, path)


def _median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# --trace 0: cold-start ops
# ----------------------------------------------------------------------

def measure_setup(runner: Runner) -> list[float]:
    walls = []
    for _ in range(SETUP_SAMPLES):
        res = runner.spawn([sys.executable, "-c", "import nugamma.cli"])
        if res["code"] != 0:
            raise RunError("import nugamma.cli failed:\n" + runner.log_tail())
        walls.append(res["wall_s"])
    return walls


def cold_passes(runner: Runner, ops, seed: int, seconds: float):
    """Repeat the op sequence while another pass, as long as the last one,
    still ends within `seconds` (at least one pass).

    Pass k gives the CLI ``--seed seed + k``: the work of a Monte Carlo
    op depends on its draws (the fig2 fit takes 90 to 150 stable-CDF
    evaluations), so the medians average over several draws.
    """
    outdir = os.path.join(runner.workdir, "out")
    passes, failures = [], {}
    start = time.perf_counter()
    last = 0.0
    while not passes or (time.perf_counter() - start + last <= seconds
                         and runner.time_left() > 1.5 * last):
        t0 = time.perf_counter()
        record = {}
        for op in ops:
            out = _out_path(outdir, op)
            argv = _op_argv(op, seed + len(passes), out)
            res = runner.spawn([sys.executable, "-m", "nugamma.cli"] + argv)
            reason, res["sha256"] = _verdict(op, res["code"], out)
            if reason is not None:
                failures.setdefault(op.name, reason)
                res["failed"] = reason
            record[op.name] = res
        passes.append(record)
        last = time.perf_counter() - t0
    return passes, failures


def op_medians(passes: list[dict], key: str) -> dict[str, float]:
    return {name: _median([p[name][key] for p in passes]) for name in passes[0]}


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """Per-op medians over the passes, summed (times) or maximized (RSS)."""
    values = {
        "setup_s": _median(setup),
        "wall_s": sum(op_medians(passes, "wall_s").values()),
        "cpu_s": sum(op_medians(passes, "cpu_s").values()),
        "peak_rss_mb": max(op_medians(passes, "rss_mb").values()),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# ----------------------------------------------------------------------
# --trace 1: import profile and in-process passes
# ----------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per package from ``-X importtime`` output.

    A package's figure is the cumulative time on the line of its first
    importer (each module is listed once, where it was first imported).
    Submodules that scipy loads lazily (``from scipy import stats``) go
    through ``importlib`` and get no line of their own; for them the
    figure sums the lines of their modules imported from outside the
    package, a slight underestimate.  A package never imported reads 0.
    """
    entries = []  # (level, name, cumulative us), in output (post-) order
    for line in text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name_field = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        name = name_field[1:]
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped)) // 2, stripped, int(cum)))

    def in_package(name: str, pkg: str) -> bool:
        return name == pkg or name.startswith(pkg + ".")

    own_line = {name: cum for _, name, cum in entries}
    subtree_roots = dict.fromkeys(IMPORT_MODULES.values(), 0)
    ancestors: list[tuple[int, str]] = []
    for level, name, cum in reversed(entries):  # a parent now precedes its children
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        for pkg in subtree_roots:
            if in_package(name, pkg) and not in_package(parent, pkg):
                subtree_roots[pkg] += cum
        ancestors.append((level, name))
    return {metric: own_line.get(pkg, subtree_roots[pkg]) / 1e6
            for metric, pkg in IMPORT_MODULES.items()}


def measure_imports(runner: Runner) -> dict[str, float]:
    samples = []
    path = os.path.join(runner.workdir, "importtime.txt")
    for _ in range(IMPORTTIME_SAMPLES):
        with open(path, "w") as fh:
            code = subprocess.call([sys.executable, "-X", "importtime", "-c", "import nugamma.cli"],
                                   cwd=runner.root, env=runner.env, stdout=fh, stderr=fh,
                                   timeout=max(runner.time_left(), 1.0))
        with open(path) as fh:
            text = fh.read()
        if code != 0:
            raise RunError("import nugamma.cli failed:\n" + text[-2000:])
        samples.append(parse_importtime(text))
    return {k: _median([s[k] for s in samples]) for k in samples[0]}


def inprocess_pass(runner: Runner, ops, seed: int, trace: bool):
    """One in-process pass in a fresh interpreter; (result, failures)."""
    tag = "traced" if trace else "plain"
    outdir = os.path.join(runner.workdir, "out-" + tag)
    spec = {"src": runner.src, "trace": trace,
            "ops": [[op.name, _op_argv(op, seed, _out_path(outdir, op), serial=True)]
                    for op in ops]}
    spec_path = os.path.join(runner.workdir, f"inproc-{tag}.json")
    result_path = os.path.join(runner.workdir, f"inproc-{tag}-result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    here = os.path.dirname(os.path.abspath(__file__))
    res = runner.spawn([sys.executable, os.path.join(here, "inproc.py"), spec_path, result_path])
    if res["code"] != 0 or not os.path.exists(result_path):
        raise RunError(f"{tag} in-process pass failed:\n" + runner.log_tail())
    with open(result_path) as fh:
        result = json.load(fh)
    failures = {}
    for op, rec in zip(ops, result["ops"]):
        reason, rec["sha256"] = _verdict(op, rec["code"], os.path.join(outdir, op.name + ".json"))
        if reason is not None:
            failures[f"{tag}:{op.name}"] = reason
    return result, failures


def _layer(hook_name: str) -> str:
    return hook_name.split(".")[0]


def layer_metrics(workload: str, imports: dict, plain: dict, traced: dict) -> dict:
    stats, missing = traced["stats"], dict(traced["missing"])
    for name, st in stats.items():
        if st["broken"]:
            missing[name] = st["broken"]
    calls_per_layer: dict[str, int] = {}
    for name, st in stats.items():
        calls_per_layer[_layer(name)] = calls_per_layer.get(_layer(name), 0) + st["calls"]
    silent = {layer for layer in workloads.EXPECTED_LAYERS[workload]
              if calls_per_layer.get(layer, 0) == 0}

    def value(hook: str, quantity: str) -> float:
        st = stats.get(hook)
        if st is None:
            return 0
        return st[quantity] if quantity in ("calls", "total_s", "self_s") \
            else st["counters"].get(quantity, 0)

    out = {k: {"value": v, "unit": "s"} for k, v in imports.items()}
    for metric, unit, hook, quantity in LAYER_METRICS:
        if hook in missing:
            out[metric] = {"value": None, "unit": unit, "missing": missing[hook]}
        elif _layer(hook) in silent:
            out[metric] = {"value": None, "unit": unit, "missing":
                           f"layer {_layer(hook)} recorded no calls on workload {workload}"}
        else:
            out[metric] = {"value": value(hook, quantity), "unit": unit}

    reps = value("randsum.random_sum_draws", "replicates")
    out["randsum.us_per_replicate"] = {
        "value": 1e6 * value("randsum.random_sum_draws", "total_s") / reps if reps else 0.0,
        "unit": "us"}
    plain_ops = {op["name"]: op["wall_s"] for op in plain["ops"]}
    for name in OP_NAMES:
        out[f"op.{name}_s"] = {"value": plain_ops.get(name, 0.0), "unit": "s"}
    traced_wall = sum(op["wall_s"] for op in traced["ops"])
    plain_wall = sum(op["wall_s"] for op in plain["ops"])
    attributed = sum(st["self_s"] for name, st in stats.items() if name != "cli.run")
    out["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    out["trace.self_share"] = {"value": attributed / traced_wall, "unit": "1"}
    return out


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nugamma", "cli.py")):
        print("perfbench: src/nugamma/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", args.workload)
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, sizes = workloads.ops(args.workload, os.path.join(root, ".perfbench"), args.seed)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: input generation failed: {exc}", file=sys.stderr)
        return 1

    runner = Runner(root, workdir)
    try:
        if args.trace == 0:
            setup = measure_setup(runner)
            passes, failures = cold_passes(runner, ops, args.seed, args.seconds)
            metrics = end_to_end(setup, passes)
            attempted = len(passes) * len(ops)
            failed = sum(1 for p in passes for r in p.values() if "failed" in r)
            info = {"setup_s": setup, "op_median_wall_s": op_medians(passes, "wall_s"),
                    "passes": passes}
        else:
            imports = measure_imports(runner)
            plain, fail_plain = inprocess_pass(runner, ops, args.seed, trace=False)
            traced, fail_traced = inprocess_pass(runner, ops, args.seed, trace=True)
            failures = {**fail_plain, **fail_traced}
            metrics = layer_metrics(args.workload, imports, plain, traced)
            attempted, failed = 2 * len(ops), len(failures)
            info = {"plain": plain["ops"], "traced": traced["ops"],
                    "missing": {k: v["missing"] for k, v in metrics.items() if "missing" in v}}
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    info.update(workload=args.workload, seed=args.seed, inputs=sizes, failures=failures)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
