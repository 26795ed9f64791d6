"""Timing and counting wrappers installed around nugamma's public functions.

The wrappers live here, outside the package: the traced pass installs
them in a fresh interpreter after ``import nugamma.cli`` and before the
first op, so nothing under ``src/`` knows it is being traced.

A *span* hook records calls, inclusive time (``total_s``) and self time
(``self_s``: its time minus the time of the span hooks it called).  A
*pass-through* hook records calls and inclusive time but hands its
interval back to the caller, so plumbing such as the process-pool map
or the optimizer call does not swallow the self time of the layer
that called it.  Either kind may also add counters taken from its
arguments or its result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)
    broken: str | None = None  # why a counter could not be taken

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Recorder:
    """Span stack and per-hook statistics of one traced process."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # [start, child time] per open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def call(self, st: Stat, passthrough: bool, fn, args, kwargs):
        frame = [_clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - frame[0]
            self._stack.pop()
            st.calls += 1
            st.total_s += elapsed
            if passthrough:
                if self._stack:
                    self._stack[-1][1] += frame[1]
            else:
                st.self_s += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed


# ----------------------------------------------------------------------
# counters taken from arguments and results
# ----------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_integrand(st: Stat, args, kwargs):
    """Wrap the integrand ``f`` of specfun.integrate(f, a, b, spec)."""
    f = _arg(args, kwargs, 0, "f")

    def counted(*a):
        st.add("evals", 1)
        return f(*a)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs


def _before(counter: str, pos: int, name: str, measure):
    def hook(st: Stat, args, kwargs):
        st.add(counter, measure(_arg(args, kwargs, pos, name)))
        return args, kwargs
    return hook


def _optimizer_result(st: Stat, res) -> None:
    st.add("nfev", int(res.nfev))
    st.add("nit", int(res.nit))
    st.add("failures", 0 if bool(res.success) else 1)


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  With
    ``everywhere`` the wrapper replaces every binding of the same
    function object in the loaded ``nugamma`` modules (``from x import
    f`` makes a second binding that patching the home module alone
    would miss); without it only the named module's binding changes.
    """

    name: str
    layer: str
    target: str
    passthrough: bool = False
    everywhere: bool = True
    before: object = None   # (Stat, args, kwargs) -> (args, kwargs)
    after: object = None    # (Stat, result) -> None


HOOKS = (
    Hook("specfun.integrate", "specfun", "nugamma.specfun:integrate",
         before=_count_integrand),
    Hook("specfun.integrate_sin", "specfun", "nugamma.specfun:integrate_sin"),
    Hook("dist.survival", "dist", "nugamma.dist:SymmetrizedGamma.survival"),
    Hook("dist.cdf_interpolator", "dist", "nugamma.dist:SymmetrizedGamma.cdf_interpolator"),
    Hook("dist.pdf", "dist", "nugamma.dist:SymmetrizedGamma.pdf"),
    Hook("dist.sample", "dist", "nugamma.dist:SymmetrizedGamma.sample",
         before=_before("draws", 2, "n", int)),
    Hook("dist.stable_cdf_grid", "dist", "nugamma.dist:SymmetricStable.cdf_grid",
         before=_before("points", 1, "xs", lambda xs: getattr(xs, "size", None) or len(xs))),
    Hook("dist.stable_cdf", "dist", "nugamma.dist:SymmetricStable.cdf"),
    Hook("parallel.child_rng", "parallel", "nugamma.parallel:child_rng"),
    Hook("parallel.run_tasks", "parallel", "nugamma.parallel:run_tasks", passthrough=True,
         before=_before("tasks", 1, "args_list", len)),
    Hook("randsum.random_sum_draws", "randsum", "nugamma.randsum:random_sum_draws",
         before=_before("replicates", 0, "config", lambda c: c.replicates)),
    Hook("randsum.component_sample", "randsum", "nugamma.randsum:Component.sample",
         passthrough=True, before=_before("summands", 2, "n", int)),
    Hook("randsum.prelimit_experiment", "randsum", "nugamma.randsum:prelimit_experiment"),
    Hook("randsum.fit_stable_to_ecdf", "randsum", "nugamma.randsum:fit_stable_to_ecdf"),
    Hook("randsum.nm", "randsum", "nugamma.randsum:minimize", passthrough=True,
         everywhere=False, after=_optimizer_result),
    Hook("cffit.fit_stable_cf_values", "cffit", "nugamma.cffit:fit_stable_cf_values"),
    Hook("cffit.nm", "cffit", "nugamma.cffit:minimize", passthrough=True,
         everywhere=False, after=_optimizer_result),
    Hook("diagnostics.read_return_series", "diagnostics",
         "nugamma.diagnostics:read_return_series",
         after=lambda st, res: st.add("rows", len(res[0].values) + int(res[1]))),
    Hook("diagnostics.build_tail_report", "diagnostics", "nugamma.diagnostics:build_tail_report"),
    Hook("diagnostics.hill_estimate", "diagnostics", "nugamma.diagnostics:hill_estimate"),
    Hook("diagnostics.ks_distance", "diagnostics", "nugamma.diagnostics:ks_distance",
         before=_before("points", 0, "sample", len)),
    Hook("diagnostics.tail_ratio_curve", "diagnostics", "nugamma.diagnostics:tail_ratio_curve"),
    Hook("bounds.gauss_bound", "bounds", "nugamma.bounds:gauss_bound"),
    Hook("report.render", "report", "nugamma.report:render",
         after=lambda st, text: st.add("bytes", len(text.encode()))),
    Hook("cli.run", "cli", "nugamma.cli:run"),
)


def _wrap(rec: Recorder, hook: Hook, fn):
    st = rec.stat(hook.name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.before is not None:
            try:
                args, kwargs = hook.before(st, args, kwargs)
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                st.broken = f"argument counter failed: {exc!r}"
        result = rec.call(st, hook.passthrough, fn, args, kwargs)
        if hook.after is not None:
            try:
                hook.after(st, result)
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                st.broken = f"result counter failed: {exc!r}"
        return result

    return wrapper


def _resolve(target: str):
    """(owner object, attribute name, current value) for a hook target."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(rec: Recorder) -> dict[str, str]:
    """Install every hook; returns {hook name: reason} for those that failed."""
    missing: dict[str, str] = {}
    for hook in HOOKS:
        try:
            owner, attr, fn = _resolve(hook.target)
        except (ImportError, AttributeError) as exc:
            missing[hook.name] = f"{hook.target} does not resolve: {exc}"
            continue
        if not callable(fn):
            missing[hook.name] = f"{hook.target} is not callable"
            continue
        wrapper = _wrap(rec, hook, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        owners = [owner]
        if hook.everywhere:
            owners = [m for n, m in list(sys.modules.items())
                      if (n == "nugamma" or n.startswith("nugamma.")) and m is not None]
        for mod in owners:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
    return missing
