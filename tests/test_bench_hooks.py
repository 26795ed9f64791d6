"""The benchmark's tracer finds every hook and every layer records calls.

``perfbench/tracer.py`` finds the functions it times by name; a hook
whose target no longer resolves, a counter that cannot be taken, or a
layer in ``workloads.EXPECTED_LAYERS`` that records no call turns that
layer's benchmark metrics into null.  The perfbench files are only
read: the tracer and the workload table are loaded from their files,
and the traced pass runs ``perfbench/inproc.py`` in a subprocess on
small versions of each workload's ops.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("hook", tracer.HOOKS, ids=lambda hook: hook.name)
def test_hook_target_resolves(hook):
    _, _, target = tracer._resolve(hook.target)
    assert callable(target), hook.target


def _small_ops(workload, csv_path):
    """Each workload's ops, on inputs small enough for the unit suite."""
    if workload == "tables":
        return [("table1", ["table1"]), ("table3", ["table3", "--method", "both"]),
                ("fig1", ["fig1"]), ("bounds", ["bounds"]),
                ("audit", ["audit", str(csv_path), "--column", "ret"])]
    return [("randsum.uniform", ["randsum", "--reps", "2000"]),
            ("randsum.sg", ["randsum", "--component", "sg", "--reps", "2000"]),
            ("fig2", ["fig2", "--reps", "200", "--n", "1000"]),
            ("hill", ["hill", "--sims", "4", "--n", "2000"])]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_records_every_layer(workload, tmp_path):
    csv_path = tmp_path / "audit.csv"
    csv_path.write_text("t,ret\n" + "".join(
        f"{i},{'NA' if i % 500 == 250 else (i * 0.618) % 2.0 - 1.0!r}\n" for i in range(2000)))
    ops = [[name, argv + ["--seed", "1", "--format", "json",
                          "--out", str(tmp_path / f"{name}.json")]]
           for name, argv in _small_ops(workload, csv_path)]
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps({"src": str(ROOT / "src"), "trace": True, "ops": ops}))
    subprocess.run([sys.executable, str(PERFBENCH / "inproc.py"), str(spec_path),
                    str(result_path)], check=True, timeout=300, cwd=tmp_path)
    result = json.loads(result_path.read_text())

    assert {op["name"]: op["code"] for op in result["ops"]} == {name: 0 for name, _ in ops}
    assert result["missing"] == {}
    assert {name: st["broken"] for name, st in result["stats"].items() if st["broken"]} == {}
    calls = {}
    for name, st in result["stats"].items():
        layer = name.split(".")[0]
        calls[layer] = calls.get(layer, 0) + st["calls"]
    silent = [layer for layer in workloads.EXPECTED_LAYERS[workload] if not calls.get(layer)]
    assert silent == []
    if workload == "montecarlo":
        # fig2's fit: one stable CDF per Nelder-Mead evaluation, plus the
        # fitted curve, which the chart reuses
        stats = result["stats"]
        nfev = stats["randsum.nm"]["counters"]["nfev"]
        assert stats["dist.stable_cdf_grid"]["calls"] == nfev + 1
