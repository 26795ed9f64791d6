"""Every hook of the benchmark's tracer resolves to a callable.

``perfbench/tracer.py`` finds the functions it times by name; a hook
whose target no longer resolves turns that layer's benchmark metrics
into null.  The tracer is loaded from its file and only read: nothing
is installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("hook", tracer.HOOKS, ids=lambda hook: hook.name)
def test_hook_target_resolves(hook):
    _, _, target = tracer._resolve(hook.target)
    assert callable(target), hook.target
