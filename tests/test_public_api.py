"""The package's public surface: its export list names exactly its public
non-module names, and its source imports from scipy only what it must."""

import ast
import inspect
from pathlib import Path

import nugamma


def test_all_matches_public_names():
    public = {name for name, value in vars(nugamma).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(nugamma.__all__) == public


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
