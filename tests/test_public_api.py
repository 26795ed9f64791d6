"""The package's public surface: its export list names exactly its public
non-module names, each resolved lazily from its home module, and its
source imports from scipy only what it must."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import nugamma


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
