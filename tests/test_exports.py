"""Every exported name resolves, so deleting a function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gossipvr

MODULES = sorted(info.name for info in pkgutil.iter_modules(gossipvr.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gossipvr.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"gossipvr.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_public_names():
    tree = ast.parse(Path(gossipvr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gossipvr.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"gossipvr re-exports {alias.name}, not in {node.module}.__all__"
            assert getattr(gossipvr, alias.asname or alias.name) is getattr(module, alias.name)
