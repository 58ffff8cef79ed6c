"""Every name a module exports resolves, and the package exports each once."""
import ast
import importlib
import pkgutil

import pytest

import extkit

MODULES = ["extkit"] + [f"extkit.{m.name}" for m in pkgutil.iter_modules(extkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_the_package_exports_exactly_what_its_modules_export():
    # a name is public when its module's __all__ lists it; no two modules share one
    listed = [n for m in MODULES[1:] for n in getattr(importlib.import_module(m), "__all__", ())]
    assert len(set(listed)) == len(listed)
    assert sorted(extkit.__all__) == sorted(listed)
    assert extkit.sin is importlib.import_module("extkit.jets").sin


def test_the_package_lists_no_public_name_by_hand():
    tree = ast.parse(open(extkit.__file__).read())
    written = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    written |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert written & set(extkit.__all__) == set()


@pytest.mark.parametrize("module, name", [
    ("extkit.extension", "recursion_term"), ("extkit.poisson", "bracket"),
    ("extkit.poisson", "apply_xl")])
def test_names_only_the_tests_used_are_gone_from_the_library(module, name):
    # they live in tests/reference.py, or the tests call _recursion_chain
    assert not hasattr(importlib.import_module(module), name)
    assert name not in extkit.__all__
