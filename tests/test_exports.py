"""Every name a module exports resolves."""
import importlib
import pkgutil

import pytest

import extkit

MODULES = ["extkit"] + [f"extkit.{m.name}" for m in pkgutil.iter_modules(extkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
