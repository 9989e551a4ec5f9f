import importlib
import pkgutil

import pytest

import levyfield

MODULES = ["levyfield"] + [f"levyfield.{m.name}" for m in pkgutil.iter_modules(levyfield.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deletion that leaves its name in __all__ breaks `from ... import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing
