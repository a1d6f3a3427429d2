import importlib
import pkgutil

import pytest

import casimirbox

MODULES = ["casimirbox"] + [f"casimirbox.{info.name}"
                            for info in pkgutil.iter_modules(casimirbox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a deleted function must leave no stale name in any __all__
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
