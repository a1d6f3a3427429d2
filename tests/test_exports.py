import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_layers_resolve():
    # the benchmark's tracer rebinds these by name: a removed view would
    # break its traced runs, which no other test exercises
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"casimirbox.{module}.{fn}" for module, fns in tracer.LAYERS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"casimirbox.{module}"), fn, None))]
    assert tracer.LAYERS and missing == []
