import ast
import importlib
import importlib.util
import inspect
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


def test_benchmark_imports_resolve():
    # perfbench imports the package's private names too (validate's
    # oracles, the lattice sums): each `from casimirbox... import name` in
    # its scripts, read without running them, must still find its name
    names = []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("casimirbox"):
                names += [(path.name, node.module, alias.name) for alias in node.names]

    def resolves(module, name):
        # a name of the module, or a submodule of a package
        mod = importlib.import_module(module)
        return hasattr(mod, name) or (hasattr(mod, "__path__")
                                      and importlib.util.find_spec(f"{module}.{name}") is not None)

    missing = [entry for entry in names if not resolves(*entry[1:])]
    assert {module for _, module, _ in names} >= {"casimirbox.validate", "casimirbox.errors"}
    assert missing == []


def test_field_kinds_are_named_only_in_the_table():
    # every per-field formula derives from boxzero's mode-lattice table;
    # only the table and thermal._T_CROSS, a measured constant, may name a
    # field kind or branch on one
    allowed, kinds = {"_LATTICES", "_T_CROSS"}, casimirbox.FieldKind.__members__
    branches = []
    for name in ("boxzero", "thermal", "_matsubara"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"casimirbox.{name}")))
        tables = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                  and {getattr(t, "id", None) for t in top.targets} & allowed
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr in kinds
                     and getattr(node.value, "id", None) == "FieldKind")
            compared = isinstance(node, ast.Compare) and "field" in {
                getattr(side, "id", None) for side in [node.left, *node.comparators]}
            if (named or compared) and id(node) not in tables:
                branches.append(f"{name}:{node.lineno}")
    assert branches == []

