"""Layer tracing from outside the package.

`Tracer.install()` rebinds each public layer function listed in LAYERS, in
every casimirbox module namespace that holds it (for example `thermal.e0` as
well as `boxzero.e0`, and the `thermal.free_energy` that `internal_energy`
calls), to a wrapper that records a span: name, start, end, parent span and
op id.  Spans stay in memory; `uninstall()` restores every original binding.
Nothing in the package changes, and with no tracer installed nothing runs.

Run as a script, this file is the traced CLI child used by the cli_calls
workload: `python perfbench/tracer.py SPANS_JSON ARGS...`
runs `casimirbox.cli.main(ARGS)` with the tracer installed, then writes the
spans and the time spent in main() to SPANS_JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "specfun": ("bessel_k",),
    "boxzero": ("lattice_g", "lattice_r", "e0", "e0_force_x"),
    "_modesum": ("log_sum", "force_sum", "energy_sum"),
    "thermal": ("free_energy", "force_x", "internal_energy", "entropy"),
    "plates": ("plates_free_energy", "plates_pressure"),
}
LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "casimirbox" or name.startswith("casimirbox."))]


class Tracer:
    """Records one span per call of a traced layer function."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"casimirbox.{mod_name}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @property
    def rebound(self) -> list:
        """(module name, attribute) of every binding currently replaced."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patches]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        traced.__perfbench_traced__ = True
        return traced


def layer_stats(spans) -> dict:
    """{function: {"calls": n, "self_s": s}} for every function in LAYER_FUNCTIONS.

    Self time is a span's duration minus the durations of its direct children;
    calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {fn: {"calls": 0, "self_s": 0.0} for fn in LAYER_FUNCTIONS}
    for (name, start, end, _, _), inner in zip(spans, child):
        stats[name]["calls"] += 1
        stats[name]["self_s"] += (end - start) - inner
    return stats


def leftover_wrappers() -> list:
    """(module, attribute) of traced wrappers still bound anywhere in the package."""
    return [(mod.__name__, attr) for mod in _package_modules()
            for attr, value in vars(mod).items()
            if getattr(value, "__perfbench_traced__", False)]


def _child_main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from casimirbox import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = "cli"
    t0 = time.perf_counter()
    try:
        status = cli.main(cli_args)
    finally:
        compute_s = time.perf_counter() - t0
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"compute_s": compute_s, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
