"""The work and the bits of a fixed set of calls, pinned in work_pins.json.

The EM 2 um cube and the scalar 1 x 10 x 10 um slab at the benchmark's
twelve temperatures (F with its breakdown, the force, U and S of each row),
and E0 and the zero-T force of the 1 x 2 x 3 um box in both fields.  Each
output is pinned by `float.hex`, and each call by the mode lattice sums
(`_modesum._lattice_sums`, which `lattice_sums` calls once its arguments
are checked) and `_image_sums` calls it makes and the points each lattice
kernel evaluates.  A change to the lattice routines' bookkeeping must keep
all of them.

Regenerate with `PYTHONPATH=src python tests/test_work_pins.py` (it
rewrites the JSON file next to this one).
"""

import dataclasses
import json
import os
from collections import Counter

import pytest

from casimirbox import _matsubara, _modesum, boxzero, thermal
from casimirbox.boxzero import BoxGeometry, FieldKind

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work_pins.json")

TEMPS_K = (10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0,
           5000.0, 10000.0)
ROWS = {"em:cube": (FieldKind.ELECTROMAGNETIC, (2.0, 2.0, 2.0)),
        "scalar:slab": (FieldKind.SCALAR_DIRICHLET, (1.0, 10.0, 10.0))}
BOX_1X2X3 = BoxGeometry(1e-6, 2e-6, 3e-6)


def _calls():
    """(key, call returning {output name: float}) in a fixed order."""
    for key, (field, sides) in ROWS.items():
        geom = BoxGeometry(*(s * 1e-6 for s in sides))
        for temp in TEMPS_K:
            def row(geom=geom, field=field, tp=thermal.ThermalPoint(temp)):
                free = thermal.free_energy(geom, field, tp)
                return {**dataclasses.asdict(free), "force": thermal.force_x(geom, field, tp),
                        "U": thermal.internal_energy(geom, field, tp),
                        "S": thermal.entropy(geom, field, tp)}
            yield f"{key}:{temp:g}K", row
    for field in FieldKind:
        yield f"e0:{field.name}:1x2x3", lambda field=field: {
            "e0": boxzero.e0(BOX_1X2X3, field), "force": boxzero.e0_force_x(BOX_1X2X3, field)}


def collect(patch) -> dict:
    """Each call's outputs (hex), lattice sum calls and kernel points, from
    cold caches; `patch(owner, name, value)` installs the counters."""
    work = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            work[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def points(label, fn):
        def wrapper(*args):
            work[label] += args[-1].size
            return fn(*args)
        return wrapper

    patch(_modesum, "_lattice_sums", counted("lattice_sums", _modesum._lattice_sums))
    for module in (boxzero, _matsubara):
        real = module._image_sums

        def spy(series, *rest, real=real):
            work[f"_image_sums:{series}"] += 1
            return real(series, *rest)

        patch(module, "_image_sums", spy)
    for module, name in ((_modesum, "_log_kernel"), (_matsubara, "_log_kernel"),
                         (boxzero, "_k32"), (_matsubara, "_kernels")):
        patch(module, name, points(f"points:{name}", getattr(module, name)))
    thermal._row.cache_clear()
    thermal._box_parts.cache_clear()
    pins = {}
    for key, call in _calls():
        work.clear()
        outputs = {name: float.hex(float(v)) for name, v in call().items()}
        pins[key] = {"outputs": outputs, "work": dict(sorted(work.items()))}
    thermal._row.cache_clear()
    thermal._box_parts.cache_clear()
    return pins


def test_outputs_and_work_are_pinned(monkeypatch):
    with open(PINS) as fh:
        pinned = json.load(fh)
    got = collect(monkeypatch.setattr)
    assert list(got) == list(pinned)
    for key in pinned:
        assert got[key]["outputs"] == pinned[key]["outputs"], key
        assert got[key]["work"] == pinned[key]["work"], key


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        pins = collect(mp.setattr)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
