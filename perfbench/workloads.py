"""Workload definitions: the fixed grid of operations each workload runs.

An operation ("op") is one public call into casimirbox, or one CLI process.
The grids never depend on the run's seed; the seed only permutes the order
in which the ops of a pass are issued (whole temperature sweeps for
thermo_sweep), so every seed runs the same points against the same pinned
references.

This module is shared by the benchmark runner and by the reference
generator.  Importing it imports nothing from casimirbox; the functions that
execute ops import the package when first called.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

UM = 1e-6

# Pinned copies of casimirbox.specfun.HBAR_C and K_BOLTZMANN (CODATA 2018,
# exact 2019 SI), so op inputs can be built without importing the package.
HBAR_C = 1.054571817e-34 * 299792458.0
K_BOLTZMANN = 1.380649e-23

FIELDS = ("scalar", "em")

THERMO_TEMPS_K = (10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0,
                  5000.0, 10000.0)
THERMO_GEOMS_UM = {"cube": (2.0, 2.0, 2.0), "slab": (1.0, 10.0, 10.0), "bar": (10.0, 1.0, 1.0)}

# a/b from 0.01 to 100 at b = c = 1 um, four points per decade; the a/b = 100
# point is the 100:1:1 bar, whose two other orderings are listed separately.
ASPECT_RATIOS = tuple(10.0 ** (k / 4) for k in range(-8, 9))
ASPECT_EXTRA_UM = ((1.0, 2.0, 3.0), (1.0, 100.0, 1.0), (1.0, 1.0, 100.0))

PLATES_SEPARATIONS_UM = (0.5, 2.0)
# reduced temperature t = T_eff/T, log-spaced from 2 down to 1e-3 (3 digits),
# plus the anchors 1.9 and 0.05; crosses the t = 0.5 representation switch
PLATES_T = tuple(
    sorted({float(f"{2.0 * 5e-4 ** (k / 27):.3g}") for k in range(28)} | {1.9, 0.05},
           reverse=True)
)

CLI_CALLS = {
    "e0": ["e0", "--field", "em", "--a", "1", "--b", "2", "--c", "3"],
    "free-energy": ["free-energy", "--field", "scalar", "--a", "2", "--b", "2", "--c", "2",
                    "--temp", "300"],
    "force": ["force", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "300"],
    "thermo": ["thermo", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "50"],
    "plates": ["plates", "--a", "2", "--temp", "300", "--pressure"],
    "sweep": ["sweep", "--quantity", "free-energy", "--field", "scalar", "--var", "temp",
              "--from", "0", "--to", "600", "--points", "25", "--a", "2", "--b", "2", "--c", "2"],
    "validate": ["validate", "--filter", "plates"],
}
# CSV columns compared against references, per CLI command
CLI_COLUMNS = {
    "e0": ("total_dimless",),
    "free-energy": ("total_dimless",),
    "force": ("total_dimless",),
    "thermo": ("total_dimless", "u_dimless", "s_kB"),
    "plates": ("f_dimless", "p_dimless"),
    "sweep": ("total_dimless",),
}


@dataclass(frozen=True)
class Op:
    """One operation: `kind` selects the call, `args` its inputs."""

    id: str
    kind: str
    args: dict = field(hash=False)
    group: str = ""  # ops sharing a group stay together, in order, when shuffled


def plates_temperature(separation_m: float, t: float) -> float:
    """Temperature [K] at which two plates separated by `separation_m` have reduced t."""
    return HBAR_C / (2.0 * separation_m * K_BOLTZMANN * t)


def _fmt_sides(sides) -> str:
    return "x".join(f"{s:.6g}" for s in sides)


def thermo_ops() -> list[Op]:
    ops = []
    for gname, sides in THERMO_GEOMS_UM.items():
        for fld in FIELDS:
            for temp in THERMO_TEMPS_K:
                ops.append(Op(f"thermo:{fld}:{gname}:{temp:g}K", "thermo_row",
                              {"field": fld, "sides_um": sides, "temp": temp},
                              group=f"{fld}:{gname}"))
    return ops


def aspect_ops() -> list[Op]:
    geoms = [(r, 1.0, 1.0) for r in ASPECT_RATIOS] + list(ASPECT_EXTRA_UM)
    return [
        Op(f"aspect:{kind}:{fld}:{_fmt_sides(sides)}", kind, {"field": fld, "sides_um": sides})
        for sides in geoms
        for fld in FIELDS
        for kind in ("e0", "e0_force_x")
    ]


def plates_ops() -> list[Op]:
    return [
        Op(f"plates:{kind}:{a:g}um:t={t:g}", kind,
           {"a_um": a, "t": t, "temp": plates_temperature(a * UM, t)})
        for a in PLATES_SEPARATIONS_UM
        for t in PLATES_T
        for kind in ("plates_free_energy", "plates_pressure")
    ]


def cli_ops() -> list[Op]:
    return [Op(f"cli:{name}", "cli", {"argv": argv}) for name, argv in CLI_CALLS.items()]


@dataclass(frozen=True)
class Workload:
    name: str
    entry_module: str  # what setup_s imports in a fresh interpreter
    nominal_pass_s: float  # one pass on the reference machine; sizes the run
    build_ops: object

    def ops(self) -> list[Op]:
        return self.build_ops()

    def passes_for(self, seconds: float) -> int:
        """Measured passes in a run of `seconds`; fixed per (workload, seconds)."""
        return max(1, math.ceil(seconds / self.nominal_pass_s))


WORKLOADS = {
    "thermo_sweep": Workload("thermo_sweep", "casimirbox", 5.0, thermo_ops),
    "aspect_scan": Workload("aspect_scan", "casimirbox", 7.8, aspect_ops),
    "plates_scan": Workload("plates_scan", "casimirbox", 3.0, plates_ops),
    "cli_calls": Workload("cli_calls", "casimirbox.cli", 4.0, cli_ops),
}


def pass_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """Shuffle ops, keeping each group together and in its original order."""
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.group or op.id, []).append(op)
    keys = list(groups)
    rng.shuffle(keys)
    return [op for k in keys for op in groups[k]]


# ----------------------------------------------------------------------
# executing ops


class OpFailed(Exception):
    """An in-process op raised; the message names the exception type."""


def _field_kind(name: str):
    from casimirbox.boxzero import FieldKind

    return FieldKind.ELECTROMAGNETIC if name == "em" else FieldKind.SCALAR_DIRICHLET


def _geometry(sides_um):
    from casimirbox.boxzero import BoxGeometry

    return BoxGeometry(*(s * UM for s in sides_um))


def execute(op: Op) -> dict:
    """Run an in-process op; return its named outputs or raise OpFailed."""
    from casimirbox import boxzero, plates, thermal
    from casimirbox.errors import CasimirBoxError

    a = op.args
    try:
        if op.kind == "thermo_row":
            geom, fld = _geometry(a["sides_um"]), _field_kind(a["field"])
            tp = thermal.ThermalPoint(a["temp"])
            return {
                "F": thermal.free_energy(geom, fld, tp).total,
                "force": thermal.force_x(geom, fld, tp),
                "U": thermal.internal_energy(geom, fld, tp),
                "S": thermal.entropy(geom, fld, tp),
            }
        if op.kind == "e0":
            return {"e0": boxzero.e0(_geometry(a["sides_um"]), _field_kind(a["field"]))}
        if op.kind == "e0_force_x":
            return {"force": boxzero.e0_force_x(_geometry(a["sides_um"]), _field_kind(a["field"]))}
        cfg = plates.PlatesConfig(a["a_um"] * UM, a["temp"])
        if op.kind == "plates_free_energy":
            return {"f": plates.plates_free_energy(cfg)}
        if op.kind == "plates_pressure":
            return {"p": plates.plates_pressure(cfg)}
    except (CasimirBoxError, ArithmeticError, ValueError) as exc:
        raise OpFailed(type(exc).__name__) from exc
    raise ValueError(f"unknown op kind {op.kind!r}")


def parse_cli_output(name: str, stdout: str) -> dict:
    """Named numeric outputs of one CLI call, as compared against references."""
    lines = stdout.strip().splitlines()
    if name == "validate":
        passed, total = lines[-1].split()[0].split("/")
        return {"checks_passed_frac": int(passed) / int(total)}
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    out = {}
    for i, row in enumerate(rows):
        for col in CLI_COLUMNS[name]:
            out[f"{col}[{i}]" if len(rows) > 1 else col] = float(row[col])
    return out


__all__ = [
    "Op",
    "OpFailed",
    "Workload",
    "WORKLOADS",
    "execute",
    "parse_cli_output",
    "pass_order",
    "plates_temperature",
]
