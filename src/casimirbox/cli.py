"""Command-line front end.

Inputs are micrometers and kelvin; outputs are CSV rows on stdout with
both dimensionless combinations (a E/(hbar c), a^2 F/(hbar c)) and SI
values.  Exit codes: 0 success, 2 usage error, 3 convergence error.

Box CSV schema (fixed):
  a_um,b_um,c_um,T_K,t_reduced,e0_dimless,thermal_raw_dimless,
  bb_term_dimless,alpha1_term_dimless,alpha2_term_dimless,total_dimless,
  total_SI,error

For `force`, the same breakdown columns carry the force pieces scaled by
a^2 instead (zero-T force, thermal mode term, and the three polynomial
terms).  `thermo` appends u_dimless,u_SI,s_kB before the error column.
Plates rows use: a_um,T_K,t_reduced,f_dimless,f_SI[,p_dimless,p_SI],error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import thermal
from .boxzero import BoxGeometry, FieldKind
from .errors import DEFAULT_BUDGET, DEFAULT_TOL, ConvergenceError, check_budget, check_tol
from .plates import PlatesConfig, plates_free_energy, plates_pressure
from .specfun import HBAR_C
from .thermal import ThermalPoint

__all__ = ["main", "run"]

BOX_HEADER = (
    "a_um,b_um,c_um,T_K,t_reduced,e0_dimless,thermal_raw_dimless,"
    "bb_term_dimless,alpha1_term_dimless,alpha2_term_dimless,"
    "total_dimless,total_SI,error"
)

UM = 1e-6


def _fmt(x: float) -> str:
    """Fixed scientific formatting, 12 significant digits ("inf" and "-inf" as such)."""
    return f"{x:.11e}"


def _box_point(args, a_um: float, temperature: float):
    """Validated geometry and temperature of one box row, with the row's
    leading cells: (prefix, geometry, thermal point)."""
    geom = BoxGeometry(a_um * UM, args.b * UM, args.c * UM)
    tp = ThermalPoint(temperature)
    prefix = [_fmt(a_um), _fmt(args.b), _fmt(args.c), _fmt(temperature), _fmt(tp.reduced_t(geom.a))]
    return prefix, geom, tp


def _box_cells(args, geom: BoxGeometry, tp: ThermalPoint, quantity: str) -> list[str]:
    """Computed cells of one box row, between the prefix and the error column."""
    a = geom.a
    field = FieldKind(args.field)
    if quantity == "force":
        parts = thermal._force_parts(geom, field, tp, args.tol, args.max_shell)
        scale = a * a
        total = thermal.force_x(geom, field, tp, args.tol, args.max_shell)
        cells = [_fmt(p * scale) for p in parts] + [_fmt(total * scale), _fmt(total * HBAR_C)]
    else:
        fe = thermal.free_energy(geom, field, tp, args.tol, args.max_shell)
        pieces = (fe.e0_ren, fe.thermal_raw, fe.bb_term, fe.alpha1_term, fe.alpha2_term, fe.total)
        cells = [_fmt(p * a) for p in pieces] + [_fmt(fe.total * HBAR_C)]
    if quantity == "thermo":
        u = thermal.internal_energy(geom, field, tp, args.tol, args.max_shell)
        s = thermal.entropy(geom, field, tp, args.tol, args.max_shell)
        cells += [_fmt(u * a), _fmt(u * HBAR_C), _fmt(s)]
    return cells


def _cmd_box(args, out) -> int:
    """e0, free-energy, force and thermo: one box row under its header."""
    quantity = args.command
    temperature = 0.0 if quantity == "e0" else args.temp
    prefix, geom, tp = _box_point(args, args.a, temperature)
    # computed before the header, so a failing series leaves stdout empty
    cells = _box_cells(args, geom, tp, quantity)
    header = BOX_HEADER
    if quantity == "thermo":
        header = BOX_HEADER.replace(",error", ",u_dimless,u_SI,s_kB,error")
    print(header, file=out)
    print(",".join(prefix + cells + [""]), file=out)
    return 0


def _cmd_plates(args, out) -> int:
    cfg = PlatesConfig(args.a * UM, args.temp)
    a = cfg.separation
    f = plates_free_energy(cfg, args.tol)
    cells = [_fmt(args.a), _fmt(args.temp), _fmt(cfg.reduced_t), _fmt(f * a**3), _fmt(f * HBAR_C)]
    header = "a_um,T_K,t_reduced,f_dimless,f_SI"
    if args.pressure:
        p = plates_pressure(cfg, args.tol)
        cells += [_fmt(p * a**4), _fmt(p * HBAR_C)]
        header += ",p_dimless,p_SI"
    header += ",error"
    cells.append("")
    print(header, file=out)
    print(",".join(cells), file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not (args.start < args.stop):
        raise ValueError("--from must be smaller than --to")
    if args.log and args.start <= 0.0:
        raise ValueError("--log requires --from > 0")
    if args.log:
        grid = np.geomspace(args.start, args.stop, args.points)
    else:
        grid = np.linspace(args.start, args.stop, args.points)

    # every grid point is validated before the header is written
    if args.var == "a":
        points = [_box_point(args, float(v), args.temp) for v in grid]
    else:
        points = [_box_point(args, args.a, float(v)) for v in grid]
    print(BOX_HEADER, file=out)
    for prefix, geom, tp in points:
        try:
            cells = _box_cells(args, geom, tp, args.quantity) + [""]
        except ConvergenceError as exc:
            cells = [""] * 7 + [str(exc).replace(",", ";")]
        print(",".join(prefix + cells), file=out)
    return 0


def _cmd_validate(args, out) -> int:
    # imported here, not at the top: only this command needs validate, so
    # the others start without loading it (its oracles import mpmath only
    # when they run, and no check runs one)
    from . import validate

    results = validate.run_checks(args.filter)
    for res in results:
        print(res, file=out)
    failed = sum(not res.passed for res in results)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return 0 if failed == 0 else 1


def _add_box_args(p: argparse.ArgumentParser, with_temp: bool = True):
    p.add_argument("--field", required=True, choices=["scalar", "em"])
    p.add_argument("--a", required=True, type=float, help="side a [um]")
    p.add_argument("--b", required=True, type=float, help="side b [um]")
    p.add_argument("--c", required=True, type=float, help="side c [um]")
    if with_temp:
        p.add_argument("--temp", required=True, type=float, help="temperature [K]")
    _add_tol_args(p)


def _checked_arg(parse, check):
    """argparse type: parse the text, then check the value; a ValueError
    from either is a usage error (exit 2)."""

    def convert(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return convert


def _add_tol_args(p: argparse.ArgumentParser, with_budget: bool = True):
    p.add_argument("--tol", type=_checked_arg(float, check_tol), default=DEFAULT_TOL,
                   help="relative series tolerance")
    if with_budget:
        p.add_argument(
            "--max-shell",
            dest="max_shell",
            type=_checked_arg(int, check_budget),
            default=DEFAULT_BUDGET,
            help="maximum lattice points (or dual-form terms) per sum, E0's included",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimirbox",
        description="Thermal Casimir free energy, force and entropy for "
        "ideal-metal rectangular boxes and parallel planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e0", help="zero-temperature box energy")
    _add_box_args(p, with_temp=False)
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("free-energy", help="box free energy at temperature T")
    _add_box_args(p)
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("force", help="box force between the faces normal to a")
    _add_box_args(p)
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("thermo", help="box free energy plus U and S columns")
    _add_box_args(p)
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("plates", help="parallel-planes free energy (per area)")
    p.add_argument("--a", required=True, type=float, help="separation [um]")
    p.add_argument("--temp", required=True, type=float, help="temperature [K]")
    p.add_argument("--pressure", action="store_true", help="add pressure columns")
    # the plates series are a few terms; no lattice budget reaches them
    _add_tol_args(p, with_budget=False)
    p.set_defaults(func=_cmd_plates)

    p = sub.add_parser("sweep", help="sweep one variable, CSV row per grid point")
    p.add_argument("--quantity", required=True, choices=["free-energy", "force"])
    p.add_argument("--field", required=True, choices=["scalar", "em"])
    p.add_argument("--var", required=True, choices=["a", "temp"])
    p.add_argument("--from", dest="start", required=True, type=float)
    p.add_argument("--to", dest="stop", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--log", action="store_true", help="logarithmic grid")
    p.add_argument("--a", type=float, default=2.0, help="side a [um]")
    p.add_argument("--b", type=float, default=2.0, help="side b [um]")
    p.add_argument("--c", type=float, default=2.0, help="side c [um]")
    p.add_argument("--temp", type=float, default=300.0, help="temperature [K]")
    _add_tol_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run oracle and golden-value checks")
    p.add_argument("--filter", default=None, help="run only checks whose name contains this")
    p.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None, out=None, err=None) -> int:
    """Parse argv and execute; returns the exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args, out)
    except ValueError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=err)
        return 3


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
