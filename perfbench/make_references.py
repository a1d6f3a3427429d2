"""Regenerate perfbench/references.json: one pinned reference per op output.

Run from the repository root (six to eight minutes on two cores):

    PYTHONPATH=src python3 perfbench/make_references.py

No reference runs casimirbox's production series.  The oracles are:

* E0: the 30-digit brute-force G and R sums of casimirbox.validate (the
  pieces of `validate.oracle_e0`, cutoff 120), assembled with the closed-form
  terms in mpmath.  The sides are sorted ascending first: the box energy does
  not change under a permutation of its sides, and in that order every G and
  R argument is >= 1, where the cutoff of 120 is never reached.
* Thermal mode sums: a direct long-double sum of ln(1 - exp(-r)) over every
  positive index vector inside a fixed radius, 56 e-folds beyond the first
  mode, spot-checked against `validate.oracle_lattice`.
  F = E0 + kT * (mode sum) + the closed-form subtractions.
* Zero-temperature force, thermal force, U and S: Richardson-extrapolated
  central differences of E0 (three levels) and of the mode-sum part (four
  levels); the closed-form subtraction terms are differentiated exactly.
* Plates: mpmath evaluation of the closed coth/sinh series, which converges
  for every t > 0, at 25 + 4 log10(1/t) digits so the 1/t^4 cancellation is
  absorbed; the pressure is mpmath.diff of that series in the separation.

Each reference records its relative accuracy (an error estimate: Richardson
level disagreement, summation roundoff, truncation bounds, and a repeat at
higher precision for plates).  A reference whose value is below
NEAR_ZERO times its largest breakdown term records that term as `scale`, and
deviations from it are measured against the scale instead of the value.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import sys
import time

import mpmath
import numpy as np
from mpmath import mpf

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import HBAR_C, K_BOLTZMANN, UM  # noqa: E402

mpmath.mp.dps = 40
LD = np.longdouble
LD_EPS = float(np.finfo(LD).eps)
PI = mpmath.pi
ZETA3 = mpmath.zeta(3)
KB_OVER_HBARC = mpf(K_BOLTZMANN) / mpf(HBAR_C)

#: value/scale below which a deviation is measured against the scale: there
#: the default 1e-10 tolerance on the value is within ~50 ulp of the largest term
NEAR_ZERO = 1e-5
#: e-folds of the mode-sum cutoff radius beyond the first mode
MODE_SUM_MARGIN = 56.0
RICHARDSON_LEVELS = 4
E0_CUTOFF = 120
#: worker processes of the reference pool
WORKERS = 2
OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def _ld(x) -> LD:
    return LD(mpmath.nstr(x, 25, min_fixed=1, max_fixed=0))


def _mp(x: LD) -> mpf:
    return mpf(np.format_float_scientific(x, precision=22, unique=False))


# ----------------------------------------------------------------------
# zero temperature


def e0_terms(field: str, sides_m) -> list:
    """Closed-form terms of E0 [1/m]; their sum is the energy."""
    from casimirbox.validate import _oracle_g, _oracle_r

    A, B, C = sorted(mpf(s) for s in sides_m)
    # the brute-force sums take double-precision arguments
    ba, ca, cb = float(B / A), float(C / A), float(C / B)
    if field == "scalar":
        return [
            -(PI**2) * B * C / (1440 * A**3),
            ZETA3 * (B + C) / (32 * PI * A**2),
            -PI / (96 * A),
            -(PI / (2 * A)) * (mpf(_oracle_g(ba, E0_CUTOFF)) + mpf(_oracle_g(ca, E0_CUTOFF))),
            -(1 / A) * mpf(_oracle_r(ba, ca, E0_CUTOFF)),
        ]
    return [
        -(PI**2) * B * C / (720 * A**3),
        -ZETA3 * C / (16 * PI * B**2),
        (PI / 48) * (1 / A + 1 / B),
        (PI / B) * mpf(_oracle_g(cb, E0_CUTOFF)),
        -(2 / A) * mpf(_oracle_r(ba, ca, E0_CUTOFF)),
    ]


def richardson(f, x, h, levels=RICHARDSON_LEVELS):
    """d f/dx by central differences at h, h/2, ...; f returns a list of mp values.

    Returns (derivative list, error estimate list): the error is the change
    between the last two diagonal entries of the Richardson table.
    """
    rows = []
    for k in range(levels):
        hk = h / 2**k
        fp, fm = f(x + hk), f(x - hk)
        row = [[(p - m) / (2 * hk) for p, m in zip(fp, fm)]]
        for j in range(1, k + 1):
            prev, cur = rows[k - 1][j - 1], row[j - 1]
            row.append([(4**j * c - p) / (4**j - 1) for c, p in zip(cur, prev)])
        rows.append(row)
    best, before = rows[-1][-1], rows[-2][-1]
    return best, [abs(b - p) for b, p in zip(best, before)]


def e0_reference(field: str, sides_um) -> dict:
    """E0 and the zero-temperature force -dE0/da, with breakdown scales and errors."""
    sides = [s * UM for s in sides_um]
    terms = e0_terms(field, sides)
    e0 = mpmath.fsum(terms)
    # the G and R terms come back from double precision; the rest is exact
    e0_err = 2 * 2.0**-53 * max(abs(t) for t in terms[3:])

    a = mpf(sides[0])
    h = a * mpf("1e-3")

    # the sides re-sort when a crosses b or c, so only the sum is differentiated
    def energy(aa):
        t = e0_terms(field, [aa, sides[1], sides[2]])
        return [mpmath.fsum(t)]

    (de,), (de_err,) = richardson(energy, a, h, levels=3)
    # roundoff of double-precision G/R terms amplified by the finest step
    de_round = 4 * e0_err / (h / 4)
    # breakdown scale of the force: the a-derivatives of the closed-form
    # terms with the sides in the given order
    force_terms = _e0_force_closed_terms(field, sides)
    return {
        "e0": e0,
        "e0_err": e0_err,
        "e0_scale": max(abs(t) for t in terms),
        "force": -de,
        "force_err": de_err + de_round,
        "force_scale": max([abs(de)] + [abs(t) for t in force_terms]),
    }


def _e0_force_closed_terms(field, sides_m):
    """-d/da of the polynomial E0 terms in the given side order (breakdown scale)."""
    a, b, c = (mpf(s) for s in sides_m)
    if field == "scalar":
        return [
            -3 * PI**2 * b * c / (1440 * a**4),
            ZETA3 * (b + c) / (16 * PI * a**3),
            -PI / (96 * a**2),
        ]
    return [-3 * PI**2 * b * c / (720 * a**4), PI / (48 * a**2)]


# ----------------------------------------------------------------------
# thermal mode sums


def _log_kernel_sum(r2) -> LD:
    r = np.sqrt(r2)
    return np.sum(np.log1p(-np.exp(-r)))


def lattice_log_sum(betas, radius) -> tuple[LD, float]:
    """Sum of ln(1 - exp(-r)) over positive index vectors with r <= radius.

    r = |(beta_1 m_1, ..., beta_d m_d)|, d = 2 or 3, in long double.  Returns
    (sum, bound on the discarded tail relative to the first term).
    """
    bs = sorted((LD(b) for b in betas), reverse=True)
    rad = LD(radius)
    r2cut = rad * rad
    delta = float(np.sqrt(sum(b * b for b in bs)))
    r1 = delta
    if len(bs) == 2:
        b1, b2 = bs
        n = np.arange(1, int(rad / b1) + 1, dtype=LD)
        m = np.arange(1, int(rad / b2) + 1, dtype=LD)
        r2 = (b1 * n)[:, None] ** 2 + (b2 * m)[None, :] ** 2
        total = _log_kernel_sum(r2[r2 <= r2cut])
        shell = (float(radius) + delta + 1.0) * math.pi / 2 / float(b1 * b2)
    else:
        b1, b2, b3 = bs
        slabs = []
        for n in range(1, int(rad / b1) + 1):
            q = (b1 * n) ** 2
            lmax = int(np.sqrt(max(r2cut - q - b3 * b3, 0)) / b2)
            pmax = int(np.sqrt(max(r2cut - q - b2 * b2, 0)) / b3)
            if lmax < 1 or pmax < 1:
                break
            ql = (b2 * np.arange(1, lmax + 1, dtype=LD)) ** 2
            qp = (b3 * np.arange(1, pmax + 1, dtype=LD)) ** 2
            r2 = q + ql[:, None] + qp[None, :]
            slabs.append(_log_kernel_sum(r2[r2 <= r2cut]))
        total = np.sum(np.array(slabs, dtype=LD))
        R = float(radius) + delta
        shell = (R * R + 2 * R + 2) * math.pi / 2 / float(b1 * b2 * b3)
    # each point owns a unit cell inside the shell fattened by the cell
    # diagonal; |ln(1 - e^-r)| <= e^-r / (1 - e^-r1)
    tail_rel = shell * math.exp(-(float(radius) - r1)) / -math.expm1(-r1)
    return total, tail_rel


def mode_sum(field: str, betas, radius) -> tuple[mpf, float]:
    """X (scalar) or Y = 2X + three double sums (em), with a relative error bound."""
    x, tail = lattice_log_sum(betas, radius)
    if field == "scalar":
        total = _mp(x)
        return total, tail + 4 * LD_EPS
    ba, bb, bc = betas
    parts = [2 * _mp(x)]
    for pair in ((bb, bc), (ba, bb), (ba, bc)):
        s, t = lattice_log_sum(pair, radius)
        parts.append(_mp(s))
        tail += t
    return mpmath.fsum(parts), tail + 4 * LD_EPS


def thermo_reference(field: str, sides_um, temp: float, e0ref: dict) -> dict:
    """F, force, U, S [natural units] with absolute errors and breakdown scales."""
    a, b, c = (mpf(s * UM) for s in sides_um)
    T = mpf(temp)
    kt = KB_OVER_HBARC * T

    def betas(temp_, a_):
        kt_ = KB_OVER_HBARC * temp_
        return [_ld(PI / (L * kt_)) for L in (a_, b, c)]

    center = betas(T, a)
    r1 = float(np.sqrt(sum(x * x for x in center)))
    radius = r1 + MODE_SUM_MARGIN
    sum_err = [0.0]

    def g(temp_, a_):
        s, rel = mode_sum(field, betas(temp_, a_), radius)
        sum_err[0] = max(sum_err[0], rel)
        return KB_OVER_HBARC * temp_ * s

    g0 = g(T, a)
    # steps shrink with the steepness of exp(-r1) at low temperature
    h_rel = mpf("4e-3") / max(1.0, r1 / 4.0)
    (dg_dT,), (errT,) = richardson(lambda x: [g(x, a)], T, h_rel * T)
    (dg_da,), (errA,) = richardson(lambda x: [g(T, x)], a, h_rel * a)
    # summation error amplified by the finest step (Richardson weights sum to < 4)
    h_min = h_rel / 2 ** (RICHARDSON_LEVELS - 1)
    round_T = 4 * sum_err[0] * abs(g0) / (h_min * T)
    round_a = 4 * sum_err[0] * abs(g0) / (h_min * a)
    errT += round_T
    errA += round_a

    if field == "scalar":
        bb = PI**2 / 90
        alpha1, d_alpha1 = ZETA3 * (a * b + b * c + c * a) / (4 * PI), ZETA3 * (b + c) / (4 * PI)
        alpha2, d_alpha2 = -PI * (a + b + c) / 24, -PI / 24
    else:
        bb = PI**2 / 45
        alpha1, d_alpha1 = mpf(0), mpf(0)
        alpha2, d_alpha2 = PI * (a + b + c) / 12, PI / 12
    bb_t = bb * kt**4 * a * b * c
    a1_t = -alpha1 * kt**3
    a2_t = -alpha2 * kt**2
    e0, f0 = e0ref["e0"], e0ref["force"]

    f_terms = [e0, g0, bb_t, a1_t, a2_t]
    u_terms = [e0, g0 - T * dg_dT, -3 * bb_t, -2 * a1_t, -a2_t]
    s_terms = [-(T / kt) * dg_dT, -(4 * bb_t) / kt, -(3 * a1_t) / kt, -(2 * a2_t) / kt]
    force_terms = [f0, -dg_da, -bb * kt**4 * b * c, d_alpha1 * kt**3, d_alpha2 * kt**2]
    g_err = sum_err[0] * abs(g0)
    return {
        "F": (f_terms, e0ref["e0_err"] + g_err, e0ref["e0_scale"]),
        "force": (force_terms, e0ref["force_err"] + errA, e0ref["force_scale"]),
        "U": (u_terms, e0ref["e0_err"] + g_err + T * errT, e0ref["e0_scale"]),
        "S": (s_terms, (T / kt) * errT, 0),
    }


# ----------------------------------------------------------------------
# plates


def _plates_digits(t: float) -> int:
    return 25 + 4 * max(0, math.ceil(math.log10(1.0 / t)))


def plates_series(a, kt) -> mpf:
    """Free energy per area [1/m^3] from the closed coth/sinh series.

    F = -(pi^2/(720 a^3)) {1 + (45/pi^3) sum_l [coth(pi l t)/(t^3 l^3)
        + pi/(t^2 l^2 sinh^2(pi l t))] - 1/t^4},  t = 1/(2 a kT),
    with coth = 1 + 2 e^{-2x}/(1 - e^{-2x}) so the l^-3 part sums to zeta(3)/t^3.
    """
    t = 1 / (2 * a * kt)
    coef = 45 / PI**3
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    acc = mpf(0)
    l = 1
    while True:
        ex = mpmath.exp(-2 * PI * l * t)
        term = 2 * ex / ((1 - ex) * t**3 * l**3) + 4 * PI * ex / (t**2 * l**2 * (1 - ex) ** 2)
        acc += term
        if term < eps * acc:
            break
        l += 1
    return -(PI**2) / (720 * a**3) * (1 + coef * (ZETA3 / t**3 + acc) - 1 / t**4)


def plates_reference(kind: str, a_um: float, temp: float, t: float) -> dict:
    a0 = mpf(a_um * UM)
    digits = _plates_digits(t)
    values = []
    for dps in (digits, digits + 10):
        with mpmath.workdps(dps):
            kt = KB_OVER_HBARC * mpf(temp)
            if kind == "plates_free_energy":
                values.append(plates_series(a0, kt))
            else:
                values.append(-mpmath.diff(lambda x: plates_series(x, kt), a0))
    name = "f" if kind == "plates_free_energy" else "p"
    return {name: ([values[1]], abs(values[1] - values[0]), 0)}


# ----------------------------------------------------------------------
# assembling the reference set


def _record(terms, abs_err, scale_hint, oracle: str) -> dict:
    value = mpmath.fsum(terms)
    scale = max([abs(t) for t in terms] + [abs(mpf(scale_hint))])
    rec = {"value": float(value), "oracle": oracle}
    denom = abs(value)
    if abs(value) < NEAR_ZERO * scale:
        rec["scale"] = float(scale)
        denom = scale
    accuracy = float(abs_err / denom) if denom else 0.0
    # storing the value as a double adds half an ulp
    rec["accuracy"] = float(f"{accuracy + 2.0**-53:.3g}")
    return rec


def _e0_task(key):
    field, sides_um = key
    return key, e0_reference(field, sides_um)


def _op_task(payload):
    op_id, kind, args, e0refs = payload
    return op_id, op_references(kind, args, e0refs)


THERMO_ORACLE = "brute-force long-double mode sum + 30-digit E0 + closed forms"
DERIV_ORACLE = THERMO_ORACLE + "; Richardson differences"
PLATES_ORACLE = "mpmath coth/sinh series"


def _scaled_record(ref: dict, name: str, factor=1) -> dict:
    """Record for one thermo_reference output, multiplied by `factor`."""
    terms, err, scale = ref[name]
    oracle = THERMO_ORACLE if name == "F" else DERIV_ORACLE
    return _record([x * factor for x in terms], err * factor, scale * factor, oracle)


def _thermo_records(field, sides_um, temp, e0refs) -> dict:
    ref = thermo_reference(field, sides_um, temp, e0refs[(field, tuple(sides_um))])
    return {name: _scaled_record(ref, name) for name in ref}


def op_references(kind: str, args: dict, e0refs: dict) -> dict:
    if kind in ("e0", "e0_force_x"):
        r = e0refs[(args["field"], tuple(args["sides_um"]))]
        if kind == "e0":
            return {"e0": _record([r["e0"]], r["e0_err"], r["e0_scale"], "30-digit E0")}
        return {"force": _record([r["force"]], r["force_err"], r["force_scale"],
                                 "30-digit E0; Richardson differences")}
    if kind == "thermo_row":
        return _thermo_records(args["field"], args["sides_um"], args["temp"], e0refs)
    if kind in ("plates_free_energy", "plates_pressure"):
        ref = plates_reference(kind, args["a_um"], args["temp"], args["t"])
        return {k: _record(*v, PLATES_ORACLE) for k, v in ref.items()}
    if kind == "cli":
        return cli_references(args["argv"], e0refs)
    raise ValueError(kind)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def cli_references(argv: list, e0refs: dict) -> dict:
    """References for the numbers one CLI call prints (dimensionless columns)."""
    cmd = argv[0]
    if cmd == "validate":
        return {"checks_passed_frac": {"value": 1.0, "accuracy": 0.0, "oracle": "all checks pass"}}
    if cmd == "plates":
        a_um, temp = float(_flag(argv, "--a")), float(_flag(argv, "--temp"))
        a = mpf(a_um * UM)
        t = float(1 / (2 * a * KB_OVER_HBARC * mpf(temp)))
        f = plates_reference("plates_free_energy", a_um, temp, t)["f"]
        p = plates_reference("plates_pressure", a_um, temp, t)["p"]
        return {
            "f_dimless": _record([f[0][0] * a**3], f[1] * a**3, 0, PLATES_ORACLE),
            "p_dimless": _record([p[0][0] * a**4], p[1] * a**4, 0, PLATES_ORACLE),
        }
    field = _flag(argv, "--field")
    sides = tuple(float(_flag(argv, f"--{k}")) for k in "abc")
    a = mpf(sides[0] * UM)
    e0r = e0refs[(field, sides)]
    if cmd == "e0":
        return {"total_dimless": _record([e0r["e0"] * a], e0r["e0_err"] * a, e0r["e0_scale"] * a,
                                         "30-digit E0")}
    if cmd == "sweep":
        out = {}
        n = int(_flag(argv, "--points"))
        start, stop = float(_flag(argv, "--from")), float(_flag(argv, "--to"))
        for i, temp in enumerate(np.linspace(start, stop, n)):
            key = f"total_dimless[{i}]"
            if temp == 0.0:
                out[key] = _record([e0r["e0"] * a], e0r["e0_err"] * a, e0r["e0_scale"] * a,
                                   "30-digit E0")
            else:
                out[key] = _scaled_record(thermo_reference(field, sides, float(temp), e0r), "F", a)
        return out
    ref = thermo_reference(field, sides, float(_flag(argv, "--temp")), e0r)
    if cmd == "free-energy":
        return {"total_dimless": _scaled_record(ref, "F", a)}
    if cmd == "force":
        return {"total_dimless": _scaled_record(ref, "force", a * a)}
    if cmd == "thermo":
        return {
            "total_dimless": _scaled_record(ref, "F", a),
            "u_dimless": _scaled_record(ref, "U", a),
            "s_kB": _scaled_record(ref, "S"),
        }
    raise ValueError(cmd)


def _estimated_cost(payload) -> float:
    _, kind, args, _ = payload
    if kind == "thermo_row":
        return args["temp"] / 100.0
    if kind.startswith("plates"):
        return 0.02 / args["t"]
    return 0.0


def _e0_keys(ops) -> list:
    keys = set()
    for op in ops:
        if "field" in op.args and "sides_um" in op.args:
            keys.add((op.args["field"], tuple(op.args["sides_um"])))
        if op.kind == "cli" and "--field" in op.args["argv"]:
            argv = op.args["argv"]
            keys.add((_flag(argv, "--field"), tuple(float(_flag(argv, f"--{k}")) for k in "abc")))
    return sorted(keys)


def _spot_checks() -> list:
    """Brute-force mode sum against validate.oracle_lattice where the latter is cheap."""
    from casimirbox.validate import oracle_lattice

    out = []
    for field, betas, cutoff in (("X", (2 * math.pi,) * 3, 50), ("Y", (3.0, 4.0, 5.0), 60)):
        ours, _ = mode_sum("scalar" if field == "X" else "em", [LD(b) for b in betas],
                           math.sqrt(sum(b * b for b in betas)) + MODE_SUM_MARGIN)
        theirs = oracle_lattice(field, {"beta_a": betas[0], "beta_b": betas[1],
                                        "beta_c": betas[2]}, cutoff)
        out.append({"kind": field, "betas": list(betas), "oracle_lattice": theirs,
                    "brute_force": float(ours), "rel_diff": float(abs(ours - theirs) / abs(theirs))})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=OUT_PATH)
    args = parser.parse_args(argv)

    t0 = time.time()
    ops = [op for w in workloads.WORKLOADS.values() for op in w.ops()]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        e0refs = dict(pool.map(_e0_task, _e0_keys(ops), chunksize=1))
        print(f"E0 references: {len(e0refs)} geometries, {time.time() - t0:.0f} s", flush=True)
        # slowest first, so two workers finish together
        payloads = [(op.id, op.kind, op.args, e0refs) for op in ops]
        payloads.sort(key=_estimated_cost, reverse=True)
        refs = dict(pool.imap_unordered(_op_task, payloads, chunksize=1))
    spot = _spot_checks()
    doc = {
        "regenerate": "PYTHONPATH=src python3 perfbench/make_references.py",
        "tolerance_rule": "an output misses when |out - value| / denom > 1e-10 + accuracy, "
                          "denom = scale if present else |value|",
        "near_zero": NEAR_ZERO,
        "generated_with": {"python": platform.python_version(), "numpy": np.__version__,
                           "mpmath": mpmath.__version__, "seconds": round(time.time() - t0)},
        "mode_sum_spot_checks": spot,
        "ops": {op.id: refs[op.id] for op in ops},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {len(doc['ops'])} op references to {args.out} in {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
