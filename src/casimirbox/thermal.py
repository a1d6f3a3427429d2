"""Thermal Casimir quantities for rectangular boxes.

The raw thermal correction to the free energy is the convergent mode sum

    scalar:  D(T) = kT sum_{n,l,p>=1} ln(1 - exp(-beta w_nlp))
    em:      D(T) = kT [ sum_{l,p} + sum_{n,l} + sum_{n,p}
                         + 2 sum_{n,l,p} ] ln(1 - exp(-beta w))

with w_nlp = pi sqrt(n^2/a^2 + l^2/b^2 + p^2/c^2) and the double sums
taken over modes with one index set to zero.  The physical free energy
subtracts the blackbody volume term and two further geometric terms,

    F = E0 + D(T) + V_pref (kT)^4 abc - alpha1 (kT)^3 - alpha2 (kT)^2

with (scalar) V_pref = pi^2/90, alpha1 = zeta(3)(ab+bc+ca)/(4 pi),
alpha2 = -pi(a+b+c)/24, and (em) V_pref = pi^2/45, alpha1 = 0,
alpha2 = +pi(a+b+c)/12.  Everything is in natural units (energies 1/m,
temperatures through kT/(hbar c) in 1/m).

Force, internal energy and entropy come from exact term-wise derivatives
of the same representation, the zero-temperature force from the analytic
gradient of E0; nothing is differentiated numerically.

Forms.  `free_energy`, `force_x`, `internal_energy` and `entropy` are views
of one row per state point (T > 0), taken in one of two exact forms by the
largest reduced temperature t_i = 1/(2 a_i kT), measured against
`_T_CROSS`, measured where the two cost about the same:

* direct, for max t_i above it: the mode sums above, the log kernel
  summed once over each of the field's mode lattices by `_modesum`, the
  energy and force sums read from its beta-gradient (in its dual form where
  the points exceed the budget).  The sums cancel against the subtractions
  by up to (kT a)^3, and their cost grows like t^-3;
* Matsubara, for max t_i up to it: F = kT [c1 ln(kT a) + c0] + kT rho(t)
  (`_matsubara`), with c0 from zeta'(0) of the box and rho a sum of
  Matsubara images below exp(-2 pi / max t_i).  Nothing cancels but the
  pieces of c0, and the cost does not grow with T: at 1e32 K every image
  underflows and the row is the classical law.

Accuracy contract.  Each printed total of F, U, S kT and the force is a
sum of pieces, among them series, and carries two errors:

* roundoff, at most the total's floor, 8 eps times the sizes of its pieces
  plus the sum of |term| of its series.  In the direct form the floor can
  exceed tol times the total where the sums cancel; the largest roundoff
  seen there was 3.2 eps times those sizes, over 104 rows of four boxes,
  both fields, kT a = 10 to 100, against the classical law U = -c1 kT.  In
  the Matsubara form it stays below 5e-14 of the total: 4e-14 and less for
  the 1 um cube and the 1 x 10 x 10 um slab at 100 - 160 kK, which the
  direct form left up to 2390 times over tol;
* truncation, bounded by the tail bounds the sums return, and at most
  tol times the total, or its floor where that is larger.  A direct row
  that misses is summed once more with every tail bound cut by the worst
  ratio; the Matsubara form sums its images to eps |c1| / 8, inside the
  floor.

So a total is within max(tol |total|, floor) + floor of its exact value;
below the floor's reach, within tol.  `thermal_raw` is the direct mode sum,
summed to tol alone; the rows' `EnergyBreakdown.thermal_raw` is their
total less E0 and the subtractions, which in the Matsubara form it
exceeds by about (kT a)^3, so its relative error stays near the total's.
E0's own series error is not in the check: its G pass is summed to tol,
its R pass and c0's sums to double precision.  `max_points` caps every sum
of a row, the G and R passes of E0 and c0's sums included.

Temperatures.  `ThermalPoint` takes T = 0 or T_MIN <= T <= T_MAX: up to
T_MAX (1e32 K, about the Planck temperature) the (kT)^4 terms of the
largest accepted box stay finite, and from T_MIN (1e-140 K) the (kT)^2
term of the smallest stays a normal float, so no floor is 0.

Caches.  Two one-entry caches, neither a setting: the last row, keyed on
the exact (sides, field, T, tol, max_points), so F, the force, U and S
asked for in turn cost one row; and the last box's temperature-independent
parts, E0 with the zero-T force and, once a Matsubara row asks for them,
c0 with dc0/da, keyed on (a, sorted sides, field, tol, max_points), so a
temperature sweep evaluates each once and a sweep that stays in the direct
form never computes c0.  Each output depends only on its own inputs, never
on the order of the calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import _modesum
from .boxzero import BoxGeometry, FieldKind, e0, e0_and_force_x, e0_force_x
from .errors import DEFAULT_BUDGET, DEFAULT_TOL
from .specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3

__all__ = [
    "ThermalPoint",
    "SubtractionCoefficients",
    "EnergyBreakdown",
    "mode_frequency",
    "thermal_raw",
    "blackbody_density",
    "blackbody_internal_density",
    "subtraction_coeffs",
    "heat_kernel_coeffs",
    "corner_coefficient",
    "free_energy",
    "force_x",
    "internal_energy",
    "entropy",
    "asymptotic_thermal",
]


#: Accepted temperatures besides T = 0 [K].  Up to T_MAX the (kT)^4 terms
#: of the largest accepted box stay finite (T_MAX is near the Planck
#: temperature, 1.4e32 K); from T_MIN up the (kT)^2 term of the smallest
#: stays a normal float, so every total has a nonzero roundoff floor.
T_MIN = 1e-140
T_MAX = 1e32


@dataclass(frozen=True)
class ThermalPoint:
    """Absolute temperature with derived natural-unit quantities: T = 0 or
    T_MIN <= T <= T_MAX kelvin."""

    temperature: float

    def __post_init__(self):
        t = self.temperature
        if not (isinstance(t, (int, float)) and (t == 0.0 or T_MIN <= t <= T_MAX)):
            raise ValueError(f"temperature must be 0 or in [{T_MIN:g}, {T_MAX:g}] K, got {t!r}")

    @property
    def kt(self) -> float:
        """k_B T in natural units [1/m]."""
        return K_BOLTZMANN * self.temperature / HBAR_C

    @property
    def beta(self) -> float:
        """Inverse temperature 1/(k_B T) in natural units [m]; inf at T = 0."""
        kt = self.kt
        return math.inf if kt == 0.0 else 1.0 / kt

    def reduced(self, geom: BoxGeometry) -> tuple[float, float, float]:
        """Reduced frequencies (pi beta / a, pi beta / b, pi beta / c)."""
        b = self.beta
        return (PI * b / geom.a, PI * b / geom.b, PI * b / geom.c)

    def reduced_t(self, length: float) -> float:
        """Dimensionless t = T_eff / T with k_B T_eff = hbar c / (2 length)."""
        return self.beta / (2.0 * length)


@dataclass(frozen=True)
class SubtractionCoefficients:
    """Coefficients of the (kT)^4, (kT)^3 and (kT)^2 subtractions."""

    alpha1: float  # m^2
    alpha2: float  # m
    bb_prefactor: float  # dimensionless; pi^2/90 scalar, pi^2/45 em


@dataclass(frozen=True)
class EnergyBreakdown:
    """Free-energy pieces, each carrying the sign with which it enters.

    total == e0_ren + thermal_raw + bb_term + alpha1_term + alpha2_term, to
    the rounding of the largest piece: in the Matsubara form the total is
    summed first and thermal_raw is what the other pieces leave of it.
    """

    e0_ren: float
    thermal_raw: float
    bb_term: float
    alpha1_term: float
    alpha2_term: float
    total: float


def mode_frequency(n: int, l: int, p: int, geom: BoxGeometry) -> float:
    """Cavity eigenfrequency pi sqrt(n^2/a^2 + l^2/b^2 + p^2/c^2) [1/m].

    Triple-index modes have n, l, p >= 1; the electromagnetic double sums
    use modes with exactly one index set to zero.
    """
    for name, v in (("n", n), ("l", l), ("p", p)):
        if not (isinstance(v, (int,)) and v >= 0):
            raise ValueError(f"index {name} must be a non-negative integer, got {v!r}")
    if n == 0 and l == 0 and p == 0:
        raise ValueError("at least one mode index must be positive")
    return PI * math.sqrt((n / geom.a) ** 2 + (l / geom.b) ** 2 + (p / geom.c) ** 2)


def _lattices(field: FieldKind, betas):
    """(multiplicity, reduced frequencies, contains the a axis) of each of
    the field's mode lattices.

    scalar: the n, l, p >= 1 triple lattice.  em: the triple lattice twice
    (two polarizations) plus the three lattices with exactly one index
    zero.  The a axis comes first wherever it occurs, as the force kernel's
    n requires; the (l, p) lattice's frequencies do not depend on a.
    """
    if field is FieldKind.SCALAR_DIRICHLET:
        return [(1, betas, True)]
    ba, bb, bc = betas
    return [(2, betas, True), (1, (bb, bc), False), (1, (ba, bb), True), (1, (ba, bc), True)]


def _mode_sums(
    field: FieldKind, betas, tol: float, max_points: int,
    kernels=("log", "energy", "force"), tighten: float = 1.0,
) -> tuple[dict, dict, dict]:
    """Each kernel summed over the field's mode lattices with their
    multiplicities, and the tail bounds and sums of |term| added the same way.

    Each lattice is enumerated once for all the kernels; the force kernel
    runs only on the lattices that contain the a axis.
    """
    sums: dict = {name: [] for name in kernels}
    bounds = dict.fromkeys(kernels, 0.0)
    scales = dict.fromkeys(kernels, 0.0)
    for mult, lattice, has_a in _lattices(field, betas):
        names = kernels if has_a else tuple(k for k in kernels if k != "force")
        res = _modesum.lattice_sums(lattice, tol, max_points, names, tighten)
        for name in names:
            sums[name].append(mult * res.sums[name])
            bounds[name] += mult * res.bounds[name]
            scales[name] += mult * res.scale[name]
    return {name: math.fsum(parts) for name, parts in sums.items()}, bounds, scales


def thermal_raw(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> float:
    """Nonrenormalized thermal correction to the free energy [1/m].

    kT * X for the scalar field and kT * Y for the electromagnetic one,
    where X is the triple log-sum and Y = 2X plus the three double sums.
    Returns exactly 0.0 at T = 0.  Depends on (a, b, c, T) only through
    the products aT, bT, cT.
    """
    if tp.temperature == 0.0:
        return 0.0
    return tp.kt * _mode_sums(field, tp.reduced(geom), tol, max_points, ("log",))[0]["log"]


def blackbody_density(tp: ThermalPoint, field: FieldKind) -> float:
    """Blackbody free-energy density f_bb = -pi^2 (kT)^4 / 90 [1/m^4].

    Doubled for the electromagnetic field (two polarizations).
    """
    f = -(PI**2) * tp.kt**4 / 90.0
    return 2.0 * f if field is FieldKind.ELECTROMAGNETIC else f


def blackbody_internal_density(tp: ThermalPoint, field: FieldKind) -> float:
    """Internal-energy density U = -T^2 d(f/T)/dT of the blackbody term.

    For f = c (kT)^4 this is -3 c (kT)^4; for the electromagnetic field it
    reproduces the Planck radiation density pi^2 (kT)^4 / 15.
    """
    return -3.0 * blackbody_density(tp, field)


def subtraction_coeffs(geom: BoxGeometry, field: FieldKind) -> SubtractionCoefficients:
    """Geometric subtraction coefficients for the requested field kind."""
    a, b, c = geom.sides
    if field is FieldKind.SCALAR_DIRICHLET:
        return SubtractionCoefficients(
            alpha1=ZETA3 * (a * c + b * c + a * b) / (4.0 * PI),
            alpha2=-PI * (a + b + c) / 24.0,
            bb_prefactor=PI**2 / 90.0,
        )
    if field is FieldKind.ELECTROMAGNETIC:
        return SubtractionCoefficients(
            alpha1=0.0,
            alpha2=PI * (a + b + c) / 12.0,
            bb_prefactor=PI**2 / 45.0,
        )
    raise ValueError(f"unknown field kind {field!r}")


def corner_coefficient(theta: float) -> float:
    """Edge heat-kernel coefficient of a dihedral angle, (pi^2 - theta^2)/(6 theta)."""
    if theta <= 0.0:
        raise ValueError("angle must be positive")
    return (PI**2 - theta**2) / (6.0 * theta)


def heat_kernel_coeffs(geom: BoxGeometry) -> tuple[float, float]:
    """Heat-kernel coefficients (a_half, a_one) of the box.

    a_half = -sqrt(pi) S / 2 with S = 2(ab + bc + ca);
    a_one = 4 c1(pi/2) (a + b + c) = pi (a + b + c).
    """
    a, b, c = geom.sides
    surface = 2.0 * (a * b + b * c + c * a)
    a_half = -math.sqrt(PI) * surface / 2.0
    a_one = 4.0 * corner_coefficient(PI / 2.0) * (a + b + c)
    return (a_half, a_one)


def _subtraction_terms(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint):
    """(bb_term, alpha1_term, alpha2_term) of the free energy, signs included."""
    coeffs = subtraction_coeffs(geom, field)
    kt = tp.kt
    return (
        coeffs.bb_prefactor * kt**4 * geom.volume,
        -coeffs.alpha1 * kt**3,
        -coeffs.alpha2 * kt**2,
    )


def _force_subtraction_terms(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint):
    """-d/da of (bb_term, alpha1_term, alpha2_term)."""
    _, b, c = geom.sides
    kt = tp.kt
    if field is FieldKind.SCALAR_DIRICHLET:
        return (-(PI**2) * kt**4 * b * c / 90.0, ZETA3 * kt**3 * (b + c) / (4.0 * PI),
                -PI * kt**2 / 24.0)
    return (-(PI**2) * kt**4 * b * c / 45.0, 0.0, PI * kt**2 / 12.0)


#: One-entry memo of the last box's temperature-independent parts: (key,
#: {"e0": (E0, zero-T force), "c0": `_classical`'s tuple}), each part
#: computed when first asked for.
_zero_t_memo = None


def _box_parts(geom: BoxGeometry, field: FieldKind, tol: float, max_points: int) -> dict:
    """The memo's parts of this box, emptied when the box changes.

    E0 depends on the sides only through their sorted order, the force and
    c0's a-derivative also on which of them is a; the budget is part of the
    key, so a budget too small for a pass raises even after a larger one
    succeeded.
    """
    global _zero_t_memo
    key = (geom.a, tuple(sorted(geom.sides)), field, tol, max_points)
    if _zero_t_memo is None or _zero_t_memo[0] != key:
        _zero_t_memo = (key, {})
    return _zero_t_memo[1]


def _zero_t(geom: BoxGeometry, field: FieldKind, tol: float, max_points: int):
    """(E0, zero-T force) of the box, from one evaluation of E0 and its
    gradient, memoized, so a temperature sweep evaluates them once."""
    parts = _box_parts(geom, field, tol, max_points)
    if "e0" not in parts:
        parts["e0"] = e0_and_force_x(geom, field, tol, max_points)
    return parts["e0"]


def _classical(geom: BoxGeometry, field: FieldKind, tol: float, max_points: int):
    """`_matsubara.classical` of the box, memoized with E0."""
    parts = _box_parts(geom, field, tol, max_points)
    if "c0" not in parts:
        from . import _matsubara

        parts["c0"] = _matsubara.classical(geom.sides, field, tol, max_points)
    return parts["c0"]


class _Row(NamedTuple):
    """F, the force, U and S at one state point with T > 0."""

    free: EnergyBreakdown
    #: (zero-T force, thermal mode term, bb, alpha1, alpha2 terms)
    force_parts: tuple[float, float, float, float, float]
    force: float
    internal: float
    entropy: float
    #: the roundoff floors of F, U, S kT and the force
    floors: tuple[float, float, float, float]


#: Roundoff floor of a total, per unit of its pieces' sizes plus the sum of
#: |term| of its series: each term and piece carries a few ulps of its
#: own (exp, log1p, K_0, K_1, and kT^4 against the betas), which no sum can
#: remove.  See the accuracy contract above for the largest seen.
_ROUNDOFF = 8.0 * sys.float_info.epsilon

#: The row takes the Matsubara form where the largest reduced temperature
#: t_i = 1/(2 a_i kT) is at most this, by field.  One row in ms, (direct,
#: Matsubara), best of 40 on a 2-CPU VM: scalar, the 2 um cube (0.62, 0.99)
#: at t = 0.4 and (1.82, 0.67) at 0.3, the 1 x 10 x 10 um slab (2.55, 0.40)
#: and the 10 x 1 x 1 um bar (2.83, 0.62) at 0.5; em, whose images are
#: elementary where the scalar's pairs need K_0 and K_1, the cube
#: (1.11, 0.76), slab (0.94, 0.27) and bar (2.51, 0.32) at 1.5.  Above 1.5
#: the images along a cold side cancel against c0 (see `_modesum`).
_T_CROSS = {FieldKind.SCALAR_DIRICHLET: 0.5, FieldKind.ELECTROMAGNETIC: 1.5}

#: One-entry cache of (key, row) for `_row`.
_last_row = None


def _row(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint, tol: float,
         max_points: int) -> _Row:
    """The row at this state point; the last one evaluated is kept, so F,
    the force, U and S asked for in turn cost one evaluation."""
    global _last_row
    key = (geom.sides, field, tp.temperature, tol, max_points)
    if _last_row is None or _last_row[0] != key:
        _last_row = (key, _evaluate_row(geom, field, tp, tol, max_points))
    return _last_row[1]


def _evaluate_row(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint, tol: float,
                  max_points: int) -> _Row:
    """The row in the Matsubara form where max t_i <= _T_CROSS, else in the
    direct form."""
    if max(tp.reduced_t(s) for s in geom.sides) <= _T_CROSS[field]:
        return _matsubara_row(geom, field, tp, tol, max_points)
    return _direct_row(geom, field, tp, tol, max_points)


def _matsubara_row(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint, tol: float,
                   max_points: int) -> _Row:
    """F, the force, U and S in the Matsubara form (`_matsubara.row_pieces`).

    Its images are summed to below every total's floor, so no total needs a
    re-sum.  The totals are summed first; the breakdowns' thermal terms are
    what the other pieces leave of them.
    """
    from . import _matsubara

    checks = _matsubara.row_pieces(tp.kt, geom.a, tuple(tp.reduced_t(s) for s in geom.sides),
                                   field, _classical(geom, field, tol, max_points), tol,
                                   max_points)
    e0_ren, f0 = _zero_t(geom, field, tol, max_points)
    free, internal, entropy_kt, force = (math.fsum(pieces) for pieces, _ in checks)
    floors = tuple(_ROUNDOFF * (math.fsum(map(abs, pieces)) + size) for pieces, size in checks)
    bb, a1, a2 = _subtraction_terms(geom, field, tp)
    force_terms = _force_subtraction_terms(geom, field, tp)
    return _Row(
        EnergyBreakdown(e0_ren, math.fsum([free, -e0_ren, -bb, -a1, -a2]), bb, a1, a2, free),
        (f0, math.fsum([force, -f0] + [-x for x in force_terms]), *force_terms),
        force, internal, entropy_kt / tp.kt, floors,
    )


def _direct_row(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint, tol: float,
                max_points: int) -> _Row:
    """F, the force, U and S from one enumeration of each mode lattice.

    Each total T_q is a sum of pieces, among them a mode series whose
    truncation error is at most its prefactor times the multiplicity-
    weighted tail bounds (kT for F and U, kT for both series of S kT,
    pi^2 beta / a^3 for the force).  That error must be at most
    tol |T_q|, or the total's roundoff floor where that is larger; a check
    whose error bound is 0 passes outright.  If any total misses, the
    lattices are summed once more with every tail bound cut by the worst
    ratio.
    """
    kt = tp.kt
    bb, a1, a2 = _subtraction_terms(geom, field, tp)
    force_scale = PI**2 * tp.beta / geom.a**3
    force_terms = _force_subtraction_terms(geom, field, tp)
    betas = tp.reduced(geom)
    tighten = 1.0
    while True:
        sums, bounds, scales = _mode_sums(field, betas, tol, max_points, tighten=tighten)
        # after the mode sums, so a budget too small for both names them;
        # memoized, so the re-sum does not repeat it
        e0_ren, f0 = _zero_t(geom, field, tol, max_points)
        raw, modes_u, modes_f = kt * sums["log"], kt * sums["energy"], force_scale * sums["force"]
        # (pieces of a total, sum of |term| of its mode series, bound on
        # their truncation error): F, U, S kT, force
        checks = [
            ([e0_ren, raw, bb, a1, a2], kt * scales["log"], kt * bounds["log"]),
            ([e0_ren, modes_u, -3.0 * bb, -2.0 * a1, -a2], kt * scales["energy"],
             kt * bounds["energy"]),
            ([modes_u, -raw, -4.0 * bb, -3.0 * a1, -2.0 * a2],
             kt * (scales["log"] + scales["energy"]), kt * (bounds["log"] + bounds["energy"])),
            ([f0, modes_f, *force_terms], force_scale * scales["force"],
             force_scale * bounds["force"]),
        ]
        floors = tuple(_ROUNDOFF * (math.fsum(map(abs, pieces)) + size)
                       for pieces, size, _ in checks)
        worst = max(err / max(tol * abs(math.fsum(pieces)), floor) if err else 0.0
                    for (pieces, _, err), floor in zip(checks, floors))
        if worst <= 1.0 or tighten > 1.0:
            break
        # a little beyond the worst ratio: re-summed, the totals move by up
        # to their errors
        tighten = 1.01 * worst
    free, internal, entropy_kt, force = (math.fsum(pieces) for pieces, _, _ in checks)
    return _Row(
        EnergyBreakdown(e0_ren, raw, bb, a1, a2, free),
        (f0, modes_f, *force_terms),
        force,
        internal,
        entropy_kt / kt,
        floors,
    )


def free_energy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> EnergyBreakdown:
    """Physical Casimir free energy with its renormalization breakdown.

    The stored fields carry the signs with which they enter, so
    total = e0_ren + thermal_raw + bb_term + alpha1_term + alpha2_term
    holds to the rounding of the largest piece (`EnergyBreakdown`).
    """
    if tp.temperature == 0.0:
        e0_ren = e0(geom, field, tol, max_points)
        return EnergyBreakdown(e0_ren, 0.0, 0.0, 0.0, 0.0, e0_ren)
    return _row(geom, field, tp, tol, max_points).free


def _force_parts(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float,
    max_points: int,
) -> tuple[float, float, float, float, float]:
    """(zero-T force, thermal mode term, bb term, alpha1 term, alpha2 term).

    In the direct form the thermal parts are the exact a-derivatives of the
    free-energy pieces, taken term by term:

      scalar: + (pi^2/a^3) sum n^2/(w (e^{b w}-1)) - pi^2 (kT)^4 bc/90
              + zeta(3)(kT)^3 (b+c)/(4 pi) - pi (kT)^2 / 24
      em:     + (pi^2/a^3) [sum_{nl} + sum_{np} + 2 sum_{nlp}] n^2/(w(e^{bw}-1))
              - pi^2 (kT)^4 bc/45 + pi (kT)^2 / 12

    In the Matsubara form the mode term is the force less the other parts.
    """
    if tp.temperature == 0.0:
        return (e0_force_x(geom, field, tol, max_points), 0.0, 0.0, 0.0, 0.0)
    return _row(geom, field, tp, tol, max_points).force_parts


def force_x(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> float:
    """Casimir force -dF/da between the faces normal to the a axis [1/m^2]."""
    if tp.temperature == 0.0:
        return e0_force_x(geom, field, tol, max_points)
    return _row(geom, field, tp, tol, max_points).force


def internal_energy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> float:
    """Internal energy U = -T^2 d(F/T)/dT, by term-wise analytic derivative.

    In the direct form each mode contributes w/(exp(beta w) - 1) and a
    polynomial piece c (kT)^m of the free energy -(m-1) c (kT)^m; in the
    Matsubara form U = -c1 kT + kT sum_i t_i d rho/dt_i.
    """
    if tp.temperature <= 0.0:
        raise ValueError("internal_energy requires T > 0")
    return _row(geom, field, tp, tol, max_points).internal


def entropy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> float:
    """Entropy (U - F)/(k_B T), dimensionless in units of k_B.

    Formed term by term, in the direct form
    (modes_U - thermal_raw - 4 bb - 3 alpha1 - 2 alpha2)/kT, where the pieces
    carry their free-energy signs and E0 cancels exactly; in the Matsubara
    form -(c0 + c1 + c1 ln(kT a)) - rho + sum_i t_i d rho/dt_i.
    """
    if tp.temperature <= 0.0:
        raise ValueError("entropy requires T > 0")
    return _row(geom, field, tp, tol, max_points).entropy


def asymptotic_thermal(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint) -> float:
    """High-temperature asymptote of the raw thermal correction [1/m],

        kT [c1 ln(kT a) + c0] - E0 - bb_term - alpha1_term - alpha2_term,

    the polynomial being

    scalar: -pi (kT)^2 (a+b+c)/24 + zeta(3)(ab+bc+ca)(kT)^3/(4 pi)
            - pi^2 (kT)^4 abc / 90
    em:     +pi (kT)^2 (a+b+c)/12 - pi^2 (kT)^4 abc / 45

    with c1 = 1/8 (scalar) and -1/2 (em) and c0 the box's classical
    constant (`_matsubara`).  thermal_raw minus it is the Matsubara images'
    kT rho(t), exponentially small in 1/t: of order
    kT (t^2 / (t_a t_b t_c)) exp(-2 pi/t) at the largest t_i = t.  c0 and
    E0 are taken at the default tolerance and budget.
    """
    if tp.temperature <= 0.0:
        raise ValueError("asymptotic_thermal requires T > 0")
    from . import _matsubara

    kt = tp.kt
    c0 = _classical(geom, field, DEFAULT_TOL, DEFAULT_BUDGET)[0]
    e0_ren = _zero_t(geom, field, DEFAULT_TOL, DEFAULT_BUDGET)[0]
    return math.fsum([kt * _matsubara.C1[field] * math.log(kt * geom.a), kt * c0, -e0_ren]
                     + [-x for x in _subtraction_terms(geom, field, tp)])
