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

Accuracy contract.  `free_energy`, `force_x`, `internal_energy` and
`entropy` are views of one row per state point (T > 0), which sums each of
the field's mode lattices once for the log, energy and force kernels, in
whichever of `_modesum`'s two exact forms costs less: the direct lattice
sum, or its Poisson-resummed dual at high temperature, where the direct
sum's cost grows like t^-3 and the dual's barely grows.  Both return tail
bounds and the sum of |term| of each series, so the check below does not
depend on the form.  Each printed total of F, U, S kT and the force is a
sum of pieces, among them the mode series, and carries two errors:

* roundoff, at most the total's floor, 8 eps times the sizes of its pieces
  plus the sum of |term| of its series.  At high T the series cancel
  against the subtractions by up to (kT a)^3, and the floor can exceed
  tol times the total: for the 1 um cube at 160 kK (kT a = 70) it is
  1.2e-9 kT in the electromagnetic U = kT/2.  The largest roundoff seen
  was 3.2 eps times those sizes, over 104 rows of four boxes, both
  fields, kT a = 10 to 100, against the classical law U = -c1 kT;
* truncation, bounded by the tail bounds the sums return, and at most
  tol times the total, or its floor where that is larger.  A row that
  misses is summed once more with every tail bound cut by the worst ratio.

So a total is within max(tol |total|, floor) + floor of its exact value;
below the floor's reach, within tol.  `thermal_raw` sums its series to
tol alone.  E0's own series error is not in the check: its G pass is
summed to tol, its R pass to double precision.  `max_points` caps every
sum of a row, the G and R passes of E0 included.

Caches.  Two one-entry caches, neither a setting: the last row, keyed on
the exact (sides, field, T, tol, max_points), so F, the force, U and S
asked for in turn cost one row; and the last box's E0 and zero-T force,
keyed on (a, sorted sides, field, tol, max_points), so a temperature sweep
evaluates them once.  Each output depends only on its own inputs, never on
the order of the calls.
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


@dataclass(frozen=True)
class ThermalPoint:
    """Absolute temperature with derived natural-unit quantities."""

    temperature: float

    def __post_init__(self):
        t = self.temperature
        if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
            raise ValueError(f"temperature must be finite and >= 0 K, got {t!r}")

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

    total == e0_ren + thermal_raw + bb_term + alpha1_term + alpha2_term.
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


#: One-entry memo of (key, E0, zero-T force) for `_zero_t`.
_zero_t_memo = None


def _zero_t(geom: BoxGeometry, field: FieldKind, tol: float, max_points: int):
    """(E0, zero-T force) of the box, from one evaluation of E0 and its gradient.

    Memoized for the last geometry asked for, so a temperature sweep
    evaluates them once.  E0 depends on the sides only through their sorted
    order, the force also on which of them is a; the budget is part of the
    key, so a budget too small for the G and R passes raises even after a
    larger one succeeded.
    """
    global _zero_t_memo
    key = (geom.a, tuple(sorted(geom.sides)), field, tol, max_points)
    if _zero_t_memo is None or _zero_t_memo[0] != key:
        _zero_t_memo = (key, *e0_and_force_x(geom, field, tol, max_points))
    return _zero_t_memo[1:]


class _Row(NamedTuple):
    """F, the force, U and S at one state point with T > 0."""

    free: EnergyBreakdown
    #: (zero-T force, thermal mode term, bb, alpha1, alpha2 terms)
    force_parts: tuple[float, float, float, float, float]
    internal: float
    entropy: float


#: Roundoff floor of a total, per unit of its pieces' sizes plus the sum of
#: |term| of its mode series: each term and piece carries a few ulps of its
#: own (exp, log1p, K_0, K_1, and kT^4 against the betas), which no sum can
#: remove.  See the accuracy contract above for the largest seen.
_ROUNDOFF = 8.0 * sys.float_info.epsilon

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
    """F, the force, U and S from one enumeration of each mode lattice.

    Each total T_q is a sum of pieces, among them a mode series whose
    truncation error is at most its prefactor times the multiplicity-
    weighted tail bounds (kT for F and U, kT for both series of S kT,
    pi^2 beta / a^3 for the force).  That error must be at most
    tol |T_q|, or the total's roundoff floor where that is larger.  If any
    total misses, the lattices are summed once more with every tail bound
    cut by the worst ratio.
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
        worst = max(err / max(tol * abs(math.fsum(pieces)), floor)
                    for (pieces, _, err), floor in zip(checks, floors))
        if worst <= 1.0 or tighten > 1.0:
            break
        # a little beyond the worst ratio: re-summed, the totals move by up
        # to their errors
        tighten = 1.01 * worst
    free, internal, entropy_kt = (math.fsum(pieces) for pieces, _, _ in checks[:3])
    return _Row(
        EnergyBreakdown(e0_ren, raw, bb, a1, a2, free),
        (f0, modes_f, *force_terms),
        internal,
        entropy_kt / kt,
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
    holds identically.
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

    Thermal parts are the exact a-derivatives of the free-energy pieces,
    taken term by term:

      scalar: + (pi^2/a^3) sum n^2/(w (e^{b w}-1)) - pi^2 (kT)^4 bc/90
              + zeta(3)(kT)^3 (b+c)/(4 pi) - pi (kT)^2 / 24
      em:     + (pi^2/a^3) [sum_{nl} + sum_{np} + 2 sum_{nlp}] n^2/(w(e^{bw}-1))
              - pi^2 (kT)^4 bc/45 + pi (kT)^2 / 12
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
    return math.fsum(_force_parts(geom, field, tp, tol, max_points))


def internal_energy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_BUDGET,
) -> float:
    """Internal energy U = -T^2 d(F/T)/dT, by term-wise analytic derivative.

    Each mode contributes w/(exp(beta w) - 1); a polynomial piece c (kT)^m
    of the free energy contributes -(m-1) c (kT)^m.
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

    Formed term by term, (modes_U - thermal_raw - 4 bb - 3 alpha1 - 2 alpha2)/kT,
    where the pieces carry their free-energy signs; E0 cancels exactly.
    """
    if tp.temperature <= 0.0:
        raise ValueError("entropy requires T > 0")
    return _row(geom, field, tp, tol, max_points).entropy


def asymptotic_thermal(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint) -> float:
    """High-temperature polynomial asymptote of the raw thermal correction.

    scalar: -pi (kT)^2 (a+b+c)/24 + zeta(3)(ab+bc+ca)(kT)^3/(4 pi)
            - pi^2 (kT)^4 abc / 90
    em:     +pi (kT)^2 (a+b+c)/12 - pi^2 (kT)^4 abc / 45

    Logarithmic remainder terms are omitted (their coefficients are not
    fixed here), so comparisons against thermal_raw are ratio tests.
    """
    if tp.temperature <= 0.0:
        raise ValueError("asymptotic_thermal requires T > 0")
    return -math.fsum(_subtraction_terms(geom, field, tp))
