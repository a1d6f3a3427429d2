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
of the same representation; no numerical differentiation on the main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _modesum
from .boxzero import BoxGeometry, FieldKind, e0, e0_force_x, DEFAULT_TOL
from .errors import ConvergenceError  # noqa: F401  (re-raised from _modesum)
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
    "DEFAULT_MAX_POINTS",
]

DEFAULT_MAX_POINTS = _modesum.DEFAULT_MAX_POINTS


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

    @property
    def fields_sum(self) -> float:
        return math.fsum(
            [self.e0_ren, self.thermal_raw, self.bb_term, self.alpha1_term, self.alpha2_term]
        )


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


def _field_sum(
    series, field: FieldKind, betas, tol: float, max_points: int, a_derivative: bool = False
) -> float:
    """One mode series summed over the field's mode lattices.

    scalar: the n, l, p >= 1 triple lattice.  em: the triple lattice
    twice (two polarizations) plus the three lattices with exactly one
    index zero.  With a_derivative, the em sum keeps only the two of
    those that contain the a axis: the (l, p) lattice's frequencies do not
    depend on a.  `series` is one of the `_modesum` sums, looked up by the
    caller at call time.
    """
    triple = series(betas, tol, max_points)
    if field is FieldKind.SCALAR_DIRICHLET:
        return triple
    ba, bb, bc = betas
    pairs = ((ba, bb), (ba, bc)) if a_derivative else ((bb, bc), (ba, bb), (ba, bc))
    return 2.0 * triple + math.fsum(series(pair, tol, max_points) for pair in pairs)


def thermal_raw(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Nonrenormalized thermal correction to the free energy [1/m].

    kT * X for the scalar field and kT * Y for the electromagnetic one,
    where X is the triple log-sum and Y = 2X plus the three double sums.
    Returns exactly 0.0 at T = 0.  Depends on (a, b, c, T) only through
    the products aT, bT, cT.
    """
    if tp.temperature == 0.0:
        return 0.0
    return tp.kt * _field_sum(_modesum.log_sum, field, tp.reduced(geom), tol, max_points)


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


def free_energy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> EnergyBreakdown:
    """Physical Casimir free energy with its renormalization breakdown.

    The stored fields carry the signs with which they enter, so
    total = e0_ren + thermal_raw + bb_term + alpha1_term + alpha2_term
    holds identically.
    """
    e0_ren = e0(geom, field, tol)
    if tp.temperature == 0.0:
        return EnergyBreakdown(e0_ren, 0.0, 0.0, 0.0, 0.0, e0_ren)
    raw = thermal_raw(geom, field, tp, tol, max_points)
    bb_term, alpha1_term, alpha2_term = _subtraction_terms(geom, field, tp)
    total = math.fsum([e0_ren, raw, bb_term, alpha1_term, alpha2_term])
    return EnergyBreakdown(e0_ren, raw, bb_term, alpha1_term, alpha2_term, total)


def _subtraction_terms(geom: BoxGeometry, field: FieldKind, tp: ThermalPoint):
    """(bb_term, alpha1_term, alpha2_term) of the free energy, signs included."""
    coeffs = subtraction_coeffs(geom, field)
    kt = tp.kt
    return (
        coeffs.bb_prefactor * kt**4 * geom.volume,
        -coeffs.alpha1 * kt**3,
        -coeffs.alpha2 * kt**2,
    )


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
    f0 = e0_force_x(geom, field, tol)
    if tp.temperature == 0.0:
        return (f0, 0.0, 0.0, 0.0, 0.0)
    a, b, c = geom.sides
    kt = tp.kt
    s = _field_sum(_modesum.force_sum, field, tp.reduced(geom), tol, max_points, a_derivative=True)
    mode = (PI**2 / a**3) * tp.beta * s
    if field is FieldKind.SCALAR_DIRICHLET:
        bb_term = -(PI**2) * kt**4 * b * c / 90.0
        a1_term = ZETA3 * kt**3 * (b + c) / (4.0 * PI)
        a2_term = -PI * kt**2 / 24.0
    else:
        bb_term = -(PI**2) * kt**4 * b * c / 45.0
        a1_term = 0.0
        a2_term = PI * kt**2 / 12.0
    return (f0, mode, bb_term, a1_term, a2_term)


def force_x(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Casimir force -dF/da between the faces normal to the a axis [1/m^2]."""
    return math.fsum(_force_parts(geom, field, tp, tol, max_points))


def _mode_energy(
    geom: BoxGeometry, field: FieldKind, tp: ThermalPoint, tol: float, max_points: int
) -> float:
    """Mode part of the internal energy, kT times the sum of r/(exp(r) - 1)."""
    return tp.kt * _field_sum(_modesum.energy_sum, field, tp.reduced(geom), tol, max_points)


def internal_energy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Internal energy U = -T^2 d(F/T)/dT, by term-wise analytic derivative.

    Each mode contributes w/(exp(beta w) - 1); a polynomial piece c (kT)^m
    of the free energy contributes -(m-1) c (kT)^m.
    """
    if tp.temperature <= 0.0:
        raise ValueError("internal_energy requires T > 0")
    e0_ren = e0(geom, field, tol)
    modes = _mode_energy(geom, field, tp, tol, max_points)
    bb_term, alpha1_term, alpha2_term = _subtraction_terms(geom, field, tp)
    return math.fsum([e0_ren, modes, -3.0 * bb_term, -2.0 * alpha1_term, -1.0 * alpha2_term])


def entropy(
    geom: BoxGeometry,
    field: FieldKind,
    tp: ThermalPoint,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Entropy (U - F)/(k_B T), dimensionless in units of k_B.

    Formed term by term, (modes_U - thermal_raw - 4 bb - 3 alpha1 - 2 alpha2)/kT,
    where the pieces carry their free-energy signs; E0 cancels exactly and
    is not evaluated.
    """
    if tp.temperature <= 0.0:
        raise ValueError("entropy requires T > 0")
    modes = _mode_energy(geom, field, tp, tol, max_points)
    raw = thermal_raw(geom, field, tp, tol, max_points)
    bb_term, alpha1_term, alpha2_term = _subtraction_terms(geom, field, tp)
    return math.fsum([modes, -raw, -4.0 * bb_term, -3.0 * alpha1_term, -2.0 * alpha2_term]) / tp.kt


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
