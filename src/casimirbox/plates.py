"""Electromagnetic Casimir free energy and pressure for two parallel
ideal-metal planes, per unit area.

Two equivalent series representations are used, keyed on the reduced
variable t = T_eff/T with k_B T_eff = hbar c/(2a):

* for t >= 0.5 (low and moderate temperature) the closed sum

      F = -(pi^2/(720 a^3)) { 1 + (45/pi^3) sum_{l>=1} [ coth(pi l t)/(t^3 l^3)
            + pi/(t^2 l^2 sinh^2(pi l t)) ] - 1/t^4 }

  evaluated with coth(x) = 1 + 2/(e^{2x}-1) split off, so the sum is
  exponentially convergent and the constant zeta(3)/t^3 piece is exact;

* for t < 0.5 (high temperature) the dual double-sum form obtained by
  integrating the transverse momentum first,

      F = -pi^2/(720 a^3) - zeta(3) (kT)^3/(2 pi)
          - (1/(8 pi a^3)) sum_{l,n>=1} (1/(l^3 t^3)) (1 + 2 pi n l t)
            e^{-2 pi n l t}
          + pi^2/(720 a^3 t^4),

  where the halved n = 0 term of the primed frequency sum is the
  zeta(3) (kT)^3/(2 pi) piece and the inner n sum is carried out as an
  exact geometric series.

Both forms agree to ~1e-14 relative around the seam.  The pressure is
-dF/da by Richardson-extrapolated central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DEFAULT_TOL, ConvergenceError, DerivativeInstabilityError, check_tol
from .specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3, richardson_derivative

__all__ = ["PlatesConfig", "plates_free_energy", "plates_pressure", "T_SWITCH"]

#: Representation switch; both series converge in well under 1e4 terms here.
T_SWITCH = 0.5

_MAX_TERMS = 1_000_000
_FD_STEP = 1e-4
_FD_GATE = 1e-5


@dataclass(frozen=True)
class PlatesConfig:
    """Two parallel planes: separation [m] and temperature [K]."""

    separation: float
    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError(f"separation must be > 0, got {self.separation!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")

    @property
    def kt(self) -> float:
        """k_B T in natural units [1/m]."""
        return K_BOLTZMANN * self.temperature / HBAR_C

    @property
    def reduced_t(self) -> float:
        """t = T_eff/T = 1/(2 a kT); inf at T = 0."""
        kt = self.kt
        return math.inf if kt == 0.0 else 1.0 / (2.0 * self.separation * kt)


def _free_energy_closed(cfg: PlatesConfig, tol: float) -> float:
    """Closed single-sum representation, valid for t not too small."""
    a = cfg.separation
    t = cfg.reduced_t
    pref = -(PI**2) / (720.0 * a**3)
    if math.isinf(t):
        return pref
    coef = 45.0 / PI**3
    # successive terms shrink by at least q: (e^x - 1) grows by >= e^{2 pi t}
    # per step and the 1/l^k prefactors only help
    q = math.exp(-2.0 * PI * t)
    terms = [1.0, coef * ZETA3 / t**3, -1.0 / t**4]
    l = 1
    while True:
        x = 2.0 * PI * l * t
        ex = math.exp(-x)
        # coth(pi l t)/(t^3 l^3) = [1 + 2 e^{-x}/(1-e^{-x})]/(t^3 l^3)
        coth_rest = 2.0 * ex / ((1.0 - ex) * t**3 * l**3)
        # pi/(t^2 l^2 sinh^2(pi l t)) = 4 pi e^{-x}/(t^2 l^2 (1-e^{-x})^2)
        sinh_part = 4.0 * PI * ex / (t**2 * l**2 * (1.0 - ex) ** 2)
        terms.append(coef * (coth_rest + sinh_part))
        tail = coef * (coth_rest + sinh_part) * q / (1.0 - q)
        if tail <= tol * abs(math.fsum(terms)):
            break
        l += 1
        if l > _MAX_TERMS:
            raise ConvergenceError("plates closed-form sum", reached=tail, requested=tol)
    return pref * math.fsum(terms)


def _free_energy_dual(cfg: PlatesConfig, tol: float) -> float:
    """Dual double-sum representation for small t (high temperature).

    The inner n >= 1 geometric sums are exact:
      sum_n e^{-n x} = x-series 1/(e^x - 1),
      sum_n (2 pi n l t) e^{-n x} = x e^x/(e^x - 1)^2 with x = 2 pi l t.
    """
    a = cfg.separation
    t = cfg.reduced_t
    kt = cfg.kt
    base = [
        -(PI**2) / (720.0 * a**3),
        -ZETA3 * kt**3 / (2.0 * PI),  # halved n = 0 term of the primed sum
        (PI**2) / (720.0 * a**3 * t**4),
    ]
    lsum: list[float] = []
    pref = -1.0 / (8.0 * PI * a**3)
    pref_abs = abs(pref)
    q = math.exp(-2.0 * PI * t)
    l = 1
    while True:
        x = 2.0 * PI * l * t
        ex = math.exp(-x)
        geo = ex / (1.0 - ex)  # sum of e^{-n x}
        lin = x * ex / (1.0 - ex) ** 2  # sum of n x e^{-n x}
        term = pref * (geo + lin) / (l**3 * t**3)
        lsum.append(term)
        partial = abs(math.fsum(base) + math.fsum(lsum))
        # remaining l' > l.  Two valid bounds:
        # polynomial regime: geo + lin <= 2/x, so term(l') <= pref/(pi l'^4 t^4)
        tail = pref_abs / (PI * t**4) / (3.0 * l**3)
        x_next = 2.0 * PI * (l + 1) * t
        if x_next >= 2.0:
            # exponential regime: geo + lin <= 1.92 x e^{-x} for x >= 2
            tail_exp = (
                pref_abs
                * 3.84
                * PI
                / (t**2 * (l + 1) ** 2)
                * math.exp(-x_next)
                / (1.0 - q)
            )
            tail = min(tail, tail_exp)
        if tail <= tol * max(partial, abs(term)):
            break
        l += 1
        if l > _MAX_TERMS:
            raise ConvergenceError("plates dual-form sum", reached=tail, requested=tol)
    return math.fsum(base + lsum)


def plates_free_energy(cfg: PlatesConfig, tol: float = DEFAULT_TOL) -> float:
    """Free energy per unit area [1/m^3]; -pi^2/(720 a^3) exactly at T = 0."""
    check_tol(tol)
    if cfg.temperature == 0.0:
        return -(PI**2) / (720.0 * cfg.separation**3)
    if cfg.reduced_t >= T_SWITCH:
        return _free_energy_closed(cfg, tol)
    return _free_energy_dual(cfg, tol)


def plates_pressure(cfg: PlatesConfig, tol: float = DEFAULT_TOL) -> float:
    """Casimir pressure -dF/da [1/m^4], central differences + Richardson."""
    a = cfg.separation

    def f(aa: float) -> float:
        return plates_free_energy(PlatesConfig(aa, cfg.temperature), tol)

    slope, disagreement = richardson_derivative(f, a, _FD_STEP * a)
    if disagreement > _FD_GATE:
        raise DerivativeInstabilityError("plates_pressure", disagreement, _FD_GATE)
    return -slope
