"""Electromagnetic Casimir free energy and pressure for two parallel
ideal-metal planes, per unit area.

Everything depends on the reduced variable t = T_eff/T = 1/(2 a kT), with
k_B T_eff = hbar c/(2a).  Each regime has one exact representation, a
single series whose terms all have one sign and shrink at least
geometrically, by q = exp(-2 pi/t) or exp(-2 pi t) per term:

* t < _T_CROSS (high temperature): the Matsubara (Lifshitz) sum for ideal
  metals (Bordag, Klimchitskaya, Mohideen & Mostepanenko, Advances in the
  Casimir Effect, OUP 2009),

      F = -(kT/pi) sum'_{n>=0} int_{xi_n}^inf q dq sum_{j>=1} e^{-2 a q j}/j
        = -(kT/(4 pi a^2)) [zeta(3)/2 + sum_{n,j>=1} (1 + y) e^{-y}/j^3],

  xi_n = 2 pi n kT, y = 2 a xi_n j = 2 pi n j/t, the n = 0 term halved.
  For each j the sum over n is geometric: with x = 2 pi j/t and e = e^{-x},
  sum_n (1 + n x) e^{-n x} = e/(1-e) + x e/(1-e)^2 = h(x).  Since y grows
  like a at fixed T, the pressure -dF/da is

      P = -(kT/(4 pi a^3)) [zeta(3) + sum_j k(x_j)/j^3],
      k(x) = sum_n (2 + 2 n x + n^2 x^2) e^{-n x} = 2 h(x) + x^2 e(1+e)/(1-e)^3.

* t >= _T_CROSS (low and moderate temperature): the closed form, x = 2 pi l t,

      F = -(pi^2/(720 a^3)) { 1 - 1/t^4 + (45/pi^3) [ zeta(3)/t^3
            + sum_{l>=1} ( 2e/((1-e) t^3 l^3) + 4 pi e/((1-e)^2 t^2 l^2) ) ] },
      P = -(pi^2/(240 a^4)) { 1 + 1/(3 t^4)
            - (120/pi) sum_{l>=1} e (1+e)/((1-e)^3 l t) },

  P's bracket is (3 S + t dS/dt)/3 for F's bracket S, since t grows like
  1/a at fixed T.

Every series term(l) >= 0 above obeys term(l+1) <= q term(l): h(x + d) <=
(1 + d/x) e^{-d} h(x) and k(x + d) <= (1 + d/x)^2 e^{-d} k(x), which the
1/j^3 weights more than absorb, and the closed-form terms are ratios of
sinh and cosh of x/2.  So the terms after l add at most term(l) q/(1-q),
and each sum stops where that bound is within tol of the total.  The
Matsubara brackets only add; the closed ones cancel at most 2:1, at t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DEFAULT_TOL, check_tol
from .specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3

__all__ = ["PlatesConfig", "plates_free_energy", "plates_pressure"]

#: Representation crossover in t, where the two forms cost the same.  They
#: are dual under t <-> 1/t: at t = 1 both shrink by q = exp(-2 pi) a term
#: and need 3 (F) and 4 (P) terms at tol = 1e-10, about 0.5 us each.
#: Measured F + P: 5.1 us Matsubara against 5.7 us closed at t = 1, 5.5
#: against 5.2 at t = 1.1.  Summed to tol = 1e-16 the forms agree within
#: 1.4e-15 relative over t in [0.5, 2].
_T_CROSS = 1.0


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


def _series(head: float, coef: float, term, q: float, tol: float) -> float:
    """head + coef * sum_{l>=1} term(l), for terms >= 0 with
    term(l+1) <= q term(l), q < 1: the terms after l add at most
    term(l) q/(1-q), and the sum stops at the first l where that, times
    |coef|, is within tol of the total it can still move.  The terms reach
    0 by underflow, so the loop ends for any tol."""
    ratio = q / (1.0 - q)
    partial = 0.0
    l = 1
    while True:
        x = term(l)
        partial += x
        tail = abs(coef) * x * ratio
        if tail <= tol * (abs(head + coef * partial) - tail):
            return head + coef * partial
        l += 1


def _matsubara(cfg: PlatesConfig, tol: float, pressure: bool) -> float:
    """F, or P with pressure=True, in the Matsubara form."""
    a, kt = cfg.separation, cfg.kt
    x1 = 4.0 * PI * a * kt  # 2 pi/t, inf once kT overflows

    def term(j: int) -> float:
        x = x1 * j
        e = math.exp(-x)
        if e == 0.0:
            return 0.0
        g = e / (1.0 - e)
        h = g + x * g / (1.0 - e)
        if pressure:
            h = 2.0 * h + x * x * g * (1.0 + e) / (1.0 - e) ** 2
        return h / j**3

    scale = -kt / (4.0 * PI * a**3) if pressure else -kt / (4.0 * PI * a * a)
    return scale * _series(ZETA3 if pressure else 0.5 * ZETA3, 1.0, term, math.exp(-x1), tol)


def _closed(cfg: PlatesConfig, tol: float, pressure: bool) -> float:
    """F, or P with pressure=True, in the closed form; its bracket is
    exactly 1 at T = 0."""
    a, t = cfg.separation, cfg.reduced_t
    u = 1.0 / t  # 0 at T = 0

    def term(l: int) -> float:
        e = math.exp(-2.0 * PI * l * t)
        if e == 0.0:
            return 0.0
        r = u / l
        d = 1.0 - e
        if pressure:
            return r * e * (1.0 + e) / d**3
        return e / d * r * r * (2.0 * r + 4.0 * PI / d)

    q = math.exp(-2.0 * PI * t)
    if pressure:
        return -(PI**2) / (240.0 * a**4) * _series(1.0 + u**4 / 3.0, -120.0 / PI, term, q, tol)
    c = 45.0 / PI**3
    return -(PI**2) / (720.0 * a**3) * _series(1.0 - u**4 + c * ZETA3 * u**3, c, term, q, tol)


def plates_free_energy(cfg: PlatesConfig, tol: float = DEFAULT_TOL) -> float:
    """Free energy per unit area [1/m^3]; -pi^2/(720 a^3) exactly at T = 0."""
    check_tol(tol)
    return (_matsubara if cfg.reduced_t < _T_CROSS else _closed)(cfg, tol, pressure=False)


def plates_pressure(cfg: PlatesConfig, tol: float = DEFAULT_TOL) -> float:
    """Casimir pressure -dF/da at fixed T [1/m^4], the analytic derivative
    of the form that runs; -pi^2/(240 a^4) exactly at T = 0."""
    check_tol(tol)
    return (_matsubara if cfg.reduced_t < _T_CROSS else _closed)(cfg, tol, pressure=True)
