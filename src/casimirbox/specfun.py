"""Modified Bessel functions of the second kind at the four orders the
box lattice sums and their derivatives need, plus the pinned mathematical
and physical constants used everywhere else in the package.

Only K_0, K_{1/2}, K_1 and K_{3/2} are supported.  The half-integer orders
have elementary closed forms,

    K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    K_{3/2}(x) = sqrt(pi/(2x)) exp(-x) (1 + 1/x),

and K_0 and K_1 are evaluated here with NumPy in the standard two regimes
(Abramowitz & Stegun 9.6.11, 9.6.13; Temme, J. Comput. Phys. 19 (1975)):

- below x = 2, the ascending series in t = x^2/4 with its ln(x/2) term,

      K_0(x) = sum_k (H_k - gamma) t^k / k!^2 - ln(x/2) I_0(x)
      K_1(x) = 1/x + (x/2) [ln(x/2) sum_k t^k / (k! (k+1)!)
                            - sum_k (H_k + H_{k+1} - 2 gamma) t^k / (2 k! (k+1)!)],

  H_k the harmonic numbers, its coefficients rounded once from exact
  integer ratios;
- at x >= 2, the exponentially scaled integral obtained from
  K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt by x (cosh t - 1) = u^2,

      K_nu(x) = exp(-x) int_0^inf exp(-u^2) cosh(nu t) / sqrt(x/2 + u^2/4) du,
      cosh t = 1 + u^2/x,

  summed by the trapezoid rule on fixed nodes u = 0, 0.3, ..., 6.  The
  integrand is even and analytic in the strip |Im u| < sqrt(2x) >= 2, so
  the rule's error is below exp(-2 pi 2 / 0.3) ~ 1e-18, and the nodes
  past u = 6 would add less than exp(-36).

Both keep the relative error within 2e-15 of mpmath on [1e-8, 700].  Where
exp(-x) underflows the double range, all four orders return exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ZETA3",
    "PI",
    "HBAR",
    "C_LIGHT",
    "HBAR_C",
    "K_BOLTZMANN",
    "bessel_k",
]

#: Riemann zeta(3) = 1.2020569031595942854..., nearest double.
ZETA3 = 1.2020569031595942

PI = math.pi

#: CODATA 2018: reduced Planck constant [J s] and speed of light [m/s].
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0

#: hbar * c [J m]; the single conversion factor between natural units
#: (lengths in meters, energies in 1/m) and SI energies.
HBAR_C = HBAR * C_LIGHT

#: Boltzmann constant [J/K], exact in the 2019 SI.
K_BOLTZMANN = 1.380649e-23

_SUPPORTED_ORDERS = (0.0, 0.5, 1.0, 1.5)

#: Terms of the ascending series: at t = x^2/4 <= 1 the first one left out,
#: 1/14!^2, is below 1e-21.
_SERIES_TERMS = 14


def _ascending_coefficients(terms: int):
    """Coefficient rows (I_0, K_0, I_1, K_1) of the ascending series in t.

    Each is an exact integer ratio rounded once to the nearest double; Euler's
    gamma enters through its first 40 digits, far below that rounding.
    """
    gamma, scale = 5772156649015328606065120900824024310422, 10**40
    rows = ([], [], [], [])
    f, h = 1, 0  # k! and k! H_k
    for k in range(terms):
        f1, h1 = f * (k + 1), h * (k + 1) + f  # (k+1)! and (k+1)! H_{k+1}
        rows[0].append(1 / (f * f))
        rows[1].append((h * scale - gamma * f) / (scale * f**3))
        rows[2].append(1 / (f * f1))
        rows[3].append(((h * (k + 1) + h1) * scale - 2 * gamma * f1) / (2 * scale * f * f1 * f1))
        f, h = f1, h1
    return tuple(np.array(r) for r in rows)


_I0_SERIES, _K0_SERIES, _I1_SERIES, _K1_SERIES = _ascending_coefficients(_SERIES_TERMS)
_POWERS = np.arange(_SERIES_TERMS, dtype=float)

#: Trapezoid nodes u = 0, h, ..., 20 h of the x >= 2 integral: u^2/4, and
#: two weight rows, h exp(-u^2) (halved at u = 0) for K_0 and the same times
#: u^2 for the part of K_1 that cosh t = 1 + u^2/x adds.
_STEP = 0.3
_NODES = _STEP * np.arange(21)
_QUARTER_U2 = 0.25 * _NODES**2
_WEIGHTS = (_STEP * np.exp(-_NODES**2) * np.where(_NODES == 0.0, 0.5, 1.0)
            * np.stack([np.ones_like(_NODES), _NODES**2]))


def _k_ascending(order: int, x):
    """K_0 or K_1 on a 1-D array of 0 < x < 2: the ascending series."""
    # one row of powers t^0 .. t^13 per argument; each row sums on its own,
    # so an argument's value does not depend on the rest of the array
    powers = (0.25 * x * x)[:, None] ** _POWERS
    log_half = np.log(0.5 * x)
    if order == 0:
        return (powers * _K0_SERIES).sum(1) - log_half * (powers * _I0_SERIES).sum(1)
    return 1.0 / x + 0.5 * x * (log_half * (powers * _I1_SERIES).sum(1)
                                - (powers * _K1_SERIES).sum(1))


def _k_integral(order: int, x):
    """K_0 or K_1 on a 1-D array of x >= 2: the trapezoid sum of the scaled integral."""
    root = np.sqrt(0.5 * x[:, None] + _QUARTER_U2)
    if order == 0:
        return np.exp(-x) * np.add.reduce(_WEIGHTS[0] / root, axis=1)
    # both weight rows at once: the sums with and without u^2
    parts = np.add.reduce(_WEIGHTS / root[:, None, :], axis=2)
    return np.exp(-x) * (parts[:, 0] + parts[:, 1] / x)


def _k_integer(order: int, xa, lowest: float):
    """K_0 or K_1 of an array of positive arguments, any shape; `lowest` is its minimum."""
    flat = xa.reshape(-1)
    if lowest >= 2.0:
        out = _k_integral(order, flat)
    else:
        out = np.empty_like(flat)
        small = flat < 2.0
        out[small] = _k_ascending(order, flat[small])
        if not small.all():
            out[~small] = _k_integral(order, flat[~small])
    return out.reshape(xa.shape)


def bessel_k(order: float, x):
    """Modified Bessel function K_order(x) for order in {0, 1/2, 1, 3/2}.

    Parameters
    ----------
    order : float
        One of 0.0, 0.5, 1.0, 1.5.
    x : float or ndarray
        Strictly positive argument(s).

    Returns
    -------
    float or ndarray
        K_order(x), the shape of x; exactly 0.0 where exp(-x) underflows the
        double range.
    """
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order {order!r}; expected one of {_SUPPORTED_ORDERS}")
    scalar = np.ndim(x) == 0
    xa = np.asarray(x, dtype=float)
    if not xa.size:
        return np.empty_like(xa)
    lowest = xa.min()
    if not lowest > 0.0:  # NaN fails this too
        raise ValueError("bessel_k requires x > 0")
    with np.errstate(under="ignore"):
        if order == 0.5:
            out = np.sqrt(PI / (2.0 * xa)) * np.exp(-xa)
        elif order == 1.5:
            out = np.sqrt(PI / (2.0 * xa)) * np.exp(-xa) * (1.0 + 1.0 / xa)
        else:
            out = _k_integer(int(order), xa, lowest)
    return float(out) if scalar else out

