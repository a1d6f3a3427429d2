"""Modified Bessel functions of the second kind at the four orders the
box lattice sums and their derivatives need, plus the pinned mathematical
and physical constants used everywhere else in the package.

Only K_0, K_{1/2}, K_1 and K_{3/2} are supported.  The half-integer orders
have elementary closed forms,

    K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    K_{3/2}(x) = sqrt(pi/(2x)) exp(-x) (1 + 1/x),

and K_0 and K_1 are delegated to SciPy's Cephes routines (ascending series
with a log term below x = 2, exponentially scaled Chebyshev fit above),
the standard two-regime evaluation, which keeps the relative error at the
1e-15 level over the whole double range.  For arguments beyond the
underflow threshold of exp(-x) all four return exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0 as _cephes_k0, k1 as _cephes_k1

__all__ = [
    "Constants",
    "CONSTANTS",
    "ZETA3",
    "PI",
    "HBAR",
    "C_LIGHT",
    "HBAR_C",
    "K_BOLTZMANN",
    "bessel_k",
    "exp_tail_bound",
    "richardson_derivative",
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


@dataclass(frozen=True)
class Constants:
    """Pinned constants; every other module imports these, never redefines."""

    zeta3: float = ZETA3
    pi: float = PI
    hbar_c: float = HBAR_C
    k_boltzmann: float = K_BOLTZMANN


CONSTANTS = Constants()

_SUPPORTED_ORDERS = (0.0, 0.5, 1.0, 1.5)


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
        K_order(x); exactly 0.0 where exp(-x) underflows the double range.
    """
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order {order!r}; expected one of {_SUPPORTED_ORDERS}")
    scalar = np.ndim(x) == 0
    xa = np.asarray(x, dtype=float)
    if xa.size and not np.all(xa > 0.0):
        raise ValueError("bessel_k requires x > 0")
    with np.errstate(under="ignore"):
        if order == 0.5:
            out = np.sqrt(PI / (2.0 * xa)) * np.exp(-xa)
        elif order == 1.5:
            out = np.sqrt(PI / (2.0 * xa)) * np.exp(-xa) * (1.0 + 1.0 / xa)
        elif order == 0.0:
            out = _cephes_k0(xa)
        else:
            out = _cephes_k1(xa)
    return float(out) if scalar else out


def exp_tail_bound(prefactor: float, rate: float, start: int) -> float:
    """Upper bound on sum_{n >= start} prefactor * exp(-rate * n).

    The geometric closed form prefactor * exp(-rate*start) / (1 - exp(-rate)).
    Used to justify every truncation of an exponentially decaying series.
    """
    if rate <= 0.0:
        raise ValueError("exp_tail_bound requires rate > 0")
    if prefactor <= 0.0:
        raise ValueError("exp_tail_bound requires prefactor > 0")
    if start < 0:
        raise ValueError("exp_tail_bound requires start >= 0")
    return prefactor * math.exp(-rate * start) / (1.0 - math.exp(-rate))


def richardson_derivative(func, x: float, h: float) -> tuple[float, float]:
    """Derivative of func at x: central differences with steps h and h/2,
    Richardson-extrapolated to cancel the h^2 error term.

    Returns (derivative, disagreement), where disagreement is
    |d2 - d1| / max(|derivative|, |d1|, |d2|) for the two levels d1 (step h)
    and d2 (step h/2), and 0 when all three vanish.  Callers that gate on
    it decide the threshold and the error.
    """
    d1 = (func(x + h) - func(x - h)) / (2.0 * h)
    d2 = (func(x + h / 2.0) - func(x - h / 2.0)) / h
    extrap = (4.0 * d2 - d1) / 3.0
    scale = max(abs(extrap), abs(d1), abs(d2))
    return extrap, (abs(d2 - d1) / scale if scale > 0.0 else 0.0)
