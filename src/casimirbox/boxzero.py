"""Zero-temperature renormalized Casimir energies for rectangular boxes.

The two field types supported are a massless scalar with Dirichlet walls
and the electromagnetic field with ideal-metal walls.  Both closed forms
are built from two exponentially convergent lattice sums over modified
Bessel kernels,

    G(z)       = -(1/(2 pi)) sum_{n,l>=1} (n/l) K_1(2 pi n l z)
    R(z1, z2)  = (z1 z2 / 8) sum_{(l,p) in Z^2 \\ {0}} sum_{j>=1}
                    (j / rho)^{3/2} K_{3/2}(2 pi j rho),
                 rho = sqrt(l^2 z1^2 + p^2 z2^2)

and evaluate to (natural units hbar = c = 1, lengths in meters, energies
in 1/m):

    E0_scalar = -pi^2 b c/(1440 a^3) + zeta(3)(b + c)/(32 pi a^2)
                - pi/(96 a) - (pi/(2a)) [G(b/a) + G(c/a)] - (1/a) R(b/a, c/a)

    E0_em     = -pi^2 b c/(720 a^3) - zeta(3) c/(16 pi b^2)
                + (pi/48)(1/a + 1/b) + (pi/b) G(c/b) - (2/a) R(b/a, c/a)

Each form holds for any assignment of the sides to (a, b, c), but G and
R converge in a handful of terms only when their arguments are at least
1, and slowly, losing digits, below that.  `e0` therefore sorts the sides
ascending before evaluating, so every G and R argument is at least 1 and
the result does not depend on the order the sides were given in.

Each sum is one a-priori pass that also returns its derivatives from the
same lattice points.  G's points n l <= M are cut once, M solved from a
closed-form bound sum_{m > M} m^k q^m, q = exp(-2 pi z), on the discarded
terms of G and of dG/dz.  R's sum over j is elementary at each lattice
point (`_k32`), and the (l, p) plane is `_modesum._image_sums`, cut by its
integral test to double precision, since E0 and the zero-T force it feeds
are pinned to 1e-12 and better.

The zero-temperature force is a view of the analytic gradient of E0, not a
finite difference: dE0/db and dE0/dc by the chain rule through the sums'
arguments b/a, c/a (and c/b), and dE0/da from the homogeneity identity
a dE0/da + b dE0/db + c dE0/dc = -E0, exact because E0 scales as 1/length.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._modesum import _image_sums
from .errors import (DEFAULT_BUDGET, DEFAULT_TOL, MAX_LENGTH, MIN_LENGTH, budget_error,
                     check_budget, check_tol)
from .specfun import PI, ZETA3, bessel_k

__all__ = [
    "BoxGeometry",
    "FieldKind",
    "DEFAULT_TOL",
    "lattice_g",
    "lattice_r",
    "e0",
    "e0_force_x",
    "e0_and_force_x",
]

_RATIO_CEIL = 1e6

#: Double-precision epsilon, the relative floor of the R pass's cut.
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class BoxGeometry:
    """Rectangular cavity with side lengths (meters) in [MIN_LENGTH, MAX_LENGTH]."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (isinstance(v, (int, float)) and MIN_LENGTH <= v <= MAX_LENGTH):
                raise ValueError(f"side {name} must be a number in [{MIN_LENGTH:g}, "
                                 f"{MAX_LENGTH:g}] m, got {v!r}")
        # longest over shortest side, so the check does not depend on side order
        ratio = max(self.sides) / min(self.sides)
        if ratio > _RATIO_CEIL:
            raise ValueError(
                f"aspect ratio {ratio:.3e} of longest to shortest side exceeds {_RATIO_CEIL}"
            )

    @property
    def volume(self) -> float:
        return self.a * self.b * self.c

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def scaled(self, factor: float) -> "BoxGeometry":
        return BoxGeometry(self.a * factor, self.b * factor, self.c * factor)


class FieldKind(Enum):
    """Field type: selects the energy formula and the subtraction set."""

    SCALAR_DIRICHLET = "scalar"
    ELECTROMAGNETIC = "em"


#: zeta(2): sum_{n l = m} n/l <= zeta(2) m and sum_{n l = m} n^2 <= zeta(2) m^2.
_ZETA2 = PI**2 / 6.0


def _g_pass(z: float, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_BUDGET):
    """(G(z), dG/dz) from one pass over the lattice points n l <= M.

    dG/dz = sum_{n,l>=1} n^2 (K_0(y) + K_1(y)/y), y = 2 pi n l z.  The kernels
    depend on a point only through k = n l, so both sums run over k <= M with
    the divisor-sum weights sum_{n l = k} n/l = sigma_2(k)/k for G and
    sum_{n l = k} n^2 = sigma_2(k) for dG/dz, sigma_2(k) the sum of the
    squares of k's divisors; K_0 and K_1 are evaluated once each, at M
    arguments.  sigma_2(k) <= zeta(2) k^2.
    K_0 <= K_1 <= K_{3/2} = C(y) exp(-y), C(y) = sqrt(pi/(2y))(1 + 1/y)
    decreasing, so for y >= w = 2 pi z both K_1(y) and K_0(y) + K_1(y)/y are
    at most C(w)(1 + 1/w) exp(-y).  With q = exp(-w), the terms k >= N >= 2
    add at most zeta(2) C(w)(1 + 1/w) N^2 q^N / (1 - q)^3 to either sum;
    M = N - 1 is fixed a priori where that reaches tol times
    K_{1/2}(w) = sqrt(pi/(2w)) q, below the first term K_1(w) of G (and of
    dG/dz, whose first term is larger still).
    """
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"lattice_g requires z > 0, got {z!r}")
    check_tol(tol)
    check_budget(max_terms)
    w = 2.0 * PI * z
    if math.exp(-w) == 0.0:
        # every term underflows
        return 0.0, 0.0
    # the bound reaches tol where w N - 2 ln N = big > w + 7, so Newton from
    # N = big/w, left of the root of this convex function, steps right of it
    # and stays there
    big = (w + 2.0 * math.log1p(1.0 / w) + math.log(_ZETA2 / tol)
           - 3.0 * math.log(-math.expm1(-w)))
    cut = big / w
    for _ in range(3):
        cut -= (w * cut - 2.0 * math.log(cut) - big) / (w - 2.0 / cut)
    if not cut <= 1e12:  # past any budget, or overflowed
        raise budget_error("lattice_g", tol, "needs more than 1e12 lattice points", max_terms)
    m = math.ceil(cut) - 1
    # the points n l <= m, counted by Dirichlet's hyperbola method
    s = math.isqrt(m)
    points = 2 * sum(m // n for n in range(1, s + 1)) - s * s
    if points > max_terms:
        raise budget_error("lattice_g", tol, f"needs {points} lattice points", max_terms)
    # sigma_2(k), k <= m, by a sieve that visits each point n l <= m once
    sigma2 = [0] * (m + 1)
    for n in range(1, m + 1):
        for nl in range(n, m + 1, n):
            sigma2[nl] += n * n
    sigma2 = np.array(sigma2[1:], dtype=float)
    k = np.arange(1, m + 1)
    y = w * k
    k1 = bessel_k(1.0, y)
    # fsum of a list: exact like fsum of the array, at half the cost
    return (-math.fsum((sigma2 / k * k1).tolist()) / (2.0 * PI),
            math.fsum((sigma2 * (bessel_k(0.0, y) + k1 / y)).tolist()))


def lattice_g(z: float, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_BUDGET) -> float:
    """Lattice sum G(z) = -(1/(2 pi)) sum_{n,l>=1} (n/l) K_1(2 pi n l z), over
    the points n l <= M, M fixed a priori by a closed-form tail bound."""
    return _g_pass(z, tol, max_terms)[0]


def _k32(r: np.ndarray):
    """(f, r f'(r)) of f = (g (1 + g) + g/r) / r^2, g = 1/(e^r - 1), at
    r = 2 pi rho: sum_{j>=1} (j/rho)^{3/2} K_{3/2}(j r) = 2 pi^2 f, since
    K_{3/2} is elementary and (j/rho)^{3/2} K_{3/2}(j r) = (j/(2 rho^2)) e^{-j r} (1 + 1/(j r))."""
    with np.errstate(over="ignore"):
        g = 1.0 / np.expm1(r)
    gg = g * (1.0 + g)
    part, inv = gg + g / r, 1.0 / (r * r)
    return part * inv, -(r * gg * (1.0 + 2.0 * g) + 3.0 * part) * inv


def _r_pass(z1: float, z2: float, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_BUDGET):
    """(R, dR/dz1, dR/dz2) at (z1, z2) from one pass over the (l, p) plane.

    Each point's sum over j is 2 pi^2 `_k32`(r), r = 2 pi rho, so
    R = (pi^2 z1 z2 / 4) S, S the `_modesum._image_sums` of `_k32` at
    beta = 2 pi (z1, z2), and z1 dR/dz1 = R + (pi^2 z1 z2 / 4) beta_1 dS/dbeta_1.
    With r1 = 2 pi min(z1, z2), x = exp(-r1) and h = 1/(1 - x), the envelope
    of f and r f' is (h^3 (1 + x) + 3 h (h + 1/r1)/r1) exp(-r) / r1.  The cut
    is at min(tol, eps) times the largest term: at tol alone, R kept up to
    1.3e-14 of its tail (at (0.5, 2)), which E0 and its gradient would show.
    """
    for name, v in (("z1", z1), ("z2", z2)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"lattice_r requires {name} > 0, got {v!r}")
    check_tol(tol)
    check_budget(max_terms)
    r1 = 2.0 * PI * min(z1, z2)
    x = math.exp(-r1)
    # the largest term: the j = 1 terms of the two nearest points; for tiny
    # r1 it and the envelope overflow to inf, and the cut asks for inf points
    first = 2.0 * x * (1.0 + 1.0 / r1) / r1 / r1
    if first == 0.0:
        return 0.0, 0.0, 0.0
    h = 1.0 / -math.expm1(-r1)
    amp = (h * h * h * (1.0 + x) + 3.0 * h * (h + 1.0 / r1) / r1) / r1
    s, (s1, s2), _, _ = _image_sums("lattice_r", (2.0 * PI * z1, 2.0 * PI * z2), _k32, 0, amp,
                                    math.log(min(tol, _EPS) * first), tol, max_terms)
    scale = PI**2 * z1 * z2 / 4.0
    r = scale * s
    return r, (r + scale * s1) / z1, (r + scale * s2) / z2


def lattice_r(z1: float, z2: float, tol: float = DEFAULT_TOL,
              max_terms: int = DEFAULT_BUDGET) -> float:
    """Lattice sum R(z1, z2) over (l, p) in Z^2 minus the origin, j >= 1: each
    point's j series in closed form, the plane cut at a radius fixed a priori."""
    return _r_pass(z1, z2, tol, max_terms)[0]


def _e0_gradient(sides, field: FieldKind, tol: float, max_terms: int = DEFAULT_BUDGET):
    """E0 and its gradient (dE0/da, dE0/db, dE0/dc), the sides in the slots given.

    b and c enter the closed form through its polynomial terms and the sums'
    arguments b/a, c/a (and c/b), so dE0/db and dE0/dc follow by the chain
    rule from the derivatives of the G and R passes.  E0 is homogeneous of
    degree -1 in the sides, so Euler's identity gives the third exactly:
    a dE0/da = -E0 - b dE0/db - c dE0/dc.
    """
    a, b, c = sides
    r, r_b, r_c = _r_pass(b / a, c / a, tol, max_terms)
    if field is FieldKind.SCALAR_DIRICHLET:
        g_b, dg_b = _g_pass(b / a, tol, max_terms)
        g_c, dg_c = (g_b, dg_b) if c == b else _g_pass(c / a, tol, max_terms)
        energy = math.fsum([-(PI**2) * b * c / (1440.0 * a**3),
                            ZETA3 * (b + c) / (32.0 * PI * a**2), -PI / (96.0 * a),
                            -(PI / (2.0 * a)) * (g_b + g_c), -(1.0 / a) * r])
        e_b = math.fsum([-(PI**2) * c / (1440.0 * a**3), ZETA3 / (32.0 * PI * a**2),
                         -(PI / (2.0 * a**2)) * dg_b, -r_b / a**2])
        e_c = math.fsum([-(PI**2) * b / (1440.0 * a**3), ZETA3 / (32.0 * PI * a**2),
                         -(PI / (2.0 * a**2)) * dg_c, -r_c / a**2])
    elif field is FieldKind.ELECTROMAGNETIC:
        g, dg = _g_pass(c / b, tol, max_terms)
        energy = math.fsum([-(PI**2) * b * c / (720.0 * a**3), -ZETA3 * c / (16.0 * PI * b**2),
                            (PI / 48.0) * (1.0 / a + 1.0 / b), (PI / b) * g, -(2.0 / a) * r])
        e_b = math.fsum([-(PI**2) * c / (720.0 * a**3), ZETA3 * c / (8.0 * PI * b**3),
                         -PI / (48.0 * b**2), -(PI / b**2) * (g + (c / b) * dg),
                         -2.0 * r_b / a**2])
        e_c = math.fsum([-(PI**2) * b / (720.0 * a**3), -ZETA3 / (16.0 * PI * b**2),
                         (PI / b**2) * dg, -2.0 * r_c / a**2])
    else:
        raise ValueError(f"unknown field kind {field!r}")
    return energy, (-math.fsum([energy, b * e_b, c * e_c]) / a, e_b, e_c)


def e0(geom: BoxGeometry, field: FieldKind, tol: float = DEFAULT_TOL,
       max_terms: int = DEFAULT_BUDGET) -> float:
    """Zero-temperature energy for the requested field kind.

    The closed form is evaluated with the sides in ascending order, so
    the result is the same, bit for bit, for every order of the sides.
    `max_terms` caps the lattice points of each G and R pass.
    """
    return _e0_gradient(sorted(geom.sides), field, tol, max_terms)[0]


def e0_and_force_x(geom: BoxGeometry, field: FieldKind, tol: float = DEFAULT_TOL,
                   max_terms: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """(`e0`, `e0_force_x`) of the box from one evaluation of E0 and its
    gradient, bit for bit the values the two give separately."""
    sides = sorted(geom.sides)
    energy, gradient = _e0_gradient(sides, field, tol, max_terms)
    return energy, -gradient[sides.index(geom.a)]


def e0_force_x(geom: BoxGeometry, field: FieldKind, tol: float = DEFAULT_TOL,
               max_terms: int = DEFAULT_BUDGET) -> float:
    """Zero-temperature force -dE0/da on the faces normal to the a axis.

    The analytic gradient of the closed form, from the same G and R passes
    as E0.  The sides are sorted as in `e0`, and the force is the gradient
    component of the slot a lands in (the first, if a ties a neighbour): by
    the chain rule through the sums' arguments in the b and c slots, by the
    homogeneity identity a dE0/da = -E0 - b dE0/db - c dE0/dc in the first.
    """
    return e0_and_force_x(geom, field, tol, max_terms)[1]
