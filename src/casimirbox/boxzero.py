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
`e0_scalar` and `e0_em` evaluate in the slot order they are given.

G is summed row by row, each truncation justified by an explicit
geometric tail bound on the exponential decay of K_1.  R's kernel K_{3/2}
is elementary, so its sum over j is taken in closed form at each lattice
point, and the (l, p) plane is cut once, at a radius fixed a priori by an
analytic bound on the discarded points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DerivativeInstabilityError, budget_error, check_tol
from .specfun import PI, ZETA3, bessel_k, richardson_derivative

__all__ = [
    "BoxGeometry",
    "FieldKind",
    "DEFAULT_TOL",
    "DEFAULT_MAX_TERMS",
    "lattice_g",
    "lattice_r",
    "e0_scalar",
    "e0_em",
    "e0",
    "e0_force_x",
]

#: Default relative tolerance for the lattice sums; three orders of margin
#: over the 1e-8 oracle-equivalence target.
DEFAULT_TOL = 1e-10

#: Default cap on the number of lattice points a single sum may visit.
DEFAULT_MAX_TERMS = 5_000_000

_RATIO_CEIL = 1e6


@dataclass(frozen=True)
class BoxGeometry:
    """Rectangular cavity with strictly positive side lengths (meters)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"side {name} must be a positive finite number, got {v!r}")
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


def _k1_envelope(y: float) -> float:
    """Coefficient C(y) with K_1(y') <= C(y) exp(-y') for all y' >= y.

    Uses K_1 <= K_{3/2} = sqrt(pi/(2y)) (1 + 1/y) exp(-y); the prefactor
    is decreasing in y, so evaluating it at the left end is a valid bound.
    """
    return math.sqrt(PI / (2.0 * y)) * (1.0 + 1.0 / y)


def lattice_g(z: float, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS) -> float:
    """Lattice sum G(z) = -(1/(2 pi)) sum_{n,l>=1} (n/l) K_1(2 pi n l z).

    Every term carries exp(-2 pi n l z); rows in n are summed with an
    explicit geometric tail bound per row and over the remaining rows.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"lattice_g requires z > 0, got {z!r}")
    check_tol(tol)
    w = 2.0 * PI * z
    first = bessel_k(1.0, w)
    if first == 0.0:
        # even the largest term underflows
        return 0.0
    q = math.exp(-w)
    rows: list[float] = []
    running = 0.0
    used = 0
    n = 1
    while True:
        yn = w * n
        xn = math.exp(-yn)
        if xn == 0.0:
            break
        row_terms: list[float] = []
        l = 1
        while True:
            y = yn * l
            kv = bessel_k(1.0, y)
            if kv != 0.0:
                row_terms.append((n / l) * kv)
            used += 1
            if used > max_terms:
                raise budget_error("lattice_g", tol, f"not reached after {used} terms", max_terms)
            # remaining l' > l:  sum <= n * C(yn(l+1)) * xn^(l+1) / (1 - xn)
            tail_l = n * _k1_envelope(yn * (l + 1)) * math.exp(-yn * (l + 1)) / (1.0 - xn)
            if tail_l <= 0.1 * tol * max(running, first):
                break
            l += 1
        rows.append(math.fsum(row_terms))
        running = math.fsum(rows)
        # remaining rows n' > n:
        #   sum_{n'>n} n' q^{n'} = q^{n+1}((n+1) - n q)/(1-q)^2
        # and each row is bounded by n' C(w n') exp(-w n') / (1 - exp(-w n')).
        geom = q ** (n + 1) * ((n + 1) - n * q) / (1.0 - q) ** 2
        xn1 = math.exp(-w * (n + 1))
        tail_n = _k1_envelope(w * (n + 1)) / (1.0 - xn1) * geom if geom > 0.0 else 0.0
        if tail_n <= tol * max(running, first):
            break
        n += 1
    return -running / (2.0 * PI)


def lattice_r(
    z1: float,
    z2: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """Lattice sum R(z1, z2) over (l, p) in Z^2 minus the origin, j >= 1.

    K_{3/2} is elementary: with x = exp(-2 pi rho),
    (j/rho)^{3/2} K_{3/2}(2 pi j rho) = (j/(2 rho^2)) x^j (1 + 1/(2 pi j rho)),
    so each point's sum over j is the closed form
    (x/(1-x)^2 + x/(2 pi rho (1-x))) / (2 rho^2).  The (l, p) plane is cut
    once, at the ellipse radius rho = sqrt(l^2 z1^2 + p^2 z2^2) = R where an
    analytic bound on the discarded points reaches tol times the largest
    term.  Symmetric under z1 <-> z2.
    """
    for name, v in (("z1", z1), ("z2", z2)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"lattice_r requires {name} > 0, got {v!r}")
    check_tol(tol)
    rho_min = min(z1, z2)
    if 2.0 * PI * rho_min > 745.0:
        return 0.0
    x_min = math.exp(-2.0 * PI * rho_min)
    # bound on the per-point total (all j) at radius rho >= rho_min,
    # relative to exp(-2 pi rho):
    cb = (1.0 / (2.0 * rho_min**2)) * (
        1.0 / (1.0 - x_min) ** 2 + 1.0 / (2.0 * PI * rho_min * (1.0 - x_min))
    )
    # lattice-counting factor: rho >= (l z1 + p z2)/sqrt(2) makes the sum of
    # exp(-pi rho) over all points factorize into two geometric series
    s2 = math.sqrt(2.0)
    qq = 4.0 / ((1.0 - math.exp(-PI * z1 / s2)) * (1.0 - math.exp(-PI * z2 / s2)))
    first = 2.0 * (1.0 / rho_min) ** 1.5 * bessel_k(1.5, 2.0 * PI * rho_min)
    if first == 0.0:
        return 0.0
    # the discarded points then sum to at most cb qq exp(-pi R) = tol first
    radius = (math.log(cb * qq) - math.log(tol * first)) / PI
    radius = max(radius, 1.5 * rho_min + 1.0)

    n1 = int(radius / z1) + 1
    n2 = int(radius / z2) + 1
    points = (n1 + 1) * (n2 + 1)
    if points > max_terms:
        raise budget_error("lattice_r", tol, f"needs {points} lattice points", max_terms)
    l = np.arange(0, n1 + 1, dtype=float)
    p = np.arange(0, n2 + 1, dtype=float)
    rho2 = (l[:, None] * z1) ** 2 + (p[None, :] * z2) ** 2
    mask = (rho2 <= radius * radius) & (rho2 > 0.0)
    rho = np.sqrt(rho2[mask])
    weight = np.where((l[:, None] == 0) | (p[None, :] == 0), 2.0, 4.0)[mask]
    y = 2.0 * PI * rho
    with np.errstate(under="ignore"):
        x = np.exp(-y)
        one_minus_x = -np.expm1(-y)
        per_point = (x / one_minus_x**2 + x / (y * one_minus_x)) / (2.0 * rho**2)
    return z1 * z2 / 8.0 * math.fsum(weight * per_point)


def e0_scalar(geom: BoxGeometry, tol: float = DEFAULT_TOL) -> float:
    """Renormalized zero-temperature energy of a Dirichlet scalar in the box.

    E0 = -pi^2 bc/(1440 a^3) + zeta(3)(b+c)/(32 pi a^2) - pi/(96 a)
         - (pi/(2a))[G(b/a) + G(c/a)] - (1/a) R(b/a, c/a)

    Evaluated in the slot order given.  With a the shortest side every
    G and R argument is at least 1; `e0` arranges that.
    """
    a, b, c = geom.sides
    return math.fsum(
        [
            -(PI**2) * b * c / (1440.0 * a**3),
            ZETA3 * (b + c) / (32.0 * PI * a**2),
            -PI / (96.0 * a),
            -(PI / (2.0 * a)) * (lattice_g(b / a, tol) + lattice_g(c / a, tol)),
            -(1.0 / a) * lattice_r(b / a, c / a, tol),
        ]
    )


def e0_em(geom: BoxGeometry, tol: float = DEFAULT_TOL) -> float:
    """Renormalized zero-temperature electromagnetic energy of the box.

    E0 = -pi^2 bc/(720 a^3) - zeta(3) c/(16 pi b^2) + (pi/48)(1/a + 1/b)
         + (pi/b) G(c/b) - (2/a) R(b/a, c/a)

    Evaluated in the slot order given.  The sides enter asymmetrically term
    by term; the total is invariant under permutations of (a, b, c), but
    only with a <= b <= c is every G and R argument at least 1, and the
    sums fast and accurate.  `e0` sorts the sides that way.
    """
    a, b, c = geom.sides
    return math.fsum(
        [
            -(PI**2) * b * c / (720.0 * a**3),
            -ZETA3 * c / (16.0 * PI * b**2),
            (PI / 48.0) * (1.0 / a + 1.0 / b),
            (PI / b) * lattice_g(c / b, tol),
            -(2.0 / a) * lattice_r(b / a, c / a, tol),
        ]
    )


def _e0_in_order(sides, field: FieldKind, tol: float) -> float:
    """E0 from the closed form with the sides in the slots given."""
    geom = BoxGeometry(*sides)
    if field is FieldKind.SCALAR_DIRICHLET:
        return e0_scalar(geom, tol)
    if field is FieldKind.ELECTROMAGNETIC:
        return e0_em(geom, tol)
    raise ValueError(f"unknown field kind {field!r}")


def e0(geom: BoxGeometry, field: FieldKind, tol: float = DEFAULT_TOL) -> float:
    """Zero-temperature energy for the requested field kind.

    The closed form is evaluated with the sides in ascending order, so
    the result is the same, bit for bit, for every order of the sides.
    """
    return _e0_in_order(sorted(geom.sides), field, tol)


#: Relative step for the finite-difference force; two Richardson levels.
_FD_STEP = 1e-4
_FD_GATE = 1e-5


def e0_force_x(geom: BoxGeometry, field: FieldKind, tol: float = DEFAULT_TOL) -> float:
    """Zero-temperature force -dE0/da on the faces normal to the a axis.

    Central differences in a with steps h and h/2, Richardson-extrapolated;
    raises DerivativeInstabilityError if the two levels disagree by more
    than 1e-5 relative.  The sides are sorted once, as in `e0`, and a is
    varied in the slot it lands in, so all four evaluations use the same
    arrangement of the closed form even where a +- h passes a neighbour.
    """
    a = geom.a
    h = _FD_STEP * a
    sides = sorted(geom.sides)
    slot = sides.index(a)

    def energy(aa: float) -> float:
        sides[slot] = aa
        return _e0_in_order(sides, field, tol)

    slope, disagreement = richardson_derivative(energy, a, h)
    if disagreement > _FD_GATE:
        raise DerivativeInstabilityError("e0_force_x", disagreement, _FD_GATE)
    return -slope
