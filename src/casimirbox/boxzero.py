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

Both are derived, not written out: `_e0_gradient` sums E0 over the heat
trace that `_derive` expands from the one per-field table, `_LATTICES`.

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
finite difference: dE0/db and dE0/dc term by term, by the chain rule
through the sums' arguments, and dE0/da from the homogeneity identity
a dE0/da + b dE0/db + c dE0/dc = -E0, exact because E0 scales as 1/length.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from ._modesum import _image_sums
from .errors import (DEFAULT_BUDGET, DEFAULT_TOL, MAX_LENGTH, MIN_LENGTH, budget_error,
                     check_budget, check_reals, check_tol)
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
        if not type(self.a) is type(self.b) is type(self.c) is float:
            check_reals(self, "a", "b", "c")
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (MIN_LENGTH <= v <= MAX_LENGTH):
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
    """Field type: selects the field's mode lattices, `_LATTICES`."""

    SCALAR_DIRICHLET = "scalar"
    ELECTROMAGNETIC = "em"


#: The one per-field table: each field's modes as orthant lattices
#: {axes: multiplicity}, n_i >= 1 on the axes named and 0 on the others,
#: in the direct form's order; every per-field formula is derived from it.
#: The em field has the triple lattice twice (two polarizations).
_LATTICES = {
    FieldKind.SCALAR_DIRICHLET: {(0, 1, 2): 1},
    FieldKind.ELECTROMAGNETIC: {(0, 1, 2): 2, (1, 2): 1, (0, 1): 1, (0, 2): 1},
}


#: A field's tables, derived at import: its `_LATTICES` entry, the heat
#: trace {S: coef_S} of sum_S coef_S prod_{i in S} A_i, c1 (minus its
#: constant term) and E0's pieces (coefficient, slots) (`_e0_gradient`)
_Spectrum = namedtuple("_Spectrum", "lattices trace c1 e0")


def _derive(lattices: dict) -> _Spectrum:
    """Expand each lattice's heat trace prod_{i in S} (A_i - 1)/2, A_i that of
    one axis (`_matsubara`), and collect E0's pieces: Z_1 of slot s is
    -pi/(6 s), Z_2 of (q, p) that of p and its pair part, and Z_3 that of
    Z_2 of the slots (1, 2) and W.  The table is symmetric in the axes, as
    the spectrum is, so E0 may read them as sorted slots."""
    coefs = {}
    for axes, mult in lattices.items():
        for k in range(len(axes) + 1):
            for sub in combinations(axes, k):
                coefs[sub] = coefs.get(sub, 0.0) + mult * (-0.5) ** (len(axes) - k) * 0.5**k
    trace = {s: coefs[s] for s in sorted(coefs, key=lambda s: (-len(s), s)) if s and coefs[s]}
    e0 = {}
    for axes, coef in trace.items():
        for slots in {1: [axes], 2: [axes, axes[1:]], 3: [axes, (1, 2), (2,)]}[len(axes)]:
            e0[slots] = e0.get(slots, 0.0) + coef
    return _Spectrum(lattices, trace, -coefs[()],
                     tuple((0.5 * c, slots) for slots, c in e0.items() if c))


_SPECTRA = {field: _derive(lattices) for field, lattices in _LATTICES.items()}


def _spectrum(field: FieldKind) -> _Spectrum:
    """The field's tables: the one place an unknown field kind raises."""
    try:
        return _SPECTRA[field]
    except (KeyError, TypeError):
        raise ValueError(f"unknown field kind {field!r}") from None


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
                                    math.log(min(tol, _EPS)) + math.log(first), tol, max_terms)
    scale = PI**2 * z1 * z2 / 4.0
    r = scale * s
    return r, (r + scale * s1) / z1, (r + scale * s2) / z2


def lattice_r(z1: float, z2: float, tol: float = DEFAULT_TOL,
              max_terms: int = DEFAULT_BUDGET) -> float:
    """Lattice sum R(z1, z2) over (l, p) in Z^2 minus the origin, j >= 1: each
    point's j series in closed form, the plane cut at a radius fixed a priori."""
    return _r_pass(z1, z2, tol, max_terms)[0]


def _z2_half_terms(q: float, p: float, g: float, dg: float) -> tuple:
    """The lattice terms of Z_2(-1/2) of the sides q <= p (`_matsubara`),
    -zeta(3) p/(2 pi q^2) and (8 pi/q) G(p/q), each as (value, d/dq, d/dp);
    (g, dg) is `_g_pass` at p/q."""
    z = p / q
    return ((-ZETA3 * p / (2.0 * PI * q**2), ZETA3 * p / (PI * q**3), -ZETA3 / (2.0 * PI * q**2)),
            (8.0 * PI / q * g, -(8.0 * PI / q**2) * (g + z * dg), 8.0 * PI / q**2 * dg))


def _e0_gradient(sides, field: FieldKind, tol: float, max_terms: int = DEFAULT_BUDGET):
    """E0 and its gradient (dE0/da, dE0/db, dE0/dc), the sides in the slots given.

    E0 = (1/2) sum_S coef_S Z_S(-1/2), collected by piece in `_Spectrum.e0`:
    -pi/(6 s) of one slot; Z_2 of (q, p) (`_matsubara`) less its -pi/(6 p),
    with one G pass per distinct p/q; and W = Z_3 - Z_2 of (b, c) =
    -pi^2 b c/(90 a^3) - (16/a) R(b/a, c/a).  Pieces whose coefficients
    cancel are not evaluated: the scalar runs G(b/a), G(c/a) and R, the em
    field G(c/b) and R.  The b and c derivatives follow piece by piece; E0
    is homogeneous of degree -1, so Euler's identity gives the third
    exactly: a dE0/da = -E0 - b dE0/db - c dE0/dc.
    """
    a, b, c = sides
    values, grad, g_passes = [], {1: [], 2: []}, {}  # pieces of E0, dE0/db and dE0/dc
    for half, slots in _spectrum(field).e0:
        if len(slots) == 3:
            r, r_b, r_c = _r_pass(b / a, c / a, tol, max_terms)
            cube = 90.0 * a**3
            values += [half * (-(PI**2) * b * c / cube), half * (-16.0 / a * r)]
            grad[1] += [half * (-(PI**2) * c / cube), half * (-16.0 * r_b / a**2)]
            grad[2] += [half * (-(PI**2) * b / cube), half * (-16.0 * r_c / a**2)]
        elif len(slots) == 2:
            i, k = slots
            q, p = sides[i], sides[k]
            if p / q not in g_passes:
                g_passes[p / q] = _g_pass(p / q, tol, max_terms)
            for value, d_q, d_p in _z2_half_terms(q, p, *g_passes[p / q]):
                values.append(half * value)
                grad[k].append(half * d_p)
                if i:
                    grad[i].append(half * d_q)
        else:
            (i,) = slots
            values.append(half * (-PI / (6.0 * sides[i])))
            if i:
                grad[i].append(half * (PI / (6.0 * sides[i] ** 2)))
    energy, e_b, e_c = math.fsum(values), math.fsum(grad[1]), math.fsum(grad[2])
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
