"""The renormalized Matsubara form of a box's thermal row, for high T.

With t_i = 1/(2 a_i kT) on each side (`ThermalPoint.reduced_t`), the
renormalized free energy of `thermal` is, exactly at every T > 0,

    F = kT [c1 ln(kT a) + c0] + kT rho(t_a, t_b, t_c),

a the first side.  It is -(kT/2) zeta'(0) of the field on the Matsubara
circle times the box, with the n = 0 frequency giving the classical part
and n >= 1 giving rho (Ambjorn & Wolfram, Ann. Phys. 147 (1983); K. Kirsten,
Spectral Functions in Mathematics and Physics, CRC 2002).

Heat trace.  With A_i(tau) = (a_i / sqrt(pi tau)) sum_{j in Z} exp(-a_i^2 j^2 / tau),
which is sum_{n in Z} exp(-tau (pi n / a_i)^2) by Poisson's formula, the
heat trace of the field's modes w^2 = pi^2 (n^2/a^2 + l^2/b^2 + p^2/c^2) is

    scalar:  (prod A_i - sum A_i A_k + sum A_i - 1) / 8
    em:      prod A_i / 4 - sum A_i / 4 + 1/2.

Its j = 0 parts are powers of tau: those of tau^-3/2, tau^-1 and tau^-1/2
are the blackbody, alpha1 and alpha2 subtractions, which cancel exactly,
and c1 is minus the constant term (1/8 scalar, -1/2 em).

Classical part.  c0 = -zeta'(0)/2 - c1 ln a, with zeta(s) = sum_k w_k^-2s.
A product of the A_i over a set S of axes is the heat trace of the Epstein
zeta function Z_S of the lattice (pi n_i / a_i), n in Z^S, plus its zero
mode, so zeta'(0) is the same signed sum of Z_S'(0); the zero modes add to
the constant term, which is 0.  Chowla-Selberg, Poisson's formula along the
longest side L of S, gives

    Z_1'(0) = -2 ln(2a)
    Z_2'(0) = -2 ln(2L) + pi r/3 - 4 H(r),               r = L/s >= 1
    Z_3'(0) = -2 ln(2L) - 2 L Z_2(-1/2) - 2 sum' ln(1 - exp(-2 pi |(n x, m y)|))
    Z_2(-1/2) = -pi/(6p) - zeta(3) p/(2 pi q^2) + (8 pi/q) G(p/q),   p >= q

with H(r) = sum_{n>=1} ln(1 - exp(-2 pi n r)), the primed sum over
(n, m) in Z^2 minus 0, x = L/s1, y = L/s2 >= 1 for the two shorter sides
s1 <= s2 = p, q = s1, and G `boxzero`'s lattice sum.  Every series falls by
exp(-2 pi) or faster per term; each is summed to double precision, the log
sums by `_modesum._image_sums` of the mode sums' log kernel, as the images
below are.  The gradient in the sides follows term by term.

Images.  rho is the n >= 1 part with the j = 0 images removed:

    rho = -sum_S coef_S prod_{i in S} 1/(2 sqrt(pi) t_i)
          sum_{m>=1} sum_{j in Z^S \\ 0} 2 (4 pi m/u)^nu K_nu(2 pi m u),

u = |(j_i / t_i)|, nu = |S|/2.  K_1/2 and K_3/2 are elementary and their
sums over m closed forms, so each image j contributes a kernel of
r = 2 pi u alone; K_1 (the scalar's pairs) is summed over m.  Every term
is below exp(-r), r >= 2 pi / max t_i, so rho is exponentially small at
high T.  Each product's images are summed by `_modesum._image_sums`, cut
by its integral test with an envelope A r^k exp(-r) of the kernel and its
derivative together (`_envelope`) where the rest reaches eps |c1| / 8 in
rho.  The sums over m stop within eps/4 of each image's total.  So rho,
and t_i d rho/dt_i for U, S and the force, are exact to below every
total's roundoff floor.  The images kept grow like prod_i t_i: 59 (em)
and 101 (scalar) for a cube at t = 0.5, 6 and 12 at t = 0.15, none below
t = 0.13.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import combinations

import numpy as np

from ._modesum import _image_sums, _log_kernel
from .boxzero import FieldKind, _g_pass, _k32
from .specfun import PI, ZETA3, bessel_k

__all__ = ["C1", "zeta_prime", "classical", "images", "row_pieces"]

_EPS = sys.float_info.epsilon

#: (coefficient, axes) of each product of the A_i in the heat trace
_HEAT_TRACE = {
    FieldKind.SCALAR_DIRICHLET: [(0.125, (0, 1, 2)), (-0.125, (0, 1)), (-0.125, (0, 2)),
                                 (-0.125, (1, 2)), (0.125, (0,)), (0.125, (1,)), (0.125, (2,))],
    FieldKind.ELECTROMAGNETIC: [(0.25, (0, 1, 2)), (-0.25, (0,)), (-0.25, (1,)), (-0.25, (2,))],
}

#: c1, minus the heat trace's constant term
C1 = {FieldKind.SCALAR_DIRICHLET: 0.125, FieldKind.ELECTROMAGNETIC: -0.5}

#: The constants that `_kernels` leaves out for one, two and three axes:
#: 2 sqrt(pi), 8 pi and 8 pi^(3/2), times 2 pi per power of 1/u = 2 pi / r
_PREFACTOR = {1: 4.0 * PI**1.5, 2: 16.0 * PI**2, 3: 32.0 * PI**3.5}


# ----------------------------------------------------------------------
# classical part


def _log_sum(ratios, tol: float, max_points: int):
    """(L, x_i dL/dx_i per axis) for L = sum over j in Z^d minus 0 of
    ln(1 - exp(-2 pi |(j_i x_i)|)), every x_i >= 1, to eps/8 of its first
    term: |ln(1 - e^-r)| and r/(e^r - 1) are at most h (1 + r) e^-r."""
    betas = [2.0 * PI * x for x in ratios]
    r1 = min(betas)
    if r1 > 745.0:
        return 0.0, [0.0] * len(betas)  # every term underflows
    h = 1.0 / -math.expm1(-r1)
    value, slopes, _, _ = _image_sums("c0 log sum", betas, _log_kernel, 1, h * (1.0 + 1.0 / r1),
                                      math.log(0.125 * _EPS) - r1, tol, max_points)
    return value, slopes


def _z2_terms(sides, i: int, k: int, tol: float, max_points: int) -> list:
    """Z_2'(0) of the axes i, k as terms (value, {axis: a_axis d value/d a_axis});
    -4 H(r) is -2 times the log sum over Z minus 0."""
    big, small = (i, k) if sides[i] >= sides[k] else (k, i)
    r = sides[big] / sides[small]
    h, (dh,) = _log_sum((r,), tol, max_points)
    return [(-2.0 * math.log(2.0 * sides[big]), {big: -2.0}),
            (PI * r / 3.0, {big: PI * r / 3.0, small: -PI * r / 3.0}),
            (-2.0 * h, {big: -2.0 * dh, small: 2.0 * dh})]


def _z3_terms(sides, tol: float, max_points: int) -> list:
    """Z_3'(0) of the box as terms (value, {axis: a_axis d value/d a_axis})."""
    s1, s2, big = sorted(range(3), key=lambda i: sides[i])
    length, p, q = sides[big], sides[s2], sides[s1]
    # -2 L Z_2(-1/2) of the two shorter sides, in p = s2 >= q = s1
    z = p / q
    g, dg = _g_pass(z, _EPS, max_points)
    w = -2.0 * length
    terms = [(-2.0 * math.log(2.0 * length), {big: -2.0}),
             (w * -PI / (6.0 * p), {big: w * -PI / (6.0 * p), s2: w * PI / (6.0 * p)})]
    cubic = w * -ZETA3 * p / (2.0 * PI * q * q)
    terms.append((cubic, {big: cubic, s2: cubic, s1: -2.0 * cubic}))
    terms.append((w * 8.0 * PI / q * g, {big: w * 8.0 * PI / q * g,
                                          s2: w * 8.0 * PI / q * z * dg,
                                          s1: -w * 8.0 * PI / q * (g + z * dg)}))
    # -2 times the log sum at x = L/s1, y = L/s2, both >= 1
    lam, (dx, dy) = _log_sum((length / q, length / p), tol, max_points)
    terms.append((-2.0 * lam, {big: -2.0 * (dx + dy), s1: 2.0 * dx, s2: 2.0 * dy}))
    return terms


def zeta_prime(sides, field: FieldKind, tol: float, max_points: int):
    """zeta'(0) of the field's modes in the box as (value, a_i d/da_i of it
    for each side, sum of |term| of the value, and of each derivative)."""
    if field is FieldKind.SCALAR_DIRICHLET:
        pieces = [(1.0, _z3_terms(sides, tol, max_points))]
        pieces += [(-1.0, _z2_terms(sides, i, k, tol, max_points))
                   for i, k in combinations(range(3), 2)]
    else:
        pieces = [(2.0, _z3_terms(sides, tol, max_points))]
    sign = 1.0 if field is FieldKind.SCALAR_DIRICHLET else -2.0
    pieces += [(sign, [(-2.0 * math.log(2.0 * s), {i: -2.0})]) for i, s in enumerate(sides)]
    # both fields carry an overall 1/8
    terms = [(coef / 8.0 * v, {i: coef / 8.0 * d for i, d in grad.items()})
             for coef, part in pieces for v, grad in part]
    values = [v for v, _ in terms]
    grads = [[grad.get(i, 0.0) for _, grad in terms] for i in range(3)]
    return (math.fsum(values), tuple(math.fsum(col) for col in grads),
            math.fsum(map(abs, values)), tuple(math.fsum(map(abs, col)) for col in grads))


def classical(sides, field: FieldKind, tol: float, max_points: int):
    """(c0, dc0/da, sum of |term| of each) of the box, a = sides[0].

    c0 = -zeta'(0)/2 of the box scaled to a = 1, where the c1 ln a terms
    cancel; a d/da of zeta'(0) is the same in either scale.
    """
    a, c1 = sides[0], C1[field]
    z, grad, z_size, grad_size = zeta_prime(tuple(s / a for s in sides), field, tol, max_points)
    return (-0.5 * z, (-0.5 * grad[0] - c1) / a, 0.5 * z_size, (0.5 * grad_size[0] + abs(c1)) / a)


# ----------------------------------------------------------------------
# images


def _pair_terms(r1: float) -> int:
    """Terms m of the K_1 sums, for images at r >= r1: the rest add at most
    eps/4 of each sum.  K_1/2 <= K_nu <= K_nu+1/2 bound each term by its
    first, so term m over term 1 is at most (1 + 3/r1 + 3/r1^2) m^2 exp(-(m - 1) r1)."""
    h = 1.0 / -math.expm1(-r1)
    c = 2.0 * (1.0 + 3.0 / r1 + 3.0 / r1**2) * h**3
    m = 1
    while c * (m + 1) ** 2 * math.exp(-m * r1) > 0.25 * _EPS:
        m += 1
    return m


def _kernels(size: int, r1: float, r: np.ndarray):
    """(Psi, u dPsi/du) of an image at radii r = 2 pi u >= r1, summed over m.

    Psi = prod_i (2 sqrt(pi) t_i) / _PREFACTOR[size] times the image's part
    of rho's inner sum: one axis, 2 sqrt(pi) sum_m exp(-m r)/u; two,
    8 pi sum_m m K_1(m r)/u; three, 8 pi^(3/2) sum_m m exp(-m r) (1 + 1/(m r))/u^2,
    which is `boxzero`'s K_3/2 kernel.
    """
    if size == 3:
        return _k32(r)
    if size == 1:
        with np.errstate(over="ignore"):
            g = 1.0 / np.expm1(r)
        return g / r, -g * (1.0 + g + 1.0 / r)
    m = np.arange(1, _pair_terms(r1) + 1, dtype=float)[:, None]
    y = m * r
    k1 = bessel_k(1.0, y)
    k2 = bessel_k(0.0, y) + 2.0 * k1 / y
    return (m * k1).sum(axis=0) / r, -(m * m * k2).sum(axis=0)


def _envelope(size: int, r1: float) -> tuple[int, float]:
    """(k, A) with |Psi| + |u dPsi/du| <= A r^k exp(-r) for r >= r1, from
    g = 1/(e^r - 1) <= h e^-r, 1 + g <= h = 1/(1 - e^-r1), and for two axes
    K_1 <= K_3/2 and K_2 <= K_5/2, elementary and falling like exp(-y)."""
    h = 1.0 / -math.expm1(-r1)
    if size == 1:
        return 0, h * (h + 2.0 / r1)
    if size == 2:
        return 0, math.sqrt(PI / (2.0 * r1)) * (
            (1.0 + 1.0 / r1) * h * h / r1 + 2.0 * (1.0 + 3.0 / r1 + 3.0 / r1**2) * h**3)
    return 1, (2.0 * h**3 + 4.0 * h * (h + 1.0 / r1) / r1) / r1**2


def images(ts, field: FieldKind, tol: float, max_points: int):
    """(rho, t_i d rho/dt_i for each axis, sum of |term| of both) at the
    reduced temperatures ts; `max_points` caps the points of each product.

    Each product's images are cut where the bound on the rest reaches
    eps |c1| / 8 in rho and in each t_i d rho/dt_i, below every total's
    roundoff floor.
    """
    rho, grad, scale = [], ([], [], []), []
    for coef, axes in _HEAT_TRACE[field]:
        size = len(axes)
        r1 = 2.0 * PI / max(ts[i] for i in axes)
        if r1 > 745.0:
            continue  # every term underflows
        weight = -coef * _PREFACTOR[size] * math.prod(
            1.0 / (2.0 * math.sqrt(PI) * ts[i]) for i in axes)
        s0, slopes, s0_abs, points = _image_sums(
            "rho images", [2.0 * PI / ts[i] for i in axes], partial(_kernels, size, r1),
            *_envelope(size, r1), math.log(0.125 * _EPS * abs(C1[field] / weight)), tol, max_points)
        if not points:
            continue
        rho.append(weight * s0)
        # t_i d/dt_i of the weight gives -1, of beta_i = 2 pi / t_i gives -beta_i d/dbeta_i
        for slope, i in zip(slopes, axes):
            grad[i].append(-weight * (s0 + slope))
        scale.append(abs(weight) * (s0_abs + sum(map(abs, slopes))))
    return math.fsum(rho), tuple(math.fsum(g) for g in grad), math.fsum(scale)


def row_pieces(kt: float, a: float, ts, field: FieldKind, classical_parts, tol: float,
               max_points: int) -> list:
    """(pieces of a total, sum of |term| behind them) for F, U, S kT and
    the force -dF/da, from F = kT [c1 ln(kT a) + c0 + rho(t)] and its
    analytic derivatives: with R = kT rho, U = -c1 kT + kT sum_i t_i d rho/dt_i,
    S kT = U - F, and -dF/da = -kT (c1/a + dc0/da) + (kT/a) t_a d rho/dt_a.
    `classical_parts` is `classical` of the box."""
    c0, dc0, c0_size, dc0_size = classical_parts
    c1 = C1[field]
    rho, grad, size = images(ts, field, tol, max_points)
    log_kta = math.log(kt * a)
    slope = math.fsum(grad)
    return [
        ([kt * c1 * log_kta, kt * c0, kt * rho], kt * (c0_size + size)),
        ([-c1 * kt, kt * slope], kt * size),
        ([-kt * c0, -kt * c1, -kt * c1 * log_kta, -kt * rho, kt * slope], kt * (c0_size + size)),
        ([-kt * c1 / a, -kt * dc0, kt * grad[0] / a], kt * (dc0_size + size / a)),
    ]
