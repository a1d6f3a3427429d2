"""Shell-truncated sums over box mode lattices.

All thermal quantities reduce to sums of a kernel f(n, r) over the
positive index lattice of d = 2 or 3 axes, with
r = sqrt(sum_i (beta_i m_i)^2), where beta_i are the reduced inverse
temperatures, n = m_1 is the index on the first axis and every kernel
decays at least like exp(-r).  One routine, `_shell_sum`, serves every
kernel and both dimensions; `log_sum`, `force_sum` and `energy_sum` only
name their kernel and its bound.  The cutoff radius R is fixed a priori
from an analytic bound

    |tail(R)| <= A * R^k * exp(-R/2) * prod_i 1/(exp(beta_i/(2 sqrt(d))) - 1)

valid because r >= (sum beta_i m_i)/sqrt(d) on a d-dimensional index
lattice and |f| <= A r^k exp(-r) for each kernel, with
A = beta_1^-s / (1 - exp(-r1)) and r1 the radius of the first point:
s = 0 for the log and energy kernels, s = 2 for the force kernel, whose
n^2 is at most (r / beta_1)^2.  The bound is compared against the first
(largest) term, which is a lower bound on |sum| since every kernel has a
fixed sign.  The lattice is enumerated in slabs of fixed n, each slab's
points inside R as one array, and the slab sums are added with fsum; the
order is fixed, so results are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import budget_error, check_tol

__all__ = ["log_sum", "force_sum", "energy_sum", "DEFAULT_MAX_POINTS"]

#: Library-level cap on lattice points per sum.  The CLI exposes its own,
#: smaller default via --max-shell.
DEFAULT_MAX_POINTS = 50_000_000

#: Volume of the positive-orthant part of the unit d-ball (pi/4, pi/6),
#: for the a-priori count of lattice points inside the cutoff radius.
_ORTHANT_BALL = {2: 0.7854, 3: 0.5236}


def _kernel_log(n: int, r: np.ndarray) -> np.ndarray:
    with np.errstate(under="ignore"):
        return np.log1p(-np.exp(-r))


def _kernel_force(n: int, r: np.ndarray) -> np.ndarray:
    with np.errstate(under="ignore"):
        em = np.exp(-r)
        return (n * n) * em / (r * (1.0 - em))


def _kernel_energy(n: int, r: np.ndarray) -> np.ndarray:
    with np.errstate(under="ignore"):
        em = np.exp(-r)
        return r * em / (1.0 - em)


def _cutoff_radius(bound_a: float, k_pow: int, lattice_factor: float, tol: float, first: float,
                   r1: float) -> float:
    # solve A R^k exp(-R/2) P = tol * first for R by fixed point; +2 safety
    # margin.  Summed as logs: at low temperature first can be subnormal and
    # tol * first underflow to 0.
    radius = max(60.0, r1 + 10.0)
    log_ap = math.log(bound_a) + math.log(lattice_factor) - math.log(tol) - math.log(first)
    for _ in range(40):
        radius = 2.0 * (log_ap + k_pow * math.log(max(radius, 2.0)))
        radius = max(radius, 10.0)
    return max(radius + 2.0, r1 + 10.0)


def _lattice_factor(betas: tuple[float, ...]) -> float:
    d = math.sqrt(len(betas))
    out = 1.0
    for b in betas:
        out *= 1.0 / math.expm1(b / (2.0 * d))
    return out


def _less_squares(r2: float, betas) -> float:
    """r2 minus beta^2 for each beta, subtracted in order: the room left
    inside the cutoff once every later axis takes index 1."""
    for b in betas:
        r2 -= b * b
    return r2


def _shell_sum(betas, tol: float, max_points: int, kernel, k_pow: int, scale_pow: int = 0) -> float:
    """Sum kernel(n, r) over the index lattice m_i >= 1 of 2 or 3 axes.

    k_pow and scale_pow set the kernel's bound
    |f| <= beta_1^-scale_pow r^k_pow exp(-r) / (1 - exp(-r1)).
    """
    check_tol(tol)
    betas = tuple(float(b) for b in betas)
    if any(not (math.isfinite(b) and b > 0.0) for b in betas):
        raise ValueError(f"reduced frequencies must be positive and finite, got {betas}")
    if len(betas) not in _ORTHANT_BALL:
        raise ValueError("expected 2 or 3 reduced frequencies")
    r1 = math.sqrt(sum(b * b for b in betas))
    if r1 > 745.0:
        return 0.0
    first = abs(float(kernel(1, np.array([r1]))[0]))
    if first == 0.0:
        return 0.0
    b1, *inner = betas
    bound_a = 1.0 / (b1**scale_pow * (1.0 - math.exp(-r1)))
    radius = _cutoff_radius(bound_a, k_pow, _lattice_factor(betas), tol, first, r1)
    est_points = _ORTHANT_BALL[len(betas)] * radius ** len(betas) / math.prod(betas)
    if est_points > max_points:
        raise budget_error(
            "box mode sum", tol, f"needs about {est_points:.3e} lattice points", max_points
        )
    r2cut = radius * radius
    slabs: list[float] = []
    # each inner axis with the axes after it, which take at least index 1
    axes = [(b, inner[j + 1:]) for j, b in enumerate(inner)]
    n_max = int(math.sqrt(max(_less_squares(r2cut, inner), 0.0)) / b1)
    for n in range(1, n_max + 1):
        # squared radii of the slab's points, one inner axis at a time;
        # floor is the smallest of them, at inner indices 1
        grid = floor = (b1 * n) ** 2
        for b, later in axes:
            m_max = int(math.sqrt(max(_less_squares(r2cut - floor, later), 0.0)) / b)
            if m_max < 1:
                # floor only grows with n: no later slab has points either
                return math.fsum(slabs)
            row = (b * np.arange(1, m_max + 1, dtype=float)) ** 2
            grid = grid + row if isinstance(grid, float) else grid[..., None] + row
            floor += b * b
        # r2, inside and r keep the previous slab's arrays alive until the
        # new ones exist: rebinding r2 to its masked copy instead frees the
        # large grid early, and each slab then faults in fresh pages
        r2 = grid
        if r2.ndim == 1:
            # a single inner axis was cut at this row's own floor
            r = np.sqrt(r2)
        else:
            # the last axis was cut at the first row's floor; mask the rest
            inside = r2 <= r2cut
            r = np.sqrt(r2[inside])
        slabs.append(float(kernel(n, r).sum()))
    return math.fsum(slabs)


def log_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum over the index lattice of ln(1 - exp(-r)); strictly negative."""
    return _shell_sum(betas, tol, max_points, _kernel_log, k_pow=0)


def force_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of n^2 / (r (exp(r) - 1)) with n the index on the first axis."""
    return _shell_sum(betas, tol, max_points, _kernel_force, k_pow=1, scale_pow=2)


def energy_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of r / (exp(r) - 1) over the index lattice."""
    return _shell_sum(betas, tol, max_points, _kernel_energy, k_pow=1)
