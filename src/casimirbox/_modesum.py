"""Shell-truncated sums over box mode lattices.

All thermal quantities reduce to sums of a kernel f(n, r) over the
positive index lattice of d = 2 or 3 axes, with
r = sqrt(sum_i (beta_i m_i)^2), where beta_i are the reduced inverse
temperatures and n = m_1 is the index on the first axis.  Three kernels
occur:

    log:     ln(1 - exp(-r))                    (free energy)
    energy:  r / (exp(r) - 1)                   (internal energy)
    force:   n^2 / (r (exp(r) - 1))             (a-derivative)

One routine, `lattice_sums`, enumerates a lattice once and sums any of
them together, evaluating exp(-r) once per point; `log_sum`, `force_sum`
and `energy_sum` are its single-kernel views.

Cutoff.  Each kernel is bounded by a decreasing g(r) = A r^k exp(-r), with
A = beta_1^-s / (1 - exp(-r1)) and r1 = |beta| the radius of the first
point: k = s = 0 for the log kernel (|ln(1 - u)| <= u / (1 - u)), k = 1,
s = 0 for the energy kernel, and k = 1, s = 2 for the force kernel, whose
n^2 is at most (r / beta_1)^2.  Every lattice point m owns the cell
prod_i [beta_i (m_i - 1), beta_i m_i] of volume prod_i beta_i, and every y
in that cell has r(m) - r1 <= |y| <= r(m).  So when R - r1 >= k, where g
decreases, each point beyond R is at most the mean of g(|y|) over its
cell, the cells are disjoint and lie in the positive orthant outside the
ball of radius R - r1, and the points beyond R sum to at most

    (pi/2) A Gamma(d + k, R - r1) / prod_i beta_i

for d = 2 and 3 alike (the orthant's share of the sphere's area is pi/2 in
both).  Gamma(n, x) = (n-1)! exp(-x) sum_{j<n} x^j / j! for integer n, so
the bound decays like exp(-R).  R is the smallest radius at which every
requested kernel's bound is at most tol times its first (largest) term, a
lower bound on |sum| since every kernel has a fixed sign; `tighten`
shrinks every bound reached there by a further factor.  The lattice is
enumerated in slabs of fixed n, each slab's points inside R as one array,
and the slab sums are added with fsum; the order is fixed, so results are
deterministic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import budget_error, check_tol

__all__ = ["LatticeSums", "lattice_sums", "log_sum", "force_sum", "energy_sum",
           "DEFAULT_MAX_POINTS"]

#: Library-level cap on lattice points per sum.  The CLI exposes its own,
#: smaller default via --max-shell.
DEFAULT_MAX_POINTS = 50_000_000

#: Volume of the positive-orthant part of the unit d-ball (pi/4, pi/6),
#: for the a-priori count of lattice points inside the cutoff radius.
_ORTHANT_BALL = {2: 0.7854, 3: 0.5236}

#: (k, s) of each kernel's bound |f| <= beta_1^-s r^k exp(-r) / (1 - exp(-r1))
_KERNEL_BOUNDS = {"log": (0, 0), "energy": (1, 0), "force": (1, 2)}


class LatticeSums(NamedTuple):
    """Each requested kernel's sum and the tail bound reached, by kernel name."""

    sums: dict
    bounds: dict
    radius: float


def _slab_sums(kernels, n: int, r: np.ndarray) -> list[float]:
    """Each kernel summed over the points of slab n at radii r."""
    with np.errstate(under="ignore"):
        em = np.exp(-r)
        q = em / (1.0 - em) if kernels != ("log",) else None
        out = []
        for name in kernels:
            if name == "log":
                out.append(float(np.log1p(-em).sum()))
            elif name == "energy":
                out.append(float((r * q).sum()))
            else:
                out.append(n * n * float((q / r).sum()))
    return out


def _log_gamma_tail(n: int, x: float) -> float:
    """ln Gamma(n, x) for integer n >= 1."""
    return math.log(math.factorial(n - 1) * sum(x**j / math.factorial(j) for j in range(n))) - x


def _gap_for(n: int, log_target: float) -> float:
    """The smallest x >= 0 with ln Gamma(n, x) <= log_target.

    ln Gamma(n, x) is decreasing and concave in x, so Newton's method
    lands at or beyond the root after its first step and then falls
    monotonically onto it: the result never undershoots.
    """
    if _log_gamma_tail(n, 0.0) <= log_target:
        return 0.0
    log_fact = math.log(math.factorial(n - 1))
    # the root of x = log_fact + (n-1) ln x - log_target, near the true one
    x = max(log_fact - log_target, 1.0)
    x = max(log_fact + (n - 1) * math.log(x) - log_target, 1.0)
    for _ in range(100):
        # term = x^(n-1)/(n-1)!, total = sum_{j<n} x^j/j!
        term = total = 1.0
        for j in range(1, n):
            term *= x / j
            total += term
        # Newton step: d/dx ln Gamma(n, x) = -term / total
        step = (log_fact + math.log(total) - x - log_target) * total / term
        x += step
        if abs(step) <= 1e-12 * x:
            break
    return x


def _less_squares(r2: float, betas) -> float:
    """r2 minus beta^2 for each beta, subtracted in order: the room left
    inside the cutoff once every later axis takes index 1."""
    for b in betas:
        r2 -= b * b
    return r2


def _slabs(betas, radius: float):
    """Yield (n, radii of slab n's points within radius) for n = 1, 2, ..."""
    b1, *inner = betas
    r2cut = radius * radius
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
                return
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
        yield n, r


def lattice_sums(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS,
                 kernels=("log", "energy", "force"), tighten: float = 1.0) -> LatticeSums:
    """Sum the named kernels over the index lattice m_i >= 1 of 2 or 3 axes.

    One enumeration serves every kernel.  The cutoff radius makes each
    kernel's tail bound at most tol times its first term; with tighten > 1
    it then grows until every bound reached there has fallen by that
    factor.  The bounds reached are returned with the sums.
    """
    check_tol(tol)
    kernels = tuple(kernels)
    betas = tuple(float(b) for b in betas)
    if any(not (math.isfinite(b) and b > 0.0) for b in betas):
        raise ValueError(f"reduced frequencies must be positive and finite, got {betas}")
    d = len(betas)
    if d not in _ORTHANT_BALL:
        raise ValueError("expected 2 or 3 reduced frequencies")
    if not (math.isfinite(tighten) and tighten >= 1.0):
        raise ValueError(f"tighten must be finite and >= 1, got {tighten!r}")
    if not kernels or any(name not in _KERNEL_BOUNDS for name in kernels):
        raise ValueError(f"kernels must name some of {sorted(_KERNEL_BOUNDS)}, got {kernels!r}")
    zeros = dict.fromkeys(kernels, 0.0)
    r1 = math.sqrt(sum(b * b for b in betas))
    if r1 > 745.0:
        return LatticeSums(zeros, dict(zeros), r1)
    # ln of each kernel's (pi/2) A / prod beta, and the order d + k of its
    # Gamma; the targets are formed as logs, since at low temperature the
    # first terms can be subnormal and tol times them underflow
    log_scale = math.log(math.pi / 2.0) - math.log(-math.expm1(-r1)) - sum(map(math.log, betas))
    log_a = {name: log_scale - _KERNEL_BOUNDS[name][1] * math.log(betas[0]) for name in kernels}
    orders = {name: d + _KERNEL_BOUNDS[name][0] for name in kernels}
    firsts = _slab_sums(kernels, 1, np.array([r1]))
    gaps = [
        _gap_for(orders[name], math.log(tol) + math.log(abs(first)) - log_a[name])
        for name, first in zip(kernels, firsts)
        if first != 0.0
    ]
    if not gaps:
        return LatticeSums(zeros, dict(zeros), r1)
    # each bound A r^k exp(-r) holds for the cells only where it decreases, r >= k
    gap = max(*gaps, *(_KERNEL_BOUNDS[name][0] for name in kernels))
    if tighten > 1.0:
        # every bound reached at this gap falls by the factor tighten
        gap = max(_gap_for(n, _log_gamma_tail(n, gap) - math.log(tighten))
                  for n in set(orders.values()))
    radius = r1 + gap
    est_points = _ORTHANT_BALL[d] * radius**d / math.prod(betas)
    if est_points > max_points:
        raise budget_error(
            "box mode sum", tol, f"needs about {est_points:.3e} lattice points", max_points
        )
    bounds = {name: math.exp(log_a[name] + _log_gamma_tail(orders[name], gap)) for name in kernels}
    slabs = [_slab_sums(kernels, n, r) for n, r in _slabs(betas, radius)]
    sums = {name: math.fsum(col) for name, col in zip(kernels, zip(*slabs))} if slabs else zeros
    return LatticeSums(sums, bounds, radius)


def log_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum over the index lattice of ln(1 - exp(-r)); strictly negative."""
    return lattice_sums(betas, tol, max_points, ("log",)).sums["log"]


def force_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of n^2 / (r (exp(r) - 1)) with n the index on the first axis."""
    return lattice_sums(betas, tol, max_points, ("force",)).sums["force"]


def energy_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of r / (exp(r) - 1) over the index lattice."""
    return lattice_sums(betas, tol, max_points, ("energy",)).sums["energy"]
