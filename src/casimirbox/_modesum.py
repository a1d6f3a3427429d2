"""Shell-truncated sums over box mode lattices.

All thermal quantities reduce to sums over positive integer triples
(n, l, p) or pairs of a kernel f(n, r) with r = sqrt(sum_i (beta_i m_i)^2),
where beta_i are the reduced inverse temperatures and every kernel decays
at least like exp(-r).  The cutoff radius R is fixed a priori from an
analytic bound

    |tail(R)| <= A * R^k * exp(-R/2) * prod_i 1/(exp(beta_i/(2 sqrt(d))) - 1)

valid because r >= (sum beta_i m_i)/sqrt(d) on a d-dimensional index
lattice and |f| <= A r^k exp(-r) for each kernel.  The bound is compared
against the first (largest) term, which is a lower bound on |sum| since
every kernel has a fixed sign.  Enumeration order is fixed, so results
are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, check_tol

__all__ = ["log_sum", "force_sum", "energy_sum", "DEFAULT_MAX_POINTS"]

#: Library-level cap on lattice points per sum.  The CLI exposes its own,
#: smaller default via --max-shell.
DEFAULT_MAX_POINTS = 50_000_000


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


def _over_budget(est_points: float, max_points: int, tol: float) -> ConvergenceError:
    return ConvergenceError(
        "box mode sum", reached=math.inf, requested=tol,
        message=f"box mode sum: tolerance {tol:.3e} needs about {est_points:.3e} lattice points, "
        f"budget {max_points}",
    )


def _sum_triple(betas, kernel, bound_a, k_pow, tol, max_points) -> float:
    b1, b2, b3 = betas
    r1 = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    if r1 > 745.0:
        return 0.0
    first = abs(float(kernel(1, np.array([r1]))[0]))
    if first == 0.0:
        return 0.0
    radius = _cutoff_radius(bound_a, k_pow, _lattice_factor(betas), tol, first, r1)
    est_points = 0.5236 * radius**3 / (b1 * b2 * b3)
    if est_points > max_points:
        raise _over_budget(est_points, max_points, tol)
    r2cut = radius * radius
    slabs: list[float] = []
    n_max = int(math.sqrt(max(r2cut - b2 * b2 - b3 * b3, 0.0)) / b1)
    for n in range(1, n_max + 1):
        q = (b1 * n) ** 2
        l_lim = r2cut - q - b3 * b3
        if l_lim <= 0.0:
            break
        l_max = int(math.sqrt(l_lim) / b2)
        if l_max < 1:
            break
        l = np.arange(1, l_max + 1, dtype=float)
        ql = q + (b2 * l) ** 2
        p_max = int(math.sqrt(max(r2cut - ql.min(), 0.0)) / b3)
        if p_max < 1:
            continue
        p = np.arange(1, p_max + 1, dtype=float)
        r2 = ql[:, None] + (b3 * p)[None, :] ** 2
        inside = r2 <= r2cut
        r = np.sqrt(r2[inside])
        slabs.append(float(kernel(n, r).sum()))
    return math.fsum(slabs)


def _sum_double(betas, kernel, bound_a, k_pow, tol, max_points) -> float:
    b1, b2 = betas
    r1 = math.hypot(b1, b2)
    if r1 > 745.0:
        return 0.0
    first = abs(float(kernel(1, np.array([r1]))[0]))
    if first == 0.0:
        return 0.0
    radius = _cutoff_radius(bound_a, k_pow, _lattice_factor(betas), tol, first, r1)
    est_points = 0.7854 * radius**2 / (b1 * b2)
    if est_points > max_points:
        raise _over_budget(est_points, max_points, tol)
    r2cut = radius * radius
    slabs: list[float] = []
    n_max = int(math.sqrt(max(r2cut - b2 * b2, 0.0)) / b1)
    for n in range(1, n_max + 1):
        q = (b1 * n) ** 2
        l_max = int(math.sqrt(max(r2cut - q, 0.0)) / b2)
        if l_max < 1:
            break
        l = np.arange(1, l_max + 1, dtype=float)
        r = np.sqrt(q + (b2 * l) ** 2)
        slabs.append(float(kernel(n, r).sum()))
    return math.fsum(slabs)


def _dispatch(betas, kernel, bound_a, k_pow, tol, max_points):
    check_tol(tol)
    betas = tuple(float(b) for b in betas)
    if any(not (math.isfinite(b) and b > 0.0) for b in betas):
        raise ValueError(f"reduced frequencies must be positive and finite, got {betas}")
    if len(betas) == 3:
        return _sum_triple(betas, kernel, bound_a, k_pow, tol, max_points)
    if len(betas) == 2:
        return _sum_double(betas, kernel, bound_a, k_pow, tol, max_points)
    raise ValueError("expected 2 or 3 reduced frequencies")


def log_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum over the index lattice of ln(1 - exp(-r)); strictly negative."""
    r1 = math.sqrt(sum(float(b) ** 2 for b in betas))
    bound_a = 1.0 / (1.0 - math.exp(-r1)) if r1 < 745.0 else 1.0
    return _dispatch(betas, _kernel_log, bound_a, 0, tol, max_points)


def force_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of n^2 / (r (exp(r) - 1)) with n the index on the first axis."""
    bs = tuple(float(b) for b in betas)
    r1 = math.sqrt(sum(b * b for b in bs))
    bound_a = 1.0 / (bs[0] ** 2 * (1.0 - math.exp(-r1))) if r1 < 745.0 else 1.0
    return _dispatch(bs, _kernel_force, bound_a, 1, tol, max_points)


def energy_sum(betas, tol: float, max_points: int = DEFAULT_MAX_POINTS) -> float:
    """sum of r / (exp(r) - 1) over the index lattice."""
    r1 = math.sqrt(sum(float(b) ** 2 for b in betas))
    bound_a = 1.0 / (1.0 - math.exp(-r1)) if r1 < 745.0 else 1.0
    return _dispatch(betas, _kernel_energy, bound_a, 1, tol, max_points)
