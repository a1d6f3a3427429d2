"""Truncated sums over box mode lattices, in two exact representations.

A row of `thermal` in its direct form reduces to sums of a kernel f(n, r)
over the positive index lattice of d = 2 or 3 axes, with
r = sqrt(sum_i (beta_i m_i)^2), where beta_i are the reduced inverse
temperatures and n = m_1 is the index on the first axis.  Three kernels
occur:

    log:     ln(1 - exp(-r))                    (free energy)
    energy:  r / (exp(r) - 1)                   (internal energy)
    force:   n^2 / (r (exp(r) - 1))             (a-derivative)

One routine, `lattice_sums`, sums any of them together and returns each
sum with a bound on its truncation error; `log_sum`, `force_sum` and
`energy_sum` are its single-kernel views.  It has two forms of the same
sums and takes the direct one unless that is over budget.

Direct form.  The lattice is enumerated in slabs along the axis with the
largest beta, the fewest slabs, exp(-r) evaluated once per point; the
force kernel takes each point's n.  Each kernel is bounded by a decreasing
g(r) = A r^k exp(-r), with A = beta_1^-s / (1 - exp(-r1)) and r1 = |beta|
the radius of the first point: k = s = 0 for the log kernel
(|ln(1 - u)| <= u / (1 - u)), k = 1, s = 0 for the energy kernel, and
k = 1, s = 2 for the force kernel, whose n^2 is at most (r / beta_1)^2.
Every lattice point m owns the cell prod_i [beta_i (m_i - 1), beta_i m_i] of
volume prod_i beta_i, and every y in that cell has r(m) - r1 <= |y| <= r(m).
A point beyond the cut radius R >= k therefore adds at most the mean of
g(max(|y|, R)) over its cell, and the cells lie in the positive orthant
outside the ball of radius R - r1, so the points beyond R sum to at most

    (pi/2) A [R^k exp(-R) (R^d - (R - r1)^d) / d + Gamma(d + k, R)] / prod_i beta_i

for d = 2 and 3 alike (the orthant's share of the sphere's area is pi/2 in
both).  The bound is anchored at R: it decays like exp(-R) and needs R only
about ln(1/tol) beyond r1, where the plain integral from R - r1 needed
twice r1.  R is the smallest radius at which every requested kernel's bound
is at most tol times its first (largest) term, a lower bound on |sum| since
every kernel has a fixed sign; `tighten` shrinks every bound reached there
by a further factor.  Its cost grows like prod_i (R / beta_i), t^-d at
high temperature.

Dual form.  The same sums taken over the Poisson-resummed lattice of
`_dualsum`: the axis with the largest beta stays a direct sum and the
others become images, so its cost barely grows as those betas shrink.  It
returns the same `LatticeSums`, and is imported only for a lattice that
needs it, since compiling it would cost every command-line call.

Choice.  The direct form knows its work before it sums: its point count.
It runs unless that count exceeds the budget; then the dual form is
planned, and runs if its planned terms fit the budget.  Hot rows no longer
reach either form: `thermal` takes its renormalized Matsubara form where
the largest reduced temperature is small, which costs less than both and
does not cancel against the subtractions.  What the dual form still serves
is a wide box whose short side is cold and whose long sides are hot, such
as the 1 um x 1 mm x 1 mm electromagnetic box at 300 K (t = 3.8 and
0.0038): its triple lattice needs 7.2e6 direct points.  The dual form sums
it directly along the cold axis and in images along the hot ones, without
cancellation; the Matsubara form's images along the cold side would
cancel against c0 there, and leave 2 ulps in a force whose thermal part
F_x(T) - F_x(0) is 1/1300 of it.  Sums are added with fsum over fixed
partial sums, so results are deterministic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_BUDGET, budget_error, check_budget, check_tol

__all__ = ["LatticeSums", "lattice_sums", "log_sum", "force_sum", "energy_sum"]

#: Volume of the positive-orthant part of the unit d-ball (pi/4, pi/6),
#: for the a-priori count of lattice points inside the cutoff radius.
_ORTHANT_BALL = {2: 0.7854, 3: 0.5236}

#: (k, s) of each kernel's bound |f| <= beta_1^-s r^k exp(-r) / (1 - exp(-r1))
_KERNEL_BOUNDS = {"log": (0, 0), "energy": (1, 0), "force": (1, 2)}

#: The dual form is not planned for targets below exp(-_DUAL_MAX_DEPTH):
#: its cut X would then pass the underflow of exp(-X), at temperatures
#: where the direct form costs a few points anyway.
_DUAL_MAX_DEPTH = 600.0

#: Nor when it would keep more than _DUAL_MAX_ROWS rows n <= X / beta_K:
#: the plan holds a few array entries per row and image, and at the cap it
#: took 2.4 s and 95 MB (three axes at beta = 0.0012; about a 0.2 mm cube
#: at 10 kK).  Larger boxes fall to the direct form and its budget.
_DUAL_MAX_ROWS = 20_000


class LatticeSums(NamedTuple):
    """Each requested kernel's sum and the tail bound reached, by kernel name.

    `radius` is the cut on the exponent of the terms kept (r in the direct
    form, u = A q in the dual form), `form` names the form that ran, and
    `scale` is the sum of |term| per kernel, the size on which the roundoff
    of the sum rests: the dual form's terms have both signs.
    """

    sums: dict
    bounds: dict
    radius: float
    form: str
    scale: dict


def _slab_sums(kernels, n, r: np.ndarray) -> list[float]:
    """Each kernel summed over the points of a slab at radii r, with n the
    index on the first axis: the slab's own, or each point's."""
    with np.errstate(under="ignore"):
        em = np.exp(-r)
        q = em / (1.0 - em) if kernels != ("log",) else None
        out = []
        for name in kernels:
            if name == "log":
                out.append(float(np.log1p(-em).sum()))
            elif name == "energy":
                out.append(float((r * q).sum()))
            elif isinstance(n, int):
                out.append(n * n * float((q / r).sum()))
            else:
                out.append(float((n * n * q / r).sum()))
    return out


# ----------------------------------------------------------------------
# direct form


def _log_tail(d: int, k: int, r1: float, radius: float) -> tuple[float, float]:
    """ln of R^k exp(-R) (R^d - (R - r1)^d)/d + Gamma(d + k, R), and its
    derivative in R, at R = radius >= r1."""
    n = d + k
    # Gamma(n, R) = (n-1)! exp(-R) sum_{j<n} R^j / j! and its polynomial's derivative
    terms = [radius**j / math.factorial(j) for j in range(n)]
    gamma, dgamma = math.factorial(n - 1) * sum(terms), math.factorial(n - 1) * sum(terms[:-1])
    inner = radius - r1
    shell = radius**k * (radius**d - inner**d) / d
    dshell = (k * radius ** (k - 1) * (radius**d - inner**d) / d
              + radius**k * (radius ** (d - 1) - inner ** (d - 1)))
    poly = shell + gamma
    return math.log(poly) - radius, (dshell + dgamma) / poly - 1.0


def _radius_for(d: int, k: int, r1: float, level: float) -> float:
    """The first R >= max(r1, k) with _log_tail(d, k, r1, R)[0] <= level,
    to rounding: Newton's method from max(r1, k), then a guard that steps
    on while the bound still misses."""
    radius = max(r1, float(k))
    value, slope = _log_tail(d, k, r1, radius)
    if value <= level:
        return radius
    for _ in range(100):
        step = (value - level) / -slope if slope < 0.0 else value - level + 1.0
        radius += step
        value, slope = _log_tail(d, k, r1, radius)
        if abs(step) <= 1e-12 * radius:
            break
    while value > level:
        radius += max(value - level, 1e-12 * radius)
        value, _ = _log_tail(d, k, r1, radius)
    return radius


def _less_squares(r2: float, betas) -> float:
    """r2 minus beta^2 for each beta, subtracted in order: the room left
    inside the cutoff once every later axis takes index 1."""
    for b in betas:
        r2 -= b * b
    return r2


def _slabs(betas, radius: float):
    """Yield (n, radii of one slab's points within radius), slab by slab
    along the axis with the largest beta, the fewest slabs (the first such
    axis, so a cube keeps the first), for slab index 1, 2, ...; n is the
    index on the first axis: the slab's own where that is the slab axis,
    else each point's."""
    top = max(range(len(betas)), key=betas.__getitem__)
    order = [top] + [i for i in range(len(betas)) if i != top]
    first = order.index(0)
    b1, *inner = (betas[i] for i in order)
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
        if first:
            index = np.arange(1.0, r2.shape[first - 1] + 1.0)
            if r2.ndim > 1:
                shape = [-1 if d == first - 1 else 1 for d in range(r2.ndim)]
                index = np.broadcast_to(index.reshape(shape), r2.shape)[inside]
            yield index, r
        else:
            yield n, r


class _DirectPlan(NamedTuple):
    radius: float
    bounds: dict
    points: float


def _direct_plan(betas, kernels, log_targets: dict, tighten: float) -> _DirectPlan:
    """The direct form's cut radius, the bounds reached there and its point count."""
    d, r1 = len(betas), math.hypot(*betas)
    # ln of each kernel's (pi/2) A / prod beta; the targets are logs, since
    # at low temperature the first terms can be subnormal and tol times
    # them underflow
    log_scale = math.log(math.pi / 2.0) - math.log(-math.expm1(-r1)) - sum(map(math.log, betas))
    log_a = {name: log_scale - _KERNEL_BOUNDS[name][1] * math.log(betas[0]) for name in kernels}
    order = {name: _KERNEL_BOUNDS[name][0] for name in kernels}
    radius = max(_radius_for(d, order[name], r1, log_targets[name] - log_a[name])
                 for name in log_targets)
    if tighten > 1.0:
        # every bound reached at this radius falls by the factor tighten
        radius = max(_radius_for(d, order[name], r1,
                                 _log_tail(d, order[name], r1, radius)[0] - math.log(tighten))
                     for name in kernels)
    bounds = {name: math.exp(log_a[name] + _log_tail(d, order[name], r1, radius)[0])
              for name in kernels}
    return _DirectPlan(radius, bounds, _ORTHANT_BALL[d] * radius**d / math.prod(betas))


def _direct_eval(betas, kernels, plan: _DirectPlan) -> LatticeSums:
    slabs = [_slab_sums(kernels, n, r) for n, r in _slabs(betas, plan.radius)]
    sums = ({name: math.fsum(col) for name, col in zip(kernels, zip(*slabs))} if slabs
            else dict.fromkeys(kernels, 0.0))
    # every kernel has a fixed sign: the sum of |term| is |sum|
    return LatticeSums(sums, plan.bounds, plan.radius, "direct",
                       {name: abs(v) for name, v in sums.items()})


# ----------------------------------------------------------------------
# entry points


def _checked(betas, tol: float, max_points: int, kernels, tighten: float):
    """The validated betas and kernels, and ln(tol |first term|) of each
    kernel whose first term does not underflow."""
    check_tol(tol)
    check_budget(max_points)
    kernels = tuple(kernels)
    betas = tuple(float(b) for b in betas)
    if any(not (math.isfinite(b) and b > 0.0) for b in betas):
        raise ValueError(f"reduced frequencies must be positive and finite, got {betas}")
    if len(betas) not in _ORTHANT_BALL:
        raise ValueError("expected 2 or 3 reduced frequencies")
    if not (math.isfinite(tighten) and tighten >= 1.0):
        raise ValueError(f"tighten must be finite and >= 1, got {tighten!r}")
    if not kernels or any(name not in _KERNEL_BOUNDS for name in kernels):
        raise ValueError(f"kernels must name some of {sorted(_KERNEL_BOUNDS)}, got {kernels!r}")
    r1 = math.hypot(*betas)
    if r1 > 745.0:
        return betas, kernels, {}
    if np.exp(-r1) == 1.0:
        # the first terms, over 1 - exp(-r1), are inf: no cut meets their targets
        _budget(math.inf, tol, max_points)
    firsts = _slab_sums(kernels, 1, np.array([r1]))
    return betas, kernels, {name: math.log(tol) + math.log(abs(first))
                            for name, first in zip(kernels, firsts) if first != 0.0}


def _budget(points: float, tol: float, max_points: int):
    if points > max_points:
        raise budget_error("box mode sum", tol, f"needs about {points:.3e} lattice points",
                           max_points)


def _zeros(betas, kernels) -> LatticeSums:
    zeros = dict.fromkeys(kernels, 0.0)
    return LatticeSums(zeros, dict(zeros), math.hypot(*betas), "direct", dict(zeros))


def _direct_sums(betas, tol: float, max_points: int = DEFAULT_BUDGET,
                 kernels=("log", "energy", "force"), tighten: float = 1.0) -> LatticeSums:
    """`lattice_sums` in the direct form."""
    betas, kernels, targets = _checked(betas, tol, max_points, kernels, tighten)
    if not targets:
        return _zeros(betas, kernels)
    plan = _direct_plan(betas, kernels, targets, tighten)
    _budget(plan.points, tol, max_points)
    return _direct_eval(betas, kernels, plan)


def _dual_sums(betas, tol: float, max_points: int = DEFAULT_BUDGET,
               kernels=("log", "energy", "force"), tighten: float = 1.0) -> LatticeSums:
    """`lattice_sums` in the dual form."""
    betas, kernels, targets = _checked(betas, tol, max_points, kernels, tighten)
    if not targets:
        return _zeros(betas, kernels)
    from . import _dualsum

    plan = _dualsum.plan(betas, kernels, targets, tighten)
    _budget(plan.terms, tol, max_points)
    return _dualsum.evaluate(betas, kernels, plan)


def lattice_sums(betas, tol: float, max_points: int = DEFAULT_BUDGET,
                 kernels=("log", "energy", "force"), tighten: float = 1.0) -> LatticeSums:
    """Sum the named kernels over the index lattice m_i >= 1 of 2 or 3 axes.

    One pass serves every kernel, in the direct form, or in the dual form
    where the direct form's points exceed `max_points`.  Each kernel's tail
    bound is at most tol times its first term; with tighten > 1 every bound
    reached falls by that factor too.  The bounds reached are returned with
    the sums.  `max_points` caps the lattice points (direct) or terms (dual)
    of the form that runs.
    """
    betas, kernels, targets = _checked(betas, tol, max_points, kernels, tighten)
    if not targets:
        return _zeros(betas, kernels)
    direct = _direct_plan(betas, kernels, targets, tighten)
    # the dual form keeps at least its rows n <= X / beta_K, its cut X at
    # least -ln(target) and 4 (`_dualsum._first_cut`), and its terms
    # exp(-u), u <= X, must not underflow
    depth = max(-min(targets.values()), 4.0)
    if (direct.points > max_points and depth / max(betas) <= min(max_points, _DUAL_MAX_ROWS)
            and depth < _DUAL_MAX_DEPTH):
        from . import _dualsum

        dual = _dualsum.plan(betas, kernels, targets, tighten)
        if dual.terms <= max_points:
            return _dualsum.evaluate(betas, kernels, dual)
    _budget(direct.points, tol, max_points)
    return _direct_eval(betas, kernels, direct)


def log_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum over the index lattice of ln(1 - exp(-r)); strictly negative."""
    return lattice_sums(betas, tol, max_points, ("log",)).sums["log"]


def force_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum of n^2 / (r (exp(r) - 1)) with n the index on the first axis."""
    return lattice_sums(betas, tol, max_points, ("force",)).sums["force"]


def energy_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum of r / (exp(r) - 1) over the index lattice."""
    return lattice_sums(betas, tol, max_points, ("energy",)).sums["energy"]
