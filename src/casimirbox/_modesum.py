"""Truncated sums over box mode lattices, and the one integral-test cut
of every lattice image sum.

A row of `thermal` in its direct form reduces to sums of a kernel f(n, r)
over the positive index lattice of d = 2 or 3 axes, with
r = sqrt(sum_i (beta_i m_i)^2), beta_i the reduced inverse temperatures and
n = m_1 the index on the first axis:

    log:     ln(1 - exp(-r))                    (free energy)
    energy:  r / (exp(r) - 1)                   (internal energy)
    force:   n^2 / (r (exp(r) - 1))             (a-derivative)

`lattice_sums` sums any of them together and returns each sum with a bound
on its truncation error; `log_sum`, `force_sum` and `energy_sum` are its
single-kernel views.  `_image_sums` sums a kernel over Z^d minus 0, d = 1
to 3: E0's R pass (`boxzero`) and the Matsubara form's c0 and images.

The cut.  The direct form and `_image_sums` cut at a radius R fixed a
priori by one integral test.  Take an orthant of points j_i >= 1 on d axes
at radii r = |beta j|, with terms at most g(r) = A r^k exp(-r), decreasing
for r >= k.  Each point owns the cell prod_i [beta_i (j_i - 1), beta_i j_i],
of volume prod_i beta_i, in which every y has r(j) - r1 <= |y| <= r(j),
r1 = |beta|.  So a point at or beyond R >= k adds at most the mean of
g(max(|y|, R)) over its cell, the cells lie outside the ball of radius
(R - r1)_+, and those points add at most

    s_d A [R^k exp(-R) (R^d - (R - r1)_+^d) / d + Gamma(d + k, R)] / prod_i beta_i,

s_d = 1 for d = 1 and pi/2 for d = 2 and 3, the orthant's share of the
sphere.  Z^d minus 0 is the orthants of its faces Q, 2^|Q| sign copies each
with their own r1 = |beta_Q| and prod beta_Q; its bound sums theirs.  The
bound decays like exp(-R), so R is about ln(1/tol) beyond r1 (`_radius_for`).

Direct form.  The lattice is enumerated in slabs along the axis with the
largest beta, exp(-r) once per point; the force kernel takes each point's
n.  A = beta_1^-s / (1 - exp(-r1)), with k = s = 0 for the log kernel
(|ln(1 - u)| <= u / (1 - u)), k = 1, s = 0 for the energy kernel, and
k = 1, s = 2 for the force kernel, whose n^2 is at most (r / beta_1)^2.  R
is the smallest radius at which every requested kernel's bound is at most
tol times its first (largest) term, a lower bound on |sum| since every
kernel has a fixed sign; `tighten` shrinks every bound by a further factor.
Its cost grows like prod_i (R / beta_i), t^-d at high temperature.  Sums
are added with fsum over fixed partial sums, so results are deterministic.

Dual form.  `_dualsum` takes the same sums over the Poisson-resummed
lattice: the axis with the largest beta stays a direct sum and the others
become images, so its cost barely grows as those betas shrink.  It is
planned, and imported, only where the direct form's points exceed the
budget (compiling it would cost every command-line call), and runs if its
terms fit it.  Hot rows take `thermal`'s Matsubara form; the dual form
serves wide boxes with a cold short side and hot long sides (1 um x 1 mm
x 1 mm, electromagnetic, 300 K), where Matsubara images cancel against c0.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
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

#: Nor when it would keep more than _DUAL_MAX_ROWS rows n <= X / beta_K: at
#: the cap the plan took 2.4 s and 95 MB (three axes at beta = 0.0012, about
#: a 0.2 mm cube at 10 kK).  Larger boxes fall to the direct form's budget.
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


def _faces(faces, k: int):
    """The orthants (d, r1, w) of the cut's bound, d axes, first point at r1
    and weight w, for the envelope's power k, prepared for `_log_tail`: the
    start max(min r1, k), and sum_Q w_Q Gamma(d + k, R) e^R as coefficients."""
    gamma = [0.0] * (max(d for d, _, _ in faces) + k)
    for d, _, w in faces:
        for j in range(d + k):  # Gamma(n, R) e^R = (n-1)! sum_{j<n} R^j / j!
            gamma[j] += w * math.factorial(d + k - 1) / math.factorial(j)
    return (k, max(min(r1 for _, r1, _ in faces), float(k)),
            [(d, r1, w / d, w) for d, r1, w in faces], gamma[::-1])


def _log_tail(faces, radius: float) -> tuple[float, float]:
    """ln of sum_Q w_Q [R^k exp(-R) (R^d - (R - r1)_+^d)/d + Gamma(d + k, R)]
    over the prepared orthants, and its derivative in R, at R = radius."""
    k, _, shells, gamma = faces
    shell = dshell = poly = dpoly = 0.0
    for d, r1, wd, w in shells:
        inner = radius - r1 if radius > r1 else 0.0
        shell += wd * (radius**d - inner**d)
        dshell += w * (radius ** (d - 1) - (inner ** (d - 1) if inner else 0.0))
    for c in gamma:  # Horner, with the derivative
        dpoly = dpoly * radius + poly
        poly = poly * radius + c
    rk = radius**k
    poly += rk * shell
    dpoly += k * radius ** (k - 1) * shell + rk * dshell
    return math.log(poly) - radius, dpoly / poly - 1.0


def _radius_for(faces, level: float) -> float:
    """The first R >= max(min r1, k) with _log_tail(faces, R)[0] <= level, to
    rounding: Newton's method from there or from -level, which no root
    precedes (some w is 1), then a guard that steps on while the bound misses."""
    radius = max(faces[1], -level)
    value, slope = _log_tail(faces, radius)
    if value <= level:
        return radius
    for _ in range(100):
        step = (value - level) / -slope if slope < 0.0 else value - level + 1.0
        radius += step
        value, slope = _log_tail(faces, radius)
        if abs(step) <= 1e-12 * radius:
            break
    while value > level:
        radius += max(value - level, 1e-12 * radius)
        value, _ = _log_tail(faces, radius)
    return radius


#: The faces Q of Z^d minus 0, d = 1 to 3, with ln of their 2^|Q| sign
#: copies times their share of the sphere, 1 for one axis and pi/2 for more
_FACES = {d: [(q, math.log(2 ** len(q) * (1.0 if len(q) == 1 else math.pi / 2.0)))
              for n in range(1, d + 1) for q in combinations(range(d), n)] for d in (1, 2, 3)}


def _image_sums(series: str, betas, kernel, k: int, amp: float, level: float, tol, max_points):
    """(S, beta_i dS/dbeta_i per axis, sum of |term|, points) for the sum S of
    f(|beta j|) over j in Z^d minus 0, d = len(betas) <= 3.  kernel(r) returns
    f(r), of one sign, and r f'(r), both at most amp r^k exp(-r) for r >= min
    beta; the points beyond the cut add at most exp(level) to S and to each
    derivative.  `points`, the box 0 <= j_i <= R / beta_i of the kept points,
    is checked against max_points before it is built; it is 0 where the
    bound on every point meets the level."""
    logs = [math.log(b) for b in betas]
    faces = [(len(q), math.hypot(*[betas[i] for i in q]), copies - sum([logs[i] for i in q]))
             for q, copies in _FACES[len(betas)]]
    top = max([w for _, _, w in faces])
    faces = _faces([(d, r1, math.exp(w - top)) for d, r1, w in faces], k)
    radius = _radius_for(faces, level - math.log(amp) - top)
    if radius == min(betas):
        return 0.0, [0.0] * len(betas), 0.0, 0
    counts = [radius // b + 1.0 for b in betas]
    points = math.prod(counts) if math.isfinite(radius) else math.inf
    if points > max_points:
        raise budget_error(series, tol, f"needs {points:.0f} lattice points", max_points)
    squares = [(b * np.arange(n)) ** 2 for b, n in zip(betas, counts)]
    r2 = functools.reduce(np.add.outer, squares)
    inside = r2 <= radius * radius
    inside.flat[0] = False  # the origin
    index = inside.nonzero()
    r2 = r2[inside]
    f, df = kernel(np.sqrt(r2))
    # each kept j >= 0 stands for its sign copies; beta_i dr/dbeta_i = (beta_i j_i)^2 / r
    copies = 2.0 ** sum(j > 0 for j in index)
    total = float(copies @ f)
    slopes = copies * df / r2
    # the kernels have one sign: the sum of |term| is |S|
    return total, [float(slopes @ sq[j]) for sq, j in zip(squares, index)], abs(total), int(points)


# ----------------------------------------------------------------------
# direct form


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
    # the one orthant, for each power k of the kernels' envelopes
    orthant = {name: _faces([(d, r1, 1.0)], _KERNEL_BOUNDS[name][0]) for name in kernels}
    radius = max(_radius_for(orthant[name], log_targets[name] - log_a[name])
                 for name in log_targets)
    if tighten > 1.0:
        # every bound reached at this radius falls by the factor tighten
        radius = max(_radius_for(orthant[name],
                                 _log_tail(orthant[name], radius)[0] - math.log(tighten))
                     for name in kernels)
    bounds = {name: math.exp(log_a[name] + _log_tail(orthant[name], radius)[0])
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
