"""Sums of a kernel over the box's mode lattices and the image lattices of
d <= 3 axes, with one enumeration and one integral-test cut.

Lattices.  `_ball_sums` sums a kernel f(r), r = |beta j|, within a radius
over the points j of an orthant, j_i >= 1 (the box's modes, d = 2, 3), or
of Z^d minus 0 (E0's R pass, c0 and rho), each j >= 0 standing for its
2^(number of j_i != 0) sign copies, and with it the gradient
beta_i dS/dbeta_i = sum r f'(r) (beta_i j_i / r)^2 of the sum S.  It takes
the points in chunks of at most `_CHUNK_POINTS`: runs of whole slabs along
the axis with the largest beta (the first such), the fewest, and a slab
with more in runs along the next axis.

Mode sums.  A row of `thermal` in its direct form needs, over each of the
field's mode lattices, with n = j_1 the index on the first axis,

    log:     S = sum ln(1 - exp(-r))              (free energy)
    energy:  sum r / (exp(r) - 1)                 (internal energy)
    force:   sum n^2 / (r (exp(r) - 1))           (a-derivative)

The energy kernel is r d/dr of the log kernel (`_log_kernel`), so the
energy is sum_i beta_i dS/dbeta_i (Euler) and the force beta_1 dS/dbeta_1
over beta_1^2: `lattice_sums` reads all three from one `_ball_sums`, as
`_dualsum` does from its form of S; `log_sum`, `force_sum` and
`energy_sum` are its single-kernel views.

The cut.  Take an orthant of points j_i >= 1 on d axes with terms at most
g(r) = A r^k exp(-r), decreasing for r >= k.  Each point owns the cell
prod_i [beta_i (j_i - 1), beta_i j_i], of volume prod_i beta_i, in which
every y has r(j) - r1 <= |y| <= r(j), r1 = |beta|.  So a point at or
beyond R >= k adds at most the mean of g(max(|y|, R)) over its cell, the
cells lie outside the ball of radius (R - r1)_+, and those points add at
most

    s_d A [R^k exp(-R) (R^d - (R - r1)_+^d) / d + Gamma(d + k, R)] / prod_i beta_i,

s_d = 1 for d = 1 and pi/2 for d = 2 and 3, the orthant's share of the
sphere.  Z^d minus 0 is the orthants of its faces Q, 2^|Q| sign copies
each with their own r1 = |beta_Q| and prod beta_Q.  R, fixed a priori, is
about ln(1/tol) beyond r1 (`_radius_for`).  A sum and its gradient take
their own envelopes: |ln(1 - u)| <= u / (1 - u) gives the log sum k = 0
and A = 1/(1 - e^-r1), and r / (e^r - 1), which bounds each axis's
gradient term, k = 1 (one k = 1 envelope cut the slab's lattice at 10 K at
760.3, not 753.7; r1 = 726.6).  The direct form cuts where the bounds are
tol times the first terms, lower bounds on |sum| as each kernel has one
sign, and `tighten` shrinks them further; its cost grows like
prod_i (R / beta_i), t^-d at high temperature.  Sums are added with fsum
over fixed partial sums, so results are deterministic.

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

#: The lattice kinds, by the first index on each axis
_ORTHANT, _IMAGES = 1, 0

#: Points of a chunk's index box: its arrays stay below 128 KiB, from which
#: the C allocator maps fresh pages for each.
_CHUNK_POINTS = 15_000

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


def _log_kernel(r: np.ndarray):
    """(ln(1 - e^-r), r d/dr of it), e^-r computed once."""
    em = np.exp(-r)
    return np.log1p(-em), r * em / (1.0 - em)


#: Gamma(n, R) e^R = (n-1)! sum_{j<n} R^j / j!: the coefficients (n-1)!/j!
_GAMMA = {n: [math.factorial(n - 1) / math.factorial(j) for j in range(n)] for n in range(1, 5)}


def _faces(faces, k: int):
    """The orthants (d, r1, w) of the cut's bound, d axes, first point at r1
    and weight w, for the envelope's power k, prepared for `_log_tail`: the
    start max(min r1, k), and sum_Q w_Q Gamma(d + k, R) e^R as coefficients."""
    gamma = [0.0] * (max(d for d, _, _ in faces) + k)
    for d, _, w in faces:
        for j, c in enumerate(_GAMMA[d + k]):
            gamma[j] += w * c
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
    precedes (some w is 1), to a step below 1e-12 R, then a guard that steps
    on while the bound misses; a level -inf or nan (an overflow) gives inf."""
    if not level > -math.inf:
        return math.inf
    radius = max(faces[1], -level)
    value, slope = _log_tail(faces, radius)
    if value <= level:
        return radius
    for _ in range(100):
        step = (value - level) / -slope if slope < 0.0 else value - level + 1.0
        if abs(step) <= 1e-12 * radius:
            break
        radius += step
        value, slope = _log_tail(faces, radius)
    while value > level:
        radius += max(value - level, 1e-12 * radius)
        value, _ = _log_tail(faces, radius)
    return radius


#: The faces Q of each lattice, with ln of their sign copies times their
#: share of the sphere (1 for one axis, pi/2 for more): a mode lattice is
#: its one orthant, Z^d minus 0 all its faces
_SHARE = {1: 1.0, 2: math.pi / 2.0, 3: math.pi / 2.0}
_FACES = {(kind, d): [(q, math.log((2 ** len(q) if kind == _IMAGES else 1) * _SHARE[len(q)]))
                      for n in range(1 if kind == _IMAGES else d, d + 1)
                      for q in combinations(range(d), n)]
          for kind in (_ORTHANT, _IMAGES) for d in (1, 2, 3)}


def _cut(kind: int, betas, envelopes) -> tuple[float, list]:
    """(R, [(prepared orthants, ln scale)] per envelope (k, A, level)): with
    terms at most A r^k exp(-r), the points at or beyond R add at most
    exp(ln scale + _log_tail(orthants, R)[0]) <= exp(level) under each."""
    logs = [math.log(b) for b in betas]
    faces = [(len(q), math.hypot(*[betas[i] for i in q]), w - sum([logs[i] for i in q]))
             for q, w in _FACES[kind, len(betas)]]
    top = max([w for _, _, w in faces])
    faces = [(d, r1, math.exp(w - top)) for d, r1, w in faces]
    prepared = [(_faces(faces, k), math.log(amp) + top) for k, amp, _ in envelopes]
    radius = max([_radius_for(orthants, level - shift)
                  for (orthants, shift), (_, _, level) in zip(prepared, envelopes)])
    return radius, prepared


def _chunks(b, first: int, room: float, fixed=()):
    """The points j_i >= first with sum_i (b_i j_i)^2 <= room in chunks, each
    the squares (b_i j_i)^2 of its index ranges after the `fixed` ones: runs
    of whole slabs along b[0], a slab of more than _CHUNK_POINTS in runs along
    b[1], and so on, later axes cut at the room of the chunk's first index."""
    x, later = b[0], b[1:]
    floors = [(y * first) ** 2 for y in later]
    floor = sum(floors)
    last, j = int(math.sqrt(max(room - floor, 0.0)) / x), first
    while j <= last:
        rest = room - (x * j) ** 2
        spare = max(rest - floor, 0.0)
        sizes = [int(math.sqrt(spare + f) / y) + 1 - first for y, f in zip(later, floors)]
        size = math.prod(sizes)
        if size > _CHUNK_POINTS:
            yield from _chunks(later, first, rest, (*fixed, (x * np.arange(j, j + 1.0)) ** 2))
            j += 1
            continue
        count = min(_CHUNK_POINTS // size, last + 1 - j)
        yield [*fixed, (x * np.arange(j, j + count, dtype=float)) ** 2,
               *[(y * np.arange(first, first + n, dtype=float)) ** 2 for y, n in zip(later, sizes)]]
        j += count


def _ball_sums(kind: int, betas, kernel, radius: float, axes):
    """(S, E = sum r f'(r), [beta_i dS/dbeta_i for i in axes]) for the sum S of
    f(|beta j|) over the lattice `kind` within radius; kernel(r) gives f(r)
    and r f'(r)."""
    # the slab axis first: the first with the largest beta
    order = sorted(range(len(betas)), key=betas.__getitem__, reverse=True)
    positions = [order.index(i) for i in axes]
    r2cut = radius * radius
    sums = []
    for squares in _chunks([betas[i] for i in order], kind, r2cut):
        grid = functools.reduce(np.add.outer, squares)
        inside = grid <= r2cut
        if grid.flat[0] == 0.0:
            inside.flat[0] = False  # the origin
        r2 = grid[inside]
        f, df = kernel(np.sqrt(r2))
        if kind == _IMAGES:  # every axis's squares, for the 2^(j_i > 0) sign copies
            columns = [squares[pos][j] for pos, j in enumerate(inside.nonzero())]
            nonzero = sum([c > 0.0 for c in columns])
            f, df = np.ldexp(f, nonzero), np.ldexp(df, nonzero)
        # beta_i dr/dbeta_i = (beta_i j_i)^2 / r: f'(r) / r against each point's
        # square on the axis, or their sum where the chunk holds it at one index
        w = np.divide(df, r2, out=r2)
        part = [f.sum(), df.sum()]
        for pos in positions:
            if len(squares[pos]) == 1:
                part.append(squares[pos][0] * w.sum())
            else:
                shape = [-1 if i == pos else 1 for i in range(grid.ndim)]
                part.append((w * (columns[pos] if kind == _IMAGES else np.broadcast_to(
                    squares[pos].reshape(shape), grid.shape)[inside])).sum())
        sums.append(part)
        # freed for the next chunk to reuse: kept, they made the allocator fault
        # in fresh pages for each chunk (2 kK slab lattice: 1.13 ms, not 0.83)
        del grid, inside, r2, f, df, w
    sums = [*map(math.fsum, zip(*sums))] or [0.0] * (2 + len(axes))
    return sums[0], sums[1], sums[2:]


def _image_sums(series: str, betas, kernel, k: int, amp: float, level: float, tol, max_points):
    """(S, beta_i dS/dbeta_i per axis, sum of |term|, points) for the sum S of
    f(|beta j|) over j in Z^d minus 0, f of one sign and f, r f' at most
    amp r^k exp(-r) for r >= min beta, the points cut adding at most
    exp(level) to each; `points`, the box 0 <= j_i <= R / beta_i, meets
    max_points before any is summed, and is 0 where no point is kept."""
    radius, _ = _cut(_IMAGES, betas, [(k, amp, level)])
    if radius == min(betas):
        return 0.0, [0.0] * len(betas), 0.0, 0
    points = math.prod([radius // b + 1.0 for b in betas]) if math.isfinite(radius) else math.inf
    if points > max_points:
        raise budget_error(series, tol, f"needs {points:.0f} lattice points", max_points)
    total, _, slopes = _ball_sums(_IMAGES, betas, kernel, radius, range(len(betas)))
    # the kernels have one sign: the sum of |term| is |S|
    return total, slopes, abs(total), int(points)


# ----------------------------------------------------------------------
# mode sums


def _direct_cut(betas, kernels, log_targets: dict, tighten: float):
    """The direct form's (radius, bound reached per kernel, point count), the
    force's bound the gradient's over beta_1^2, from log targets (tol times a
    first term can underflow); an envelope no kernel asks for has level inf."""
    r1, beta2 = math.hypot(*betas), 2.0 * math.log(betas[0])
    amp = 1.0 / -math.expm1(-r1)
    envelopes = [(0, amp, log_targets.get("log", math.inf)),
                 (1, amp, min(log_targets.get("energy", math.inf),
                              log_targets.get("force", math.inf) + beta2))]
    for _ in range(2 if tighten > 1.0 else 1):
        radius, prepared = _cut(_ORTHANT, betas, envelopes)
        reached = [shift + _log_tail(orthants, radius)[0] for orthants, shift in prepared]
        # with tighten > 1, cut again where every bound reached falls by it
        envelopes = [(k, a, bound - math.log(tighten) if level < math.inf else level)
                     for (k, a, level), bound in zip(envelopes, reached)]
    bounds = {"log": reached[0], "energy": reached[1], "force": reached[1] - beta2}
    return (radius, {name: math.exp(bounds[name]) for name in kernels},
            _SHARE[len(betas)] * radius ** len(betas) / len(betas) / math.prod(betas))


def _direct(betas, kernels, cut, tol: float, max_points: int) -> LatticeSums:
    """The direct form at its cut: one sum of the log kernel over the mode
    lattice, whose gradient gives the energy and the force."""
    radius, bounds, points = cut
    _budget(points, tol, max_points)
    value, euler, slopes = _ball_sums(_ORTHANT, betas, _log_kernel, radius,
                                      (0,) if "force" in kernels else ())
    sums = {"log": value, "energy": euler, "force": slopes[0] / betas[0] ** 2 if slopes else 0.0}
    sums = {name: sums[name] for name in kernels}
    # every kernel has a fixed sign: the sum of |term| is |sum|
    return LatticeSums(sums, bounds, radius, "direct", {name: abs(v) for name, v in sums.items()})


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
    if len(betas) not in (2, 3):
        raise ValueError("expected 2 or 3 reduced frequencies")
    if not (math.isfinite(tighten) and tighten >= 1.0):
        raise ValueError(f"tighten must be finite and >= 1, got {tighten!r}")
    if not kernels or any(name not in ("energy", "force", "log") for name in kernels):
        raise ValueError(f"kernels must name some of energy, force, log, got {kernels!r}")
    r1 = math.hypot(*betas)
    if r1 > 745.0:
        return betas, kernels, {}
    em = math.exp(-r1)
    if em == 1.0:
        # the first terms, over 1 - exp(-r1), are inf: no cut meets their targets
        _budget(math.inf, tol, max_points)
    q = em / (1.0 - em)  # the kernels at the first point, n = 1
    firsts = {"log": math.log1p(-em), "energy": r1 * q, "force": q / r1}
    return betas, kernels, {name: math.log(tol) + math.log(abs(firsts[name]))
                            for name in kernels if firsts[name] != 0.0}


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
    return _direct(betas, kernels, _direct_cut(betas, kernels, targets, tighten), tol, max_points)


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
    direct = _direct_cut(betas, kernels, targets, tighten)
    # the dual form keeps at least its rows n <= X / beta_K, its cut X at
    # least -ln(target) and 4 (`_dualsum._first_cut`), and its terms
    # exp(-u), u <= X, must not underflow
    depth = max(-min(targets.values()), 4.0)
    if (direct[2] > max_points and depth / max(betas) <= min(max_points, _DUAL_MAX_ROWS)
            and depth < _DUAL_MAX_DEPTH):
        from . import _dualsum

        dual = _dualsum.plan(betas, kernels, targets, tighten)
        if dual.terms <= max_points:
            return _dualsum.evaluate(betas, kernels, dual)
    return _direct(betas, kernels, direct, tol, max_points)


def log_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum over the index lattice of ln(1 - exp(-r)); strictly negative."""
    return lattice_sums(betas, tol, max_points, ("log",)).sums["log"]


def force_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum of n^2 / (r (exp(r) - 1)) with n the index on the first axis."""
    return lattice_sums(betas, tol, max_points, ("force",)).sums["force"]


def energy_sum(betas, tol: float, max_points: int = DEFAULT_BUDGET) -> float:
    """sum of r / (exp(r) - 1) over the index lattice."""
    return lattice_sums(betas, tol, max_points, ("energy",)).sums["energy"]
