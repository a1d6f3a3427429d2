"""The Poisson-resummed (dual) form of `_modesum`'s lattice sums, for high T.

The sums.  The axis with the largest beta (index K, "kept") stays a
direct sum over n >= 1, at A = beta_K n.  The other p = d - 1 axes are
Poisson-resummed: with log = -sum_j exp(-j r) / j, each resummed axis's
sum over m_i >= 1 is half the sum over all integers minus the m_i = 0 term,
and over the integers

    sum_m exp(-j sqrt(A^2 + (beta m)^2))
        = (1/beta) sum_k 2 j A K_1(A q) / q,        q = sqrt(j^2 + w_k^2),

with w_k = 2 pi k / beta; two axes resummed together give
(1/(beta beta')) sum_k 2 pi j (1 + A q) exp(-A q) / q^3, |w_k| in q.  So
the lattice is a signed sum over the subsets Q of the resummed axes, with
weights (-1)^(p - |Q|) / (2^p prod_Q beta), of an exact 1-D sum over n
(Q empty: the kernel itself at r = A) and of sums over the dual points
(n, j, k in Z^Q).  Those depend on the betas only through u = A q, and every
term with k != 0 (an image) is below exp(-2 pi A |k| / beta_i), A >= beta_K.
At high temperature all but the k = 0 images vanish and the dual sum costs
about (X / beta_K) ln(X / beta_K) terms, X ~ ln(1/tol): no power of t.

The energy and force sums are not separate series in the dual form: they
are the analytic beta-gradient of the log sum S, energy = beta . grad S
(Euler: r d/dr of the log kernel is the energy kernel) and
force = (1/beta_1) dS/dbeta_1, each term differentiated through A, the
1/beta weights and w_k.  Each derivative thus has one implementation.

Dual truncation.  The dual points kept are those with u = A q <= X.  Every
term, and each of its gradient parts, is at most P(A, q) exp(-A q) for an
elementary prefactor P that does not grow with q and grows at most like
A^2 (K_0, K_1 <= K_{3/2}).  For fixed (n, k) the discarded j > J then add
at most their first term over 1 - exp(-A dq), dq the step of q at J + 2
(q is convex in j); a wholly discarded image adds at most
P(A, w) int_0^inf exp(-A sqrt(y^2 + w^2)) dy = P(A, w) w K_1(A w).  Images
are visited inside a box of half-width 1.5 X beta_i / (2 pi A) + 1 per row
n; those outside it, all with A |w| > 1.5 X, add at most the bound of the
nearest one with exp(-A |w|) replaced by exp(-3 A |w| / 4) times a product
of coth series, below exp(-9 X / 8).  Rows n > N = X / beta_K add at most
row N + 1 over 1 - exp(-beta_K) ((N + 2)/(N + 1))^2, each term's ratio
to its row's predecessor.  X is raised until every kernel's bound meets the
same target as the direct form's, tol times its first term (and then falls
by `tighten`), each step aimed with the rate the bounds fell at the last.

`plan` fixes the cut and the points to sum, and their count, before any
term is evaluated; `evaluate` sums them in chunks of bounded size.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._modesum import LatticeSums
from .errors import ConvergenceError
from .specfun import bessel_k

__all__ = ["Plan", "plan", "evaluate", "estimate_terms"]

#: e-folds of the first dual cut beyond the targets' (their margin ranged
#: from 4 to 15 over the benchmark's lattices at 3-40 kK)
_FIRST_MARGIN = 10.0

#: Dual terms evaluated at once, at most (plus one pair's).
_CHUNK_TERMS = 1 << 16

#: Images are visited inside a box of half-width _BOX X beta_i / (2 pi A) + 1
#: per row, so those outside have A |w| > _BOX X.
_BOX = 1.5


def _kappa(u):
    """sqrt(pi/(2u)) (1 + 1/u) = exp(u) K_{3/2}(u), at least exp(u) K_1(u) and exp(u) K_0(u)."""
    return np.sqrt(np.pi / (2.0 * u)) * (1.0 + 1.0 / u)


def _prefactor(size: int, kernel: str, force: str, a, q, bk: float, b0: float):
    """P(A, q) with |term| <= P exp(-A q), for a subset of `size` resummed axes.

    P does not grow with q and grows at most like A^2.  `force` says where
    the first axis is: "kept", "in" the subset, or "out" of it (no force).
    """
    u = a * q
    if size == 1:
        kap = _kappa(u)
        if kernel == "log":
            return 2.0 * a * kap / q
        if kernel == "energy":
            return 2.0 * a * (2.0 * a + 3.0 / q) * kap
        if force == "kept":
            return 2.0 * a * a * kap / bk**2
        return 2.0 * a * (a + 3.0 / q) * kap / b0**2
    if kernel == "log":
        return 2.0 * np.pi * (1.0 + u) / q**3
    if kernel == "energy":
        return 2.0 * np.pi * (2.0 * a * a / q + 5.0 * (u + 1.0) / q**3)
    if force == "kept":
        return 2.0 * np.pi * a * a / (q * bk**2)
    return 2.0 * np.pi * (a * a / q + 4.0 * (u + 1.0) / q**3) / b0**2


def _ramp(counts: np.ndarray):
    """(owner, position) of each of sum(counts) items: item i of owner o has
    position i = 1..counts[o]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner] + 1


class _Subset(NamedTuple):
    """The dual points of one subset Q of the resummed axes at a cut X."""

    axes: tuple  # the axes of Q
    weight: float  # (-1)^(p - |Q|) / (2^p prod_Q beta)
    rows: np.ndarray  # n of each (n, k) row-image pair visited
    w2: np.ndarray  # (w_i^2 per axis of Q) of each pair, shape (pairs, |Q|)
    last: np.ndarray  # J of each pair: its terms j = 1..J are kept
    bounds: dict  # the bound on every discarded term, by kernel


def _subset_points(betas, keep: int, axes: tuple, cut: float, kernels) -> _Subset:
    """Dual points of subset Q = axes kept at cut X, and the bound on the rest."""
    bk, p, size = betas[keep], len(betas) - 1, len(axes)
    weight = (-1.0) ** (p - size) / (2.0**p * math.prod(betas[i] for i in axes))
    n_last = int(cut / bk)  # rows 1..N keep terms; row N + 1 stands for all later ones
    # per axis: the box half-width of row n is 1 + #{m >= 2: floor(c / (m - 1)) >= n}
    spacing = [2.0 * math.pi / betas[i] for i in axes]
    reach = []
    for i in axes:
        c = _BOX * cut * betas[i] / (2.0 * math.pi * bk)
        reach.append(np.floor(c / np.arange(1.0, math.floor(c) + 1.0)))
    grids = np.meshgrid(*[np.arange(-len(r) - 1, len(r) + 2) for r in reach], indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    # the last row in whose box each image lies
    top = np.full(len(ks), n_last + 1, dtype=np.int64)
    for col, r in enumerate(reach):
        m = np.abs(ks[:, col])
        far = m >= 2
        top[far] = np.minimum(top[far], r[m[far] - 2].astype(np.int64))
    ks, top = ks[top >= 1], top[top >= 1]
    owner, rows = _ramp(top)
    pair_k = ks[owner]
    w2 = (pair_k * np.array(spacing)) ** 2
    w = np.sqrt(w2.sum(axis=1))
    a = bk * rows
    room = (cut / a) ** 2 - w * w
    last = np.floor(np.sqrt(np.maximum(room, 0.0))).astype(np.int64)
    # rows beyond N + 1 sum to at most row N + 1 times 1/(1 - ratio)
    ratio = math.exp(-bk) * ((n_last + 2) / (n_last + 1)) ** 2
    beyond = 1.0 / (1.0 - ratio) if ratio < 1.0 else math.inf
    row_factor = np.where(rows == n_last + 1, beyond, 1.0)
    q1 = np.sqrt((last + 1.0) ** 2 + w * w)
    q2 = np.sqrt((last + 2.0) ** 2 + w * w)
    # per row: the smallest |w| outside its box
    box_rows = np.arange(1, n_last + 2)
    box_a = bk * box_rows
    half = [1 + np.searchsorted(-r, -box_rows, side="right") for r in reach]
    w_out = np.min([s * (h + 1.0) for s, h in zip(spacing, half)], axis=0)
    box_factor = np.where(box_rows == n_last + 1, beyond, 1.0)
    hidden = (last == 0) & (w > 0.0)
    # wholly discarded images: the hidden pairs, then each row's outside
    img_a = np.concatenate([a[hidden], box_a])
    img_w = np.concatenate([w[hidden], w_out])
    n_hidden = int(hidden.sum())
    # the bounds' exponential parts, the same for every kernel: the j-tail
    # of a pair, and sqrt(pi w/(2A)) (1 + 1/(A w)) >= w K_1(A w) exp(A w) of
    # an image, times exp(-A w) for one image, or times exp(-3 A w / 4) and
    # the coth series for the images outside a row's box
    with np.errstate(under="ignore", over="ignore"):
        geo = row_factor * np.exp(-a * q1) / -np.expm1(-a * (q2 - q1))
        img = (np.concatenate([row_factor[hidden], box_factor])
               * np.sqrt(np.pi * img_w / (2.0 * img_a)) * (1.0 + 1.0 / (img_a * img_w)))
        img[:n_hidden] *= np.exp(-img_a[:n_hidden] * img_w[:n_hidden])
        img[n_hidden:] *= np.exp(-0.75 * box_a * w_out) * np.prod(
            [1.0 / np.tanh(box_a * s / (8.0 * math.sqrt(size))) for s in spacing], axis=0)
        place = "kept" if keep == 0 else ("in" if 0 in axes else "out")
        bounds = {}
        for name in kernels:
            if name == "force" and place == "out":
                bounds[name] = 0.0
                continue
            tail = _prefactor(size, name, place, a, q1, bk, betas[0]) * geo
            image = _prefactor(size, name, place, img_a, img_w, bk, betas[0]) * img
            tail[hidden] = np.minimum(tail[hidden], image[:n_hidden])
            bounds[name] = abs(weight) * (float(tail.sum()) + float(image[n_hidden:].sum()))
    keep_pairs = last >= 1
    return _Subset(axes, weight, rows[keep_pairs], w2[keep_pairs], last[keep_pairs], bounds)


def _row_sums(betas, keep: int, kernels, cut: float):
    """The Q = {} part: weight times the kernels at r = A = beta_K n, n <= N,
    and the bound on n > N."""
    bk, p = betas[keep], len(betas) - 1
    weight = (-1.0) ** p / 2.0**p
    n_last = int(cut / bk)
    a = bk * np.arange(1, n_last + 1)
    nxt = bk * (n_last + 1)
    ratio = math.exp(-bk) * ((n_last + 2) / (n_last + 1)) ** 2
    tail = math.exp(-nxt) / -math.expm1(-nxt) / (1.0 - ratio) if ratio < 1.0 else math.inf
    parts, bounds = {}, {}
    with np.errstate(under="ignore"):
        em = np.exp(-a)
        energy = a * em / (1.0 - em)
        for name in kernels:
            if name == "log":
                parts[name], bounds[name] = [weight * np.log1p(-em)], tail
            elif name == "energy":
                parts[name], bounds[name] = [weight * energy], nxt * tail
            elif keep == 0:
                parts[name], bounds[name] = [weight * energy / bk**2], nxt * tail / bk**2
            else:
                parts[name], bounds[name] = [], 0.0
    return parts, {name: abs(weight) * b for name, b in bounds.items()}


def _kept(betas) -> int:
    """The axis summed directly: the first with the largest beta."""
    return max(range(len(betas)), key=lambda i: betas[i])


def _first_cut(betas, log_targets: dict) -> float:
    """The first cut tried: the targets' e-folds, those of the resummed
    axes' weights, and a margin measured on the benchmark's lattices."""
    keep = _kept(betas)
    return max(4.0, -min(log_targets.values()) - sum(
        math.log(b) for i, b in enumerate(betas) if i != keep) + _FIRST_MARGIN)


def estimate_terms(betas, log_targets: dict) -> float:
    """About the number of terms `plan` keeps, without planning: within a
    factor 0.85-2.2 of it on the benchmark's lattices at 1-40 kK.

    At the first cut X, rows n <= N = X / beta_K, each subset's k = 0
    column j <= rho_n = X / (beta_K n) and its images, a half disk or half
    ball of radius rho_n in (j, w) over the dual cell prod_Q 2 pi / beta_i,
    summed over n.
    """
    keep = _kept(betas)
    others = [i for i in range(len(betas)) if i != keep]
    rho = _first_cut(betas, log_targets) / betas[keep]
    terms = rho
    for size in range(1, len(others) + 1):
        for axes in combinations(others, size):
            cell = math.prod(2.0 * math.pi / betas[i] for i in axes)
            # half disk pi/2 rho^2, half ball 2 pi/3 rho^3; sum_n n^-m = zeta(m)
            ball = (math.pi / 2.0 * 1.6449 if size == 1 else 2.0 * math.pi / 3.0 * 1.2021)
            terms += rho * (math.log(max(rho, 1.0)) + 0.5772) + ball * rho ** (size + 1) / cell
    return terms


class Plan(NamedTuple):
    """A dual cut and its points: `terms` to sum, `bounds` on the rest."""

    keep: int
    cut: float
    subsets: list
    bounds: dict
    terms: int


def _dual_at(betas, keep: int, kernels, cut: float) -> Plan:
    others = [i for i in range(len(betas)) if i != keep]
    subsets = [_subset_points(betas, keep, axes, cut, kernels)
               for size in range(1, len(others) + 1) for axes in combinations(others, size)]
    _, bounds = _row_sums(betas, keep, kernels, cut)
    for sub in subsets:
        for name in kernels:
            bounds[name] += sub.bounds[name]
    terms = int(cut / betas[keep]) + sum(int(sub.last.sum()) for sub in subsets)
    return Plan(keep, cut, subsets, bounds, terms)


def plan(betas, kernels, log_targets: dict, tighten: float) -> Plan:
    """Raise the cut X until every kernel's dual bound meets its target.

    The bounds fall about like exp(-X); each step aims at the target with
    the decay rate measured between the last two cuts, plus a margin.
    """
    keep = _kept(betas)
    targets = dict(log_targets)
    cut, rate, last = _first_cut(betas, targets), 1.0, None
    for _ in range(60):
        found = _dual_at(betas, keep, kernels, cut)
        logs = {name: math.log(b) if b > 0.0 else -math.inf for name, b in found.bounds.items()}
        worst = max(targets, key=lambda name: logs[name] - targets[name])
        miss = logs[worst] - targets[worst]
        if miss <= 0.0:
            if tighten == 1.0 or not any(b > 0.0 for b in found.bounds.values()):
                return found
            # every bound reached at this cut falls by the factor tighten
            targets = {name: v - math.log(tighten) for name, v in logs.items() if v > -math.inf}
            tighten, miss = 1.0, math.log(tighten)
        if last is not None and math.isfinite(miss):
            rate = min(max((last[1][worst] - logs[worst]) / (cut - last[0]), 0.25), 1.0)
        last = (cut, logs)
        # bk: the bounds step down as J and N step up, once per A = bk n
        cut += miss / rate + betas[keep] if math.isfinite(miss) else cut
    raise ConvergenceError("box mode sum (dual form)", math.exp(logs[worst]),
                           math.exp(targets[worst]))


def _dual_chunk(betas, keep: int, kernels, sub: _Subset, pairs: slice, add) -> None:
    """Pass each kernel's terms over the pairs `pairs` of one subset to add."""
    # the kept terms j = 1..J of each (n, k) pair, flattened
    pair, j = _ramp(sub.last[pairs])
    j = j.astype(float)
    w2 = sub.w2[pairs][pair]
    q = np.sqrt(j * j + w2.sum(axis=1))
    a = betas[keep] * sub.rows[pairs][pair]
    u = a * q
    wt, size = sub.weight, len(sub.axes)
    # F / j, A dF/dA / j and q dF/dq / j of the Fourier transform F
    if size == 1:
        k1 = bessel_k(1.0, u)
        f = 2.0 * a * k1 / q
    else:
        with np.errstate(under="ignore"):
            e = np.exp(-u)
        f = 2.0 * np.pi * (1.0 + u) * e / q**3
    if "log" in kernels:
        add("log", -wt * f)
    if kernels == ("log",):
        return
    if size == 1:
        k0 = bessel_k(0.0, u)
        fa = -2.0 * a * u * k0 / q
        fq = -2.0 * a * (u * k0 + 2.0 * k1) / q
    else:
        fa = -2.0 * np.pi * u * u * e / q**3
        fq = -2.0 * np.pi * e * (u * u + 3.0 * u + 3.0) / q**3
    # beta_i dS/dbeta_i: through A for the kept axis, through the weight's
    # 1/beta_i and w_i = 2 pi k_i / beta_i for the axes of Q
    grad = {keep: -wt * fa}
    for col, axis in enumerate(sub.axes):
        grad[axis] = wt * (f + w2[:, col] / (q * q) * fq)
    if "energy" in kernels:
        add("energy", sum(grad.values()))
    if "force" in kernels and 0 in grad:
        add("force", grad[0] / betas[0] ** 2)


def evaluate(betas, kernels, planned: Plan) -> LatticeSums:
    # (sum, sum of |terms|) of each piece, by kernel
    parts = {name: [] for name in kernels}

    def add(name: str, terms: np.ndarray) -> None:
        parts[name].append((float(terms.sum()), float(np.abs(terms).sum())))

    for name, pieces in _row_sums(betas, planned.keep, kernels, planned.cut)[0].items():
        for terms in pieces:
            add(name, terms)
    for sub in planned.subsets:
        # pairs in chunks of about _CHUNK_TERMS terms, so the memory does not
        # grow with the number of terms the budget allows
        total = np.cumsum(sub.last)
        ends = np.searchsorted(total, np.arange(_CHUNK_TERMS, total[-1] if len(total) else 0,
                                                _CHUNK_TERMS), side="right")
        edges = [0, *ends.tolist(), len(sub.last)]
        for start, end in zip(edges, edges[1:]):
            if end > start:
                _dual_chunk(betas, planned.keep, kernels, sub, slice(start, end), add)
    sums = {name: math.fsum(x for x, _ in parts[name]) for name in kernels}
    scale = {name: math.fsum(x for _, x in parts[name]) for name in kernels}
    return LatticeSums(sums, planned.bounds, planned.cut, "dual", scale)
