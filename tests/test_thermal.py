import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from casimirbox import _matsubara, _modesum, boxzero, thermal, validate
from casimirbox.boxzero import BoxGeometry, FieldKind, e0, e0_force_x
from casimirbox.errors import DEFAULT_BUDGET, ConvergenceError
from casimirbox.plates import PlatesConfig, plates_pressure
from casimirbox.specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3
from casimirbox.thermal import (
    EnergyBreakdown,
    ThermalPoint,
    asymptotic_thermal,
    blackbody_density,
    blackbody_internal_density,
    corner_coefficient,
    entropy,
    force_x,
    free_energy,
    heat_kernel_coeffs,
    internal_energy,
    mode_frequency,
    subtraction_coeffs,
    thermal_raw,
)

EPS = np.finfo(float).eps

SCALAR = FieldKind.SCALAR_DIRICHLET
EM = FieldKind.ELECTROMAGNETIC

CUBE_2UM = BoxGeometry(2e-6, 2e-6, 2e-6)
#: the benchmark's temperatures up to 300 K, where every row of its boxes
#: sums its mode lattices directly
THERMO_TEMPS_LOW = (10.0, 20.0, 50.0, 100.0, 200.0, 300.0)
#: and the benchmark's temperatures above 300 K
THERMO_TEMPS_HIGH = (500.0, 1000.0, 2000.0, 3000.0, 5000.0, 10000.0)
TP300 = ThermalPoint(300.0)

# pinned by the direct compensated sums (data/fixtures.txt)
X_UNIT_CUBE_T1 = -1.9422641285061052e-05
Y_UNIT_CUBE_T1 = -0.00045872658846693947


def tp_for_akt(a: float, akt: float) -> ThermalPoint:
    """Temperature at which a * kT equals akt (natural units)."""
    return ThermalPoint(akt * HBAR_C / (K_BOLTZMANN * a))


def form_sums(form, betas, tol, max_points=DEFAULT_BUDGET, kernels=("log", "energy", "force"),
              tighten=1.0):
    """`_modesum.lattice_sums` in the given form, "direct" or "dual", from its
    own pieces: the direct form at its cut, or the dual form's plan."""
    from casimirbox import _dualsum

    betas, kernels = _modesum._checked(betas, tol, max_points, kernels, tighten)
    targets = _modesum._targets(betas, tol, max_points, kernels)
    if not targets:
        return _modesum._zeros(betas, kernels)
    if form == "direct":
        cut = _modesum._direct_cut(betas, kernels, targets, tighten)
        return _modesum._direct(betas, kernels, cut, tol, max_points)
    plan = _dualsum.plan(betas, kernels, targets, tighten)
    _modesum._budget(plan.terms, tol, max_points)
    return _dualsum.evaluate(betas, kernels, plan)


def direct_raw(geom, field, tp, tol=1e-10, max_points=DEFAULT_BUDGET):
    """kT times the field's log mode sum, summed by `thermal._mode_sums`
    whatever form the row takes: the raw thermal correction of the direct
    form, independent of E0, c0 and the Matsubara images."""
    return tp.kt * thermal._mode_sums(field, tp.reduced(geom), tol, max_points)[0]["log"]


class TestThermalPoint:
    def test_reduced_t_anchor(self):
        # a = 2 um at 300 K sits at t = T_eff/T ~ 1.908
        assert TP300.reduced_t(2e-6) == pytest.approx(1.908237, abs=1e-5)

    def test_zero_temperature_sentinels(self):
        tp = ThermalPoint(0.0)
        assert tp.kt == 0.0
        assert math.isinf(tp.beta)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThermalPoint(-1.0)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    @pytest.mark.parametrize("temperature", [0.0, 5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7e308])
    def test_any_temperature_returns_or_is_rejected(self, field, temperature):
        # every quantity is finite, or the temperature lies outside the
        # documented range; 1e-300 K once divided by a zero error bound and
        # 1e30 K once asked for inf lattice points
        cube = BoxGeometry(1e-6, 1e-6, 1e-6)
        if not (temperature == 0.0 or thermal.T_MIN <= temperature <= thermal.T_MAX):
            with pytest.raises(ValueError, match="temperature must be 0 or in"):
                ThermalPoint(temperature)
            return
        tp = ThermalPoint(temperature)
        values = [free_energy(cube, field, tp).total, force_x(cube, field, tp)]
        if temperature > 0.0:
            values += [internal_energy(cube, field, tp), entropy(cube, field, tp)]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    @pytest.mark.parametrize("sides", [(1e-26,) * 3, (1e50,) * 3])
    def test_range_ends_stay_finite(self, field, sides):
        # the (kT)^4 terms of the largest box at T_MAX, and the (kT)^2
        # terms, with their nonzero floors, of the smallest at T_MIN
        box = BoxGeometry(*sides)
        for temperature in (thermal.T_MIN, thermal.T_MAX):
            tp = ThermalPoint(temperature)
            row = thermal._row(box, field, tp, 1e-10, DEFAULT_BUDGET)
            free = row.free
            assert all(math.isfinite(v) for v in (free.total, free.thermal_raw, free.bb_term,
                                                  row.force, row.internal, row.entropy))
            assert min(row.floors) > 0.0


class TestModeFrequency:
    def test_cube_ground_mode(self):
        g = BoxGeometry(1.0, 1.0, 1.0)
        assert mode_frequency(1, 1, 1, g) == pytest.approx(PI * math.sqrt(3.0), rel=1e-15, abs=0)

    def test_mixed_indices(self):
        g = BoxGeometry(1.0, 2.0, 4.0)
        expected = PI * math.sqrt(4.0 + 0.25 + 1.0 / 16.0)
        assert mode_frequency(2, 1, 1, g) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_monotone_in_each_index(self):
        g = BoxGeometry(1.0, 1.3, 0.8)
        for n in range(1, 4):
            assert mode_frequency(n + 1, 2, 3, g) > mode_frequency(n, 2, 3, g)
            assert mode_frequency(2, n + 1, 3, g) > mode_frequency(2, n, 3, g)
            assert mode_frequency(2, 3, n + 1, g) > mode_frequency(2, 3, n, g)

    def test_em_double_modes_allow_one_zero(self):
        g = BoxGeometry(1.0, 2.0, 4.0)
        assert mode_frequency(1, 1, 0, g) == pytest.approx(PI * math.sqrt(1.0 + 0.25))
        with pytest.raises(ValueError):
            mode_frequency(0, 0, 0, g)


class TestThermalRaw:
    def test_zero_at_t0(self):
        assert thermal_raw(CUBE_2UM, SCALAR, ThermalPoint(0.0)) == 0.0

    def test_pinned_unit_cube_sums(self):
        betas = (2 * PI, 2 * PI, 2 * PI)
        assert _modesum.log_sum(betas, 1e-12) == pytest.approx(X_UNIT_CUBE_T1, rel=1e-9, abs=0)
        doubles = math.fsum(
            _modesum.log_sum(p, 1e-12)
            for p in ((betas[1], betas[2]), (betas[0], betas[1]), (betas[0], betas[2]))
        )
        y = 2.0 * _modesum.log_sum(betas, 1e-12) + doubles
        assert y == pytest.approx(Y_UNIT_CUBE_T1, rel=1e-9, abs=0)

    def test_reduced_variable_invariance(self):
        # (a,b,c,T) and (2a,2b,2c,T/2) share the X value exactly, and the
        # row's thermal_raw, E0 and the subtractions scaling too, to rounding
        tp1 = ThermalPoint(300.0)
        tp2 = ThermalPoint(150.0)
        g2 = CUBE_2UM.scaled(2.0)
        assert 2.0 * direct_raw(g2, SCALAR, tp2) == direct_raw(CUBE_2UM, SCALAR, tp1)
        raw1 = thermal_raw(CUBE_2UM, SCALAR, tp1)
        raw2 = thermal_raw(g2, SCALAR, tp2)
        assert 2.0 * raw2 == pytest.approx(raw1, rel=1e-12, abs=0)

    def test_vanishes_faster_than_any_power_at_low_t(self):
        g = BoxGeometry(1e-6, 1e-6, 1e-6)
        vals = []
        for T in (40.0, 20.0, 10.0):
            tp = ThermalPoint(T)
            vals.append(abs(thermal_raw(g, SCALAR, tp)) / tp.kt**5)
        # |raw| / (kT)^5 still decreases as T drops: stronger than power law
        assert vals[0] > vals[1] > vals[2]

    def test_em_exceeds_twice_scalar_in_magnitude(self):
        # Y = 2X + three negative double sums
        raw_s = thermal_raw(CUBE_2UM, SCALAR, TP300)
        raw_e = thermal_raw(CUBE_2UM, EM, TP300)
        assert raw_e < 2.0 * raw_s < 0.0

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_is_the_rows_cell(self, monkeypatch, field):
        # the 1 um cube in the direct form (300 K, 3 kK) and the Matsubara
        # form (30 kK, 160 kK): the row's cell, summed by no lattice of its
        # own, within tol of the direct mode sum
        g = BoxGeometry(1e-6, 1e-6, 1e-6)
        for temperature in (300.0, 3000.0, 30e3, 160e3):
            tp = ThermalPoint(temperature)
            direct = direct_raw(g, field, tp)
            cell = free_energy(g, field, tp).thermal_raw
            with monkeypatch.context() as m:
                for module, name in ((_modesum, "_lattice_sums"), (_matsubara, "_image_sums")):
                    m.setattr(module, name, None)
                assert thermal_raw(g, field, tp) == cell
            assert cell == pytest.approx(direct, rel=thermal.DEFAULT_TOL, abs=0)

    def test_budget_exhaustion(self):
        hot = ThermalPoint(5000.0)
        big = BoxGeometry(50e-6, 50e-6, 50e-6)
        # the message states the estimated points and the budget
        match = r"needs about \S+ lattice points, budget 1000$"
        with pytest.raises(ConvergenceError, match=match):
            direct_raw(big, SCALAR, hot, max_points=1000)

    @pytest.mark.parametrize("series", [_modesum.log_sum, _modesum.force_sum, _modesum.energy_sum])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 0.5])
    def test_mode_sums_reject_bad_tol(self, series, tol):
        with pytest.raises(ValueError, match="tol"):
            series((1.0, 2.0, 3.0), tol)
        with pytest.raises(ValueError, match="tol"):
            series((1.0, 2.0), tol)

    def test_float_budget_raises_after_the_int_row(self):
        # the row cache keys on types too: 5e6 == 5000000 must not hit the
        # row summed with the int budget and skip the check
        free_energy(CUBE_2UM, EM, TP300, 1e-10, DEFAULT_BUDGET)
        with pytest.raises(ValueError, match="budget"):
            free_energy(CUBE_2UM, EM, TP300, 1e-10, float(DEFAULT_BUDGET))

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 1e6, 0, -5])
    def test_bad_budget_raises_before_any_sum(self, budget):
        # a NaN budget would pass every `points > budget` check
        with pytest.raises(ValueError, match="budget"):
            free_energy(CUBE_2UM, EM, TP300, 1e-10, budget)
        with pytest.raises(ValueError, match="budget"):
            _modesum.lattice_sums((1.0, 2.0, 3.0), 1e-10, budget)


def brute_mode_sum(kernel, betas, cutoff):
    """Fixed-cutoff sum of a mode kernel over m_i = 1..cutoff on every axis."""
    axes = np.meshgrid(*[np.arange(1, cutoff + 1, dtype=float)] * len(betas), indexing="ij")
    r = np.sqrt(sum((b * m) ** 2 for b, m in zip(betas, axes)))
    if kernel == "force":
        terms = axes[0] ** 2 / (r * np.expm1(r))
    else:
        terms = r / np.expm1(r)
    return math.fsum(terms.ravel())


class TestShellSum:
    # anisotropic lattices; each cutoff keeps every point with r below 50,
    # so the brute-force truncation is below 1e-18 of the sum
    TRIPLE = (1.1, 1.9, 3.7)
    PAIRS = ((0.45, 1.7), (3.7, 0.6))
    TOL = 1e-12

    def test_log_triple_against_direct_sum(self):
        direct = validate._oracle_x(self.TRIPLE, 50)
        assert _modesum.log_sum(self.TRIPLE, self.TOL) == pytest.approx(direct, rel=1e-11, abs=0)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_log_pair_against_direct_sum(self, pair):
        direct = validate._oracle_log_double(*pair, 120)
        assert _modesum.log_sum(pair, self.TOL) == pytest.approx(direct, rel=1e-11, abs=0)

    @pytest.mark.parametrize("kernel", ["force", "energy"])
    @pytest.mark.parametrize("betas", [TRIPLE, *PAIRS])
    def test_force_and_energy_against_brute_force(self, kernel, betas):
        series = getattr(_modesum, f"{kernel}_sum")
        direct = brute_mode_sum(kernel, betas, 50 if len(betas) == 3 else 120)
        assert series(betas, self.TOL) == pytest.approx(direct, rel=1e-11, abs=0)

    def test_em_lattices_against_direct_sums(self):
        # 2 x triple + the three one-zero-index lattices; the force keeps
        # only the two lattices that contain the a axis
        ba, bb, bc = self.TRIPLE
        sums = thermal._mode_sums(EM, self.TRIPLE, self.TOL, 10**7)[0]
        assert sums["log"] == pytest.approx(validate._oracle_y(self.TRIPLE, 50), rel=1e-11, abs=0)
        force = sums["force"]
        direct = math.fsum(
            [
                2.0 * brute_mode_sum("force", self.TRIPLE, 50),
                brute_mode_sum("force", (ba, bb), 120),
                brute_mode_sum("force", (ba, bc), 120),
            ]
        )
        assert force == pytest.approx(direct, rel=1e-11, abs=0)


def long_double_terms(kernel, n, r):
    """|kernel| at lattice radii r (long double, so exp(-1500) does not underflow)."""
    if kernel == "log":
        return -np.log1p(-np.exp(-r))
    if kernel == "energy":
        return r / np.expm1(r)
    return n * n / (r * np.expm1(r))


def integral_test_bound(kernel, betas, radius):
    """(pi/2) A [R^k e^-R (R^d - (R - r1)^d)/d + Gamma(d + k, R)] / prod beta,
    with mpmath's Gamma(s, x)."""
    import mpmath

    k, s = {"log": (0, 0), "energy": (1, 0), "force": (1, 2)}[kernel]
    d = len(betas)
    r1 = mpmath.sqrt(sum(mpmath.mpf(b) ** 2 for b in betas))
    big = mpmath.mpf(radius)
    a = mpmath.mpf(betas[0]) ** -s / (1 - mpmath.exp(-r1))
    shell = big**k * mpmath.exp(-big) * (big**d - max(big - r1, 0) ** d) / d
    bound = mpmath.pi / 2 * a * (shell + mpmath.gammainc(d + k, big)) / mpmath.fprod(betas)
    return np.longdouble(mpmath.nstr(bound, 25))


class TestCutoffBound:
    """In the direct form, the lattice points beyond the cutoff radius sum to
    at most the integral-test bound, and that bound meets tol times the
    first term."""

    EXTRA = 15.0  # the brute-force tail stops at R + EXTRA

    def check(self, kernel, betas, tol):
        betas = tuple(betas)
        # as the library computes it: a root of the summed squares can be an
        # ulp below, and pass the radius of a lattice summed as 0
        r1 = math.hypot(*betas)
        assume(r1 <= 745.0)
        res = form_sums("direct", betas, tol, kernels=(kernel,))
        radius = res.radius
        # a first term that underflows to 0 is summed as 0, with no cutoff
        assume(radius > r1)
        cut = radius + self.EXTRA
        axes = np.meshgrid(
            *[np.arange(1, int(cut / b) + 1, dtype=np.longdouble) for b in betas], indexing="ij"
        )
        r = np.sqrt(sum((np.longdouble(b) * m) ** 2 for b, m in zip(betas, axes)))
        beyond = (r > radius) & (r <= cut)
        tail = long_double_terms(kernel, axes[0][beyond], r[beyond]).sum()
        bound = integral_test_bound(kernel, betas, radius)
        assert tail <= bound
        # the library's first term is a double: below the normal range
        # exp(-r1) is off by up to a subnormal step, which the energy kernel
        # multiplies by r1
        first = long_double_terms(kernel, 1, np.longdouble(r1)) + (r1 + 2) * math.ulp(0.0)
        assert bound <= tol * first * (1 + 1e-9)
        if bound > 1e-300:
            assert res.bounds[kernel] == pytest.approx(float(bound), rel=1e-9, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.sampled_from(["log", "energy", "force"]),
        betas=st.lists(st.floats(min_value=1.0, max_value=8.0), min_size=3, max_size=3),
        tol=st.floats(min_value=1e-12, max_value=1e-3),
    )
    def test_triple_lattices(self, kernel, betas, tol):
        self.check(kernel, betas, tol)

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.sampled_from(["log", "energy", "force"]),
        betas=st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=2, max_size=2),
        tol=st.floats(min_value=1e-12, max_value=1e-3),
    )
    def test_pair_lattices(self, kernel, betas, tol):
        self.check(kernel, betas, tol)

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.sampled_from(["log", "energy", "force"]),
        betas=st.lists(st.floats(min_value=60.0, max_value=740.0), min_size=2, max_size=3),
        tol=st.floats(min_value=1e-12, max_value=1e-3),
    )
    @example(kernel="log", betas=[720.0, 72.0, 72.0], tol=1e-10)
    @example(kernel="force", betas=[72.0, 720.0], tol=1e-10)
    @example(kernel="force", betas=[60.0, 308.7005058657657, 668.75], tol=0.0009967413810998641)
    def test_subnormal_first_terms(self, kernel, betas, tol):
        # near r1 = 745 the first term, and tol times it, are subnormal
        self.check(kernel, betas, tol)


class TestDualForm:
    """The Poisson-resummed dual form sums the same lattices as the direct
    form: the two agree to within their returned bounds plus the roundoff
    of each.  Every term carries a few ulps of its own (exp, log1p, and
    K_0, K_1 within 2e-15), so eps times the sum of |term| of both forms
    does not bound it: 16000 random lattices over these strategies' ranges
    reached 1.18 times that.  The allowance is 4 times it."""

    KERNELS = ("log", "energy", "force")
    BOXES_UM = {"cube": (2.0, 2.0, 2.0), "slab": (1.0, 10.0, 10.0), "bar": (10.0, 1.0, 1.0)}
    # the slab's direct form at 10 kK needs 1.04e7 points, past DEFAULT_BUDGET
    BUDGET = 50_000_000

    def check(self, betas, tol, tighten=1.0):
        direct = form_sums("direct", betas, tol, self.BUDGET, self.KERNELS, tighten)
        dual = form_sums("dual", betas, tol, self.BUDGET, self.KERNELS, tighten)
        assert (direct.form, dual.form) == ("direct", "dual")
        for name in self.KERNELS:
            allowed = (direct.bounds[name] + dual.bounds[name]
                       + 4.0 * EPS * (direct.scale[name] + dual.scale[name]))
            assert abs(direct.sums[name] - dual.sums[name]) <= allowed
        return dual

    @settings(max_examples=25, deadline=None)
    @given(betas=st.lists(st.floats(min_value=0.3, max_value=4.0), min_size=3, max_size=3),
           tol=st.floats(min_value=1e-12, max_value=1e-4))
    def test_triple_lattices(self, betas, tol):
        self.check(betas, tol)

    @settings(max_examples=25, deadline=None)
    @given(betas=st.lists(st.floats(min_value=0.1, max_value=6.0), min_size=2, max_size=2),
           tol=st.floats(min_value=1e-12, max_value=1e-3))
    def test_pair_lattices(self, betas, tol):
        self.check(betas, tol)

    @pytest.mark.parametrize("temperature", [3000.0, 5000.0, 10000.0])
    @pytest.mark.parametrize("box", list(BOXES_UM))
    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_benchmark_boxes(self, field, box, temperature):
        g = BoxGeometry(*(s * 1e-6 for s in self.BOXES_UM[box]))
        for _, lattice, _ in thermal._lattices(field, ThermalPoint(temperature).reduced(g)):
            self.check(lattice, 1e-10)

    @pytest.mark.parametrize("name", ["triple", "l, p"])
    def test_wide_box_lattices(self, name):
        # the 1 x 1000 x 1000 um box at 300 K, electromagnetic: its triple
        # lattice (9.9e6 direct points) takes the dual form at the default
        # budget, its (l, p) lattice (2.5e6) the direct form
        betas = ThermalPoint(300.0).reduced(BoxGeometry(1e-6, 1e-3, 1e-3))
        lattice = betas if name == "triple" else betas[1:]
        assert _modesum.lattice_sums(lattice, 1e-10).form == (
            "dual" if name == "triple" else "direct")
        self.check(lattice, 1e-10)

    def test_tighten_cuts_every_bound(self):
        betas = (0.72, 0.5, 0.3)
        loose = self.check(betas, 1e-8)
        tight = self.check(betas, 1e-8, tighten=50.0)
        for name in self.KERNELS:
            assert tight.bounds[name] <= loose.bounds[name] / 50.0

    def test_low_temperature_lattices_sum_directly(self):
        states = [(sides, t) for sides in self.BOXES_UM.values() for t in THERMO_TEMPS_LOW]
        # the command-line calls of the benchmark: the 2 um cube up to 600 K
        states += [((2.0, 2.0, 2.0), t) for t in np.linspace(25.0, 600.0, 24)]
        for sides, temperature in states:
            betas = ThermalPoint(temperature).reduced(BoxGeometry(*(s * 1e-6 for s in sides)))
            for _, lattice, _ in thermal._lattices(EM, betas):
                assert _modesum.lattice_sums(lattice, 1e-10).form == "direct"

    def test_hot_slab_sums_in_the_dual_form(self):
        betas = ThermalPoint(10000.0).reduced(BoxGeometry(1e-6, 10e-6, 10e-6))
        res = _modesum.lattice_sums(betas, 1e-10)
        assert res.form == "dual"
        # about 700 dual terms stand for the direct form's 1e7 lattice points
        match = r"needs about \S+ lattice points, budget 300$"
        with pytest.raises(ConvergenceError, match=match):
            _modesum.lattice_sums(betas, 1e-10, max_points=300)

    def test_huge_lattice_raises_at_once(self):
        # a 1 cm cube at 10 kK: 2e5 dual rows, past the dual form's cap, and
        # 1e16 direct points, past the budget
        with pytest.raises(ConvergenceError, match="lattice points"):
            _modesum.lattice_sums((7.2e-5, 7.2e-5, 7.2e-5), 1e-10)

    @pytest.mark.parametrize("betas", [(7.2e-21,) * 3, (1e-17, 1e-17)])
    @pytest.mark.parametrize("sums", ["lattice_sums", "_direct_sums", "_dual_sums"])
    def test_overflowing_first_terms_raise(self, sums, betas):
        # exp(-r1) rounds to 1: the first terms are inf, and neither form
        # can meet a target tol times them
        call = {"lattice_sums": _modesum.lattice_sums,
                "_direct_sums": functools.partial(form_sums, "direct"),
                "_dual_sums": functools.partial(form_sums, "dual")}[sums]
        with pytest.raises(ConvergenceError, match="needs about inf lattice points"):
            call(betas, 1e-10)

    @pytest.mark.parametrize("betas", [(1e-8,) * 3, (1e-8, 1e-8)])
    def test_force_alone_of_a_huge_lattice_raises_at_once(self, betas):
        # the force's first term, 1/r1^2, exceeds 1/tol: its target's depth
        # is negative, and the dual form's first cut of at least 4 would
        # keep 4e8 rows
        with pytest.raises(ConvergenceError, match="lattice points"):
            _modesum.lattice_sums(betas, 1e-10, kernels=("force",))

    def test_every_dual_plan_runs(self, monkeypatch):
        # over the benchmark's thermo rows at the default budget, and the
        # wide boxes whose triple lattice exceeds it at 300 K, the form
        # choice never plans a dual cut that it then does not evaluate; the
        # benchmark's rows plan none, the Matsubara form taking the hot ones
        from casimirbox import _dualsum

        calls = {"plan": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(_dualsum, name, counted(name, getattr(_dualsum, name)))
        for sides in self.BOXES_UM.values():
            geom = BoxGeometry(*(s * 1e-6 for s in sides))
            for field in (SCALAR, EM):
                for temperature in THERMO_TEMPS_LOW + THERMO_TEMPS_HIGH:
                    thermal._row(geom, field, ThermalPoint(temperature),
                                 thermal.DEFAULT_TOL, DEFAULT_BUDGET)
        assert calls["plan"] == 0
        for side in (1000e-6, 3000e-6):
            thermal._row(BoxGeometry(1e-6, side, side), EM, TP300,
                         thermal.DEFAULT_TOL, DEFAULT_BUDGET)
        assert calls["plan"] > 0
        assert calls["plan"] == calls["evaluate"]

    def test_budget_below_the_direct_count_takes_the_dual_form(self):
        # the 2 um cube at 3 kK: about 1.6e4 direct points, within the
        # default budget, and 3.1e3 dual terms
        betas = ThermalPoint(3000.0).reduced(CUBE_2UM)
        assert _modesum.lattice_sums(betas, 1e-10).form == "direct"
        assert _modesum.lattice_sums(betas, 1e-10, max_points=10_000).form == "dual"

    def test_slabs_run_along_the_largest_beta(self, monkeypatch):
        # the 10 x 1 x 1 um bar's (a, b) lattice at 500 K: 33 slabs of one to
        # three points along a, 3 along b at tol 1e-12; the force's gradient
        # then takes each point's own index on a
        betas = (1.4390, 14.390)
        chunks = []
        real = _modesum._chunks

        def spy(*args):
            for squares in real(*args):
                chunks.append([np.sqrt(sq) for sq in squares])
                yield squares

        monkeypatch.setattr(_modesum, "_chunks", spy)
        res = _modesum.lattice_sums(betas, 1e-12)
        # one chunk of every slab: its first axis runs over the slabs along
        # b, its second along a
        [(slabs, rows)] = chunks
        assert len(slabs) == int(res.radius / betas[1]) == 3
        assert slabs / betas[1] == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)
        assert rows / betas[0] == pytest.approx(np.arange(1.0, len(rows) + 1.0), rel=1e-15)
        for kernel in ("force", "energy"):
            direct = brute_mode_sum(kernel, betas, 40)
            assert res.sums[kernel] == pytest.approx(direct, rel=1e-11, abs=0)

    def test_slab_lattice_peak_memory(self):
        # the 1 x 10 x 10 um box's triple lattice at 2 kK, about 7e4 points,
        # the largest that a benchmark row sums directly: summed in chunks,
        # its traced peak is about 0.7 MB, against 4.0 MB in one chunk
        betas = ThermalPoint(2000.0).reduced(BoxGeometry(1e-6, 10e-6, 10e-6))
        _modesum.lattice_sums(betas, 1e-10)
        tracemalloc.start()
        try:
            _modesum.lattice_sums(betas, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    @pytest.mark.parametrize("sides_um", [(1.0, 10.0, 10.0), (2.0, 2.0, 2.0)])
    def test_direct_cut_is_anchored_at_the_first_point(self, sides_um):
        # at 10 K the first point's radius r1 is 727 (slab) and 623 (cube);
        # the cut once sat near 2 r1 + 23
        betas = ThermalPoint(10.0).reduced(BoxGeometry(*(s * 1e-6 for s in sides_um)))
        res = _modesum.lattice_sums(betas, 1e-10)
        assert res.radius - math.hypot(*betas) < 30.0


class TestMatsubaraForm:
    """The renormalized Matsubara form of a row against the direct form,
    and its classical part."""

    BOXES_UM = {"cube": (2.0, 2.0, 2.0), "slab": (1.0, 10.0, 10.0), "bar": (10.0, 1.0, 1.0)}

    @staticmethod
    def totals(row, tp):
        return (row.free.total, row.internal, row.entropy * tp.kt, row.force)

    @pytest.mark.parametrize("box", list(BOXES_UM))
    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_overlap_agrees_with_the_direct_form(self, field, box):
        # max t_i from 0.5 down to 0.1: F, U, S and the force agree to 1e-10
        # of each total (measured: 9.3e-12 at most, the slab's U at t = 0.11,
        # where the direct form cancels 1900-fold)
        g = BoxGeometry(*(s * 1e-6 for s in self.BOXES_UM[box]))
        shortest = min(g.sides)
        for t in (0.5, 0.3, 0.2, 0.1):
            tp = ThermalPoint(HBAR_C / (2.0 * shortest * K_BOLTZMANN * t))
            matsubara = self.totals(thermal._matsubara_row(g, field, tp, 1e-10, DEFAULT_BUDGET), tp)
            direct = self.totals(thermal._direct_row(g, field, tp, 1e-12, 50_000_000), tp)
            for m, d in zip(matsubara, direct):
                assert abs(m - d) <= 1e-10 * abs(d)

    @pytest.mark.parametrize("field, c1, c0, trace, lattices", [
        (SCALAR, 0.125, 0.19353203225868, (0.125, -0.125, 0.125),
         lambda ba, bb, bc, k: [(1, (ba, bb, bc), k)]),
        (EM, -0.5, -0.52830442627597, (0.25, 0.0, -0.25),
         lambda ba, bb, bc, k: [(2, (ba, bb, bc), k), (1, (bb, bc), k[:2]), (1, (ba, bb), k),
                                (1, (ba, bc), k)])])
    def test_unit_cube_classical_constants(self, field, c1, c0, trace, lattices):
        # c1 is minus the heat trace's constant term; c0 as measured from
        # the rows at 3 - 10 kK to 1e-13.  The heat trace expanded from the
        # mode lattices: each product of 3, 2 and 1 axis traces has the
        # coefficient in `trace`, and the direct form's lattices are the
        # ones written out by hand before the table, in their order
        spectrum = boxzero._spectrum(field)
        assert spectrum.c1 == c1
        for d in (3, 2, 1):
            for axes in itertools.combinations(range(3), d):
                assert spectrum.trace.get(axes, 0.0) == trace[3 - d]
        cube = BoxGeometry(1.0, 1.0, 1.0)
        betas = ThermalPoint(300.0).reduced(cube)
        assert thermal._lattices(field, betas) == lattices(*betas, _modesum._KERNELS)
        assert thermal._classical(cube, field, 1e-10, DEFAULT_BUDGET)[0] == pytest.approx(
            c0, rel=0, abs=1e-13)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_cube_force_law(self, field):
        # -dF/da of kT (c1 ln(kT a) + c0) for a cube is -c1 kT/(3 L), up to
        # images below exp(-2 pi/t); the direct form was 3.6e-10 off at
        # t = 3.8e-3
        side = 2e-6
        cube = BoxGeometry(side, side, side)
        for t in (0.1, 0.05, 0.01, 3.8e-3):
            tp = ThermalPoint(HBAR_C / (2.0 * side * K_BOLTZMANN * t))
            law = -boxzero._spectrum(field).c1 / 3.0
            assert side * force_x(cube, field, tp) / tp.kt == pytest.approx(law, rel=0, abs=1e-12)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    @pytest.mark.parametrize("sides_um", [(1.0, 1.0, 1.0), (1.0, 10.0, 10.0)])
    def test_hot_rows_end_within_tol(self, field, sides_um):
        # at 100 - 160 kK the direct form's floors reached 2390 times
        # tol |total| (the slab's U at 160 kK)
        g = BoxGeometry(*(s * 1e-6 for s in sides_um))
        for temperature in (100e3, 130e3, 160e3):
            tp = ThermalPoint(temperature)
            row = thermal._row(g, field, tp, 1e-10, DEFAULT_BUDGET)
            for floor, total in zip(row.floors, self.totals(row, tp)):
                assert floor <= 1e-10 * abs(total)

    def test_sweep_computes_c0_once_and_sums_no_mode_lattice(self, monkeypatch):
        calls = {"zeta_prime": 0, "lattice_sums": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_matsubara, "zeta_prime", counted("zeta_prime", _matsubara.zeta_prime))
        monkeypatch.setattr(_modesum, "_lattice_sums",
                            counted("lattice_sums", _modesum._lattice_sums))
        thermal._box_parts.cache_clear()
        thermal._row.cache_clear()
        g = BoxGeometry(2e-6, 2e-6, 2e-6)
        for field in (SCALAR, EM):
            calls.update(zeta_prime=0, lattice_sums=0)
            # the benchmark's temperatures: max t_i = 0.57 at 1 kK, 0.29 at 2 kK
            for temperature in THERMO_TEMPS_LOW + THERMO_TEMPS_HIGH:
                tp = ThermalPoint(temperature)
                before = calls["lattice_sums"]
                free_energy(g, field, tp)
                force_x(g, field, tp)
                if tp.reduced_t(g.a) <= 0.5:
                    assert calls["lattice_sums"] == before
            assert calls["zeta_prime"] == 1
        # a sweep that stays in the direct form never computes c0
        calls.update(zeta_prime=0)
        for temperature in THERMO_TEMPS_LOW:
            free_energy(BoxGeometry(1e-6, 2e-6, 3e-6), EM, ThermalPoint(temperature))
        assert calls["zeta_prime"] == 0


    @pytest.mark.parametrize("field, sides_um, sums", [
        (SCALAR, (2.0, 2.0, 2.0), 3), (EM, (2.0, 2.0, 2.0), 2), (SCALAR, (1.0, 10.0, 10.0), 5)
    ], ids=["scalar-cube", "em-cube", "scalar-slab"])
    def test_row_sums_each_image_lattice_once(self, monkeypatch, field, sides_um, sums):
        # products with one coefficient and equal t_i share an image sum: the
        # cube's three pairs and three single axes; the slab's (a, b) and
        # (a, c) pairs and its b and c axes
        series = []

        def spy(name, *args, real=_matsubara._image_sums):
            series.append(name)
            return real(name, *args)

        monkeypatch.setattr(_matsubara, "_image_sums", spy)
        thermal._row.cache_clear()
        g, tp = BoxGeometry(*(s * 1e-6 for s in sides_um)), ThermalPoint(5000.0)
        assert max(tp.reduced_t(s) for s in g.sides) <= thermal._T_CROSS[field]
        free_energy(g, field, tp)
        assert series.count("rho images") == sums

    def test_image_sums_over_budget_name_their_series(self):
        match = r"^c0 log sum: tolerance 1\.000e-10 needs \d+ lattice points, budget 10$"
        with pytest.raises(ConvergenceError, match=match):
            _matsubara.classical((1.0, 2.0, 3.0), SCALAR, 1e-10, 10)
        # the 1 um EM cube at t = 1: E0 and c0 need at most 81 points, rho's
        # images 512
        tp = ThermalPoint(HBAR_C / (2e-6 * K_BOLTZMANN))
        match = r"^rho images: tolerance 1\.000e-10 needs \d+ lattice points, budget 200$"
        with pytest.raises(ConvergenceError, match=match):
            free_energy(BoxGeometry(1e-6, 1e-6, 1e-6), EM, tp, 1e-10, 200)


class TestImageSums:
    """`_modesum`'s lattice sums against brute-force sums, for each kernel
    and lattice they serve: K_3/2 on Z^2 (E0's R pass), the log kernel on
    Z^1 and Z^2 (c0), K_1/2 on Z^1, K_1 on Z^2 and K_3/2 on Z^3 (rho), and
    the log kernel on the orthant of two and three axes (the direct form's
    mode lattices, here the 1 x 2 x 3 um box's at 300 K, electromagnetic)."""

    MODES = {len(lattice): lattice for _, lattice, names in thermal._lattices(
        EM, ThermalPoint(300.0).reduced(BoxGeometry(1e-6, 2e-6, 3e-6))) if "force" in names}

    CALLS = {
        "r": lambda: boxzero._r_pass(0.5, 2.0),
        "c0": lambda: _matsubara.classical((1.0, 2.0, 3.0), SCALAR, 1e-10, DEFAULT_BUDGET),
        "rho": lambda: _matsubara.images((0.5, 0.4, 0.3), SCALAR, 1e-10, DEFAULT_BUDGET),
    }

    @staticmethod
    def first_sums(monkeypatch, call):
        """The arguments, cut radius and result of the first image sum of
        each (series, lattice dimension) that the call makes."""
        seen, radii = {}, []
        radius_for = _modesum._radius_for

        def cut(*args):
            # (radius, bound reached there): keep the radius
            radius, reached = radius_for(*args)
            radii.append(radius)
            return radius, reached

        monkeypatch.setattr(_modesum, "_radius_for", cut)
        for module in (boxzero, _matsubara):
            def spy(series, betas, *rest, real=module._image_sums):
                result = real(series, betas, *rest)
                seen.setdefault((series, len(betas)), (betas, rest, radii[-1], result))
                return result

            monkeypatch.setattr(module, "_image_sums", spy)
        call()
        return seen

    def check_mode_lattice(self, d):
        """The direct form's log sum, and the energy and force read from its
        gradient, against brute-force sums over the orthant j_i >= 1 of the
        log, energy and force kernels: the kept points to roundoff, the
        dropped ones within the returned bounds."""
        betas = self.MODES[d]
        res = _modesum.lattice_sums(betas, 1e-10)
        assert res.form == "direct"
        radius = res.radius
        axes = [np.arange(1.0, np.ceil(2.0 * radius / b) + 1.0) for b in betas]
        j = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        r = np.sqrt(((np.asarray(betas) * j) ** 2).sum(axis=1))
        terms = {"log": np.log1p(-np.exp(-r)), "energy": r / np.expm1(r),
                 "force": j[:, 0] ** 2 / (r * np.expm1(r))}
        dropped = r > radius
        for name, t in terms.items():
            assert res.sums[name] == pytest.approx(math.fsum(t[~dropped]), rel=1e-13, abs=0)
            assert abs(math.fsum(t[dropped])) <= res.bounds[name]

    @pytest.mark.parametrize("call, series, d", [
        ("r", "lattice_r", 2), ("c0", "c0 log sum", 1), ("c0", "c0 log sum", 2),
        ("rho", "rho images", 1), ("rho", "rho images", 2), ("rho", "rho images", 3),
        ("modes", "box mode sum", 2), ("modes", "box mode sum", 3)])
    def test_against_brute_force(self, monkeypatch, call, series, d):
        if call == "modes":
            self.check_mode_lattice(d)
            return
        betas, rest, radius, result = self.first_sums(monkeypatch, self.CALLS[call])[series, d]
        kernel, level = rest[0], rest[3]
        value, slopes, size, points = result
        assert points > 0 and size == abs(value)
        # every j of Z^d minus 0 in a box reaching twice the cut radius
        betas = np.asarray(betas)
        axes = [np.arange(-n, n + 1.0) for n in np.ceil(2.0 * radius / betas)]
        j = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        j = j[(j != 0).any(axis=1)]
        comps = (betas * j) ** 2
        r2 = comps.sum(axis=1)
        f, df = kernel(np.sqrt(r2))
        dropped = r2 > radius * radius
        assert value == pytest.approx(math.fsum(f[~dropped]), rel=1e-13, abs=0)
        assert abs(math.fsum(f[dropped])) <= math.exp(level)
        h = 1e-6
        for i in range(d):
            # the dropped part of beta_i dS/dbeta_i, and a central difference
            assert abs(math.fsum((df * comps[:, i] / r2)[dropped])) <= math.exp(level)
            # of the terms with j_i != 0, the others being constant in beta_i
            moving = j[j[:, i] != 0]
            up, down = betas.copy(), betas.copy()
            up[i] *= 1.0 + h
            down[i] *= 1.0 - h
            sums = [math.fsum(kernel(np.sqrt(((b * moving) ** 2).sum(axis=1)))[0])
                    for b in (up, down)]
            assert slopes[i] == pytest.approx((sums[0] - sums[1]) / (2.0 * h), rel=1e-8, abs=0)

class TestClassicalLimit:
    """The paper's classical limit at high temperature: for the 1 um cube
    F = kT (c0 + c1 ln(kT a)) up to terms of order exp(-2 pi / t), with
    c1 = -zeta(0) of the field's modes and c0 measured at tol 1e-12."""

    CUBE = BoxGeometry(1e-6, 1e-6, 1e-6)
    LAW = {SCALAR: (0.125, 0.19353203225868), EM: (-0.5, -0.52830442627597)}

    def c0(self, field, tp):
        c1 = self.LAW[field][0]
        return free_energy(self.CUBE, field, tp).total / tp.kt - c1 * math.log(tp.kt * 1e-6)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_free_energy_follows_the_law(self, field):
        values = [self.c0(field, ThermalPoint(HBAR_C / (2e-6 * K_BOLTZMANN * t)))
                  for t in (0.05, 0.0625, 0.08, 0.1)]
        assert max(values) - min(values) <= 1e-9
        assert values == pytest.approx([self.LAW[field][1]] * 4, rel=0, abs=1e-11)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_row_at_160_kilokelvin(self, field):
        # t = 0.0072: the direct form would need 4e8 lattice points
        tp = ThermalPoint(160000.0)
        kt, tol = tp.kt, thermal.DEFAULT_TOL
        c1, c0 = self.LAW[field]
        log_kta = math.log(kt * 1e-6)
        free = free_energy(self.CUBE, field, tp)
        internal = internal_energy(self.CUBE, field, tp)
        # the roundoff floors of F, U and S kT: their pieces' sizes plus
        # the sum of |term| of their mode series
        scales = thermal._mode_sums(field, tp.reduced(self.CUBE), tol, DEFAULT_BUDGET)[2]
        modes_u = internal - free.e0_ren + 3.0 * free.bb_term + 2.0 * free.alpha1_term
        modes_u += free.alpha2_term
        bb, a1, a2 = (abs(free.bb_term), abs(free.alpha1_term), abs(free.alpha2_term))
        sizes = (
            abs(free.e0_ren) + abs(free.thermal_raw) + bb + a1 + a2 + kt * scales["log"],
            abs(free.e0_ren) + abs(modes_u) + 3.0 * bb + 2.0 * a1 + a2 + kt * scales["energy"],
            abs(modes_u) + abs(free.thermal_raw) + 4.0 * bb + 3.0 * a1 + 2.0 * a2
            + kt * (scales["log"] + scales["energy"]),
        )
        # F, U = -c1 kT and S kT = -(c0 + c1 + c1 ln(kT a)) kT, in units of
        # kT; U and S cancel their pieces by 5e5
        values = (free.total / kt, internal / kt, entropy(self.CUBE, field, tp))
        laws = (c0 + c1 * log_kta, -c1, -(c0 + c1 + c1 * log_kta))
        for value, law, size in zip(values, laws, sizes):
            floor = thermal._ROUNDOFF * size / kt
            # the accuracy contract: truncation within tol or the roundoff
            # floor, and the roundoff within the floor
            assert abs(value - law) <= max(tol * abs(value), floor) + floor
            assert floor <= 1e-8 * abs(value)
        assert math.isfinite(force_x(self.CUBE, field, tp))


class TestBlackbody:
    def test_zero_at_t0(self):
        assert blackbody_density(ThermalPoint(0.0), SCALAR) == 0.0

    def test_scalar_value_at_unit_kt(self):
        # kT = 1 natural: f = -pi^2/90 = -0.109662...
        tp = ThermalPoint(HBAR_C / K_BOLTZMANN)
        assert tp.kt == pytest.approx(1.0, rel=1e-14, abs=0)
        expected = -(PI**2) / 90.0 * tp.kt**4
        assert blackbody_density(tp, SCALAR) == pytest.approx(expected, rel=1e-14, abs=0)
        assert blackbody_density(tp, SCALAR) == pytest.approx(-0.109662, abs=1e-6)

    def test_em_doubles_scalar(self):
        assert blackbody_density(TP300, EM) == pytest.approx(
            2.0 * blackbody_density(TP300, SCALAR), rel=1e-15
        )

    def test_planck_density_from_em_term(self):
        u = blackbody_internal_density(TP300, EM)
        assert u == pytest.approx(PI**2 * TP300.kt**4 / 15.0, rel=1e-12)

    def test_planck_density_against_finite_differences(self):
        # independent route: u = -T^2 d(f/T)/dT by central differences
        T = 300.0
        h = 1e-4 * T

        def f_over_t(temp):
            return blackbody_density(ThermalPoint(temp), EM) / temp

        d1 = (f_over_t(T + h) - f_over_t(T - h)) / (2.0 * h)
        d2 = (f_over_t(T + h / 2.0) - f_over_t(T - h / 2.0)) / h
        u_fd = -(T**2) * (4.0 * d2 - d1) / 3.0
        assert u_fd == pytest.approx(PI**2 * TP300.kt**4 / 15.0, rel=1e-10)


class TestSubtractionCoefficients:
    def test_scalar_cube(self):
        a = 1.0
        coeffs = subtraction_coeffs(BoxGeometry(a, a, a), SCALAR)
        assert coeffs.alpha1 == pytest.approx(3.0 * ZETA3 * a**2 / (4.0 * PI), rel=1e-15, abs=0)
        assert coeffs.alpha2 == pytest.approx(-PI * a / 8.0, rel=1e-15, abs=0)
        assert coeffs.bb_prefactor == pytest.approx(PI**2 / 90.0, rel=1e-15, abs=0)

    def test_em_has_no_surface_term(self):
        coeffs = subtraction_coeffs(BoxGeometry(1.0, 2.0, 3.0), EM)
        assert coeffs.alpha1 == 0.0
        assert coeffs.alpha2 == pytest.approx(PI * 6.0 / 12.0, rel=1e-15, abs=0)
        assert coeffs.bb_prefactor == pytest.approx(PI**2 / 45.0, rel=1e-15, abs=0)

    def test_heat_kernel_route(self):
        g = BoxGeometry(1.0, 2.0, 3.0)
        a_half, a_one = heat_kernel_coeffs(g)
        surface = 2.0 * (1 * 2 + 2 * 3 + 3 * 1)
        assert a_half == pytest.approx(-math.sqrt(PI) * surface / 2.0, rel=1e-15, abs=0)
        assert a_one == pytest.approx(PI * 6.0, rel=1e-15, abs=0)
        coeffs = subtraction_coeffs(g, SCALAR)
        assert coeffs.alpha1 == pytest.approx(-ZETA3 * a_half / (4.0 * PI**1.5), rel=1e-13, abs=0)
        assert coeffs.alpha2 == pytest.approx(-a_one / 24.0, rel=1e-13, abs=0)

    def test_corner_coefficient_right_angle(self):
        assert corner_coefficient(PI / 2.0) == pytest.approx(PI / 4.0, rel=1e-15, abs=0)

    def test_unit_cube_edge_coefficient(self):
        _, a_one = heat_kernel_coeffs(BoxGeometry(1.0, 1.0, 1.0))
        assert a_one == pytest.approx(3.0 * PI, rel=1e-15, abs=0)


class TestFreeEnergy:
    def test_t0_reduces_to_e0(self):
        fe = free_energy(CUBE_2UM, SCALAR, ThermalPoint(0.0))
        assert fe.total == fe.e0_ren
        assert fe.thermal_raw == fe.bb_term == fe.alpha1_term == fe.alpha2_term == 0.0

    @pytest.mark.parametrize("field", [SCALAR, EM])
    @pytest.mark.parametrize("temperature", [50.0, 300.0, 600.0])
    def test_breakdown_identity(self, field, temperature):
        fe = free_energy(CUBE_2UM, field, ThermalPoint(temperature))
        naive = fe.e0_ren + fe.thermal_raw + fe.bb_term + fe.alpha1_term + fe.alpha2_term
        assert abs(naive - fe.total) <= 4.0 * math.ulp(abs(fe.total))

    def test_scalar_cube_reduced_form(self):
        # independent rewrite in the dimensionless variable t = T_eff/T:
        # F = E0 + (1/(2at)) sum ln(1 - e^{-2 pi t sqrt(n^2+l^2+p^2)})
        #     + pi^2/(1440 a t^4) - 3 zeta3/(32 pi a t^3) + pi/(32 a t^2)
        a = CUBE_2UM.a
        t = TP300.reduced_t(a)
        mode_sum = 0.0
        for n in range(1, 40):
            for l in range(1, 40):
                for p in range(1, 40):
                    r = 2.0 * PI * t * math.sqrt(n * n + l * l + p * p)
                    if r > 700.0:
                        break
                    mode_sum += math.log1p(-math.exp(-r))
        fe = free_energy(CUBE_2UM, SCALAR, TP300)
        reduced = math.fsum(
            [
                fe.e0_ren,
                mode_sum / (2.0 * a * t),
                PI**2 / (1440.0 * a * t**4),
                -3.0 * ZETA3 / (32.0 * PI * a * t**3),
                PI / (32.0 * a * t**2),
            ]
        )
        assert fe.total == pytest.approx(reduced, rel=1e-12)

    def test_em_cube_reduced_form(self):
        # F = E0 + (3/(2at)) sum_{nl} ln(...) + (1/(at)) sum_{nlp} ln(...)
        #     + pi^2/(720 a t^4) - pi/(16 a t^2)
        a = CUBE_2UM.a
        t = TP300.reduced_t(a)
        pair_sum = 0.0
        for n in range(1, 60):
            for l in range(1, 60):
                r = 2.0 * PI * t * math.sqrt(n * n + l * l)
                if r > 700.0:
                    break
                pair_sum += math.log1p(-math.exp(-r))
        triple_sum = 0.0
        for n in range(1, 40):
            for l in range(1, 40):
                for p in range(1, 40):
                    r = 2.0 * PI * t * math.sqrt(n * n + l * l + p * p)
                    if r > 700.0:
                        break
                    triple_sum += math.log1p(-math.exp(-r))
        fe = free_energy(CUBE_2UM, EM, TP300)
        reduced = math.fsum(
            [
                fe.e0_ren,
                3.0 * pair_sum / (2.0 * a * t),
                triple_sum / (a * t),
                PI**2 / (720.0 * a * t**4),
                -PI / (16.0 * a * t**2),
            ]
        )
        assert fe.total == pytest.approx(reduced, rel=1e-12)

    def test_scalar_increases_em_decreases_with_t(self):
        temps = np.linspace(100.0, 600.0, 11)
        f_s = [free_energy(CUBE_2UM, SCALAR, ThermalPoint(float(T))).total for T in temps]
        f_e = [free_energy(CUBE_2UM, EM, ThermalPoint(float(T))).total for T in temps]
        assert np.all(np.diff(f_s) > 0.0)
        assert np.all(np.diff(f_e) < 0.0)

    def test_classical_ratio_approaches_one(self):
        # F(2T) / (2 F(T)) -> 1 as aT doubles: the kT-proportional regime
        a = 1.0
        cube = BoxGeometry(a, a, a)
        gaps = []
        for field in (SCALAR, EM):
            totals = [free_energy(cube, field, tp_for_akt(a, akt)).total for akt in (2, 4, 8, 16)]
            ratios = [totals[i + 1] / (2.0 * totals[i]) for i in range(3)]
            devs = [abs(rr - 1.0) for rr in ratios]
            assert devs[0] > devs[1] > devs[2]
            gaps.append(devs[-1])
        assert max(gaps) < 0.25


class TestForce:
    def test_matches_finite_difference_of_free_energy(self):
        a = 2e-6
        h = 1e-4 * a
        for field in (SCALAR, EM):

            def f_of(aa):
                return free_energy(BoxGeometry(aa, 2e-6, 2e-6), field, TP300).total

            d1 = (f_of(a + h) - f_of(a - h)) / (2.0 * h)
            d2 = (f_of(a + h / 2.0) - f_of(a - h / 2.0)) / h
            fd = -(4.0 * d2 - d1) / 3.0
            assert force_x(CUBE_2UM, field, TP300) == pytest.approx(fd, rel=1e-4)

    def test_scalar_cube_attractive_em_repulsive(self):
        for T in (0.0, 150.0, 300.0, 600.0):
            tp = ThermalPoint(T)
            assert force_x(CUBE_2UM, SCALAR, tp) < 0.0
            assert force_x(CUBE_2UM, EM, tp) > 0.0

    def test_em_force_increases_with_t(self):
        temps = [0.0, 100.0, 200.0, 300.0, 450.0, 600.0]
        vals = [force_x(CUBE_2UM, EM, ThermalPoint(T)) for T in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_temperature_contribution_sign_cases(self):
        # b = c = 10 um: thermal force piece negative at a = 2.942 um,
        # positive at a = 34.29 um, and positive for long boxes a > b
        tp = ThermalPoint(300.0)
        t0 = ThermalPoint(0.0)
        for a_um, expected_sign in ((2.942, -1.0), (34.29, +1.0)):
            g = BoxGeometry(a_um * 1e-6, 10e-6, 10e-6)
            delta = force_x(g, EM, tp) - force_x(g, EM, t0)
            assert math.copysign(1.0, delta) == expected_sign
        for a_um in (11.0, 15.0, 20.0, 30.0, 50.0):
            g = BoxGeometry(a_um * 1e-6, 10e-6, 10e-6)
            delta = force_x(g, EM, tp) - force_x(g, EM, t0)
            assert delta > 0.0

    @pytest.mark.parametrize("field, c1", [(SCALAR, 0.125), (EM, -0.5)])
    @pytest.mark.parametrize("side_um", [20.0, 200.0])
    def test_cube_thermal_force_falls_like_kt_over_side(self, field, c1, side_um):
        # the paper's zero thermal force at infinite size, for cubes: with
        # F_x(0) = E0/(3L) (Euler's identity) and F_x(T) = -c1 kT/(3L) up to
        # order exp(-2 pi/t), L (F_x(T) - F_x(0))/kT = -c1/3 - (2/3) (L E0) t;
        # t = 0.19 and 0.019 at 300 K, where the rows agree to 1.2e-11 and
        # 2.2e-10
        side = side_um * 1e-6
        cube = BoxGeometry(side, side, side)
        thermal_force = force_x(cube, field, TP300) - force_x(cube, field, ThermalPoint(0.0))
        law = -c1 / 3.0 - (2.0 / 3.0) * side * e0(cube, field) * TP300.reduced_t(side)
        assert side * thermal_force / TP300.kt == pytest.approx(law, rel=1e-9, abs=0)

    def test_wide_box_thermal_pressure_tends_to_the_plates(self):
        # the paper's two-plane limit, against a formula the box shares
        # nothing with: for the EM 1 x L x L um box at 300 K the thermal
        # force per face area, (F_x(T) - F_x(0))/L^2, tends to the plates'
        # P(T) - P(0) = -6.46127e19 m^-4.  Its relative deviation is
        # -69.545037950 um^2/L^2 from L = 30 to 3000 um (rate 2.000000 between
        # each pair), so the L^-2 extrapolation from L = 300 and 1000 um is
        # left with roundoff: 1.6e-14, and 2.3e-14 at most over the four
        # pairs, where F_x(T) - F_x(0) cancels about 1300-fold.  The bound
        # is 4x that.
        target = (plates_pressure(PlatesConfig(1e-6, 300.0))
                  - plates_pressure(PlatesConfig(1e-6, 0.0)))
        assert target == pytest.approx(-6.46127e19, rel=1e-6)
        dev = {}
        for side_um in (300.0, 1000.0):
            box = BoxGeometry(1e-6, side_um * 1e-6, side_um * 1e-6)
            thermal_force = force_x(box, EM, TP300) - force_x(box, EM, ThermalPoint(0.0))
            dev[side_um] = thermal_force / (box.b * box.c) / target - 1.0
        assert dev[1000.0] == pytest.approx(-6.9545e-5, rel=1e-4)
        rate = math.log(dev[300.0] / dev[1000.0]) / math.log(1000.0 / 300.0)
        assert rate == pytest.approx(2.0, abs=1e-6)
        extrapolated = (1000.0**2 * dev[1000.0] - 300.0**2 * dev[300.0]) / (1000.0**2 - 300.0**2)
        assert abs(extrapolated) <= 1e-13


    @pytest.mark.parametrize("field, limit", [(EM, 1972855791.73), (SCALAR, -489360881.690)])
    @pytest.mark.parametrize("a_um", [100.0, 300.0])
    def test_long_box_thermal_force_tends_to_the_waveguide(self, field, limit, a_um):
        # the paper's one-side-infinite limit: for b = c = 10 um at 300 K,
        # F_x(T) - F_x(0) tends to minus the waveguide's renormalized thermal
        # free energy per unit length, the K_1 series
        #   -(kT/pi) sum_w w sum_{m>=1} K_1(m w / kT) / m
        # over the cross-section's modes w = pi |(l/b, p/c)| (l, p >= 1 for
        # the scalar; for EM those twice plus the modes with one index 0)
        # plus the a-linear part of the bb, alpha1 and alpha2 subtractions.
        # Summed with scipy.special.k1 it gives +1.9728557917e9 (EM) and
        # -4.8936088169e8 m^-2 (scalar); the box's end corrections fall
        # exponentially in a/b and are below 1.3e-15 from a = 100 um
        box = BoxGeometry(a_um * 1e-6, 10e-6, 10e-6)
        thermal_force = force_x(box, field, TP300) - e0_force_x(box, field)
        assert thermal_force == pytest.approx(limit, rel=1e-9, abs=0)

class TestInternalEnergyAndEntropy:
    def test_u_approaches_e0_at_low_t(self):
        # the residual scales as (kT)^2, so push T low enough
        tp = ThermalPoint(1.0)
        u = internal_energy(CUBE_2UM, SCALAR, tp)
        e0v = e0(CUBE_2UM, SCALAR)
        assert u == pytest.approx(e0v, rel=1e-4)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            internal_energy(CUBE_2UM, SCALAR, ThermalPoint(0.0))
        with pytest.raises(ValueError):
            entropy(CUBE_2UM, SCALAR, ThermalPoint(0.0))

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_u_consistent_with_finite_differences(self, field):
        T = 300.0
        h = 1e-4 * T

        def f_over_t(temp):
            return free_energy(CUBE_2UM, field, ThermalPoint(temp)).total / temp

        d1 = (f_over_t(T + h) - f_over_t(T - h)) / (2.0 * h)
        d2 = (f_over_t(T + h / 2.0) - f_over_t(T - h / 2.0)) / h
        u_fd = -(T**2) * (4.0 * d2 - d1) / 3.0
        assert internal_energy(CUBE_2UM, field, TP300) == pytest.approx(u_fd, rel=1e-4)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_entropy_consistent_with_finite_differences(self, field):
        T = 300.0
        h = 1e-4 * T

        def f_of(temp):
            return free_energy(CUBE_2UM, field, ThermalPoint(temp)).total

        d1 = (f_of(T + h) - f_of(T - h)) / (2.0 * h)
        d2 = (f_of(T + h / 2.0) - f_of(T - h / 2.0)) / h
        s_fd = -(4.0 * d2 - d1) / 3.0 * T / TP300.kt
        assert entropy(CUBE_2UM, field, TP300) == pytest.approx(s_fd, rel=1e-4)

    def test_entropy_vanishes_linearly_at_low_t(self):
        s_vals = [entropy(CUBE_2UM, SCALAR, ThermalPoint(T)) for T in (1.0, 2.0, 4.0)]
        assert abs(s_vals[0]) < abs(s_vals[1]) < abs(s_vals[2])
        # leading behavior linear in T, from the (kT)^2 subtraction term
        assert s_vals[1] / s_vals[0] == pytest.approx(2.0, rel=0.05)

    def test_entropy_increment_bounded_at_high_t(self):
        a = 1.0
        cube = BoxGeometry(a, a, a)
        s_vals = [entropy(cube, SCALAR, tp_for_akt(a, akt)) for akt in (2, 4, 8, 16)]
        increments = [abs(b - a) for a, b in zip(s_vals, s_vals[1:])]
        assert increments[-1] < 2.0 * increments[0] + 1.0


class TestAsymptote:
    def test_scalar_direct_substitution(self):
        # unit cube at kT = 10 natural units: the polynomial, the classical
        # law with the pinned c0, and -E0
        g = BoxGeometry(1.0, 1.0, 1.0)
        tp = tp_for_akt(1.0, 10.0)
        kt = tp.kt
        expected = math.fsum([-PI * kt**2 * 3.0 / 24.0, ZETA3 * 3.0 * kt**3 / (4.0 * PI),
                              -PI**2 * kt**4 / 90.0, kt * (0.125 * math.log(kt) + 0.19353203225868),
                              -e0(g, SCALAR)])
        assert asymptotic_thermal(g, SCALAR, tp) == pytest.approx(expected, rel=1e-13)

    def test_em_has_no_cubic_term(self):
        g = BoxGeometry(1.0, 2.0, 3.0)
        tp = tp_for_akt(1.0, 5.0)
        kt = tp.kt
        c0 = thermal._classical(g, EM, thermal.DEFAULT_TOL, DEFAULT_BUDGET)[0]
        expected = math.fsum([PI * kt**2 * 6.0 / 12.0, -PI**2 * kt**4 * 6.0 / 45.0,
                              kt * (-0.5 * math.log(kt) + c0), -e0(g, EM)])
        assert asymptotic_thermal(g, EM, tp) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_ratio_to_raw_approaches_one(self, field):
        g = BoxGeometry(1.0, 1.0, 1.0)
        devs = []
        for akt in (4.0, 8.0, 16.0):
            tp = tp_for_akt(1.0, akt)
            ratio = direct_raw(g, field, tp) / asymptotic_thermal(g, field, tp)
            devs.append(abs(ratio - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.01

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_raw_less_asymptote_is_exponentially_small(self, field):
        # the difference is kT rho(t), whose nearest images are of order
        # (t^2 / (t_a t_b t_c)) exp(-2 pi/t) at the largest t = t_a; the
        # direct mode sum is summed to 1e-13, below them
        g = BoxGeometry(1.0, 2.0, 3.0)
        for t in (0.5, 0.35, 0.25):
            tp = tp_for_akt(1.0, 1.0 / (2.0 * t))
            diff = direct_raw(g, field, tp, 1e-13) - asymptotic_thermal(g, field, tp)
            image = tp.kt * (6.0 / t) * math.exp(-2.0 * PI / t)
            assert 0.01 * image <= abs(diff) <= 10.0 * image


class TestSubtractionCompleteness:
    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_no_residual_power_growth(self, field):
        # [raw + bb - alpha terms]/kT stays within a small factor over a
        # 16x temperature span (only log growth remains)
        a = 1.0
        cube = BoxGeometry(a, a, a)
        vals = []
        for akt in (1.0, 2.0, 4.0, 8.0, 16.0):
            tp = tp_for_akt(a, akt)
            fe = free_energy(cube, field, tp)
            vals.append(abs((fe.total - fe.e0_ren) / tp.kt))
        assert max(vals) / min(vals) < 5.0


class TestThermoRow:
    # 1 x 10 x 10 um slab at 10 K: the first log-sum term is subnormal and
    # tol times it underflows to 0.  References from a long-double
    # brute-force mode sum and a 30-digit E0 (F, force, U, S).
    SLAB_10K = {
        SCALAR: (-478921.02340869576, -1610611603036.587, -479023.0195240958,
                 -0.023355932567396466),
        EM: (-1301329.322526056, -4046880335378.754, -1301119.6581396814,
             0.048010723258876634),
    }

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_slab_at_10_kelvin(self, field):
        g = BoxGeometry(1e-6, 10e-6, 10e-6)
        tp = ThermalPoint(10.0)
        f_ref, force_ref, u_ref, s_ref = self.SLAB_10K[field]
        assert free_energy(g, field, tp).total == pytest.approx(f_ref, rel=1e-10)
        assert force_x(g, field, tp) == pytest.approx(force_ref, rel=1e-9)
        assert internal_energy(g, field, tp) == pytest.approx(u_ref, rel=1e-10)
        assert entropy(g, field, tp) == pytest.approx(s_ref, rel=1e-10, abs=0)

    # 10 kK, where the totals cancel their mode series by up to 1900x (U),
    # 1400x (force) and 400x (S), so each series alone summed to tol leaves
    # some totals outside it.  (F, force, U, S) from the long-double
    # brute-force mode sums and 30-digit E0 of perfbench/references.json.
    ROWS_10KK = {
        ("cube", SCALAR): (2028206.6150370422, -90979842688.92564, -545879.0561335329,
                           -0.5894358929527805),
        ("cube", EM): (-7039306.373450773, 363919370755.7299, 2183516.224534497,
                       2.111919869052521),
        ("slab", SCALAR): (-3543914.196099883, -15716231457116.979, -545879.0561332697,
                           0.6865154255050172),
        ("slab", EM): (-28708566.50803392, -40681810906351.68, 2183516.2245347123,
                       7.073930201539174),
        ("bar", SCALAR): (3263168.2752100974, -179225620330.83936, -545879.0561336256,
                          -0.8722278516973311),
        ("bar", EM): (-12580535.610952245, 784835181003.523, 2183516.2245342326,
                      3.380797373886019),
    }
    BOXES_UM = {"cube": (2.0, 2.0, 2.0), "slab": (1.0, 10.0, 10.0), "bar": (10.0, 1.0, 1.0)}

    @pytest.mark.parametrize("box, field", list(ROWS_10KK))
    def test_rows_at_10_kilokelvin(self, box, field):
        g = BoxGeometry(*(s * 1e-6 for s in self.BOXES_UM[box]))
        tp = ThermalPoint(10000.0)
        f_ref, force_ref, u_ref, s_ref = self.ROWS_10KK[box, field]
        assert free_energy(g, field, tp).total == pytest.approx(f_ref, rel=1e-10, abs=0)
        assert force_x(g, field, tp) == pytest.approx(force_ref, rel=1e-10, abs=0)
        assert internal_energy(g, field, tp) == pytest.approx(u_ref, rel=1e-10, abs=0)
        assert entropy(g, field, tp) == pytest.approx(s_ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("field, g, lattices", [
        (EM, CUBE_2UM, [2, 2, 3]),
        (EM, BoxGeometry(1e-6, 2e-6, 3e-6), [2, 2, 2, 3]),
        (SCALAR, CUBE_2UM, [3]),
    ], ids=["em", "em-1x2x3", "scalar"])
    def test_row_enumerates_each_lattice_once(self, monkeypatch, field, g, lattices):
        # the row checks its arguments once and sums each lattice with
        # `_lattice_sums`, which `lattice_sums` calls once it has checked them
        calls = []
        lattice_sums = _modesum._lattice_sums

        def spy(betas, *args, **kwargs):
            calls.append(len(betas))
            return lattice_sums(betas, *args, **kwargs)

        monkeypatch.setattr(_modesum, "_lattice_sums", spy)
        thermal._row.cache_clear()
        tp = ThermalPoint(300.0)
        free_energy(g, field, tp)
        force_x(g, field, tp)
        internal_energy(g, field, tp)
        entropy(g, field, tp)
        # em: the triple lattice and the three one-zero-index lattices, of
        # which the cube's (n, l) and (n, p) are one; its (l, p) lattice has
        # their frequencies but needs no force
        assert sorted(calls) == lattices
        # another temperature, or another tolerance, is another row
        force_x(g, field, ThermalPoint(301.0))
        assert len(calls) == 2 * len(lattices)
        entropy(g, field, tp, tol=1e-11)
        assert len(calls) == 3 * len(lattices)

    def test_sweep_evaluates_zero_temperature_parts_once(self, monkeypatch):
        # one evaluation of E0 and its gradient gives both zero-T parts
        counts = {"e0": 0, "e0_force_x": 0, "e0_and_force_x": 0}
        for name in counts:

            def spy(*args, _name=name, _fn=getattr(thermal, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(thermal, name, spy)
        thermal._box_parts.cache_clear()
        g = BoxGeometry(1e-6, 2e-6, 3e-6)
        for temperature in (100.0, 200.0, 300.0):
            tp = ThermalPoint(temperature)
            free_energy(g, EM, tp)
            force_x(g, EM, tp)
        assert counts == {"e0": 0, "e0_force_x": 0, "e0_and_force_x": 1}

    def test_outputs_do_not_depend_on_call_order(self):
        g, tp = BoxGeometry(1e-6, 2e-6, 3e-6), ThermalPoint(2000.0)

        def row(field, point):
            return (free_energy(g, field, point).total, force_x(g, field, point),
                    internal_energy(g, field, point), entropy(g, field, point))

        first = row(EM, tp)
        row(SCALAR, tp)
        row(EM, ThermalPoint(500.0))
        backwards = (entropy(g, EM, tp), internal_energy(g, EM, tp), force_x(g, EM, tp),
                     free_energy(g, EM, tp).total)
        assert backwards[::-1] == first

    def test_loose_tolerance_zero_temperature_force(self):
        # the finite-difference force this replaced missed its Richardson
        # gate on this box at tol 1e-6; the rest of the row holds to tol too
        g, tp = BoxGeometry(3.5e-6, 3e-6, 4e-6), ThermalPoint(300.0)

        def row(tol):
            return (e0_force_x(g, EM, tol), force_x(g, EM, tp, tol),
                    free_energy(g, EM, tp, tol).total, internal_energy(g, EM, tp, tol),
                    entropy(g, EM, tp, tol))

        ref = row(1e-10)
        for tol in (1e-6, 1e-3):
            assert row(tol) == pytest.approx(ref, rel=tol, abs=0)


#: every public entry point that takes a field, at T > 0 and at T = 0
FIELD_CALLS = {
    "e0": lambda f: e0(CUBE_2UM, f),
    "e0_force_x": lambda f: e0_force_x(CUBE_2UM, f),
    "e0_and_force_x": lambda f: boxzero.e0_and_force_x(CUBE_2UM, f),
    "subtraction_coeffs": lambda f: subtraction_coeffs(CUBE_2UM, f),
    "blackbody_density": lambda f: blackbody_density(TP300, f),
    "blackbody_internal_density": lambda f: blackbody_internal_density(TP300, f),
    "free_energy": lambda f: free_energy(CUBE_2UM, f, TP300),
    "free_energy_0K": lambda f: free_energy(CUBE_2UM, f, ThermalPoint(0.0)),
    "force_x": lambda f: force_x(CUBE_2UM, f, TP300),
    "force_x_0K": lambda f: force_x(CUBE_2UM, f, ThermalPoint(0.0)),
    "thermal_raw": lambda f: thermal_raw(CUBE_2UM, f, TP300),
    "thermal_raw_0K": lambda f: thermal_raw(CUBE_2UM, f, ThermalPoint(0.0)),
    "internal_energy": lambda f: internal_energy(CUBE_2UM, f, TP300),
    "entropy": lambda f: entropy(CUBE_2UM, f, TP300),
    "asymptotic_thermal": lambda f: asymptotic_thermal(CUBE_2UM, f, TP300),
}


@pytest.mark.parametrize("field", ["em", None])
@pytest.mark.parametrize("call", FIELD_CALLS)
def test_unknown_field_raises(call, field):
    # the field's table is looked up before anything else: an unknown field
    # was read as the scalar by blackbody_density, and made the thermal rows
    # raise KeyError
    with pytest.raises(ValueError, match="unknown field kind"):
        FIELD_CALLS[call](field)
