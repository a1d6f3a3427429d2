import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirbox import boxzero, validate
from casimirbox.boxzero import (
    BoxGeometry,
    FieldKind,
    e0,
    e0_force_x,
    lattice_g,
    lattice_r,
)
from casimirbox.errors import MAX_LENGTH, MIN_LENGTH, ConvergenceError

# Values pinned by the brute-force oracles (data/fixtures.txt).
G_AT_1 = -0.00015759119922071813
G_AT_05 = -0.0058094704979067477
R_AT_1_1 = 0.00056261669556531427
R_AT_05_2 = 0.031068092091045208
E0_SCALAR_CUBE = -0.015732182509969574
E0_EM_CUBE = 0.091657427012351828
E0_SCALAR_1_5_5 = -0.084501410845179842
# validate._oracle_g(0.01, 4000)
G_AT_001 = -74.05856652484053
# mpmath.diff at 30 digits of the brute-force sums of validate._oracle_g
# (cutoff 300) and _oracle_r (cutoff 60), kept in mpmath, not rounded to double
DG = {0.5: 0.04606283939985877, 1.0: 0.0010803003298411689, 1.5: 3.617239028133647e-05,
      2.0: 1.322196908903806e-06}
DR = {
    (1.0, 1.0): (-0.0018378034458332196, -0.0018378034458332196),
    (0.5, 2.0): (-0.2890109906668777, 0.015531810527809997),
    (1.0, 100.0): (-0.20223462386115265, 0.0002716434741837128),
}

SCALAR = FieldKind.SCALAR_DIRICHLET
EM = FieldKind.ELECTROMAGNETIC

# -dE0/da of the benchmark's aspect_scan boxes: mpmath.diff at 40 digits of E0
# assembled in mpmath from the brute-force G and R sums of validate (cutoff
# 120), sides ascending.  At a = 10^(k/4), b = c = 1, for k = -8 .. 8:
ASPECT_FORCES = {
    "scalar": [
        -2008666.5082911355, -197215.03118226974, -19081.936338058178,
        -1797.5576791722694, -161.06092619962135, -13.091316311762629,
        -0.8709523457940974, -0.04011073718080008, -0.005244060836656525,
        -0.0048318332730646575, -0.004831545707549018, -0.004831545706589417,
        -0.004831545706589417, -0.004831545706589417, -0.004831545706589417,
        -0.004831545706589417, -0.004831545706589417,
    ],
    "em": [
        -4111680.6686510677, -411026.5461231857, -41057.90182425588,
        -4091.6381082334897, -404.68853201707776, -39.053645782497874,
        -3.4578364641919843, -0.20401307533599883, 0.03055247567078395,
        0.038128863602150564, 0.03816522875117446, 0.038165233090716844,
        0.03816523309071746, 0.03816523309071746, 0.03816523309071746,
        0.03816523309071746, 0.03816523309071746,
    ],
}
ASPECT_EXTRA_FORCES = {
    ((1.0, 2.0, 3.0), "scalar"): -0.03651978501406513,
    ((1.0, 2.0, 3.0), "em"): -0.18127380788842296,
    ((1.0, 100.0, 1.0), "scalar"): 0.4728944213229174,
    ((1.0, 100.0, 1.0), "em"): -3.7510734621219584,
    ((1.0, 1.0, 100.0), "scalar"): 0.4728944213229174,
    ((1.0, 1.0, 100.0), "em"): -3.7510734621219584,
}
ASPECT_CASES = [
    ((10.0 ** (k / 4), 1.0, 1.0), field, ref)
    for field, refs in ASPECT_FORCES.items()
    for k, ref in zip(range(-8, 9), refs)
] + [(sides, field, ref) for (sides, field), ref in ASPECT_EXTRA_FORCES.items()]


class TestLatticeG:
    def test_pinned_values(self):
        assert lattice_g(1.0) == pytest.approx(G_AT_1, rel=1e-9, abs=0)
        assert lattice_g(0.5) == pytest.approx(G_AT_05, rel=1e-9, abs=0)

    def test_far_tail_negligible(self):
        # every term carries exp(-2 pi * 10 * n l)
        assert abs(lattice_g(10.0)) < 1e-25

    def test_negative_for_moderate_z(self):
        for z in (0.2, 0.5, 1.0, 2.0):
            assert lattice_g(z) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lattice_g(0.0)
        with pytest.raises(ValueError):
            lattice_g(-1.0)

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            lattice_g(1e-5, max_terms=100)

    def test_budget_message_states_terms_and_budget(self):
        match = r"^lattice_g: tolerance 1\.000e-10 needs \d+ lattice points, budget 100$"
        with pytest.raises(ConvergenceError, match=match):
            lattice_g(1e-5, max_terms=100)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 0.5])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            lattice_g(1.0, tol)

    def test_small_argument_matches_30_digit_oracle(self):
        # validate._oracle_g(0.01, 4000), about 4000 points of K_1
        assert lattice_g(0.01) == pytest.approx(G_AT_001, rel=1e-12, abs=0)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5, 2.0])
    def test_derivative_matches_differentiated_oracle(self, z):
        # at tol 1e-10 the cut may leave 5e-12 of dG/dz (z = 1.5); the
        # formula is checked here, the default cut by the test below
        assert boxzero._g_pass(z, 1e-14)[1] == pytest.approx(DG[z], rel=1e-13, abs=0)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5, 2.0])
    def test_derivative_within_tol_at_the_default_cut(self, z):
        assert boxzero._g_pass(z)[1] == pytest.approx(DG[z], rel=1e-10, abs=0)


class TestLatticeR:
    def test_pinned_values(self):
        assert lattice_r(1.0, 1.0) == pytest.approx(R_AT_1_1, rel=1e-9, abs=0)
        assert lattice_r(0.5, 2.0) == pytest.approx(R_AT_05_2, rel=1e-9)

    # (0.9999, 1) is the argument e0_force_x passes for a unit cube
    @pytest.mark.parametrize("z1, z2", [(1.0, 1.0), (0.5, 2.0), (1.0, 100.0), (0.9999, 1.0)])
    def test_matches_30_digit_oracle(self, z1, z2):
        oracle = validate._oracle_r(z1, z2, 60)
        assert lattice_r(z1, z2) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("z1, z2", [(1.0, 1.0), (0.5, 2.0), (1.0, 100.0)])
    def test_derivatives_match_differentiated_oracle(self, z1, z2):
        _, d1, d2 = boxzero._r_pass(z1, z2)
        ref1, ref2 = DR[z1, z2]
        assert d1 == pytest.approx(ref1, rel=1e-13, abs=0)
        assert d2 == pytest.approx(ref2, rel=1e-13, abs=0)

    def test_symmetry(self):
        assert lattice_r(1.0, 2.0) == pytest.approx(lattice_r(2.0, 1.0), rel=1e-12, abs=0)
        r, d1, d2 = boxzero._r_pass(1.0, 2.0)
        assert boxzero._r_pass(2.0, 1.0) == pytest.approx((r, d2, d1), rel=1e-12, abs=0)

    def test_far_tail_negligible(self):
        assert abs(lattice_r(12.0, 12.0)) < 1e-25

    @pytest.mark.parametrize("tol", [1e-10, 1e-16])
    def test_wide_boxes_whose_cut_level_underflows(self, tol):
        # near z = 111 - 117, min(tol, eps) times the first term underflows
        # to 0 while the first term does not; R stays finite, >= 0 and
        # falls with z
        values = [lattice_r(float(z), float(z), tol) for z in np.linspace(100.0, 120.0, 201)]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            lattice_r(1e-4, 1e-4, max_terms=1000)

    def test_budget_message_states_points_and_budget(self):
        match = r"^lattice_r: tolerance 1\.000e-10 needs \d+ lattice points, budget 100$"
        with pytest.raises(ConvergenceError, match=match):
            lattice_r(1e-4, 1e-4, max_terms=100)

    @pytest.mark.parametrize("z", [1e-40, 1e-100, 1e-160, 1e-320])
    def test_tiny_arguments_exceed_the_budget(self, z):
        # the first term and the envelope overflow below z ~ 1e-77 (1e-160
        # raised OverflowError, 1e-320 ZeroDivisionError); every such
        # lattice needs more points than any budget
        for z1, z2 in ((z, 1.0), (1.0, z)):
            with pytest.raises(ConvergenceError, match=r"^lattice_r: .* lattice points, budget"):
                lattice_r(z1, z2)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10, 0.5])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            lattice_r(1.0, 2.0, tol)

    @pytest.mark.parametrize("z1, z2", [(1.0, 1.0), (0.5, 2.0), (0.7, 0.7), (3.0, 0.2)])
    def test_within_tol_of_the_oracle(self, z1, z2):
        oracle = validate._oracle_r(z1, z2, 60)
        for tol in (1e-4, 1e-10, 1e-14):
            assert lattice_r(z1, z2, tol) == pytest.approx(oracle, rel=tol, abs=0)

    @pytest.mark.parametrize("z, most", [(1.0, 100), (0.1, 6000)])
    def test_cut_follows_the_decay_of_the_terms(self, z, most):
        # the integral-test bound decays like exp(-2 pi rho), as the terms
        # do; a counting bound decaying like exp(-pi rho) needed 144 and
        # 10816 points of the bounding box
        with pytest.raises(ConvergenceError, match="needs") as info:
            lattice_r(z, z, max_terms=1)
        assert int(str(info.value).split("needs ")[1].split()[0]) <= most


class TestZeroTemperatureEnergies:
    def test_scalar_cube(self):
        cube = BoxGeometry(1.0, 1.0, 1.0)
        assert e0(cube, SCALAR) == pytest.approx(E0_SCALAR_CUBE, rel=1e-8)

    def test_em_cube_matches_published_value(self):
        cube = BoxGeometry(1.0, 1.0, 1.0)
        val = e0(cube, EM)
        assert val == pytest.approx(E0_EM_CUBE, rel=1e-8)
        assert val == pytest.approx(0.09166, abs=0.0005)

    def test_scalar_slab_oracle_value(self):
        assert e0(BoxGeometry(1.0, 5.0, 5.0), SCALAR) == pytest.approx(E0_SCALAR_1_5_5, rel=1e-8)

    def test_scalar_b_c_exchange_symmetry(self):
        # the closed form evaluated in the slots given, not sorted
        def slotted(sides):
            return boxzero._e0_gradient(sides, SCALAR, boxzero.DEFAULT_TOL)[0]

        assert slotted((1.0, 2.0, 3.0)) == pytest.approx(slotted((1.0, 3.0, 2.0)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("sides", [(1.0, 2.0, 3.0), (2.942, 10.0, 10.0)])
    def test_full_permutation_invariance(self, sides):
        # neither closed form is manifestly symmetric, but the value is
        for field in (SCALAR, EM):
            vals = [boxzero._e0_gradient(p, field, 1e-12)[0] for p in permutations(sides)]
            ref = vals[0]
            for v in vals[1:]:
                assert v == pytest.approx(ref, rel=1e-8)

    def test_scalar_negative_for_near_cube_and_slab_shapes(self):
        # negative for slabs and near-cubes; elongated boxes (one side more
        # than ~4x the others) turn positive, so those stay out of this set
        for sides in [(1, 1, 1), (1, 2, 5), (1, 10, 10), (0.1, 5, 5), (1, 2, 2), (1, 1, 3)]:
            assert e0(BoxGeometry(*map(float, sides)), SCALAR) < 0.0

    def test_scaling_homogeneity_simple(self):
        g = BoxGeometry(1.0, 2.0, 4.0)
        assert e0(g.scaled(2.0), SCALAR) == pytest.approx(e0(g, SCALAR) / 2.0, rel=1e-10, abs=0)

    @settings(max_examples=15, deadline=None)
    @given(
        b=st.floats(min_value=0.3, max_value=5.0),
        c=st.floats(min_value=0.3, max_value=5.0),
        lam=st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_homogeneity_random_geometries(self, b, c, lam):
        g = BoxGeometry(1.0, b, c)
        for field in (SCALAR, EM):
            assert e0(g.scaled(lam), field) == pytest.approx(e0(g, field) / lam, rel=1e-10, abs=0)

    def test_em_zero_crossings(self):
        # b = c = 10: sign changes near a = 4.08 and a = 34.30
        def em(a):
            return e0(BoxGeometry(a, 10.0, 10.0), EM)

        assert em(4.0) < 0.0 < em(4.2)
        assert em(34.0) > 0.0 > em(34.6)
        # no crossing around a = 2.94; the energy is smooth and negative there
        vals = [em(a) for a in np.linspace(2.8, 3.1, 7)]
        assert all(v < -0.02 for v in vals)


class TestBudget:
    @pytest.mark.parametrize("fn", [e0, e0_force_x])
    def test_budget_bounds_the_g_and_r_passes(self, fn):
        g = BoxGeometry(1.0, 2.0, 3.0)
        with pytest.raises(ConvergenceError, match="lattice_r"):
            fn(g, FieldKind.ELECTROMAGNETIC, max_terms=10)
        assert fn(g, FieldKind.ELECTROMAGNETIC, max_terms=1000) == fn(g, FieldKind.ELECTROMAGNETIC)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 1e6, 0, -5, True])
    def test_bad_budget_raises(self, budget):
        # z = 200 underflows every G term, so lattice_g returns before its cut
        for call in (lambda: lattice_g(1.0, max_terms=budget),
                     lambda: lattice_g(200.0, max_terms=budget),
                     lambda: lattice_r(1.0, 2.0, max_terms=budget),
                     lambda: e0(BoxGeometry(1.0, 2.0, 3.0), EM, max_terms=budget)):
            with pytest.raises(ValueError, match="budget"):
                call()


class TestSortedEvaluation:
    """e0 evaluates the closed forms with the sides in ascending order."""

    @pytest.mark.parametrize("field", [SCALAR, EM])
    @pytest.mark.parametrize("sides", [(100.0, 1.0, 1.0), (10.0, 1.0, 1.0), (1.0, 2.0, 3.0)])
    def test_bitwise_equal_over_permutations(self, sides, field):
        vals = {e0(BoxGeometry(*p), field) for p in permutations(sides)}
        assert len(vals) == 1

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_long_side_first_bar_matches_cutoff_oracle(self, field):
        oracle = validate.oracle_e0_cutoff(field, 10.0, 1.0, 1.0)
        assert 10.0 * abs(e0(BoxGeometry(10.0, 1.0, 1.0), field) - oracle) <= 1e-9

    def test_lattice_arguments_stay_at_or_above_one(self, monkeypatch):
        args = []

        def spy(fn):
            def wrapped(*a, **kw):
                args.extend(a[:2] if fn is boxzero._r_pass else a[:1])
                return fn(*a, **kw)

            return wrapped

        monkeypatch.setattr(boxzero, "_g_pass", spy(boxzero._g_pass))
        monkeypatch.setattr(boxzero, "_r_pass", spy(boxzero._r_pass))
        boxes = [(1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 2.0, 2.0), (2.0, 2.0, 1.0)]
        boxes += list(permutations((100.0, 1.0, 1.0))) + list(permutations((1.0, 2.0, 3.0)))
        for sides in boxes:
            for field in (SCALAR, EM):
                e0(BoxGeometry(*sides), field)
                e0_force_x(BoxGeometry(*sides), field)
        assert args and min(args) >= 0.999

    def test_force_is_independent_of_the_order_of_b_and_c(self):
        for field in (SCALAR, EM):
            assert e0_force_x(BoxGeometry(2.0, 1.0, 3.0), field) == e0_force_x(
                BoxGeometry(2.0, 3.0, 1.0), field
            )


class TestGeometryValidation:
    def test_rejects_nonpositive_sides(self):
        for bad in [(0.0, 1, 1), (-1, 1, 1), (1, math.nan, 1), (1, 1, math.inf)]:
            with pytest.raises(ValueError):
                BoxGeometry(*map(float, bad))

    def test_rejects_extreme_aspect(self):
        with pytest.raises(ValueError):
            BoxGeometry(1.0, 2e6, 1.0)
        with pytest.raises(ValueError):
            BoxGeometry(1.0, 1.0, 1e-7)
        # b/a and c/a are within 1e6 but c/b is not
        with pytest.raises(ValueError):
            BoxGeometry(1.0, 1e-4, 1e3)

    @pytest.mark.parametrize("side", [1e-110, 9.9e-27, 1.01e50, 1e110])
    def test_rejects_lengths_outside_the_range(self, side):
        # E0 of a 1e-110 m cube would divide by zero, of a 1e110 m cube
        # overflow
        with pytest.raises(ValueError, match="side a"):
            BoxGeometry(side, side, side)
        with pytest.raises(ValueError, match="side c"):
            BoxGeometry(1e-6, 1e-6, side)

    @pytest.mark.parametrize("side", [MIN_LENGTH, MAX_LENGTH])
    def test_range_ends_stay_finite(self, side):
        for sides in ((1, 1, 1), (1, 1e3, 1e6), (1e6, 1, 1e3)):
            scale = side if side == MIN_LENGTH else side / 1e6
            geom = BoxGeometry(*(s * scale for s in sides))
            for field in (SCALAR, EM):
                for fn in (e0, e0_force_x):
                    assert math.isfinite(fn(geom, field)), (fn.__name__, geom)


class TestForce:
    def test_cube_forces_match_euler_prediction(self):
        # permutation symmetry at the cube gives F = E0/(3a); a^2 F = E0/3
        cube = BoxGeometry(1.0, 1.0, 1.0)
        fs = e0_force_x(cube, SCALAR)
        assert fs == pytest.approx(E0_SCALAR_CUBE / 3.0, rel=1e-12, abs=0)
        assert fs < 0.0
        fem = e0_force_x(cube, EM)
        assert fem == pytest.approx(E0_EM_CUBE / 3.0, rel=1e-12, abs=0)
        assert fem == pytest.approx(0.03055, abs=3e-4)
        assert fem > 0.0

    @pytest.mark.parametrize("sides, field, ref", ASPECT_CASES)
    def test_matches_40_digit_references(self, sides, field, ref):
        assert e0_force_x(BoxGeometry(*sides), FieldKind(field)) == pytest.approx(
            ref, rel=1e-12, abs=0
        )

    def test_euler_identity(self):
        # a dE/da + b dE/db + c dE/dc = -E for a degree -1 homogeneous E; the
        # force on each side is e0_force_x with that side in the a slot
        sides = (1.0, 1.7, 2.3)
        for field in (SCALAR, EM):
            total = math.fsum(
                -s * e0_force_x(BoxGeometry(s, *(t for t in sides if t != s)), field)
                for s in sides
            )
            assert total == pytest.approx(-e0(BoxGeometry(*sides), field), rel=1e-12, abs=0)

    def test_cube_face_forces_agree(self):
        # differentiate in each argument slot at the cube point
        s = 1.0
        for field in (SCALAR, EM):
            derivs = []
            for i in range(3):
                h = 1e-4 * s

                def e_of(x, i=i):
                    sides = [s, s, s]
                    sides[i] = x
                    return e0(BoxGeometry(*sides), field, 1e-12)

                d1 = (e_of(s + h) - e_of(s - h)) / (2.0 * h)
                d2 = (e_of(s + h / 2) - e_of(s - h / 2)) / h
                derivs.append((4.0 * d2 - d1) / 3.0)
            ref = derivs[0]
            for d in derivs[1:]:
                assert d == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("field", [SCALAR, EM])
    def test_e0_and_force_x_is_both_calls_bitwise(self, field):
        for sides in [*permutations((1.0, 2.0, 3.0)), (2.0, 2.0, 2.0), (1.0, 1.0, 5.0),
                      (5.0, 1.0, 1.0), (0.1, 1.0, 10.0)]:
            g = BoxGeometry(*sides)
            assert boxzero.e0_and_force_x(g, field) == (e0(g, field), e0_force_x(g, field))
