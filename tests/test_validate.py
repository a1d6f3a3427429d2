import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casimirbox import plates, validate
from casimirbox.boxzero import BoxGeometry, FieldKind, e0, lattice_g, lattice_r
from casimirbox.specfun import HBAR_C, K_BOLTZMANN, PI, bessel_k

SCALAR = FieldKind.SCALAR_DIRICHLET
EM = FieldKind.ELECTROMAGNETIC
PACKAGED = Path(validate.__file__).parent / "data" / "fixtures.txt"


class TestBesselOracle:
    def test_closed_form_half_order(self):
        expected = math.sqrt(PI / 2.0) * math.exp(-1.0)
        assert validate.oracle_bessel_k(0.5, 1.0) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_stable_under_argument_span(self):
        # values at nearby arguments interlace monotonically
        v5 = validate.oracle_bessel_k(1.0, 5.0)
        v51 = validate.oracle_bessel_k(1.0, 5.1)
        assert 0.0 < v51 < v5

    def test_agreement_with_production_grid(self):
        grid = np.linspace(0.05, 45.0, 20)
        for order in (0.0, 0.5, 1.0, 1.5):
            for x in grid:
                o = validate.oracle_bessel_k(order, float(x))
                m = bessel_k(order, float(x))
                assert abs(o - m) / abs(o) <= 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            validate.oracle_bessel_k(1.0, 0.001)
        with pytest.raises(ValueError):
            validate.oracle_bessel_k(2.5, 1.0)


class TestLatticeOracle:
    def test_far_tail_negligible(self):
        assert abs(validate.oracle_lattice("G", {"z": 10.0}, 50)) < 1e-25

    def test_g_cross_check(self):
        o = validate.oracle_lattice("G", {"z": 0.7}, 100)
        assert lattice_g(0.7) == pytest.approx(o, rel=1e-9, abs=0)

    def test_r_cross_check(self):
        o = validate.oracle_lattice("R", {"z1": 1.0, "z2": 1.0}, 60)
        assert lattice_r(1.0, 1.0) == pytest.approx(o, rel=1e-9, abs=0)

    def test_kind_aliases(self):
        params = {"beta_a": 2 * PI, "beta_b": 2 * PI, "beta_c": 2 * PI}
        assert validate.oracle_lattice("X-scalar", params, 30) == validate.oracle_lattice(
            "X", params, 30
        )
        assert validate.oracle_lattice("Y-em", params, 30) == validate.oracle_lattice(
            "Y", params, 30
        )

    def test_rejects_bad_kind_and_cutoff(self):
        with pytest.raises(ValueError):
            validate.oracle_lattice("Q", {"z": 1.0}, 10)
        with pytest.raises(ValueError):
            validate.oracle_lattice("G", {"z": 1.0}, 0)


class TestE0OracleEquivalence:
    def test_ten_point_geometry_grid(self):
        # production energies vs the 30-digit brute-force assembly, pinned in
        # data/fixtures.txt by regenerate_fixtures
        pins = {f.name: f for f in validate.load_fixtures() if f.name.startswith("e0_grid_")}
        boxes = {kind: {(p.params["a"], p.params["b"], p.params["c"]) for p in pins.values()
                        if p.kind == kind} for kind in ("E0S", "E0EM")}
        assert len(pins) == 10 and len(boxes["E0S"]) == 5 and boxes["E0S"] == boxes["E0EM"]
        for pin in pins.values():
            field = SCALAR if pin.kind == "E0S" else EM
            sides = (pin.params["a"], pin.params["b"], pin.params["c"])
            main = e0(BoxGeometry(*sides), field)
            assert abs(main - pin.value) <= 1e-8 * abs(pin.value)
        # one box stays live, so the oracle still reproduces its pin
        oracle = validate.oracle_e0(EM, 0.5, 1.0, 1.5, cutoff=80)
        assert oracle == pins["e0_grid_E0EM_0.5_1_1.5"].value


class TestCutoffOracle:
    """The exponential-cutoff mode sum shares no formula with G and R, so
    it checks the closed forms themselves, not only their summation."""

    @staticmethod
    def em_10_10(a_um: float) -> float:
        return validate.oracle_e0_cutoff(EM, a_um, 10.0, 10.0)

    @pytest.mark.parametrize("field, published", [(SCALAR, -0.0157), (EM, 0.09166)])
    def test_unit_cubes(self, field, published):
        # Ambjorn & Wolfram (1983) for the Dirichlet cube, Lukosz (1971) for the EM one
        oracle = validate.oracle_e0_cutoff(field, 1.0, 1.0, 1.0)
        assert abs(oracle - e0(BoxGeometry(1.0, 1.0, 1.0), field)) <= 1e-8 * abs(oracle)
        assert oracle == pytest.approx(published, abs=1e-4)

    def test_agrees_with_closed_forms_off_the_cube(self):
        boxes = [(SCALAR, (1.0, 2.0, 3.0)), (EM, (1.0, 2.0, 3.0)), (EM, (2.94, 10.0, 10.0))]
        for field, sides in boxes:
            oracle = validate.oracle_e0_cutoff(field, *sides)
            main = e0(BoxGeometry(*sides), field)
            # dimensionless a*E0, absolute: EM (1, 2, 3) is only -0.002
            assert sides[0] * abs(oracle - main) <= 1e-9

    def test_no_em_zero_near_2_94_um(self):
        assert all(self.em_10_10(a_um) < 0.0 for a_um in (2.91, 2.94, 2.97))

    @pytest.mark.parametrize("lo, hi", [(4.05, 4.11), (33.9, 34.6)])
    def test_em_zero_crossings(self, lo, hi):
        assert self.em_10_10(lo) * self.em_10_10(hi) < 0.0


class TestPlatesOracle:
    T_GRID = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0)

    @pytest.mark.parametrize("separation", [0.5e-6, 2e-6])
    def test_matsubara_sum_to_40_digits(self, separation):
        # both forms, the crossover and the analytic pressure against the
        # 40-digit double sum and its numerical derivative; at the default
        # tol the error stays within that tol
        for t in self.T_GRID:
            cfg = plates.PlatesConfig(separation, HBAR_C / (2.0 * separation * K_BOLTZMANN * t))
            f_ref, p_ref = validate.oracle_plates(separation, cfg.temperature)
            assert abs(plates.plates_free_energy(cfg, 1e-15) / f_ref - 1.0) <= 1e-14, t
            assert abs(plates.plates_pressure(cfg, 1e-15) / p_ref - 1.0) <= 1e-14, t
            assert abs(plates.plates_free_energy(cfg) / f_ref - 1.0) <= 1e-10, t
            assert abs(plates.plates_pressure(cfg) / p_ref - 1.0) <= 1e-10, t

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            validate.oracle_plates(1e-6, 0.0)


class TestThermoOracle:
    def test_em_cube_consistency(self):
        rep = validate.oracle_thermo_consistency(
            BoxGeometry(2e-6, 2e-6, 2e-6), EM, 300.0
        )
        assert rep.max_deviation <= 1e-4

    def test_scalar_cube_consistency(self):
        rep = validate.oracle_thermo_consistency(
            BoxGeometry(2e-6, 2e-6, 2e-6), SCALAR, 50.0
        )
        assert rep.max_deviation <= 1e-4

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            validate.oracle_thermo_consistency(BoxGeometry(1e-6, 1e-6, 1e-6), SCALAR, 0.0)


class TestFixtures:
    def test_loads_and_all_fields_typed(self):
        fixtures = validate.load_fixtures()
        assert len(fixtures) >= 8
        names = {f.name for f in fixtures}
        assert "lattice_g_at_1" in names
        assert "e0_em_cube_unit" in names
        for f in fixtures:
            assert isinstance(f.value, float)
            assert f.tol > 0.0

    def test_roundtrip_via_file(self, tmp_path):
        src = validate.load_fixtures()
        path = tmp_path / "fixtures.txt"
        path.write_text("".join(validate._fixture_line(f, f.value) + "\n" for f in src))
        assert validate.load_fixtures(path) == src
        assert path.read_text() == PACKAGED.read_text()

    def test_regenerated_lines_reproduce_the_file(self):
        # the cheap lines, each recomputed by its kind's oracle through the
        # one kind table, print exactly as pinned; regenerate_fixtures runs
        # the same for every line (about 27 s)
        lines = {line.split()[0]: line for line in PACKAGED.read_text().splitlines()}
        cheap = [f for f in validate.load_fixtures() if f.kind in ("X", "Y") or f.name in (
            "lattice_g_at_1", "bessel_k1_at_1", "bessel_grid_k0_3", "bessel_grid_k1.5_19")]
        assert len(cheap) == 7
        for fix in cheap:
            assert validate._regenerated_line(fix) == lines[fix.name]

    def test_u_pins_are_copied_from_the_benchmark_references(self):
        # the U pins share no production code: they are the long-double
        # mode sums of perfbench/references.json, which regeneration copies
        with open(Path(__file__).resolve().parents[1] / "perfbench" / "references.json") as fh:
            ops = json.load(fh)["ops"]
        pins = {f.name: f for f in validate.load_fixtures() if f.kind == "U"}
        assert pins["u_scalar_cube_2um_300K"].value == ops["thermo:scalar:cube:300K"]["U"]["value"]
        assert pins["u_em_cube_2um_300K"].value == ops["thermo:em:cube:300K"]["U"]["value"]
        for fix in pins.values():
            assert validate._regenerated_line(fix) == validate._fixture_line(fix, fix.value)


class TestRunChecks:
    def test_fresh_checkout_all_pass(self):
        results = validate.run_checks()
        failed = [r for r in results if not r.passed]
        assert failed == []

    def test_perturbed_fixture_fails(self, tmp_path):
        src = validate.load_fixtures()
        path = tmp_path / "fixtures.txt"
        path.write_text("".join(
            validate._fixture_line(f, f.value * 1.001 if f.name == "lattice_g_at_1" else f.value)
            + "\n" for f in src))
        results = validate.run_checks(fixtures_path=path)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["fixture:lattice_g_at_1"]

    def test_each_pin_moved_by_ten_tols_fails_alone(self, tmp_path, monkeypatch):
        # production values once, no oracle: each pin moved by 10 times its
        # tol fails its own check and no other
        fixtures = validate.load_fixtures()
        actual = {f.name: validate._fixture_actual(f) for f in fixtures}
        monkeypatch.setattr(validate, "_fixture_actual", lambda fix: actual[fix.name])
        path = tmp_path / "fixtures.txt"
        for moved in fixtures:
            path.write_text("".join(
                validate._fixture_line(f, f.value * (1.0 + 10.0 * f.tol) if f is moved else f.value)
                + "\n" for f in fixtures))
            results = validate.run_checks("fixture:", path)
            assert len(results) == len(fixtures)
            assert [r.name for r in results if not r.passed] == [f"fixture:{moved.name}"]

    @pytest.mark.parametrize("field", [FieldKind.SCALAR_DIRICHLET, FieldKind.ELECTROMAGNETIC])
    @pytest.mark.parametrize("pin", [0, 1], ids=["c1", "c0"])
    def test_perturbed_classical_pin_fails(self, monkeypatch, field, pin):
        # each pin moved by 10 times its checks' tolerance of 1e-10
        pins = dict(validate.CLASSICAL_PINS)
        moved = list(pins[field])
        moved[pin] *= 1.0 + 1e-9
        pins[field] = tuple(moved)
        monkeypatch.setattr(validate, "CLASSICAL_PINS", pins)
        results = validate.run_checks(name_filter="classical:")
        failed = sorted(r.name for r in results if not r.passed)
        # c0 is read off F through c1 ln(kT a), with ln(kT a) = 2.3
        moved_checks = ("c0", "c1", "force_law") if pin == 0 else ("c0",)
        assert failed == [f"classical:cube_{name}_{field.value}" for name in moved_checks]

    def test_filter(self):
        results = validate.run_checks(name_filter="plates")
        assert results
        assert all("plates" in r.name for r in results)

    def test_filter_skips_the_oracles_of_unselected_checks(self):
        # only the 30-digit oracles import mpmath, and no check runs them:
        # the plates checks and then all of them pass without loading it
        code = (
            "import sys; from casimirbox import validate; "
            "loaded = lambda: sorted(m for m in ('scipy', 'mpmath') if m in sys.modules); "
            "print(all(r.passed for r in validate.run_checks('plates')), loaded()); "
            "print(all(r.passed for r in validate.run_checks()), loaded())"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["True []", "True []", ""]


def test_richardson_derivative_levels_and_disagreement():
    # f = x^3 at x = 1, h = 1/2, all exact in binary: the step-h level is
    # f'(1) + h^2 f'''(1)/6 = 3.25, the step-h/2 level 3.0625, and the
    # extrapolation removes the h^2 term exactly
    slope, disagreement = validate.richardson_derivative(lambda x: x**3, 1.0, 0.5)
    assert slope == 3.0
    assert disagreement == (3.25 - 3.0625) / 3.25
    # a linear function has no error term; a constant has no scale
    assert validate.richardson_derivative(lambda x: 2.0 * x + 1.0, 1.0, 0.25) == (2.0, 0.0)
    assert validate.richardson_derivative(lambda x: 5.0, 1.0, 0.25) == (0.0, 0.0)
