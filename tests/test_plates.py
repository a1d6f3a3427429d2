import math
import time

import numpy as np
import pytest

from casimirbox.errors import MAX_LENGTH, MIN_LENGTH
from casimirbox.plates import (
    PlatesConfig,
    _T_CROSS,
    _closed,
    _matsubara,
    plates_free_energy,
    plates_pressure,
)
from casimirbox.specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3


def cfg_for_t(separation: float, t: float) -> PlatesConfig:
    """Configuration whose reduced variable T_eff/T equals t."""
    temperature = HBAR_C / (2.0 * separation * K_BOLTZMANN * t)
    return PlatesConfig(separation, temperature)


SEP = 1e-6


class TestFreeEnergy:
    def test_zero_temperature_exact(self):
        cfg = PlatesConfig(SEP, 0.0)
        assert plates_free_energy(cfg) == -(PI**2) / (720.0 * SEP**3)

    def test_low_temperature_expansion(self):
        # t = 10: F = -(pi^2/720a^3)[1 + 45 zeta3/pi^3 (1/t)^3 - (1/t)^4]
        cfg = cfg_for_t(SEP, 10.0)
        expansion = -(PI**2) / (720.0 * SEP**3) * (
            1.0 + 45.0 * ZETA3 / PI**3 / 1000.0 - 1.0 / 10000.0
        )
        assert plates_free_energy(cfg) == pytest.approx(expansion, rel=1e-6)

    def test_classical_limit(self):
        # t = 0.05: F -> -kT zeta(3)/(8 pi a^2)
        cfg = cfg_for_t(SEP, 0.05)
        classical = -cfg.kt * ZETA3 / (8.0 * PI * SEP**2)
        assert plates_free_energy(cfg) == pytest.approx(classical, rel=1e-3)

    def test_representation_seam(self):
        # the Matsubara and closed forms, summed to tol 1e-16, agree across
        # the crossover in F and P
        for t in np.linspace(0.5 * _T_CROSS, 2.0 * _T_CROSS, 16):
            for sep in (0.5e-6, 2e-6):
                cfg = cfg_for_t(sep, float(t))
                for pressure in (False, True):
                    matsubara = _matsubara(cfg, 1e-16, pressure)
                    closed = _closed(cfg, 1e-16, pressure)
                    assert abs(matsubara / closed - 1.0) <= 1e-13

    def test_switch_point(self):
        # below the crossover the Matsubara form runs, from it on the closed form
        below = cfg_for_t(SEP, math.nextafter(_T_CROSS, 0.0))
        at = cfg_for_t(SEP, _T_CROSS)
        assert below.reduced_t < _T_CROSS <= at.reduced_t
        for public, pressure in ((plates_free_energy, False), (plates_pressure, True)):
            assert public(below) == _matsubara(below, 1e-10, pressure)
            assert public(at) == _closed(at, 1e-10, pressure)
            assert public(below) == pytest.approx(public(at), rel=1e-9)

    @pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-3, 1e-2])
    def test_classical_limit_to_roundoff(self, t):
        # the first Matsubara correction is e^{-2 pi/t} <= e^{-628} here
        for sep in (0.5e-6, 2e-6):
            cfg = cfg_for_t(sep, t)
            f_classical = -cfg.kt * ZETA3 / (8.0 * PI * sep**2)
            p_classical = -cfg.kt * ZETA3 / (4.0 * PI * sep**3)
            assert abs(plates_free_energy(cfg) / f_classical - 1.0) <= 1e-12
            assert abs(plates_pressure(cfg) / p_classical - 1.0) <= 1e-12

    def test_cubic_coefficient_extracted_from_small_t_fit(self):
        # fit F(1/t) - F(0-term): the (T/T_eff)^3 coefficient should be
        # 45 zeta3/pi^3 times -pi^2/(720 a^3) to 1 percent
        base = -(PI**2) / (720.0 * SEP**3)
        taus = np.array([0.02, 0.03, 0.04, 0.05])  # T/T_eff, deep low-T
        ys = []
        for tau in taus:
            cfg = cfg_for_t(SEP, 1.0 / float(tau))
            ys.append(plates_free_energy(cfg, 1e-12))
        coeffs = np.polynomial.polynomial.polyfit(taus, np.array(ys), deg=[0, 3, 4])
        expected_c3 = base * 45.0 * ZETA3 / PI**3
        assert coeffs[3] == pytest.approx(expected_c3, rel=0.01)

    def test_scaling_with_separation(self):
        # at fixed t the dimensionless combination a^3 F depends only on t
        f1 = plates_free_energy(cfg_for_t(1e-6, 3.0)) * (1e-6) ** 3
        f2 = plates_free_energy(cfg_for_t(2e-6, 3.0)) * (2e-6) ** 3
        assert f1 == pytest.approx(f2, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatesConfig(0.0, 300.0)
        with pytest.raises(ValueError):
            PlatesConfig(1e-6, -1.0)
        with pytest.raises(ValueError):
            plates_free_energy(PlatesConfig(1e-6, 300.0), tol=-1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, 0.5])
    def test_rejects_non_finite_tol(self, tol):
        cfg = PlatesConfig(1e-6, 300.0)
        with pytest.raises(ValueError, match="tol"):
            plates_free_energy(cfg, tol)
        with pytest.raises(ValueError, match="tol"):
            plates_pressure(cfg, tol)


class TestPressure:
    def test_zero_temperature(self):
        cfg = PlatesConfig(SEP, 0.0)
        assert plates_pressure(cfg) == pytest.approx(-(PI**2) / (240.0 * SEP**4), rel=1e-9)

    def test_low_temperature_form(self):
        # t = 10: P = -(pi^2/240 a^4)[1 + (1/3)(T/T_eff)^4]
        cfg = cfg_for_t(SEP, 10.0)
        expected = -(PI**2) / (240.0 * SEP**4) * (1.0 + (1.0 / 3.0) / 10.0**4)
        assert plates_pressure(cfg) == pytest.approx(expected, rel=1e-5)

    def test_classical_limit(self):
        cfg = cfg_for_t(SEP, 0.05)
        classical = -cfg.kt * ZETA3 / (4.0 * PI * SEP**3)
        assert plates_pressure(cfg) == pytest.approx(classical, rel=1e-3)

    def test_attractive_everywhere_sampled(self):
        for sep in (0.5e-6, 1e-6, 5e-6):
            for temperature in (0.0, 77.0, 300.0, 1000.0):
                assert plates_pressure(PlatesConfig(sep, temperature)) < 0.0

    def test_classical_pressure_ratio(self):
        # P approaches -kT zeta3/(4 pi a^3); the deviation is the leading
        # Matsubara term (2 + 2x + x^2) e^{-x}/zeta3, x = 2 pi/t, the next
        # ones e^{-2x} smaller, until it falls below roundoff
        devs = []
        for t in (0.3, 0.2, 0.1, 0.05):
            cfg = cfg_for_t(SEP, t)
            devs.append(plates_pressure(cfg) / (-cfg.kt * ZETA3 / (4.0 * PI * SEP**3)) - 1.0)
        for t, dev in zip((0.3, 0.2), devs):
            x = 2.0 * PI / t
            assert dev == pytest.approx((2.0 + 2.0 * x + x * x) * math.exp(-x) / ZETA3, rel=1e-4,
                                        abs=0)
        assert all(abs(d) <= 4e-16 for d in devs[2:])


class TestEdges:
    T_EDGES = np.geomspace(1e-8, 1e8, 33)

    @pytest.mark.parametrize("sep", [0.5e-6, 2e-6])
    def test_finite_negative_and_fast_from_hot_to_cold(self, sep):
        for t in self.T_EDGES:
            cfg = cfg_for_t(sep, float(t))
            for fn in (plates_free_energy, plates_pressure):
                start = time.perf_counter()
                value = fn(cfg)
                assert time.perf_counter() - start < 5e-3
                assert math.isfinite(value) and value < 0.0, (fn.__name__, t)

    @pytest.mark.parametrize("temperature", [0.0, 5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7e308])
    def test_any_temperature_returns(self, temperature):
        # where kT overflows the classical term does too: -inf, never NaN
        cfg = PlatesConfig(1e-6, temperature)
        for fn in (plates_free_energy, plates_pressure):
            value = fn(cfg)
            assert value < 0.0
            assert fn(cfg, 1e-3) < 0.0

    @pytest.mark.parametrize("sep", [1e-110, 9.9e-27, 1.01e50, 1e103, 1e110])
    def test_rejects_lengths_outside_the_range(self, sep):
        # a^3 or a^4, or 2 a kT at the smallest positive kT, leaves the
        # float range
        for temperature in (0.0, 300.0):
            with pytest.raises(ValueError, match="separation"):
                PlatesConfig(sep, temperature)

    @pytest.mark.parametrize("sep", [MIN_LENGTH, MAX_LENGTH])
    @pytest.mark.parametrize("temperature", [0.0, 1.8e-301, 1e-280, 300.0, 1e30])
    def test_range_ends_stay_finite(self, sep, temperature):
        # 1.8e-301 K is near the smallest positive kT: below the range's
        # lower end 2 a kT would underflow to 0
        cfg = PlatesConfig(sep, temperature)
        for fn in (plates_free_energy, plates_pressure):
            value = fn(cfg)
            assert math.isfinite(value) and value < 0.0, fn.__name__
