import math

import numpy as np
import pytest

from casimirbox.specfun import (
    HBAR_C,
    K_BOLTZMANN,
    PI,
    ZETA3,
    bessel_k,
)

# pinned by the 30-digit oracle (see data/fixtures.txt)
K1_AT_1 = 0.60190723019723458


def test_constants_pinned():
    assert abs(ZETA3 - 1.2020569031595942854) < 1e-15
    # CODATA hbar*c and the exact-SI Boltzmann constant
    assert abs(HBAR_C - 3.16152677e-26) < 1e-33
    assert K_BOLTZMANN == 1.380649e-23


def test_k_half_closed_form():
    # K_{1/2}(2) = sqrt(pi/4) e^{-2}
    expected = math.sqrt(PI / 4.0) * math.exp(-2.0)
    assert bessel_k(0.5, 2.0) == pytest.approx(expected, rel=1e-14, abs=0)


def test_k_three_halves_closed_form():
    # K_{3/2}(1) = sqrt(pi/2) e^{-1} (1 + 1) = 0.9221370...
    expected = math.sqrt(PI / 2.0) * math.exp(-1.0) * 2.0
    assert bessel_k(1.5, 1.0) == pytest.approx(expected, rel=1e-14, abs=0)
    assert expected == pytest.approx(0.92213698, abs=1e-7)


def test_k1_against_pinned_oracle_value():
    assert bessel_k(1.0, 1.0) == pytest.approx(K1_AT_1, rel=1e-12, abs=0)


@pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 10.0, 50.0])
def test_k0_against_quadrature_oracle(x):
    from casimirbox.validate import oracle_bessel_k

    assert bessel_k(0.0, x) == pytest.approx(oracle_bessel_k(0.0, x), rel=1e-12, abs=0)


def test_recurrence_between_half_integer_orders():
    # K_{3/2}(x) = K_{1/2}(x) (1 + 1/x), exact at these orders
    for x in np.linspace(0.01, 50.0, 37):
        lhs = bessel_k(1.5, x)
        rhs = bessel_k(0.5, x) * (1.0 + 1.0 / x)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_strictly_decreasing(order):
    xs = np.geomspace(1e-3, 500.0, 200)
    vals = bessel_k(order, xs)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_underflow_returns_zero(order):
    assert bessel_k(order, 800.0) == 0.0


def test_array_and_scalar_agree():
    xs = np.array([0.5, 2.0, 10.0])
    arr = bessel_k(1.0, xs)
    for x, v in zip(xs, arr):
        assert bessel_k(1.0, float(x)) == v


def _mpmath_k(order, x):
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.besselk(order, mpmath.mpf(float(x))))


@pytest.mark.parametrize("order", [0.0, 1.0])
def test_k0_k1_against_mpmath_on_log_grid(order):
    xs = np.geomspace(1e-8, 700.0, 241)
    ref = np.array([_mpmath_k(order, x) for x in xs])
    assert np.max(np.abs(bessel_k(order, xs) / ref - 1.0)) <= 2e-15


@pytest.mark.parametrize("order", [0.0, 1.0])
def test_k0_k1_continuous_across_the_seam(order):
    # the ascending series ends and the integral begins at x = 2: just
    # either side of it both match mpmath, and the step between them is
    # the function's own change to within roundoff
    import mpmath

    k2 = bessel_k(order, 2.0)
    for delta in (math.ulp(1.0), 1e-12, 1e-9, 1e-6):
        below = 2.0 - delta
        assert abs(bessel_k(order, below) / _mpmath_k(order, below) - 1.0) <= 2e-15
        with mpmath.workdps(30):
            step = float(mpmath.besselk(order, mpmath.mpf(below)) - mpmath.besselk(order, 2))
        assert abs((bessel_k(order, below) - k2) - step) <= 4e-15 * k2


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_array_and_scalar_bitwise_equal_across_the_seam(order):
    xs = np.array([1e-8, 0.3, 1.999, math.nextafter(2.0, 0.0), 2.0, 2.001, 7.5, 300.0,
                   800.0, 1.2])
    arr = bessel_k(order, xs)
    assert [bessel_k(order, float(x)) for x in xs] == arr.tolist()
    # a value does not depend on the other arguments it is evaluated with
    assert bessel_k(order, xs[::-1]).tolist() == arr[::-1].tolist()
    assert bessel_k(order, xs[xs >= 2.0]).tolist() == arr[xs >= 2.0].tolist()


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_two_dimensional_input_keeps_its_shape(order):
    xs = np.array([[0.5, 2.0, 3.0], [1e-3, 40.0, 1.5]])
    out = bessel_k(order, xs)
    assert out.shape == (2, 3)
    assert out.ravel().tolist() == bessel_k(order, xs.ravel()).tolist()


@pytest.mark.parametrize("order", [0.0, 1.0])
def test_zero_past_the_underflow_of_exp(order):
    assert not np.any(bessel_k(order, np.array([746.0, 800.0, 1e4, 1e300])))


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -3.0)
    with pytest.raises(ValueError):
        bessel_k(2.0, 1.0)


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-300, -3.0])
def test_nan_zero_and_negative_arguments_raise(order, bad):
    with pytest.raises(ValueError):
        bessel_k(order, bad)
    with pytest.raises(ValueError):
        bessel_k(order, np.array([1.0, 3.0, bad]))

