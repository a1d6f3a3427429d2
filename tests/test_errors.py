import numpy as np
import pytest

from casimirbox import BoxGeometry, PlatesConfig, ThermalPoint

# each configuration's numbers, one at a time, the others fixed and valid
CONFIGS = {
    "box_side_a": (lambda x: BoxGeometry(x, 1.0, 1.0), "a"),
    "box_side_c": (lambda x: BoxGeometry(1.0, 1.0, x), "c"),
    "thermal_point": (ThermalPoint, "temperature"),
    "plates_separation": (lambda x: PlatesConfig(x, 300.0), "separation"),
    "plates_temperature": (lambda x: PlatesConfig(1e-6, x), "temperature"),
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("number", [3, 3.0, np.int64(3), np.int32(3), np.float32(3.0),
                                    np.float64(3.0)], ids=repr)
def test_real_numbers_are_stored_as_floats(config, number):
    make, field = CONFIGS[config]
    value = getattr(make(number), field)
    assert type(value) is float and value == 3.0


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("number", [True, False, np.bool_(True), "3", None, 3j, [3.0],
                                    np.array([3.0]), np.array(3.0)], ids=repr)
def test_anything_else_is_a_value_error(config, number):
    # a bool is not 1 m or 1 K, and a string is a ValueError like a bad
    # number, not a TypeError from the range check
    make, _ = CONFIGS[config]
    with pytest.raises(ValueError, match="must be an int, a float or a NumPy real scalar"):
        make(number)

