"""Thermal Casimir effect in ideal-metal rectangular boxes and between
parallel planes: renormalized free energy, force, internal energy and
entropy, in natural units with SI conversion at the CLI boundary."""

from .boxzero import (
    BoxGeometry,
    FieldKind,
    e0,
    e0_force_x,
    lattice_g,
    lattice_r,
)
from .errors import CasimirBoxError, ConvergenceError
from .plates import PlatesConfig, plates_free_energy, plates_pressure
from .specfun import bessel_k
from .thermal import (
    EnergyBreakdown,
    SubtractionCoefficients,
    ThermalPoint,
    asymptotic_thermal,
    blackbody_density,
    entropy,
    force_x,
    free_energy,
    heat_kernel_coeffs,
    internal_energy,
    mode_frequency,
    subtraction_coeffs,
    thermal_raw,
)

__version__ = "0.1.0"

__all__ = [
    "BoxGeometry",
    "FieldKind",
    "ThermalPoint",
    "PlatesConfig",
    "EnergyBreakdown",
    "SubtractionCoefficients",
    "CasimirBoxError",
    "ConvergenceError",
    "bessel_k",
    "lattice_g",
    "lattice_r",
    "e0",
    "e0_force_x",
    "thermal_raw",
    "blackbody_density",
    "subtraction_coeffs",
    "heat_kernel_coeffs",
    "mode_frequency",
    "free_energy",
    "force_x",
    "internal_energy",
    "entropy",
    "asymptotic_thermal",
    "plates_free_energy",
    "plates_pressure",
    "__version__",
]
