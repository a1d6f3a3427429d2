"""Independent desk-scale oracles and the golden-check runner.

Everything here deliberately avoids the code paths of the main modules:
Bessel functions come from mpmath's besselk in 30-digit arithmetic, the
lattice functions from direct brute-force summation with fixed cutoffs
(in 30-digit arithmetic for the Bessel-kernel sums, compensated double
precision for the plain log-sums), and thermodynamic relations from
Richardson-extrapolated finite differences.  The zero-temperature energy
also has an oracle that shares no formula with the G/R closed forms: an
exponential-cutoff mode sum (oracle_e0_cutoff).  The parallel plates have
a 40-digit Matsubara double sum with a numerical a-derivative
(oracle_plates).

Pinned oracle outputs live in data/fixtures.txt, the one list of fixtures,
one per line:

    name kind=<kind> key=value ... cutoff=<n> value=<17 significant digits> tol=<relative>

`_KINDS` gives each kind its oracle and its production value.
`regenerate_fixtures` recomputes every value with its kind's oracle and
writes the file back byte for byte.  The U pins have no oracle here: they
are the long-double mode sums of perfbench/references.json, which share no
production code, and regeneration copies them.  Each tol is the production
value's contract.

The checks compare the production implementation against those pins and a
handful of closed-form golden values, so `run_checks` needs no mpmath: only
the mpmath oracles, which `regenerate_fixtures` and the tests run, import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import boxzero, plates, thermal
from .boxzero import BoxGeometry, FieldKind
from .errors import DEFAULT_BUDGET
from .specfun import HBAR_C, K_BOLTZMANN, PI, ZETA3, bessel_k
from .thermal import ThermalPoint

__all__ = [
    "oracle_bessel_k",
    "oracle_lattice",
    "oracle_e0",
    "oracle_e0_cutoff",
    "oracle_plates",
    "richardson_derivative",
    "oracle_thermo_consistency",
    "ThermoReport",
    "CheckResult",
    "load_fixtures",
    "regenerate_fixtures",
    "run_checks",
]

_ORACLE_X_RANGE = (0.01, 50.0)


def oracle_bessel_k(order: float, x: float) -> float:
    """K_order(x) from mpmath's besselk in 30-digit arithmetic.

    Valid for x in [0.01, 50]; independent of specfun's evaluation, which
    shares neither its series nor its integral representation.  K_0 and K_1
    take up to 0.1 s each near x = 50, so the checks read its values from pins.
    """
    import mpmath  # imported only by the oracles that need it

    if order not in (0.0, 0.5, 1.0, 1.5):
        raise ValueError(f"unsupported order {order!r}")
    if not (_ORACLE_X_RANGE[0] <= x <= _ORACLE_X_RANGE[1]):
        raise ValueError(f"oracle_bessel_k: x={x!r} outside {_ORACLE_X_RANGE}")
    with mpmath.workdps(30):
        return float(mpmath.besselk(mpmath.mpf(order), mpmath.mpf(x)))


def _oracle_g(z: float, cutoff: int) -> float:
    """Brute-force G(z), 30-digit arithmetic, n, l <= cutoff."""
    import mpmath

    with mpmath.workdps(30):
        zz = mpmath.mpf(repr(z))
        total = mpmath.mpf(0)
        for n in range(1, cutoff + 1):
            for l in range(1, cutoff + 1):
                y = 2 * mpmath.pi * n * l * zz
                if y > 200:  # below 1e-85, irrelevant at the pin precision
                    if l == 1:
                        return float(-total / (2 * mpmath.pi)) if n > 1 else 0.0
                    break
                total += mpmath.mpf(n) / l * mpmath.besselk(1, y)
        return float(-total / (2 * mpmath.pi))


def _oracle_r(z1: float, z2: float, cutoff: int) -> float:
    """Brute-force R(z1, z2), 30-digit arithmetic, |l|, |p|, j <= cutoff."""
    import mpmath

    with mpmath.workdps(30):
        m1 = mpmath.mpf(repr(z1))
        m2 = mpmath.mpf(repr(z2))
        total = mpmath.mpf(0)
        for l in range(-cutoff, cutoff + 1):
            for p in range(-cutoff, cutoff + 1):
                if l == 0 and p == 0:
                    continue
                rho = mpmath.sqrt((l * m1) ** 2 + (p * m2) ** 2)
                two_pi_rho = 2 * mpmath.pi * rho
                if two_pi_rho > 200:
                    continue
                for j in range(1, cutoff + 1):
                    y = two_pi_rho * j
                    if y > 200:
                        break
                    # K_{3/2}(y) = sqrt(pi/(2y)) e^{-y} (1 + 1/y)
                    k32 = mpmath.sqrt(mpmath.pi / (2 * y)) * mpmath.e ** (-y) * (1 + 1 / y)
                    total += (j / rho) ** mpmath.mpf("1.5") * k32
        return float(m1 * m2 / 8 * total)


def _oracle_x(betas: tuple[float, float, float], cutoff: int) -> float:
    """Direct triple log-sum, compensated double precision."""
    ba, bb, bc = betas
    terms = []
    for n in range(1, cutoff + 1):
        for l in range(1, cutoff + 1):
            for p in range(1, cutoff + 1):
                r = math.sqrt((ba * n) ** 2 + (bb * l) ** 2 + (bc * p) ** 2)
                if r > 745.0:
                    break
                terms.append(math.log1p(-math.exp(-r)))
    return math.fsum(terms)


def _oracle_log_double(b1: float, b2: float, cutoff: int) -> float:
    terms = []
    for n in range(1, cutoff + 1):
        for l in range(1, cutoff + 1):
            r = math.hypot(b1 * n, b2 * l)
            if r > 745.0:
                break
            terms.append(math.log1p(-math.exp(-r)))
    return math.fsum(terms)


def _oracle_y(betas: tuple[float, float, float], cutoff: int) -> float:
    """Direct electromagnetic log-sum: 2X plus the three double sums."""
    ba, bb, bc = betas
    return math.fsum(
        [
            2.0 * _oracle_x(betas, cutoff),
            _oracle_log_double(bb, bc, cutoff),
            _oracle_log_double(ba, bb, cutoff),
            _oracle_log_double(ba, bc, cutoff),
        ]
    )


def oracle_lattice(kind: str, params: dict, cutoff: int) -> float:
    """Direct summation of a lattice quantity with an explicit index cutoff.

    kind is one of "G", "R", "X" (scalar triple log-sum) or "Y"
    (electromagnetic log-sum); params carries the arguments:
    G: z; R: z1, z2; X/Y: beta_a, beta_b, beta_c.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    kind = kind.upper().split("-")[0]
    if kind not in ("G", "R", "X", "Y"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    return _KINDS[kind][0](params, cutoff)


def oracle_e0(field: FieldKind, a: float, b: float, c: float, cutoff: int = 120) -> float:
    """Zero-temperature box energy assembled from the brute-force G and R."""
    if field is FieldKind.SCALAR_DIRICHLET:
        return math.fsum(
            [
                -(PI**2) * b * c / (1440.0 * a**3),
                ZETA3 * (b + c) / (32.0 * PI * a**2),
                -PI / (96.0 * a),
                -(PI / (2.0 * a)) * (_oracle_g(b / a, cutoff) + _oracle_g(c / a, cutoff)),
                -(1.0 / a) * _oracle_r(b / a, c / a, cutoff),
            ]
        )
    return math.fsum(
        [
            -(PI**2) * b * c / (720.0 * a**3),
            -ZETA3 * c / (16.0 * PI * b**2),
            (PI / 48.0) * (1.0 / a + 1.0 / b),
            (PI / b) * _oracle_g(c / b, cutoff),
            -(2.0 / a) * _oracle_r(b / a, c / a, cutoff),
        ]
    )


# cutoff widths delta as fractions of the smallest side, and the largest
# delta * omega kept in the mode sums (e^-45 ~ 3e-20)
_CUTOFF_DELTAS = (0.5, 0.4, 0.3, 0.2, 0.15, 0.1)
_CUTOFF_EXPONENT = 45.0


def _half_cutoff_sums(sides: tuple, deltas: np.ndarray, omega_max: float) -> np.ndarray:
    """(1/2) sum omega e^{-delta omega} over the modes with every index >= 1
    of a two- or three-sided box, one value per delta; modes with
    omega > omega_max are dropped."""
    waves = [PI * np.arange(1, int(omega_max * s / PI) + 1) / s for s in sides]
    *outer, kb, kc = waves
    q2 = np.sort((kb[:, None] ** 2 + kc[None, :] ** 2).ravel())
    parts = [[] for _ in deltas]
    for ka in (outer[0] if outer else (0.0,)):
        omega = np.sqrt(ka**2 + q2[: np.searchsorted(q2, omega_max**2 - ka**2, side="right")])
        for part, delta in zip(parts, deltas):
            part.append(float(np.sum(omega * np.exp(-delta * omega))))
    return np.array([0.5 * math.fsum(part) for part in parts])


def oracle_e0_cutoff(field: FieldKind, a: float, b: float, c: float) -> float:
    """Zero-temperature box energy from an exponential-cutoff mode sum.

    Shares no formula with the G/R closed forms: it sums
    (1/2) sum omega e^{-delta omega} directly over the box modes, removes
    the exact pole terms of the heat-kernel expansion,

        scalar: 3V/(2 pi^2 d^4) - (ab+bc+ca)/(4 pi d^3) + (a+b+c)/(8 pi d^2)
        em:     3V/(pi^2 d^4) - (a+b+c)/(4 pi d^2),

    and extrapolates the remainder, E0 + c1 d^2 + c2 d^4 + ..., to d = 0
    by a polynomial in d^2 through six cutoff widths.  The box heat kernel
    has no t^{1/2} term, so there is no log(d) term and the finite part is
    the zeta-regularized E0.  The electromagnetic field counts the modes
    with n, l, p >= 1 twice and those with exactly one zero index once.
    Agrees with the closed forms to about 1e-10 relative on a cube; the
    cost grows like V / min(a, b, c)^3.
    """
    deltas = np.array(_CUTOFF_DELTAS) * min(a, b, c)
    omega_max = _CUTOFF_EXPONENT / deltas.min()
    volume = a * b * c
    if field is FieldKind.SCALAR_DIRICHLET:
        raw = _half_cutoff_sums((a, b, c), deltas, omega_max)
        poles = (
            3.0 * volume / (2.0 * PI**2 * deltas**4)
            - (a * b + b * c + c * a) / (4.0 * PI * deltas**3)
            + (a + b + c) / (8.0 * PI * deltas**2)
        )
    else:
        raw = 2.0 * _half_cutoff_sums((a, b, c), deltas, omega_max) + sum(
            _half_cutoff_sums(pair, deltas, omega_max) for pair in ((b, c), (a, c), (a, b))
        )
        poles = 3.0 * volume / (PI**2 * deltas**4) - (a + b + c) / (4.0 * PI * deltas**2)
    coeffs = np.polyfit(deltas**2, raw - poles, len(deltas) - 1)
    return float(coeffs[-1])


def oracle_plates(separation: float, temperature: float) -> tuple[float, float]:
    """(F, P) of two ideal-metal planes at T > 0, to about 40 digits.

    F is the Matsubara double sum itself, term by term,

        F = -(kT/(4 pi a^2)) [zeta(3)/2 + sum_{n,j>=1} (1 + y) e^{-y}/j^3],
        y = 4 pi a kT n j,

    over the pairs n j <= m, beyond which e^{-y} < 1e-55;
    P = -dF/da is mpmath's numerical derivative of that sum, not its
    analytic derivative.  Valid for any t; the number of pairs grows like
    t ln t.
    """
    import mpmath

    if not temperature > 0.0:
        raise ValueError("oracle_plates needs T > 0")
    with mpmath.workdps(50):
        kt = mpmath.mpf(K_BOLTZMANN) * mpmath.mpf(temperature) / mpmath.mpf(HBAR_C)
        a0 = mpmath.mpf(separation)
        x1 = 4 * mpmath.pi * a0 * kt
        m = int(mpmath.ceil(55 * mpmath.log(10) / x1)) + 1

        def free_energy(a):
            x = 4 * mpmath.pi * a * kt
            total = mpmath.zeta(3) / 2
            for j in range(1, m + 1):
                for n in range(1, m // j + 1):
                    y = x * n * j
                    total += (1 + y) * mpmath.exp(-y) / j**3
            return -kt / (4 * mpmath.pi * a**2) * total

        return float(free_energy(a0)), float(-mpmath.diff(free_energy, a0))


def richardson_derivative(func, x: float, h: float) -> tuple[float, float]:
    """Derivative of func at x: central differences with steps h and h/2,
    Richardson-extrapolated to cancel the h^2 error term.

    Returns (derivative, disagreement), where disagreement is
    |d2 - d1| / max(|derivative|, |d1|, |d2|) for the two levels d1 (step h)
    and d2 (step h/2), and 0 when all three vanish.
    """
    d1 = (func(x + h) - func(x - h)) / (2.0 * h)
    d2 = (func(x + h / 2.0) - func(x - h / 2.0)) / h
    extrap = (4.0 * d2 - d1) / 3.0
    scale = max(abs(extrap), abs(d1), abs(d2))
    return extrap, (abs(d2 - d1) / scale if scale > 0.0 else 0.0)


@dataclass(frozen=True)
class ThermoReport:
    """Relative deviations of U and S from finite differences of F."""

    u_deviation: float
    s_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.u_deviation, self.s_deviation)


def oracle_thermo_consistency(
    geom: BoxGeometry, field: FieldKind, temperature: float, h_rel: float = 1e-4
) -> ThermoReport:
    """Check U = -T^2 d(F/T)/dT and S = -dF/dT by central differences.

    Reports relative deviations; never raises on disagreement.
    """
    if temperature <= 0.0:
        raise ValueError("needs T > 0")

    def f_of_t(t: float) -> float:
        return thermal.free_energy(geom, field, ThermalPoint(t)).total

    tp = ThermalPoint(temperature)
    u = thermal.internal_energy(geom, field, tp)
    s = thermal.entropy(geom, field, tp)

    h = h_rel * temperature
    u_fd = -(temperature**2) * richardson_derivative(lambda t: f_of_t(t) / t, temperature, h)[0]
    df_dt = richardson_derivative(f_of_t, temperature, h)[0]
    # -dF/dT is an entropy in 1/(m K); convert to k_B units via T/(kT)
    s_fd = -df_dt * temperature / tp.kt
    u_dev = abs(u - u_fd) / max(abs(u), abs(u_fd))
    s_dev = abs(s - s_fd) / max(abs(s), abs(s_fd))
    return ThermoReport(u_deviation=u_dev, s_deviation=s_dev)


# ----------------------------------------------------------------------
# fixtures

def _betas(p: dict) -> tuple:
    return (p["beta_a"], p["beta_b"], p["beta_c"])


def _lattice_kinds(field: FieldKind, lattice):
    """(oracle, production value) of a mode log-sum, `lattice` the oracle's
    direct sum; the production sum is summed to 1e-12."""
    return (lambda p, cutoff: lattice(_betas(p), cutoff),
            lambda p: thermal._mode_sums(field, _betas(p), 1e-12, DEFAULT_BUDGET)[0]["log"])


def _e0_kinds(field: FieldKind):
    """(oracle, production value) of a box's E0."""
    return (lambda p, cutoff: oracle_e0(field, p["a"], p["b"], p["c"], cutoff),
            lambda p: boxzero.e0(BoxGeometry(p["a"], p["b"], p["c"]), field))


def _cube_u(p: dict) -> float:
    field = FieldKind.ELECTROMAGNETIC if p["field"] else FieldKind.SCALAR_DIRICHLET
    return thermal.internal_energy(BoxGeometry(p["a"], p["a"], p["a"]), field,
                                   ThermalPoint(p["temperature"]))


#: The one table of fixture kinds: kind -> (oracle of (params, cutoff),
#: production value of params).  U has no oracle (see the module docstring).
_KINDS = {
    "bessel": (lambda p, cutoff: oracle_bessel_k(p["order"], p["x"]),
               lambda p: bessel_k(p["order"], p["x"])),
    "G": (lambda p, cutoff: _oracle_g(p["z"], cutoff), lambda p: boxzero.lattice_g(p["z"])),
    "R": (lambda p, cutoff: _oracle_r(p["z1"], p["z2"], cutoff),
          lambda p: boxzero.lattice_r(p["z1"], p["z2"])),
    "X": _lattice_kinds(FieldKind.SCALAR_DIRICHLET, _oracle_x),
    "Y": _lattice_kinds(FieldKind.ELECTROMAGNETIC, _oracle_y),
    "E0S": _e0_kinds(FieldKind.SCALAR_DIRICHLET),
    "E0EM": _e0_kinds(FieldKind.ELECTROMAGNETIC),
    "U": (None, _cube_u),
}


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str
    params: dict
    cutoff: int
    value: float
    tol: float


def load_fixtures(path=None) -> list[Fixture]:
    """Parse the line-oriented fixtures file, the packaged one by default."""
    packaged = resources.files("casimirbox").joinpath("data/fixtures.txt")
    out = []
    for line in (packaged if path is None else Path(path)).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, *fields = line.split()
        kv = dict(f.split("=", 1) for f in fields)
        kind, cutoff, value, tol = (kv.pop(k) for k in ("kind", "cutoff", "value", "tol"))
        params = {k: float(v) for k, v in kv.items()}
        out.append(Fixture(name, kind, params, int(cutoff), float(value), float(tol)))
    return out


def _fixture_line(fix: Fixture, value: float) -> str:
    """The fixture's line of the file, pinned to value."""
    params = [f"{k}={v:.17g}" for k, v in fix.params.items()]
    return " ".join([fix.name, f"kind={fix.kind}", *params, f"cutoff={fix.cutoff}",
                     f"value={value:.17g}", f"tol={fix.tol:g}"])


def _regenerated_line(fix: Fixture) -> str:
    """The fixture's line with its value recomputed by its kind's oracle, or
    as pinned for a kind without one."""
    oracle = _KINDS[fix.kind][0]
    return _fixture_line(fix, fix.value if oracle is None else oracle(fix.params, fix.cutoff))


def regenerate_fixtures(path) -> None:
    """Write the packaged fixtures file to path, each value recomputed by its
    kind's oracle: the file comes back byte for byte."""
    lines = [_regenerated_line(fix) for fix in load_fixtures()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# golden checks

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: float
    actual: float
    tol: float

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: expected {self.expected:.12e}, "
            f"actual {self.actual:.12e}, tol {self.tol:g}"
        )


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _fixture_actual(fix: Fixture) -> float:
    """Production-path value corresponding to a pinned oracle value."""
    if fix.kind not in _KINDS:
        raise ValueError(f"unknown fixture kind {fix.kind!r}")
    return _KINDS[fix.kind][1](fix.params)


def run_checks(name_filter: str | None = None, fixtures_path=None) -> list[CheckResult]:
    """Run fixture comparisons plus closed-form golden checks.

    Only the checks whose name contains name_filter run.  A fresh checkout
    passes every check; perturbing a fixture value makes exactly that
    check fail.
    """
    results: list[CheckResult] = []

    def selected(name: str) -> bool:
        return not name_filter or name_filter in name

    def add(name: str, tol: float, values):
        # values() -> (expected, actual), called only for a selected check
        if selected(name):
            expected, actual = values()
            results.append(CheckResult(name, _rel(expected, actual) <= tol, expected, actual, tol))

    def add_bound(name: str, bound: float, value):
        # for deviation-style quantities whose target is plain smallness
        if selected(name):
            actual = value()
            results.append(CheckResult(name, abs(actual) <= bound, 0.0, actual, bound))

    for fix in load_fixtures(fixtures_path):
        add(f"fixture:{fix.name}", fix.tol, lambda fix=fix: (fix.value, _fixture_actual(fix)))

    # closed-form Bessel anchors
    add(
        "bessel:k_half_closed_form",
        1e-13,
        lambda: (math.sqrt(PI / 4.0) * math.exp(-2.0), bessel_k(0.5, 2.0)),
    )
    add("bessel:recurrence_k32", 1e-13, lambda: (bessel_k(0.5, 1.0) * 2.0, bessel_k(1.5, 1.0)))

    # paper-anchored electromagnetic cube energy (dimensionless a*E0): Lukosz's
    # 0.09166 has four digits, so tol is half a unit of the last, 5.5e-5
    # (measured 2.8e-5 off the 30-digit 0.0916574)
    cube = BoxGeometry(1.0, 1.0, 1.0)
    add("boxzero:em_cube_energy", 5.5e-5, lambda: (0.09166, boxzero.e0(cube, FieldKind.ELECTROMAGNETIC)))

    # blackbody internal-energy density, electromagnetic: pi^2 (kT)^4 / 15
    tp = ThermalPoint(300.0)
    add(
        "thermal:planck_density",
        1e-10,
        lambda: (
            PI**2 * tp.kt**4 / 15.0,
            thermal.blackbody_internal_density(tp, FieldKind.ELECTROMAGNETIC),
        ),
    )

    # heat-kernel route to the subtraction coefficients
    add(
        "thermal:alpha1_heat_kernel",
        1e-12,
        lambda: (
            -ZETA3 * thermal.heat_kernel_coeffs(cube)[0] / (4.0 * PI**1.5),
            thermal.subtraction_coeffs(cube, FieldKind.SCALAR_DIRICHLET).alpha1,
        ),
    )
    add(
        "thermal:alpha2_heat_kernel",
        1e-12,
        lambda: (
            -thermal.heat_kernel_coeffs(cube)[1] / 24.0,
            thermal.subtraction_coeffs(cube, FieldKind.SCALAR_DIRICHLET).alpha2,
        ),
    )

    # thermodynamic consistency at desk scale: U and S hold the rows' default
    # tol, 1e-10, and the differences of F add roundoff near eps / h_rel
    # (measured: 1.3e-11 at most)
    box2um = BoxGeometry(2e-6, 2e-6, 2e-6)
    add_bound(
        "thermo:em_cube_300K",
        1e-10,
        lambda: oracle_thermo_consistency(box2um, FieldKind.ELECTROMAGNETIC, 300.0).max_deviation,
    )
    add_bound(
        "thermo:scalar_cube_50K",
        1e-10,
        lambda: oracle_thermo_consistency(box2um, FieldKind.SCALAR_DIRICHLET, 50.0).max_deviation,
    )

    # the box's classical limit at t = 0.05, unit cube: U = -c1 kT,
    # F = kT (c1 ln(kT a) + c0) and L F_x = -c1 kT / 3, up to images below
    # exp(-2 pi / t) = 4e-55; tol is the rows' contract (measured: c0 within
    # 5e-14 of its 14-digit pin, the rest within 5e-16)
    cube_t005 = ThermalPoint(_temperature_for_t(1.0, 0.05))
    kt = cube_t005.kt
    for field, (c1, c0) in CLASSICAL_PINS.items():
        add(f"classical:cube_c1_{field.value}", 1e-10,
            lambda field=field, c1=c1: (c1, -thermal.internal_energy(cube, field, cube_t005) / kt))
        add(f"classical:cube_c0_{field.value}", 1e-10,
            lambda field=field, c1=c1, c0=c0: (
                c0, thermal.free_energy(cube, field, cube_t005).total / kt - c1 * math.log(kt)))
        add(f"classical:cube_force_law_{field.value}", 1e-10,
            lambda field=field, c1=c1: (-c1 / 3.0, thermal.force_x(cube, field, cube_t005) / kt))

    # plates: low-temperature expansion and classical limit
    t10 = plates.PlatesConfig(1e-6, _temperature_for_t(1e-6, 10.0))
    f_expansion = -(PI**2) / (720.0 * t10.separation**3) * (
        1.0 + 45.0 * ZETA3 / PI**3 / 10.0**3 - 1.0 / 10.0**4
    )
    add("plates:low_t_expansion", 1e-6, lambda: (f_expansion, plates.plates_free_energy(t10)))
    t005 = plates.PlatesConfig(1e-6, _temperature_for_t(1e-6, 0.05))
    f_classical = -t005.kt * ZETA3 / (8.0 * PI * t005.separation**2)
    add("plates:classical_limit", 1e-3, lambda: (f_classical, plates.plates_free_energy(t005)))
    add(
        "plates:pressure_consistency",
        1e-5,
        lambda: (_plates_pressure_reference(t10), plates.plates_pressure(t10)),
    )

    # reduced-variable anchor: a = 2 um, T = 300 K gives t ~ 1.908; the anchor
    # has eight digits, so tol is half a unit of the last, 2.6e-8
    add("units:reduced_t_anchor", 2.6e-8, lambda: (1.9082371, ThermalPoint(300.0).reduced_t(2e-6)))
    return results


#: (c1, c0) of the unit cube's classical limit F = kT (c1 ln(kT a) + c0):
#: c1 minus the heat trace's constant term, c0 as the direct-form rows at
#: 3 - 10 kK give it, to 1e-13
CLASSICAL_PINS = {
    FieldKind.SCALAR_DIRICHLET: (0.125, 0.19353203225868),
    FieldKind.ELECTROMAGNETIC: (-0.5, -0.52830442627597),
}


def _temperature_for_t(length: float, t: float) -> float:
    """Temperature [K] at which a side or gap of this length has reduced t."""
    return HBAR_C / (2.0 * length * K_BOLTZMANN * t)


def _plates_pressure_reference(cfg: plates.PlatesConfig) -> float:
    """Independent pressure estimate with a different step ladder."""
    a = cfg.separation

    def f(aa: float) -> float:
        return plates.plates_free_energy(plates.PlatesConfig(aa, cfg.temperature))

    return -richardson_derivative(f, a, 3e-5 * a)[0]
