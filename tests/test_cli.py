import io
import json
import math
import os
import runpy
import subprocess
import sys
import time

import pytest

from casimirbox import cli, thermal
from casimirbox.boxzero import BoxGeometry, FieldKind
from casimirbox.thermal import ThermalPoint

BOX_HEADER = (
    "a_um,b_um,c_um,T_K,t_reduced,e0_dimless,thermal_raw_dimless,"
    "bb_term_dimless,alpha1_term_dimless,alpha2_term_dimless,"
    "total_dimless,total_SI,error"
)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    status = cli.run(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


def row_as_dict(csv_text, row=1):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    return dict(zip(header, cells))


class TestE0Command:
    def test_em_cube_row(self):
        status, out, _ = run_cli(["e0", "--field", "em", "--a", "2", "--b", "2", "--c", "2"])
        assert status == 0
        assert out.splitlines()[0] == BOX_HEADER
        rec = row_as_dict(out)
        assert float(rec["total_dimless"]) == pytest.approx(0.09166, abs=5e-4)
        assert float(rec["total_SI"]) == pytest.approx(
            0.091657427 * 3.1615267734966903e-26 / 2e-6, rel=1e-6, abs=0
        )
        assert rec["error"] == ""

    def test_thermal_columns_zero_at_t0(self):
        status, out, _ = run_cli(
            ["free-energy", "--field", "scalar", "--a", "2", "--b", "2", "--c", "2", "--temp", "0"]
        )
        assert status == 0
        rec = row_as_dict(out)
        assert float(rec["thermal_raw_dimless"]) == 0.0
        assert float(rec["bb_term_dimless"]) == 0.0
        assert float(rec["alpha1_term_dimless"]) == 0.0
        assert float(rec["alpha2_term_dimless"]) == 0.0
        assert float(rec["total_dimless"]) == float(rec["e0_dimless"])
        assert rec["t_reduced"] == "inf"

    def test_reduced_t_column(self):
        status, out, _ = run_cli(
            [
                "free-energy",
                "--field",
                "scalar",
                "--a",
                "2",
                "--b",
                "2",
                "--c",
                "2",
                "--temp",
                "300",
            ]
        )
        rec = row_as_dict(out)
        assert float(rec["t_reduced"]) == pytest.approx(1.908237, abs=1e-4)

    def test_breakdown_sums_to_total(self):
        status, out, _ = run_cli(
            ["free-energy", "--field", "em", "--a", "2", "--b", "3", "--c", "4", "--temp", "450"]
        )
        rec = row_as_dict(out)
        total = sum(
            float(rec[k])
            for k in (
                "e0_dimless",
                "thermal_raw_dimless",
                "bb_term_dimless",
                "alpha1_term_dimless",
                "alpha2_term_dimless",
            )
        )
        assert total == pytest.approx(float(rec["total_dimless"]), rel=1e-9)


class TestForceCommand:
    def test_em_cube_force_positive_scalar_negative(self):
        for field, sign in (("em", 1.0), ("scalar", -1.0)):
            status, out, _ = run_cli(
                ["force", "--field", field, "--a", "2", "--b", "2", "--c", "2", "--temp", "300"]
            )
            assert status == 0
            rec = row_as_dict(out)
            assert math.copysign(1.0, float(rec["total_dimless"])) == sign

    def test_t0_em_cube_force_value(self):
        status, out, _ = run_cli(
            ["force", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "0"]
        )
        rec = row_as_dict(out)
        # a^2 F = E0/3 for the cube
        assert float(rec["total_dimless"]) == pytest.approx(0.09166 / 3.0, abs=3e-4)

    # 40-digit central differences of a 40-digit E0 give a^2 F0 =
    # 3.48673968752011e-02 and 6.93635272786067e-02
    @pytest.mark.parametrize(
        "a, cell", [("3.5", "3.48673968752e-02"), ("4.5", "6.93635272786e-02")]
    )
    def test_zero_temperature_force_cell_prints_its_twelve_digits(self, a, cell):
        status, out, _ = run_cli(
            ["force", "--field", "em", "--a", a, "--b", "3", "--c", "4", "--temp", "300"]
        )
        assert status == 0
        assert row_as_dict(out)["e0_dimless"] == cell


class TestThermoCommand:
    def test_adds_u_and_s_columns(self):
        status, out, _ = run_cli(
            ["thermo", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "300"]
        )
        assert status == 0
        header = out.splitlines()[0]
        assert header.endswith("u_dimless,u_SI,s_kB,error")
        rec = row_as_dict(out)
        assert rec["u_dimless"] != ""
        assert rec["s_kB"] != ""


class TestPlatesCommand:
    def test_deep_low_t_matches_expansion(self):
        status, out, _ = run_cli(["plates", "--a", "1", "--temp", "3"])
        assert status == 0
        rec = row_as_dict(out)
        t = float(rec["t_reduced"])
        z3, pi = 1.2020569031595942, math.pi
        expansion = -(pi**2) / 720.0 * (1.0 + 45.0 * z3 / pi**3 / t**3 - 1.0 / t**4)
        assert float(rec["f_dimless"]) == pytest.approx(expansion, rel=1e-6)

    def test_pressure_flag_adds_columns(self):
        status, out, _ = run_cli(["plates", "--a", "1", "--temp", "300", "--pressure"])
        assert status == 0
        assert "p_dimless" in out.splitlines()[0]
        rec = row_as_dict(out)
        assert float(rec["p_dimless"]) < 0.0


class TestSweep:
    def test_force_vs_a_all_negative_scalar(self):
        status, out, _ = run_cli(
            [
                "sweep",
                "--quantity",
                "force",
                "--field",
                "scalar",
                "--var",
                "a",
                "--from",
                "0.5",
                "--to",
                "5",
                "--points",
                "6",
                "--b",
                "2",
                "--c",
                "2",
                "--temp",
                "300",
            ]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        for line in lines[1:]:
            rec = dict(zip(lines[0].split(","), line.split(",")))
            assert float(rec["total_dimless"]) < 0.0

    def test_em_force_vs_temperature_monotone(self):
        status, out, _ = run_cli(
            [
                "sweep",
                "--quantity",
                "force",
                "--field",
                "em",
                "--var",
                "temp",
                "--from",
                "0",
                "--to",
                "600",
                "--points",
                "7",
                "--a",
                "2",
                "--b",
                "2",
                "--c",
                "2",
            ]
        )
        assert status == 0
        lines = out.strip().splitlines()
        vals = [float(line.split(",")[10]) for line in lines[1:]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_byte_identical_reruns(self):
        argv = [
            "sweep",
            "--quantity",
            "free-energy",
            "--field",
            "em",
            "--var",
            "temp",
            "--from",
            "50",
            "--to",
            "650",
            "--points",
            "5",
            "--a",
            "1.5",
            "--b",
            "2.5",
            "--c",
            "3.5",
        ]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_log_grid_requires_positive_start(self):
        status, _, err = run_cli(
            [
                "sweep",
                "--quantity",
                "force",
                "--field",
                "em",
                "--var",
                "temp",
                "--from",
                "0",
                "--to",
                "600",
                "--points",
                "4",
                "--log",
            ]
        )
        assert status == 2
        assert "log" in err

    def test_bad_range_is_usage_error(self):
        status, _, _ = run_cli(
            [
                "sweep",
                "--quantity",
                "force",
                "--field",
                "em",
                "--var",
                "a",
                "--from",
                "5",
                "--to",
                "1",
                "--points",
                "4",
            ]
        )
        assert status == 2

    def test_too_few_points_is_usage_error(self):
        status, _, _ = run_cli(
            [
                "sweep",
                "--quantity",
                "force",
                "--field",
                "em",
                "--var",
                "a",
                "--from",
                "1",
                "--to",
                "5",
                "--points",
                "1",
            ]
        )
        assert status == 2

    def test_per_point_convergence_failure_keeps_going(self):
        # a tiny lattice budget trips the thermal sums at every point but
        # rows still come out, carrying the error message
        status, out, _ = run_cli(
            [
                "sweep",
                "--quantity",
                "free-energy",
                "--field",
                "scalar",
                "--var",
                "temp",
                "--from",
                "400",
                "--to",
                "600",
                "--points",
                "3",
                "--a",
                "40",
                "--b",
                "40",
                "--c",
                "40",
                "--max-shell",
                "10",
            ]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            # t = 0.07: the Matsubara form, whose c0 sums exceed the budget
            assert line.endswith("budget 10")


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        status, _, _ = run_cli(["e0", "--field", "em", "--a", "2", "--b", "2"])
        assert status == 2

    def test_usage_error_bad_geometry(self):
        status, _, err = run_cli(
            ["e0", "--field", "em", "--a", "-2", "--b", "2", "--c", "2"]
        )
        assert status == 2
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--quantity", "free-energy", "--field", "em", "--var", "temp",
             "--from", "-10", "--to", "10", "--points", "3"],
            ["sweep", "--quantity", "force", "--field", "em", "--var", "a",
             "--from", "0", "--to", "1", "--points", "3"],
            ["e0", "--field", "em", "--a", "-2", "--b", "2", "--c", "2"],
            # lengths whose powers leave the float range
            ["e0", "--field", "em", "--a", "1e-104", "--b", "1e-104", "--c", "1e-104"],
            ["plates", "--a", "1e-104", "--temp", "300"],
            ["plates", "--a", "1e110", "--temp", "0"],
        ],
    )
    def test_invalid_input_writes_nothing(self, argv):
        # sides and temperatures, every sweep point included, are validated
        # before the header is printed
        status, out, err = run_cli(argv)
        assert status == 2
        assert out == ""
        assert "usage error" in err

    def test_wide_box_exits_0(self):
        # b/a = 115: E0's R pass once took the log of an underflowed cut level
        status, out, err = run_cli(["e0", "--field", "em", "--a", "1", "--b", "115", "--c", "115"])
        assert status == 0, err
        assert math.isfinite(float(row_as_dict(out)["total_dimless"]))

    @pytest.mark.parametrize("field, raw", [("em", "-2.96010099932e-01"),
                                            ("scalar", "-1.74048066436e-282")])
    @pytest.mark.parametrize("tol", ["1e-10", "1e-14"])
    def test_cold_thin_box_fits_the_budget(self, field, raw, tol):
        # the triple lattice's ball holds about 1e7 points, but its one slab
        # along the cold 1 um side 1.55e6 (tol 1e-10) and 1.93e6 (1e-14):
        # within the default budget, the same line as with a larger one
        argv = ["free-energy", "--field", field, "--a", "1", "--b", "4000", "--c", "4000",
                "--temp", "11", "--tol", tol]
        status, out, err = run_cli(argv)
        assert status == 0, err
        assert (status, out) == run_cli([*argv, "--max-shell", "20000000"])[:2]
        if tol == "1e-10":
            assert row_as_dict(out)["thermal_raw_dimless"] == raw

    def test_convergence_error_exit_3(self):
        status, out, err = run_cli(
            [
                "free-energy",
                "--field",
                "scalar",
                "--a",
                "40",
                "--b",
                "40",
                "--c",
                "40",
                "--temp",
                "600",
                "--max-shell",
                "10",
            ]
        )
        assert status == 3
        assert "convergence error" in err
        assert out == ""


    def test_meter_cube_at_1e18_kelvin_returns(self):
        # a 1 m cube at 1e18 K: the mode sums' first terms overflow, but the
        # row takes the Matsubara form, whose images all underflow, and is
        # the classical law a F = a kT (c1 ln(kT a) + c0)
        box = ["--field", "em", "--a", "1e6", "--b", "1e6", "--c", "1e6"]
        status, out, _ = run_cli(["free-energy", *box, "--temp", "1e18"])
        assert status == 0
        akt = ThermalPoint(1e18).kt
        law = akt * (-0.5 * math.log(akt) - 0.52830442627597)
        # to the 12 digits printed
        assert float(row_as_dict(out)["total_dimless"]) == pytest.approx(law, rel=1e-11, abs=0)
        status, out, _ = run_cli(["sweep", "--quantity", "free-energy", *box, "--var", "temp",
                                  "--from", "1e16", "--to", "1e18", "--points", "2", "--log"])
        assert status == 0
        assert [row_as_dict(out, row)["error"] for row in (1, 2)] == ["", ""]

    @pytest.mark.parametrize("temperature", ["1e-200", "1e33", "1.7e308"])
    def test_temperature_outside_the_range_exits_2(self, temperature):
        box = ["--field", "em", "--a", "1", "--b", "1", "--c", "1"]
        status, out, err = run_cli(["free-energy", *box, "--temp", temperature])
        assert (status, out) == (2, "")
        assert "temperature must be 0 or in" in err


class TestBudget:
    @pytest.mark.parametrize("argv", [
        ["e0", "--field", "em", "--a", "1", "--b", "2", "--c", "3"],
        ["force", "--field", "scalar", "--a", "2", "--b", "2", "--c", "2", "--temp", "0"],
        ["thermo", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "50"],
    ])
    def test_tiny_budget_exits_3_and_prints_nothing(self, argv):
        # --max-shell bounds E0's G and R passes too, not only the mode sums
        status, out, err = run_cli(argv + ["--max-shell", "5"])
        assert status == 3
        assert out == ""
        assert "convergence error" in err
        assert run_cli(argv)[0] == 0

    @pytest.mark.parametrize("budget", ["0", "-5", "nan", "1.5"])
    def test_bad_budget_is_usage_error(self, budget, capsys):
        # a budget that is not an integer >= 1 is a usage error, not a convergence failure
        status, out, _ = run_cli(["e0", "--field", "em", "--a", "1", "--b", "2", "--c", "3",
                                  "--max-shell", budget])
        assert status == 2
        assert out == ""
        assert "--max-shell" in capsys.readouterr().err  # argparse writes to sys.stderr

    def test_plates_take_no_budget(self, capsys):
        # the plates series are a few terms; no lattice budget reaches them
        argv = ["plates", "--a", "0.5", "--temp", "3000", "--pressure"]
        status, out, _ = run_cli(argv + ["--max-shell", "1"])
        assert status == 2
        assert out == ""
        assert "--max-shell" in capsys.readouterr().err
        status, out, _ = run_cli(argv)
        assert status == 0
        rec = row_as_dict(out)
        assert rec["error"] == ""
        assert float(rec["p_dimless"]) < float(rec["f_dimless"]) < 0.0

    def test_library_and_cli_share_one_budget(self):
        # the 1 um EM cube at 1e6 K needs 1.3e6 dual terms: the library and
        # the CLI's default --max-shell both allow them
        hot = ThermalPoint(1e6)
        cube = BoxGeometry(1e-6, 1e-6, 1e-6)
        assert math.isfinite(thermal.force_x(cube, FieldKind.ELECTROMAGNETIC, hot))
        status, out, _ = run_cli(["sweep", "--quantity", "force", "--field", "em", "--var", "temp",
                                  "--from", "1", "--to", "1e6", "--points", "3", "--log",
                                  "--a", "1", "--b", "1", "--c", "1"])
        assert status == 0
        rows = [row_as_dict(out, row) for row in (1, 2, 3)]
        assert [float(r["T_K"]) for r in rows] == pytest.approx([1.0, 1e3, 1e6])
        assert [r["error"] for r in rows] == ["", "", ""]


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10", "abc", "0.5"])
    def test_bad_tol_is_usage_error(self, tol, capsys):
        start = time.perf_counter()
        status, out, _ = run_cli(["plates", "--a", "2", "--temp", "300", "--tol", tol])
        assert status == 2
        assert out == ""
        assert "--tol" in capsys.readouterr().err  # argparse writes to sys.stderr
        assert time.perf_counter() - start < 5.0

    def test_nan_tol_rejected_for_box_commands(self):
        status, out, _ = run_cli(
            ["free-energy", "--field", "em", "--a", "2", "--b", "2", "--c", "2", "--temp", "300",
             "--tol", "nan"]
        )
        assert status == 2
        assert out == ""


class TestImports:
    @staticmethod
    def _stdout_of(code):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_out_validate_and_its_dependencies(self):
        assert self._stdout_of(
            "import sys, casimirbox.cli; "
            "print(sorted(m for m in ('casimirbox.validate', 'scipy.integrate', 'mpmath') "
            "if m in sys.modules))"
        ) == "[]"

    @pytest.mark.parametrize("module", ["casimirbox", "casimirbox.cli"])
    def test_import_leaves_out_scipy(self, module):
        assert self._stdout_of(
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        ) == "[]"


    def test_box_and_plates_calls_load_no_lattice_form_they_do_not_use(self):
        # the benchmark's six box and plates argv lists, run in one
        # interpreter, all take the direct form; the CLI compiles neither
        # the Matsubara form, the dual form nor validate for them
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = self._stdout_of(
            f"import sys; sys.path.insert(0, {os.path.join(repo, 'perfbench')!r}); "
            "from workloads import CLI_CALLS; from casimirbox import cli; "
            "[cli.main(argv) for name, argv in CLI_CALLS.items() if name != 'validate']; "
            "print(sorted(m for m in ('casimirbox._matsubara', 'casimirbox._dualsum', "
            "'casimirbox.validate') if m in sys.modules))"
        )
        assert out.splitlines()[-1] == "[]"


class TestGoldenOutput:
    def test_benchmark_calls_print_their_pinned_stdout(self):
        # the benchmark's seven argv lists, read from perfbench/workloads.py
        # without importing the harness, print byte for byte the stdout
        # pinned in cli_golden.json
        tests = os.path.dirname(os.path.abspath(__file__))
        calls = runpy.run_path(os.path.join(os.path.dirname(tests), "perfbench", "workloads.py"),
                               run_name="workloads")["CLI_CALLS"]
        with open(os.path.join(tests, "cli_golden.json")) as fh:
            golden = json.load(fh)
        assert sorted(golden) == sorted(calls)
        for name, argv in calls.items():
            status, out, _ = run_cli(argv)
            assert (status, out) == (golden[name]["status"], golden[name]["stdout"]), name


class TestValidateCommand:
    def test_all_checks_pass_and_exit_zero(self):
        status, out, _ = run_cli(["validate"])
        assert status == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_filter_runs_subset(self):
        status, out, _ = run_cli(["validate", "--filter", "plates"])
        assert status == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert lines
        assert all("plates" in ln for ln in lines)


class TestUnits:
    def test_micrometer_roundtrip_within_one_ulp(self):
        for x in (0.1, 0.5, 1.0, 2.0, 2.942, 34.29, 123.456):
            roundtrip = (x * 1e-6) * 1e6
            assert abs(roundtrip - x) <= math.ulp(x)
