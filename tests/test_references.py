"""The benchmark's in-process ops against their oracle references.

Every op of thermo_sweep, aspect_scan and plates_scan runs through
`perfbench/workloads.execute`, and `perfbench/run.py`'s `check_outcomes`
compares its outputs with `perfbench/references.json`: long-double
brute-force mode sums, 30-digit E0 and the mpmath plates series, none of
which shares the package's representations.  No defect is forgiven
(`known` is empty), so an op that raises, or misses its reference by more
than 1e-10 plus the reference's accuracy, fails here.  Unlike the bit pins
of `work_pins.json` and `cli_golden.json`, this judges a changed summation
by its error.  perfbench is only read.
"""

import os
import runpy
from types import SimpleNamespace

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
IN_PROCESS = ("thermo_sweep", "aspect_scan", "plates_scan")


def test_every_in_process_op_matches_its_reference():
    workloads = SimpleNamespace(**runpy.run_path(os.path.join(PERFBENCH, "workloads.py")))
    bench = runpy.run_path(os.path.join(PERFBENCH, "run.py"))
    runner = bench["InProcessRunner"](workloads)
    outcomes = [runner.run(op) for name in IN_PROCESS for op in workloads.WORKLOADS[name].ops()]
    res = bench["check_outcomes"](outcomes, bench["load_json"]("references.json")["ops"], known={})
    assert res.attempted == len(outcomes) == 272
    assert (res.raised, res.wrong, res.unexpected) == (0, 0, [])
    assert res.max_dev < 1e-10
