"""Self-check of the benchmark harness; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every op has a reference, that the tracer restores every
binding it replaces, and that traced and untraced runs give identical
outputs, in process and through the CLI.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ALL_OPS = [op for wl in workloads.WORKLOADS.values() for op in wl.ops()]


def _ops(*ids):
    by_id = {op.id: op for op in ALL_OPS}
    return [by_id[i] for i in ids]


def test_every_op_has_a_reference():
    refs = run.load_json("references.json")["ops"]
    assert len({op.id for op in ALL_OPS}) == len(ALL_OPS)
    assert set(refs) == {op.id for op in ALL_OPS}
    for op_id, outputs in refs.items():
        assert outputs, op_id
        for rec in outputs.values():
            assert isinstance(rec["value"], float) and rec["accuracy"] >= 0.0, op_id


def test_known_defects_name_real_ops_and_outputs():
    refs = run.load_json("references.json")["ops"]
    for op_id, defect in run.load_json("known_defects.json")["ops"].items():
        assert op_id in refs
        assert defect["outcome"] in ("raises", "inaccurate")
        if defect["outcome"] == "raises":
            assert defect["raises"]
        else:
            assert defect["outputs"] and set(defect["outputs"]) <= set(refs[op_id])
            assert all(dev > run.DEFAULT_TOL for dev in defect["outputs"].values())
        assert defect["cause"]


def test_pinned_constants_match_the_package():
    from casimirbox import specfun

    assert workloads.HBAR_C == specfun.HBAR_C
    assert workloads.K_BOLTZMANN == specfun.K_BOLTZMANN


def test_seed_only_permutes_the_order():
    for wl in workloads.WORKLOADS.values():
        ops = wl.ops()
        a = workloads.pass_order(ops, random.Random(1))
        b = workloads.pass_order(ops, random.Random(2))
        assert sorted(o.id for o in a) == sorted(o.id for o in b) == sorted(o.id for o in ops)
    # thermo sweeps stay whole and in temperature order
    order = workloads.pass_order(workloads.thermo_ops(), random.Random(3))
    for i in range(0, len(order), len(workloads.THERMO_TEMPS_K)):
        sweep = order[i:i + len(workloads.THERMO_TEMPS_K)]
        assert len({o.group for o in sweep}) == 1
        assert [o.args["temp"] for o in sweep] == list(workloads.THERMO_TEMPS_K)


def _bindings():
    import casimirbox.cli  # noqa: F401  (loads every package module, validate included)

    return {(m.__name__, attr): value for m in tracer._package_modules()
            for attr, value in vars(m).items()}


def test_tracer_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        rebound = set(t.rebound)
        for expected in [("casimirbox.boxzero", "e0"), ("casimirbox.thermal", "e0"),
                         ("casimirbox.boxzero", "bessel_k"), ("casimirbox", "free_energy"),
                         ("casimirbox.thermal", "free_energy"),
                         ("casimirbox.plates", "plates_free_energy"),
                         ("casimirbox.cli", "plates_pressure"),
                         ("casimirbox._modesum", "log_sum")]:
            assert expected in rebound
        assert len(tracer.leftover_wrappers()) == len(rebound)
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.leftover_wrappers() == []


def test_traced_and_untraced_outputs_identical_in_process():
    ops = _ops("thermo:em:cube:300K", "thermo:scalar:bar:1000K", "aspect:e0:em:1x2x3",
               "aspect:e0_force_x:scalar:1x2x3", "plates:plates_free_energy:2um:t=1.9",
               "plates:plates_pressure:0.5um:t=0.001", "plates:plates_free_energy:0.5um:t=0.0221")
    runner = run.InProcessRunner(workloads)
    plain, _ = run.run_pass(runner, ops)
    t = tracer.Tracer()
    t.install()
    try:
        traced, _ = run.run_pass(runner, ops, t)
    finally:
        t.uninstall()
    assert run.same_outputs(plain, traced)
    assert plain[5].error == "DerivativeInstabilityError"
    stats = tracer.layer_stats(t.spans)
    assert stats["thermal.entropy"]["calls"] == 2
    assert stats["plates.plates_free_energy"]["calls"] >= 2
    assert stats["specfun.bessel_k"]["calls"] > 0
    total = sum(s["self_s"] for s in stats.values())
    roots = sum(e - s for _, s, e, parent, _ in t.spans if parent < 0)
    assert abs(total - roots) < 1e-6 * max(1.0, roots)


def test_traced_and_untraced_outputs_identical_through_the_cli(tmp_path):
    env = run.child_env(ROOT)
    argv = workloads.CLI_CALLS["thermo"]
    plain = run.run_child([sys.executable, "-m", "casimirbox.cli", *argv], env, str(tmp_path))
    spans_path = str(tmp_path / "spans.json")
    traced = run.run_child([sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *argv],
                           env, str(tmp_path))
    assert plain[2] == traced[2] == 0
    assert plain[0] == traced[0]


def test_output_check_counts_raised_wrong_and_unexpected():
    refs = {"a": {"x": {"value": 1.0, "accuracy": 0.0}},
            "b": {"x": {"value": 2.0, "accuracy": 1e-9}},
            "c": {"x": {"value": 3.0, "accuracy": 0.0}},
            "d": {"x": {"value": 4.0, "accuracy": 0.0}}}
    known = {"c": {"outcome": "raises", "raises": "ConvergenceError", "cause": "pinned"},
             "d": {"outcome": "inaccurate", "outputs": {"x": 1e-6}, "cause": "pinned"}}
    outcomes = [run.Outcome("a", 0.1, {"x": 1.0 + 5e-11}, None),
                run.Outcome("b", 0.1, {"x": 2.0 * (1 + 2e-9)}, None),
                run.Outcome("c", 0.1, None, "ConvergenceError"),
                run.Outcome("d", 0.1, {"x": 4.0 * (1 + 1.5e-6)}, None)]
    res = run.check_outcomes(outcomes, refs, known)
    assert (res.attempted, res.raised, res.wrong) == (4, 1, 2)
    assert abs(res.max_dev - 1.5e-6) < 1e-12
    assert res.unexpected == ["b missed its reference on ['x']"]

    # a pinned defect that gets worse is unexpected: another exception, or
    # a pinned output more than DEFECT_GROWTH times its pinned deviation off
    worse = [run.Outcome("c", 0.1, None, "ZeroDivisionError"),
             run.Outcome("d", 0.1, {"x": 4.0 * (1 + 2.5e-6)}, None)]
    res = run.check_outcomes(worse, refs, known)
    assert (res.attempted, res.raised, res.wrong) == (2, 1, 1)
    assert res.unexpected == ["c raised ZeroDivisionError", "d missed its reference on ['x']"]


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and abs(pct - 75.0) < 1e-12


def test_calibration_runs_before_each_op_outside_its_timing():
    ops = _ops("aspect:e0:em:1x2x3", "aspect:e0:scalar:1x2x3", "plates:plates_free_energy:2um:t=1.9")
    cal = run.Calibration()
    outcomes, wall = run.run_pass(run.InProcessRunner(workloads), ops, cal=cal)
    assert cal.ticks == 3 and cal.seconds > 0.0
    assert wall == sum(oc.latency_s for oc in outcomes)
    assert cal.scale() == run.CALIBRATION_REF_S * 3 / cal.seconds
