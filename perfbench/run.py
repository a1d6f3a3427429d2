"""casimirbox benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload thermo_sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; casimirbox is imported from ./src.
The benchmark is a closed loop: one caller, single-threaded, that issues the
next op only after the last one returned (CLI calls run strictly one after
another).  A run makes one untimed warm-up pass, then a fixed number of
measured passes sized so that a run takes about --seconds on the reference
machine.  The set-up time (fresh interpreters importing the workload's entry
point) is sampled before the warm-up and after each measured pass.  Every
output of every op is checked against the pinned references in
references.json.

Timed figures are scaled to a fixed machine speed.  On a shared machine the
CPU's speed drifts by up to 1.45x within minutes, with little steal time and
CPU time drifting along with wall time, so no run length averages it out.  A
fixed calibration kernel that calls no casimirbox code is timed before each
in-process op, outside the op's timing.  The pass's times, and the set-up
samples taken right after it, are reported scaled by CALIBRATION_REF_S over
the kernel's mean time in that pass.  Raw times are printed beside the
scaled ones.  cli_calls is not scaled: its time is spent in child processes
starting and importing, whose drift the kernel does not follow.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
alternates untraced and traced passes and reports the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# timed set-up imports per run, spread between the measured passes
SETUP_RUNS = 12
IMPORTTIME_RUNS = 5
# alternated untraced and traced passes of a --trace 1 run
TRACE_PAIRS = 3
DEFAULT_TOL = 1e-10
# CLI cells carry 12 significant digits
CLI_PRINT_ROUNDING = 5e-12
CHILD_TIMEOUT_S = 120.0
# an op at or below this deviation is reported at this floor: roundoff below
# the requested tolerance is not a change
REL_ERR_FLOOR = 1e-10
# a pinned seed defect may deviate by up to this factor times its pinned deviation
DEFECT_GROWTH = 2.0
# the calibration kernel's time at the machine speed times are scaled to (about
# its median on the reference machine, so scaled and raw times stay close)
CALIBRATION_REF_S = 0.8e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_completed_frac": "fraction",
    "ops_accurate_frac": "fraction",
    "max_rel_err": "relative",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, references, ...)."""


# ----------------------------------------------------------------------
# environment


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _git_commit(root: str) -> str:
    """HEAD of a git checkout, read from .git without running git; else 'unknown'."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_pinned": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# children


def run_child(argv: list, env: dict, scratch: str, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion; return (stdout, stderr, exit code, peak RSS KB, wall s).

    Output goes through files so the child never blocks on a full pipe; the
    child is reaped with wait4 to read its own peak RSS, and killed if it
    outlives `timeout`.
    """
    out_path, err_path = os.path.join(scratch, "child.out"), os.path.join(scratch, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return out.read(), err.read(), proc.returncode, usage.ru_maxrss, wall


def measure_setup(entry: str, env: dict, scratch: str, runs: int, warm_up: bool = False) -> list:
    """Wall times of `runs` fresh interpreters importing `entry`, after an optional warm-up import."""
    cmd = [sys.executable, "-c", f"import {entry}"]
    times = []
    for i in range(runs + warm_up):
        _, err, code, _, wall = run_child(cmd, env, scratch)
        if code != 0:
            raise BenchmarkError(f"importing {entry} failed:\n{err}")
        if i or not warm_up:
            times.append(wall)
    return times


def _importtime_cumulative(stderr: str) -> dict:
    """{module: cumulative import seconds} from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out[name.strip()] = int(cumulative) * 1e-6
    return out


def measure_imports(entry: str, env: dict, scratch: str) -> dict:
    """Median cumulative import times of the modules the cli layer metrics name."""
    cmd = [sys.executable, "-X", "importtime", "-c", f"import {entry}"]
    samples = {"casimirbox.cli": [], "casimirbox.validate": [], "scipy.special": []}
    run_child(cmd, env, scratch)
    for _ in range(IMPORTTIME_RUNS):
        _, err, code, _, _ = run_child(cmd, env, scratch)
        if code != 0:
            raise BenchmarkError(f"importing {entry} failed:\n{err}")
        times = _importtime_cumulative(err)
        for mod, vals in samples.items():
            vals.append(times.get(mod, 0.0))
    return {mod: statistics.median(vals) for mod, vals in samples.items()}


# ----------------------------------------------------------------------
# machine-speed calibration


class Calibration:
    """Times a fixed kernel that calls no casimirbox code, to track machine speed.

    The kernel mixes the kinds of work casimirbox's layers do: a Python loop
    of math calls, numpy ufuncs over a 4000-point array and scalar
    scipy.special.kv calls.  It takes about CALIBRATION_REF_S on the
    reference machine, about 1% of a nominal in-process op.
    """

    def __init__(self):
        import numpy
        from scipy import special

        self._np, self._kv = numpy, special.kv
        self._x = numpy.linspace(0.1, 30.0, 4000)
        self.reset()

    def reset(self) -> None:
        self.ticks, self.seconds = 0, 0.0

    def tick(self) -> None:
        np, kv, x = self._np, self._kv, self._x
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(1, 3000):
            acc += math.exp(-1e-5 * i) * math.sqrt(i)
        for _ in range(4):
            acc += float(np.sum(np.log1p(-np.exp(-np.sqrt(x * x + 1.0)))))
        for i in range(1, 60):
            acc += float(kv(1.0, 0.1 * i))
        self.seconds += time.perf_counter() - t0
        self.ticks += 1
        if not math.isfinite(acc):
            raise BenchmarkError("calibration kernel gave a non-finite sum")

    def scale(self) -> float:
        """Factor that takes a time measured since reset() to the reference speed."""
        return CALIBRATION_REF_S * self.ticks / self.seconds


# ----------------------------------------------------------------------
# passes


class Outcome:
    """One op's result in one pass."""

    __slots__ = ("op_id", "latency_s", "outputs", "error", "maxrss_kb")

    def __init__(self, op_id, latency_s, outputs, error, maxrss_kb=0):
        self.op_id, self.latency_s, self.outputs = op_id, latency_s, outputs
        self.error, self.maxrss_kb = error, maxrss_kb


class InProcessRunner:
    def __init__(self, workloads):
        self._execute = workloads.execute
        self._failed = workloads.OpFailed

    def run(self, op, tracer=None) -> Outcome:
        if tracer is not None:
            tracer.op = op.id
        t0 = time.perf_counter()
        try:
            outputs, error = self._execute(op), None
        except self._failed as exc:
            outputs, error = None, str(exc)
        return Outcome(op.id, time.perf_counter() - t0, outputs, error)


class CliRunner:
    """Each op is one CLI process; traced calls go through tracer.py as the child."""

    def __init__(self, workloads, env, scratch):
        self._wl, self.env, self.scratch = workloads, env, scratch
        self.child_spans: list = []  # (op id, spans) per traced call
        self.compute_s = 0.0  # time inside cli.main, summed over traced calls

    def run(self, op, tracer=None) -> Outcome:
        argv = op.args["argv"]
        if tracer is None:
            cmd = [sys.executable, "-m", "casimirbox.cli", *argv]
        else:
            spans_path = os.path.join(self.scratch, "child-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *argv]
        stdout, stderr, code, rss, wall = run_child(cmd, self.env, self.scratch)
        if tracer is not None and code == 0:
            with open(spans_path) as fh:
                child = json.load(fh)
            self.child_spans.append((op.id, child["spans"]))
            self.compute_s += child["compute_s"]
        if code != 0:
            return Outcome(op.id, wall, None, f"exit {code}: {stderr.strip()[-200:]}", rss)
        name = op.id.split(":", 1)[1]
        return Outcome(op.id, wall, self._wl.parse_cli_output(name, stdout), None, rss)


def run_pass(runner, ops, tracer=None, cal=None):
    """Run `ops` one after another; return (outcomes, pass time).

    The pass time is the sum of the op latencies.  With `cal`, its kernel
    runs before each op, outside the op's timing, and cal.scale() covers
    the pass.
    """
    outcomes = []
    if cal is not None:
        cal.reset()
    for op in ops:
        if cal is not None:
            cal.tick()
        outcomes.append(runner.run(op, tracer))
    return outcomes, sum(oc.latency_s for oc in outcomes)


# ----------------------------------------------------------------------
# output check


def load_json(name: str) -> dict:
    path = os.path.join(HERE, name)
    if not os.path.isfile(path):
        raise BenchmarkError(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def deviation(value: float, ref: dict) -> float:
    denom = ref.get("scale", abs(ref["value"]))
    diff = abs(value - ref["value"])
    return diff / denom if denom else diff


class CheckResult:
    def __init__(self):
        self.attempted = 0
        self.raised = 0  # ops that raised or exited non-zero
        self.wrong = 0  # completed ops with an output outside tolerance
        self.max_dev = 0.0
        self.unexpected: list = []  # outcomes no pinned seed defect accounts for

    @property
    def failed(self) -> int:
        """Ops whose outcome is worse than pinned: the JSON `failed` count."""
        return len(self.unexpected)


def check_outcomes(outcomes, refs: dict, known: dict) -> CheckResult:
    """Compare every output with its reference; count raised and wrong ops.

    An op is wrong when an output deviates by more than the default 1e-10
    plus the reference's accuracy.  Outcomes listed in known_defects.json are
    the seed's own defects: a pinned raise must raise the recorded exception,
    and a pinned output may miss by up to DEFECT_GROWTH times its recorded
    deviation.  Any other raise or miss is unexpected.
    """
    res = CheckResult()
    for oc in outcomes:
        res.attempted += 1
        ref = refs[oc.op_id]
        defect = known.get(oc.op_id, {})
        if oc.error is not None:
            res.raised += 1
            if defect.get("outcome") != "raises" or defect["raises"] != oc.error:
                res.unexpected.append(f"{oc.op_id} raised {oc.error}")
            continue
        if set(oc.outputs) != set(ref):
            res.unexpected.append(f"{oc.op_id} outputs {sorted(oc.outputs)} != references")
            continue
        slack = CLI_PRINT_ROUNDING if oc.op_id.startswith("cli:") else 0.0
        missed = {}
        for name, value in oc.outputs.items():
            dev = deviation(value, ref[name])
            res.max_dev = max(res.max_dev, dev)
            if not dev <= DEFAULT_TOL + ref[name]["accuracy"] + slack:
                missed[name] = dev
        if missed:
            res.wrong += 1
            pinned = defect.get("outputs", {})
            if any(not dev <= DEFECT_GROWTH * pinned.get(name, 0.0) for name, dev in missed.items()):
                res.unexpected.append(f"{oc.op_id} missed its reference on {sorted(missed)}")
    return res


def same_outputs(a, b) -> bool:
    return all(x.op_id == y.op_id and x.outputs == y.outputs and x.error == y.error
               for x, y in zip(a, b)) and len(a) == len(b)


# ----------------------------------------------------------------------
# metrics


def tail(latencies: list):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(0, n - 11)
    return xs[idx], 100.0 * (idx + 1) / n


def end_to_end(setup_times, walls, latencies, check: CheckResult, peak_rss_kb: int) -> dict:
    """End-to-end metrics from set-up times, pass times and op latencies, all in seconds."""
    tail_s, _ = tail(latencies)
    n = check.attempted
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_completed_frac": (n - check.raised) / n,
        "ops_accurate_frac": (n - check.raised - check.wrong) / n,
        "max_rel_err": max(REL_ERR_FLOOR, check.max_dev),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(stats: dict, passes: int, n_ops: int, imports: dict, compute_s: float,
              overhead_s: float) -> dict:
    """Per-pass layer metrics from the spans of `passes` traced passes."""
    out = {}
    for fn, st in stats.items():
        # metric names start with a letter, so _modesum reports as modesum
        out[f"{fn.lstrip('_')}.calls"] = st["calls"] / passes
        out[f"{fn.lstrip('_')}.self_s"] = st["self_s"] / passes
    modesum = sum(out[f"modesum.{fn}.calls"] for fn in ("log_sum", "force_sum", "energy_sum"))
    out["modesum.calls_per_op"] = modesum / n_ops
    out["boxzero.e0.calls_per_op"] = out["boxzero.e0.calls"] / n_ops
    out["cli.import_s"] = imports["casimirbox.cli"]
    out["cli.import.validate_s"] = imports["casimirbox.validate"]
    out["cli.import.scipy_special_s"] = imports["scipy.special"]
    out["cli.compute_s"] = compute_s / passes
    out["trace.overhead_s"] = overhead_s
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("calls_per_op"):
        return "calls/op"
    return "count" if name.endswith(".calls") else "s"


# ----------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "casimirbox", "__init__.py")):
        raise BenchmarkError(f"no casimirbox sources under {src}; run from a source checkout")
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import casimirbox

    if not os.path.abspath(casimirbox.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"imported casimirbox from {casimirbox.__file__}, not {src}")
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    if name not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    refs = load_json("references.json")["ops"]
    known = load_json("known_defects.json")["ops"]
    ops = wl.ops()
    missing = [op.id for op in ops if op.id not in refs]
    if missing:
        raise BenchmarkError(f"ops without a reference: {missing[:5]}")

    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    env = child_env(root)
    is_cli = name == "cli_calls"
    runner = CliRunner(workloads, env, scratch) if is_cli else InProcessRunner(workloads)
    rng = random.Random(seed)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(root), "ops_per_pass": len(ops)}

    if not trace:
        passes = wl.passes_for(seconds)
        # set-up samples after the warm-up and after each measured pass, so
        # they cover the same stretch of time as the passes and are scaled
        # by the calibration of the pass before them
        slots = [SETUP_RUNS // (passes + 1) + (i < SETUP_RUNS % (passes + 1))
                 for i in range(passes + 1)]
        cal = None if is_cli else Calibration()
        run_pass(runner, workloads.pass_order(ops, rng), cal=cal)  # warm-up
        scale = cal.scale() if cal else 1.0
        setup = [(t, t * scale)
                 for t in measure_setup(wl.entry_module, env, scratch, slots[0], warm_up=True)]
        outcomes, walls, latencies, scales = [], [], [], []
        for slot in slots[1:]:
            res, wall = run_pass(runner, workloads.pass_order(ops, rng), cal=cal)
            scale = cal.scale() if cal else 1.0
            outcomes += res
            walls.append((wall, wall * scale))
            latencies += [(oc.latency_s, oc.latency_s * scale) for oc in res]
            scales.append(scale)
            setup += [(t, t * scale) for t in measure_setup(wl.entry_module, env, scratch, slot)]
        check = check_outcomes(outcomes, refs, known)
        if is_cli:
            peak_kb = max(oc.maxrss_kb for oc in outcomes)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # each list holds (raw, scaled) pairs; zip(*) splits them
        (setup_raw, setup_scaled), (walls_raw, walls_scaled), (lat_raw, lat_scaled) = (
            zip(*pairs) for pairs in (setup, walls, latencies))
        metrics = end_to_end(setup_scaled, walls_scaled, lat_scaled, check, peak_kb)
        unscaled = end_to_end(setup_raw, walls_raw, lat_raw, check, peak_kb)
        _, pct = tail(lat_scaled)
        report.update(passes=passes, correct=not check.unexpected)
        report["notes"] = {
            "op_tail_ms": f"p{pct:.1f} over {len(outcomes)} ops",
            "ops_failed_frac": check.raised / check.attempted,
            "ops_wrong_frac": check.wrong / check.attempted,
            "raw_setup_s": unscaled["setup_s"],
            "raw_wall_s": unscaled["wall_s"],
            "raw_op_p50_ms": unscaled["op_p50_ms"],
            "raw_op_tail_ms": unscaled["op_tail_ms"],
            "calibration_scale": statistics.median(scales),
        }
    else:
        imports = measure_imports(wl.entry_module, env, scratch)
        run_pass(runner, workloads.pass_order(ops, rng))  # warm-up
        order = workloads.pass_order(ops, rng)
        tr = tracing.Tracer()
        outcomes, overheads, differ = [], [], False
        for _ in range(TRACE_PAIRS):
            plain, plain_wall = run_pass(runner, order)
            if not is_cli:
                tr.install()
            try:
                traced, traced_wall = run_pass(runner, order, tr)
            finally:
                tr.uninstall()
            outcomes += plain + traced
            overheads.append(traced_wall - plain_wall)
            differ |= not same_outputs(plain, traced)
        spans = tr.spans
        for op_id, child in runner.child_spans if is_cli else []:
            base = len(spans)
            spans += [(n, s, e, p + base if p >= 0 else -1, op_id) for n, s, e, p, _ in child]
        check = check_outcomes(outcomes, refs, known)
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            check.unexpected.append(f"tracer left wrappers bound: {leftovers}")
        if differ:
            check.unexpected.append("traced and untraced passes gave different outputs")
        compute_s = runner.compute_s if is_cli else 0.0
        metrics = per_layer(tracing.layer_stats(spans), TRACE_PAIRS, len(ops), imports, compute_s,
                            statistics.median(overheads))
        with open(os.path.join(scratch, f"spans-{name}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
        report.update(passes=TRACE_PAIRS, correct=not check.unexpected)
    report.update(attempted=check.attempted, failed=check.failed, metrics=metrics,
                  unexpected=check.unexpected)
    return report


def print_report(rep: dict) -> None:
    print(f"# workload={rep['workload']} seed={rep['seed']} seconds={rep['seconds']} "
          f"trace={rep['trace']} passes={rep['passes']} ops/pass={rep['ops_per_pass']}")
    print(f"# env {json.dumps(rep['env'], sort_keys=True)}")
    trace = rep["trace"]
    for name, value in rep["metrics"].items():
        unit = per_layer_unit(name) if trace else END_TO_END_UNITS[name]
        note = rep.get("notes", {}).get(name, "")
        print(f"{name:34s} {value:<24.10g} {unit:10s} {note}")
    for name, value in rep.get("notes", {}).items():
        if name not in rep["metrics"]:
            unit = next((u for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_scale", "ratio"))
                         if name.endswith(suffix)), "fraction")
            print(f"{name:34s} {value:<24.10g} {unit:10s} (informational)")
    print(f"# output check: correct={rep['correct']} attempted={rep['attempted']} "
          f"unexpected={rep['failed']}")
    for line in rep["unexpected"][:20]:
        print(f"#   {line}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="casimirbox benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.workload == "all":
        return run_all(args, root)
    try:
        rep = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(rep)
    units = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    print(result_line(rep["correct"], rep["attempted"], rep["failed"], rep["metrics"], units))
    return 0


def run_all(args, root: str) -> int:
    """Run every workload in its own process, one after another; combine the results."""
    sys.path.insert(0, HERE)
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
