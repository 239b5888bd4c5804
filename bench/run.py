"""Run one workload of the ordercalc benchmark and print its metrics.

Usage::

    python3 bench/run.py --workload {oracle,wide,calculus} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The workload's calls are made in
a closed loop on one thread, repeated in passes for ``--seconds``, and
every result is checked.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs half the time untraced and half
with the layer wrappers of ``tracing.py`` installed, then the micro-runs,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every call passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 7
CLI_REPS = 5


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import ordercalc
    except ImportError as err:
        die(f"cannot import ordercalc from {SRC}: {err}")
    if not Path(ordercalc.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"ordercalc was imported from {ordercalc.__file__}, not from {SRC}")
    return ordercalc


class Runner:
    """Makes a workload's passes, checks every call and keeps the timings."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, object] = {}
        self.solve_times: list[float] = []

    def fail(self, call_id: str, reason: str) -> None:
        self.failures.append(f"{call_id}: {reason}")

    def run_pass(self) -> float:
        outcomes = []
        t0 = time.perf_counter()
        for call in self.workload.calls:
            start = time.perf_counter()
            try:
                result, error = call.fn(), None
            except Exception as err:  # a raising call is a failed call
                result, error = None, f"raised {type(err).__name__}: {err}"
            outcomes.append((call, result, time.perf_counter() - start, error))
        wall = time.perf_counter() - t0
        for call, result, seconds, error in outcomes:
            self.attempted += 1
            if call.kind == "solve":
                self.solve_times.append(seconds)
            reason = error or call.check(result)
            if reason is None:
                reason = self.compare(call.id, call.digest(result))
            if reason is not None:
                self.fail(call.id, reason)
        return wall

    def compare(self, call_id: str, digest) -> str | None:
        """Every pass, traced or not, must give bit-identical results."""
        if digest is None:
            return None
        first = self.digests.setdefault(call_id, digest)
        return None if first == digest else "result differs bitwise from the first pass"

    def passes(self, seconds: float, before=None, after=None) -> list[float]:
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            if before:
                before(len(walls))
            walls.append(self.run_pass())
            if after:
                after(len(walls) - 1)
        return walls

    def check_parallel(self) -> None:
        """workers=2 must give the same bits as workers=1 on one case."""
        case = self.workload.parallel_case
        if case is None:
            return
        import importlib

        integ = importlib.import_module("ordercalc.integrate")
        from workloads import result_digest

        f, box, sched = case
        self.attempted += 1
        one = result_digest(integ.integrate(f, box, sched, workers=1))
        two = result_digest(integ.integrate(f, box, sched, workers=2))
        if one != two:
            self.fail("workers=2 determinism", "result differs bitwise from workers=1")


# --------------------------------------------------------------------------
# End-to-end metrics
# --------------------------------------------------------------------------

def setup_seconds(workload) -> list[float]:
    specs = json.dumps(workload.kernel_specs)
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            input=specs,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip()))
    return out


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds(runner.workload)
    walls = runner.passes(seconds)
    runner.check_parallel()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(walls),
        "solve_p50_s": statistics.median(runner.solve_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    samples = {"passes": len(walls), "solve_calls": len(runner.solve_times), "setup_runs": len(setup)}
    return metrics, samples


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

_COUNTERS = (
    "kernels.calls",
    "kernels.points",
    "functions.critical_points_calls",
    "partitions.grid_bytes",
    "integrate.calls",
    "integrate.levels",
    "integrate.atom_cells",
    "expr.eval_expr_calls",
)


def pass_layers(tr) -> dict:
    """Per-layer numbers of one traced pass; None where a hook is missing."""
    c, busy = tr.count, tr.busy
    kernel_keys = [k for k in tr.kinds_present if k.startswith("kernels.")]

    def when(ok: bool, value):
        return value if ok else None

    kernels_ok = bool(kernel_keys) and "kernels" not in tr.broken
    integ_ok = tr.present("integrate.integrate") and "integrate" not in tr.broken
    m = {
        "kernels.calls": when(bool(kernel_keys), sum(c[k] for k in kernel_keys)),
        "kernels.points": when(kernels_ok, c["kernels.points"]),
        "functions.critical_points_calls": when(
            tr.present("functions.critical_points"), c["functions.critical_points"]
        ),
        "functions.critical_points_s": when(
            tr.present("functions.critical_points"), busy["functions.critical_points"]
        ),
        "partitions.grid_s": when(tr.present("partitions.grid"), busy["partitions.grid"]),
        "partitions.grid_bytes": when(
            tr.present("partitions.grid") and "partitions" not in tr.broken, c["partitions.grid_bytes"]
        ),
        "integrate.calls": when(tr.present("integrate.integrate"), c["integrate.integrate"]),
        "integrate.levels": when(integ_ok, c["integrate.levels"]),
        "integrate.atom_cells": when(integ_ok and kernels_ok, c["integrate.atom_cells"]),
        "integrate.self_s": when(tr.present("integrate.integrate"), tr.self_time["integrate.integrate"]),
        "expr.eval_expr_calls": when(tr.present("expr.eval_expr"), c["expr.eval_expr"]),
        "expr.eval_expr_s": when(tr.present("expr.eval_expr"), busy["expr.eval_expr"]),
        "calculus.antiderivative_build_s": when(
            tr.present("calculus.antiderivative"), busy["calculus.antiderivative"]
        ),
        "calculus.verify_s": when(tr.present("calculus.verify"), busy["calculus.verify"]),
    }
    for kind in ("endpoint", "critical", "sampled", "prefix"):
        m[f"kernels.busy_s.{kind}"] = when(tr.present(f"kernels.{kind}"), busy[f"kernels.{kind}"])
    return m


def useful_cell_frac(calls, atom_cells) -> float | None:
    """Cells each atom needs up to its own closing depth, over atom_cells.

    Each atom's closing depth comes from integrating it alone in 1-D, with
    the same schedule, after tracing is off.
    """
    if not atom_cells:
        return None
    from ordercalc import Element, LatticeFunction, OrderInterval, integrate

    depths: dict[tuple, int] = {}
    useful = 0
    for f, interval, sched in calls:
        for i, kernel in enumerate(f.kernels):
            lo, hi = interval.lo[i], interval.hi[i]
            # recorded calls keep every kernel alive, so id() is unique here
            key = (kernel.label if kernel.expr is not None else id(kernel), lo, hi, sched)
            if key not in depths:
                one = LatticeFunction.coordinatewise([kernel])
                depths[key] = integrate(one, OrderInterval(Element([lo]), Element([hi])), sched).depth
            useful += (1 << (depths[key] + 1)) - 1
    return useful / atom_cells


def cli_cold_start(runner: Runner) -> float:
    """Median wall time of ``python -m ordercalc integrate`` as a subprocess."""
    cmd = [sys.executable, "-m", "ordercalc", "integrate", "--kernel", "t^2",
           "--lo", "0", "--hi", "1", "--tol", "1e-6"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        runner.attempted += 1
        if proc.returncode != 0:
            runner.fail("cli integrate t^2", f"exit {proc.returncode}: {proc.stderr.strip()}")
            continue
        try:
            value = json.loads(proc.stdout)["value"][0]
        except (ValueError, KeyError, IndexError) as err:
            runner.fail("cli integrate t^2", f"unreadable output: {err}")
            continue
        if not abs(value - 1.0 / 3.0) <= 1e-6 * (1.0 + 1.0 / 3.0):
            runner.fail("cli integrate t^2", f"value {value!r} vs 1/3")
    return statistics.median(times)


def per_layer(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    import micro
    from tracing import Tracer

    untraced = runner.passes(seconds / 2.0)
    tracer = Tracer()
    snapshots: list[dict] = []

    def before(n: int) -> None:
        tracer.reset()
        tracer.record_calls = n == 0

    with tracer.installed():
        traced = runner.passes(seconds / 2.0, before, lambda n: snapshots.append(pass_layers(tracer)))
    runner.check_parallel()

    m = {}
    for key in snapshots[0]:
        values = [s[key] for s in snapshots]
        if key in _COUNTERS:
            if len(set(values)) > 1:
                runner.fail("trace counters", f"{key} differs between identical passes: {values}")
            m[key] = values[0]
        else:
            m[key] = None if values[0] is None else statistics.median(values)
    m["integrate.useful_cell_frac"] = useful_cell_frac(tracer.integrate_calls, m["integrate.atom_cells"])
    m.update(micro.kernel_rates())
    m.update(micro.layer_costs())
    m["calculus.query_us_p50"] = micro.antiderivative_queries(seed)
    m["cli.cold_start_s"] = cli_cold_start(runner)
    m["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    samples = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "missing_hooks": tracer.missing,
        "micro_points": micro.N,
        "micro_array_mib": micro.N * 8 / 2**20,
        "llc_bytes": llc_bytes(),
    }
    return m, samples


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

def llc_bytes() -> int | None:
    if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        return size if size > 0 else None
    return None


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def metadata(ordercalc, args, workload, samples: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": ordercalc.BACKEND_NAME,
        "nproc": len(os.sched_getaffinity(0)),
        "calls_per_pass": len(workload.calls),
        **workload.meta,
        **samples,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "wide", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        die(f"cannot read BENCHMARK.json: {err}")
    ordercalc = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    runner = Runner(workload)
    if args.trace:
        values, samples = per_layer(runner, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        values, samples = end_to_end(runner, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        die(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    failed = len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    meta = metadata(ordercalc, args, workload, samples)
    meta["failed_frac"] = failed / runner.attempted
    for name in sorted(values):
        value = values[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {units[name]}")
    print(f"{'failed_frac':40s} {meta['failed_frac']:>14.6g} ratio")
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            }
        )
    )
    raise SystemExit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
