"""Fixed micro-runs of single layers, for the traced run.

Kernel rates use 2^20 points or cells (8 MiB per float64 array), so on the
reference machine (300 MiB L3) they are in-cache compute rates.  Each
entry point is looked up by name when the run starts; one that no longer
exists gives ``None`` for its metrics.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

N = 1 << 20
MIXED = "exp(t)*cos(t) + log(t+1)/(t^2+1)"
PARSE_SOURCES = ("t", "t^2", "t^3", "sin(t)", "exp(t)", "3*t^2 - 2*t", "t^3 - t", MIXED)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + np.arange(n + 1) * ((hi - lo) / n)


def _rate(entry, args, count: int, reps: int) -> float | None:
    """Millions of points or cells per second, or None if ``entry`` is gone."""
    if entry is None:
        return None
    return count / _median_time(lambda: entry(*args), reps) / 1e6


def kernel_rates() -> dict:
    from ordercalc import ScalarKernel

    K = importlib.import_module("ordercalc._kernels_fallback")
    get = lambda name: getattr(K, name, None)  # noqa: E731
    prog = {src: ScalarKernel.from_string(src).program for src in ("t^2", "sin(t)", "t^3", MIXED)}
    xs = _grid(0.0, 1.0, N)
    t3 = ScalarKernel.from_string("t^3")
    xs3 = _grid(-1.0, 1.0, N)
    crit = t3.critical_points(-1.0, 1.0)
    crit_vals = t3.eval_many(crit)
    pts = xs[:-1]
    m = {
        "kernels.eval_mpts_per_s.t2": _rate(get("eval_many"), (prog["t^2"], pts), N, 9),
        "kernels.eval_mpts_per_s.sin": _rate(get("eval_many"), (prog["sin(t)"], pts), N, 9),
        "kernels.eval_mpts_per_s.mixed": _rate(get("eval_many"), (prog[MIXED], pts), N, 7),
        "kernels.endpoint_mcells_per_s.t2": _rate(get("darboux_endpoint"), (prog["t^2"], xs), N, 7),
        "kernels.endpoint_mcells_per_s.sin": _rate(get("darboux_endpoint"), (prog["sin(t)"], xs), N, 7),
        "kernels.critical_mcells_per_s.t3": _rate(
            get("darboux_critical"), (prog["t^3"], xs3, crit, crit_vals), N, 7
        ),
        "kernels.sampled_mcells_per_s.t2": _rate(get("darboux_sampled"), (prog["t^2"], xs, 4), N, 3),
        "kernels.sampled_mcells_per_s.sin": _rate(get("darboux_sampled"), (prog["sin(t)"], xs, 4), N, 3),
        "kernels.prefix_mcells_per_s.sin": _rate(get("prefix_sampled"), (prog["sin(t)"], xs, 4), N, 3),
    }
    return m


def layer_costs() -> dict:
    from ordercalc import ScalarKernel

    ex = importlib.import_module("ordercalc.expr")
    tape = importlib.import_module("ordercalc._tape")
    partitions = importlib.import_module("ordercalc.partitions")
    asts = [ex.parse(s) for s in PARSE_SOURCES]

    def per_item_us(fn, items, reps: int) -> float:
        return _median_time(lambda: [fn(x) for x in items], reps) / len(items) * 1e6

    compile_expr = getattr(tape, "compile_expr", None)
    uniform_grid = getattr(partitions, "uniform_grid", None)
    t3 = ScalarKernel.from_string("t^3")
    t3.derivative()  # the symbolic derivative is cached on first use
    crit = getattr(ScalarKernel, "critical_points", None)
    return {
        "expr.parse_us": per_item_us(ex.parse, PARSE_SOURCES, 51),
        "expr.differentiate_us": per_item_us(ex.differentiate, asts, 51),
        "tape.compile_us": per_item_us(compile_expr, asts, 51) if compile_expr else None,
        "functions.critical_points_us.t3": (
            _median_time(lambda: crit(t3, -1.0, 1.0), 51) * 1e6 if crit else None
        ),
        "partitions.uniform_grid_ms": (
            _median_time(lambda: uniform_grid(0.0, 1.0, N), 9) * 1e3 if uniform_grid else None
        ),
    }


def antiderivative_queries(seed: int, count: int = 200) -> float:
    """p50 latency (us) of reading the calculus workload's antiderivative."""
    from ordercalc import Element, LatticeFunction, OrderInterval, antiderivative

    f = LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"])
    F = antiderivative(f, OrderInterval(Element([0.0, 0.0]), Element([1.0, 1.0])))
    points = np.random.default_rng([seed, 4]).uniform(0.0, 1.0, (count, 2))
    times = []
    for p in points:
        x = Element(p)
        t0 = time.perf_counter()
        F.eval(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6
