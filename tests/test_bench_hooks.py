"""The benchmark's layer hooks (``bench/tracing.py``) still find the entry points level sums and point values go through."""

import sys
from pathlib import Path

import numpy as np

from ordercalc import _kernels_fallback as K
from ordercalc.functions import LatticeFunction
from ordercalc.integrate import integrate
from ordercalc.lattice import Element, OrderInterval

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402  (from bench/, read only)


def test_every_hook_resolves_and_level_sums_run_through_the_hooked_entry_points():
    # t^3 - t has critical entries on [-1, 1], t^2 none on [1, 2]: one
    # band sums through darboux_critical, the other through darboux_endpoint.
    f = LatticeFunction.coordinatewise(["t^3 - t", "t^2"])
    box = OrderInterval(Element([-1.0, 1.0]), Element([1.0, 2.0]))
    originals = (K.darboux_critical, K.darboux_endpoint)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.missing == []
        traced = integrate(f, box)
        before = tracer.count["expr.eval_expr"]
        f.eval(Element([0.5, 1.5]))  # one scalar evaluation per atom
    assert tracer.count["kernels.critical"] > 0
    assert tracer.count["kernels.endpoint"] > 0
    assert tracer.count["expr.eval_expr"] == before + 2 > 0
    assert (K.darboux_critical, K.darboux_endpoint) == originals  # restored on leaving
    assert np.array_equal(traced.value.data, integrate(f, box).value.data)
