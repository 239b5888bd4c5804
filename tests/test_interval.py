"""Interval enclosures of kernel programs and the extrema certified with them."""

import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import adaptive_simpson, random_expr
from ordercalc import expr as ex
from ordercalc._interval import enclose
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel, extrema
from ordercalc.integrate import ToleranceSchedule, integrate
from ordercalc.lattice import Element, OrderInterval


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


# One expression per opcode (the constant, the variable and the arithmetic
# ones appear inside the others), with boxes chosen to hit each case of its
# enclosure: signs of the operands, even and odd powers across 0, and sin
# and cos pieces that hold a peak, a trough, both, or a whole period.
OPCODE_CASES = {
    "const": ("2.5", [(-1.0, 1.0)]),
    "var": ("t", [(-1.0, 1.0)]),
    "neg": ("-t", [(-1.0, 2.0)]),
    "add": ("t + t^2", [(-2.0, 0.5), (0.1, 3.0)]),
    "sub": ("t - t^2", [(-2.0, 0.5), (0.1, 3.0)]),
    "mul": ("t * (t - 0.5)", [(-2.0, -1.0), (-1.0, 2.0), (0.6, 3.0)]),
    "div": ("t / (t^2 + 1)", [(-2.0, 2.0), (0.5, 3.0)]),
    "pow_even": ("(t - 0.3)^4", [(-1.0, 0.0), (-1.0, 2.0), (0.5, 2.0)]),
    "pow_odd": ("(t - 0.3)^3", [(-1.0, 0.0), (-1.0, 2.0)]),
    "pow_neg": ("(t + 3)^-2", [(-2.0, 2.0)]),
    "sin": ("sin(t)", [(1.0, 2.0), (-2.0, -1.0), (-2.0, 2.0), (2.0, 4.0), (0.0, 7.0), (0.0, 0.1)]),
    "cos": ("cos(t)", [(-0.5, 0.5), (3.0, 3.5), (-1.0, 4.0), (0.5, 2.5), (-7.0, 0.0)]),
    "exp": ("exp(t)", [(-3.0, 2.0), (-800.0, -700.0)]),
    "log": ("log(t + 3)", [(-2.0, 2.0), (-2.99, -2.9)]),
    "sqrt": ("sqrt(t + 3)", [(-3.0, 1.0), (-2.0, 6.0)]),
    "abs": ("abs(t - 0.2)", [(-1.0, 1.0), (0.5, 1.0), (-1.0, 0.0)]),
    "min": ("min(t, t^2)", [(-1.0, 2.0)]),
    "max": ("max(sin(t), t)", [(-2.0, 2.0)]),
}


@pytest.mark.parametrize("name", sorted(OPCODE_CASES))
def test_opcode_enclosure_contains_point_values(name):
    src, boxes = OPCODE_CASES[name]
    prog = ScalarKernel.from_string(src).program
    rng = np.random.default_rng(11)
    for lo, hi in boxes:
        # the whole box, plus random sub-pieces down to tiny widths
        a = np.concatenate(([lo], rng.uniform(lo, hi, 20)))
        w = np.concatenate(([hi - lo], (hi - a[1:]) * 10.0 ** rng.uniform(-12, 0, 20)))
        b = np.minimum(a + w, hi)
        e_lo, e_hi = enclose(prog, a, b)
        for i in range(len(a)):
            ts = np.concatenate(([a[i], b[i]], rng.uniform(a[i], b[i], 1000)))
            vals = ScalarKernel.from_string(src).eval_many(ts)
            assert np.all(e_lo[i] <= vals) and np.all(vals <= e_hi[i]), (src, a[i], b[i])


def test_sin_cos_enclosures_reach_their_peaks():
    sin = ScalarKernel.from_string("sin(t)").program
    cos = ScalarKernel.from_string("cos(t)").program
    lo, hi = enclose(sin, np.array([1.0, -2.0, 0.0]), np.array([2.0, -1.0, 0.5]))
    assert hi[0] == 1.0 and lo[1] == -1.0
    assert lo[2] == 0.0 and hi[2] < 1.0  # an exact zero stays zero
    lo, hi = enclose(cos, np.array([3.0, -10.0]), np.array([3.5, 0.0]))
    assert lo[0] == -1.0 and (lo[1], hi[1]) == (-1.0, 1.0)


def test_point_enclosure_holds_the_exact_real_value():
    # Rounding to nearest alone misses the exact result about half the time;
    # outward rounding must bracket it on every point piece.
    x = np.random.default_rng(5).uniform(0.1, 3.0, 200)
    exact = {
        "t + 0.1": lambda q: q + Fraction(0.1),
        "t - 1.3": lambda q: q - Fraction(1.3),
        "t * 0.3": lambda q: q * Fraction(0.3),
        "t * t": lambda q: q * q,
        "0.7 / t": lambda q: Fraction(0.7) / q,
        "t^3": lambda q: q**3,
    }
    for src, value in exact.items():
        lo, hi = enclose(ScalarKernel.from_string(src).program, x, x)
        for xi, l, h in zip(x, lo, hi):
            assert Fraction(l) <= value(Fraction(xi)) <= Fraction(h), (src, xi)
    lo, hi = enclose(ScalarKernel.from_string("sqrt(t)").program, x, x)
    for xi, l, h in zip(x, lo, hi):
        assert Fraction(l) ** 2 <= Fraction(xi) <= Fraction(h) ** 2


def test_certified_minimum_reaches_a_zero_between_floats():
    # The minimum 0 lies at sqrt(2) (sqrt(3)), between floats, and f at the
    # bracket's centre is about 1e-24: only the term sup|f''|*delta^2/2
    # brings the certified minimum down to the true one.
    for src in ("(t^2 - 2)^2", "(t^2 - 3)^2"):
        pair = extrema(LatticeFunction.coordinatewise(src, dim=1), interval((1.0,), (2.0,)))
        assert pair.method == "exact" and pair.m[0] <= 0.0, src


def test_enclosure_unbounded_off_the_domain_and_across_a_pole():
    def bounds(src, a, b):
        lo, hi = enclose(ScalarKernel.from_string(src).program, np.array([a]), np.array([b]))
        return lo[0], hi[0]

    for src, a, b in [("log(t)", -2.0, -1.0), ("sqrt(t)", -2.0, -1.0), ("1/(t - 0.3)", 0.0, 1.0)]:
        assert bounds(src, a, b) == (-np.inf, np.inf), src
    # a bounded function of a value defined nowhere on the piece stays unbounded
    assert bounds("sin(sqrt(t))", -2.0, -1.0) == (-np.inf, np.inf)
    # an argument partly off the domain is clipped to it
    lo, hi = bounds("sqrt(t)", -1.0, 1.0)
    assert lo == 0.0 and 1.0 <= hi <= 1.0 + 4 * np.finfo(float).eps
    lo, hi = bounds("log(t)", -1.0, 1.0)
    assert lo == -np.inf and 0.0 <= hi < 1e-15
    # 1 - t^2 rounds outward below 0 at t = 1; the enclosure stays finite
    lo, hi = bounds("sqrt(1 - t^2)", 0.5, 1.0)
    assert lo == 0.0 and 0.866 < hi < 0.867


def test_no_extremum_missed_on_random_smooth_kernels():
    rng = random.Random(2604)
    box_rng = np.random.default_rng(2604)
    sched = ToleranceSchedule(1e-4, 14)
    eps = np.finfo(float).eps
    kernels = exact = with_crit = 0
    while kernels < 50:
        e = random_expr(rng, depth=5, smooth_only=True)
        if isinstance(ex.differentiate(e), ex.Const):
            continue  # constant and affine kernels have nothing to miss
        kernels += 1
        lo = float(box_rng.uniform(-2.0, 1.0))
        hi = lo + float(box_rng.uniform(0.1, 2.0))
        k = ScalarKernel.from_expr(e)
        try:
            r = integrate(LatticeFunction.coordinatewise([k]), interval((lo,), (hi,)), sched)
        except KernelEvalError:
            continue
        if r.extrema_method != "exact":
            continue
        # the oracle's own tolerance, relative to the integral's size
        quad_tol = 1e-12 * (1.0 + abs(r.value[0]))
        ref = adaptive_simpson(lambda t: ex.eval_expr(e, t), lo, hi, tol=quad_tol)
        exact += 1
        with_crit += len(k.critical_points(lo, hi)) > 0
        slack = 64 * eps * (abs(r.lower[0]) + abs(r.upper[0])) + 16 * quad_tol
        assert r.lower[0] - slack <= ref <= r.upper[0] + slack, (ex.print_expr(e), lo, hi)
        # The same isolation bounds the kernel over the whole box; a missed
        # interior extremum shows here at once, not only at O(h^3) in a sum.
        pair = extrema(LatticeFunction.coordinatewise([k]), interval((lo,), (hi,)))
        vals = k.eval_many(np.linspace(lo, hi, 4001))
        scale = 8 * eps * np.abs(vals).max()
        assert pair.m[0] - scale <= vals.min() and vals.max() <= pair.M[0] + scale
    assert exact >= 25 and with_crit >= 5


def test_singular_kernel_fails_fast_naming_atom_and_point():
    f = LatticeFunction.coordinatewise("1/(t-0.3)", dim=1)
    t0 = time.perf_counter()
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((0.0,), (1.0,)))
    assert time.perf_counter() - t0 < 1.0
    assert info.value.atom == 0
    t = float(re.search(r"t=(\S+)", str(info.value)).group(1))
    assert abs(t - 0.3) <= 1e-6


def test_kernel_off_its_domain_names_a_point_outside_it():
    f = LatticeFunction.coordinatewise("sqrt(t)", dim=1)
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((-1.0,), (1.0,)))
    assert float(re.search(r"t=(\S+)", str(info.value)).group(1)) < 0.0


def test_extremum_on_a_split_point_is_a_critical_point():
    # The isolation cuts [-1, 1] at 0, where f' = 4t^3 touches 0 on both
    # sides; a cell holding 0 inside must still see the minimum f(0) = 0.
    k = ScalarKernel.from_string("t^4")
    assert list(k.critical_points(-1.0, 1.0)) == [0.0]
    from ordercalc.integrate import darboux_sums
    from ordercalc.partitions import Partition

    p = Partition(tuple(Element([x]) for x in (-1.0, -0.1, 0.3, 1.0)), interval((-1.0,), (1.0,)))
    sums = darboux_sums(LatticeFunction.coordinatewise([k]), p)
    # cell minima: f(-0.1), then f(0) = 0 inside the middle cell, then f(0.3)
    assert sums.lower[0] == pytest.approx(0.1**4 * 0.9 + 0.3**4 * 0.7, rel=1e-12)


@pytest.mark.parametrize(
    "src, lo, hi", [("sqrt(t)", 0.0, 1.0), ("sqrt(1 - t^2)", -1.0, 1.0), ("t^3", -1.0, 1.0)]
)
def test_unbounded_derivative_or_double_root_still_exact(src, lo, hi):
    r = integrate(LatticeFunction.coordinatewise(src, dim=1), interval((lo,), (hi,)))
    assert r.converged and r.extrema_method == "exact"
    want = {"sqrt(t)": 2.0 / 3.0, "sqrt(1 - t^2)": np.pi / 2, "t^3": 0.0}[src]
    assert r.lower[0] <= want <= r.upper[0]


def test_kernel_whose_derivative_vanishes_everywhere_falls_back_to_sampling():
    # f' is 0 but not syntactically so; no interval test resolves it.
    f = LatticeFunction.coordinatewise("sin(t)^2 + cos(t)^2", dim=1)
    r = integrate(f, interval((0.0,), (1.0,)))
    assert r.converged and r.extrema_method == "sampled"
    assert r.value[0] == pytest.approx(1.0, abs=1e-6)
