import math
import tracemalloc

import numpy as np
import pytest

from helpers import adaptive_simpson
from ordercalc import _kernels_fallback as K
from ordercalc.calculus import (
    antiderivative,
    mvt_integral_solve,
    numeric_derivative,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel
from ordercalc.integrate import ToleranceSchedule, _Band, integrate, signed_integrate
from ordercalc.lattice import Element, OrderInterval
from ordercalc.partitions import uniform_grid


def E(*coords):
    return Element(coords)


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


UNIT2 = interval((0, 0), (1, 1))


# -- numeric derivative --------------------------------------------------------

def test_numeric_derivative_square():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    iv = interval((0, 0), (3, 3))
    d = numeric_derivative(f, E(1, 2), iv)
    assert np.allclose(d.data, [2.0, 4.0], atol=1e-8)


def test_numeric_derivative_constant():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(4.0), dim=3)
    iv = interval((-1, -1, -1), (1, 1, 1))
    assert numeric_derivative(f, E(0, 0.5, -0.5), iv) == E(0, 0, 0)


def test_numeric_derivative_sin_at_zero():
    f = LatticeFunction.coordinatewise("sin(t)", dim=2)
    iv = interval((-1, -1), (1, 1))
    d = numeric_derivative(f, E(0, 0), iv)
    assert np.allclose(d.data, 1.0, atol=1e-8)


def test_numeric_derivative_requires_interior():
    f = LatticeFunction.coordinatewise("t", dim=2)
    with pytest.raises(ValueError):
        numeric_derivative(f, E(0, 0.5), UNIT2)
    with pytest.raises(ValueError):
        numeric_derivative(f, E(0.5, 1.0), UNIT2)


def test_numeric_derivative_near_boundary_shrinks_steps():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    iv = interval((0,), (1,))
    d = numeric_derivative(f, E(1e-6), iv)
    assert d[0] == pytest.approx(2e-6, abs=1e-9)


def test_numeric_derivative_cross_validates_against_symbolic():
    lying = ScalarKernel(expr=__import__("ordercalc.expr", fromlist=["parse"]).parse("t^2"))
    f = LatticeFunction.coordinatewise([lying], dim=1)
    # sabotage: replace the cached derivative with a wrong one
    lying._derivative = ScalarKernel.from_string("10*t")
    with pytest.raises(ArithmeticError):
        numeric_derivative(f, E(0.5), interval((0,), (1,)))


# -- antiderivative -------------------------------------------------------------

def test_antiderivative_identity_kernel():
    f = LatticeFunction.coordinatewise("t", dim=2)
    F = antiderivative(f, UNIT2)
    assert np.allclose(F.eval(E(1, 1)).data, 0.5, atol=2e-6)
    assert F.eval(UNIT2.lo) == E(0, 0)


def test_antiderivative_square_kernel_mixed_point():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    F = antiderivative(f, UNIT2)
    got = F.eval(E(1, 0.5))
    assert got[0] == pytest.approx(1 / 3, abs=2e-6)
    assert got[1] == pytest.approx(1 / 24, abs=2e-6)


def test_antiderivative_rejects_queries_outside():
    f = LatticeFunction.coordinatewise("t", dim=1)
    F = antiderivative(f, interval((0,), (1,)))
    with pytest.raises(Exception):
        F.eval(E(2.0))


def test_antiderivative_monotone_for_nonnegative_integrand():
    f = LatticeFunction.coordinatewise("t^2 + 1", dim=2)
    F = antiderivative(f, UNIT2)
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = UNIT2.sample(rng)
        y = UNIT2.sample(rng)
        lo, hi = x.inf(y), x.sup(y)
        assert np.all(F.eval(lo).data <= F.eval(hi).data + 2e-6)


def test_antiderivative_lipschitz_bound():
    from ordercalc.functions import extrema

    f = LatticeFunction.coordinatewise("sin(t)", dim=2)
    iv = interval((0, 0), (2, 3))
    F = antiderivative(f, iv)
    bound = extrema(f, iv, tol=1e-9)
    K = np.maximum(np.abs(bound.m.data), np.abs(bound.M.data)) + bound.tolerance
    rng = np.random.default_rng(6)
    for _ in range(40):
        x, y = iv.sample(rng), iv.sample(rng)
        lhs = np.abs(F.eval(x).data - F.eval(y).data)
        rhs = K * np.abs(x.data - y.data) + 2e-6
        assert np.all(lhs <= rhs)


def _antiderivative_alone(kernel, lo, hi, sched, xq):
    """One atom's antiderivative at the points ``xq``, built alone from the 1-D prefix sums.

    Depths min(8, max_depth), +2, ... until gap <= tol*(1+|mid|) or
    max_depth; a query adds its partial cell's extrema (endpoints, then the
    critical entries in it, or 9 samples if the kernel is sampled) to the
    prefix of the cells before it.  Returns the values and the depth.
    """
    if hi <= lo:
        return [0.0] * len(xq), None
    prog, evalf, sampled = kernel.program, kernel.eval_many, kernel.strategy == "sampled"
    ts = vals = np.empty(0)
    if kernel.strategy == "critical":
        ts, vals = kernel.critical_points(lo, hi, enclose=True)
    depth = min(8, sched.max_depth)
    while True:
        xs = uniform_grid(lo, hi, 1 << depth)
        if sampled and prog is None:
            pl, pu, wl, wu = K.prefix_sampled_fn(evalf, xs, 4)
        elif sampled:
            pl, pu, wl, wu = K.prefix_sampled(prog, xs, 4)
        elif prog is None:
            (pl, pu), wl, wu = K.prefix_endpoint_fn(evalf, xs), 0.0, 0.0
        elif len(ts):
            (pl, pu), wl, wu = K.prefix_critical(prog, xs, ts, vals), 0.0, 0.0
        else:
            (pl, pu), wl, wu = K.prefix_endpoint(prog, xs), 0.0, 0.0
        mid = 0.5 * (pl[-1] + pu[-1])
        if (pu[-1] + wu) - (pl[-1] - wl) <= sched.tol * (1.0 + abs(mid)) or depth >= sched.max_depth:
            break
        depth += 2
    out = []
    for x in xq:
        j = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), len(xs) - 2)
        low = pl[j - 1] if j > 0 else 0.0
        up = pu[j - 1] if j > 0 else 0.0
        if x > xs[j]:
            a = xs[j]
            m, big = sorted([kernel.eval(a), kernel.eval(x)])
            inside = vals[(ts >= a) & (ts <= x)]
            if len(inside):
                m, big = min(m, float(inside.min())), max(big, float(inside.max()))
            elif sampled:
                v = kernel.eval_many(np.linspace(a, x, 9))
                m, big = min(m, v.min()), max(big, v.max())
            low += m * (x - a)
            up += big * (x - a)
        out.append(0.5 * ((low - wl) + (up + wu)))
    return out, depth


def _assert_antiderivative_is_per_atom(f, iv, sched, critical=()):
    """Each atom of ``antiderivative(f)`` equals its kernel's built alone, bit for bit.

    Queries fall at random, on grid points, and 1e-5 right of each of the
    ``critical`` points, in the partial cell that holds it when the cells
    are wider than that.
    """
    F = antiderivative(f, iv, sched=sched)
    rng = np.random.default_rng(0)
    lo, hi = iv.lo.data, iv.hi.data
    points = [lo, hi] + [lo + u * (hi - lo) for u in rng.uniform(0.0, 1.0, (40, f.dim))]
    points += [lo + k / 256 * (hi - lo) for k in range(0, 257, 32)]
    points += [np.clip(np.full(f.dim, c + 1e-5), lo, hi) for c in critical]
    got = np.array([F.eval(Element(p)).data for p in points])
    depths = []
    for i, kernel in enumerate(f.kernels):
        want, depth = _antiderivative_alone(kernel, lo[i], hi[i], sched, [p[i] for p in points])
        assert got[:, i].tolist() == want, i
        depths.append(depth)
    return depths


def test_antiderivative_broadcast_band_is_per_atom():
    f = LatticeFunction.coordinatewise("t^3 - t", dim=5)
    iv = interval((-1.0, 0.0, 0.5, -2.0, 0.2), (1.0, 0.5, 0.5, 0.3, 0.2001))
    crit = (-(3**-0.5), 3**-0.5)
    depths = _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-4, 20), crit)
    assert depths == [16, 12, None, 16, 8]  # zero width, and closing at different depths


def test_antiderivative_mixed_bands_are_per_atom():
    f = LatticeFunction.coordinatewise(["abs(t - 0.3)", "sin(t)", "abs(t - 0.3)"])
    iv = interval((0.0, 0.0, -1.0), (1.0, 2.0, 2.0))
    _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-5, 14), (0.3, math.pi / 2))


def test_antiderivative_callables_are_per_atom():
    mono = ScalarKernel.from_callable(lambda t: t**3 + t, monotone="increasing")
    wave = ScalarKernel.from_callable(lambda t: abs(math.sin(3 * t)))
    f = LatticeFunction.coordinatewise([mono, wave, mono, wave])
    iv = interval((0.0, 0.0, -1.0, 1.0), (1.0, 2.0, 1.0, 1.0))
    _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-5, 12))
    # A spike at 101/2048 is a sample point of the finer pass at depth 8
    # but not of the coarser one, so only the widening keeps depth 8 open.
    spike = ScalarKernel.from_callable(lambda t: max(0.0, 1.0 - abs(t - 101 / 2048) * 4096))
    f = LatticeFunction.coordinatewise([spike])
    depths = _assert_antiderivative_is_per_atom(f, interval((0.0,), (1.0,)), ToleranceSchedule(5e-3, 12))
    assert depths == [10]


def test_antiderivative_bench_case_is_per_atom():
    f = LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"])
    _assert_antiderivative_is_per_atom(f, UNIT2, ToleranceSchedule(), (3**-0.5,))


def test_antiderivative_passes_skip_to_the_closing_depth(monkeypatch):
    # Both atoms close at depth 20 of the lattice 8, 10, ...: after the
    # first pass and one level-0 sum, each is summed once more, at 20.
    calls = []
    prefixes, level = _Band.prefixes, _Band.level
    monkeypatch.setattr(_Band, "prefixes", lambda b, r, g: calls.append(g.n) or prefixes(b, r, g))
    monkeypatch.setattr(_Band, "level", lambda b, r, n: calls.append(-n) or level(b, r, n))
    antiderivative(LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"]), UNIT2)
    assert calls == [2**8, -1, 2**20] * 2

    # An odd max_depth: the last lattice depth is past it, and rows that
    # cannot close go straight there.
    f = LatticeFunction.coordinatewise("t^3 - t", dim=5)
    iv = interval((-1.0, 0.0, 0.5, -2.0, 0.2), (1.0, 0.5, 0.5, 0.3, 0.2001))
    calls.clear()
    depths = _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-9, 13), (3**-0.5,))
    assert depths == [14, 14, None, 14, 8] and calls == [2**8, -1, 2**14]

    # A sampled band steps by 2 on the lattice up to 14, with no level-0 sum.
    f = LatticeFunction.coordinatewise("abs(t - 0.3)", dim=2)
    calls.clear()
    antiderivative(f, interval((0.0, -1.0), (1.0, 2.0)), ToleranceSchedule(1e-7, 13))
    assert calls == [2**8, 2**10, 2**12, 2**14]


def test_antiderivative_build_keeps_no_earlier_pass_alive():
    # Sampled passes at 8, 10, ..., 20, and the grids of the last are kept
    # (48 MiB).  Holding any part of the pass at 18 while summing the one at
    # 20 would add at least a 4 MiB prefix row to the peak.
    f = LatticeFunction.coordinatewise(["abs(t - 0.3)", "abs(t - 0.6)"])
    tracemalloc.start()
    try:
        F = antiderivative(f, UNIT2, ToleranceSchedule(1e-7, 20))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.dim == 2 and peak <= 1.1 * held, (held, peak)


def test_antiderivative_failures_in_interleaved_bands_name_the_lowest_atom():
    # Kernels [A, B, A]: atoms 1 and 2 both fail, in different bands.
    a, b = ScalarKernel.from_string("1/(t-0.3)"), ScalarKernel.from_string("1/(t-0.7)")
    f = LatticeFunction.coordinatewise([a, b, a])
    with pytest.raises(KernelEvalError) as info:  # at isolation
        antiderivative(f, interval((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)))
    assert info.value.atom == 1
    a = ScalarKernel.from_callable(lambda t: 1.0 if t <= 2.0 else float("nan"))
    b = ScalarKernel.from_callable(lambda t: 1.0 if t <= 5.0 else float("nan"))
    f = LatticeFunction.coordinatewise([a, b, a])
    with pytest.raises(KernelEvalError) as info:  # in the prefix passes
        antiderivative(f, interval((0.0, 0.0, 0.0), (1.0, 6.0, 3.0)), ToleranceSchedule(1e-3, 10))
    assert info.value.atom == 1


def test_failures_within_a_band_name_the_lowest_atom_at_fault():
    # One callable, NaN at 1/1024 + 1/4096 and at 10.5: atom 1 fails at
    # the first level (10.5 is a sample point there), atom 0 only deeper.
    bad = (1 / 1024 + 1 / 4096, 10.5)
    k = ScalarKernel.from_callable(lambda t: float("nan") if t in bad else math.sin(t))
    f = LatticeFunction.coordinatewise([k, k])
    iv, sched = interval((0.0, 10.0), (1.0, 11.0)), ToleranceSchedule(1e-9, 12)
    with pytest.raises(KernelEvalError) as alone:
        integrate(LatticeFunction.coordinatewise([k]), interval((0.0,), (1.0,)), sched)
    for build in (integrate, antiderivative):
        with pytest.raises(KernelEvalError) as info:
            build(f, iv, sched)
        assert (info.value.atom, str(info.value)) == (0, str(alone.value)), build
        assert "t=0.001220703125" in str(info.value)


# -- mean value theorem for integrals --------------------------------------------

def test_mvt_square_kernel_hits_inverse_sqrt3():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    c = mvt_integral_solve(f, E(0, 0), E(1, 1))
    assert np.allclose(c.data, 3 ** (-0.5), atol=1e-6)


def test_mvt_constant_kernel_returns_midpoint():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(2.0), dim=2)
    c = mvt_integral_solve(f, E(0, 1), E(1, 0))
    assert c == E(0.5, 0.5)


def test_mvt_incomparable_identity():
    f = LatticeFunction.coordinatewise("t", dim=2)
    x, y = E(1, 0), E(0, 1)
    c = mvt_integral_solve(f, x, y)
    assert np.allclose(c.data, 0.5, atol=1e-9)
    lhs = (y - x) * f.eval(c)
    rhs = signed_integrate(f, x, y).value
    assert np.all(np.abs(lhs.data - rhs.data) <= 1e-9)


def test_mvt_equal_coordinates_return_that_coordinate():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    c = mvt_integral_solve(f, E(0.5, 0), E(0.5, 1))
    assert c[0] == 0.5


def test_mvt_c_lies_in_the_box_on_random_pairs():
    # The residual is measured against the same integral the solver used,
    # so a loose schedule keeps this fast without weakening the check.
    sched = ToleranceSchedule(1e-4, 18)
    rng = np.random.default_rng(12)
    f = LatticeFunction.coordinatewise(["t^2", "sin(t)"], dim=2)
    for _ in range(25):
        x = Element(rng.uniform(-1, 2, 2))
        y = Element(rng.uniform(-1, 2, 2))
        c = mvt_integral_solve(f, x, y, sched=sched)
        assert x.inf(y).leq(c) and c.leq(x.sup(y))
        lhs = (y - x) * f.eval(c)
        rhs = signed_integrate(f, x, y, sched).value
        assert np.all(np.abs(lhs.data - rhs.data) <= 1e-8)


def test_mvt_reports_bracket_failure_with_atom():
    step = ScalarKernel.from_callable(
        lambda t: 0.0 if t < 0.5 else 10.0, label="step"
    )
    f = LatticeFunction.coordinatewise([step], dim=1)
    with pytest.raises(ArithmeticError) as info:
        mvt_integral_solve(f, E(0.0), E(1.0), sched=ToleranceSchedule(1e-3, 10))
    assert "atom 0" in str(info.value)


def test_mvt_scan_failure_names_its_atom():
    # The scan's first step, 1/64, is off every point the loose integral
    # samples (multiples of 1/32), so only the scan meets the bad value.
    bad = ScalarKernel.from_callable(lambda t: float("nan") if t == 1 / 64 else 1.0)
    f = LatticeFunction.coordinatewise([ScalarKernel.identity(), bad])
    with pytest.raises(KernelEvalError) as info:
        mvt_integral_solve(f, E(0.0, 0.0), E(1.0, 1.0), sched=ToleranceSchedule(0.1, 2))
    assert info.value.atom == 1


# -- FTC 1 -----------------------------------------------------------------------

def test_ftc1_square_kernel():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    report = verify_ftc1(f, UNIT2, interior_samples=10, tol=1e-5)
    assert report.passed, report.max_residual.to_json()


def test_ftc1_constant_kernel_near_zero_residual():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(3.0), dim=2)
    report = verify_ftc1(f, UNIT2, interior_samples=5, tol=1e-9)
    assert report.passed


def test_ftc1_sin_on_pi_box():
    f = LatticeFunction.coordinatewise("sin(t)", dim=2)
    iv = interval((0, 0), (math.pi, math.pi))
    report = verify_ftc1(f, iv, interior_samples=10, tol=1e-5)
    assert report.passed, report.max_residual.to_json()


def test_ftc1_requires_nondegenerate_interval():
    f = LatticeFunction.coordinatewise("t", dim=2)
    with pytest.raises(ValueError):
        verify_ftc1(f, interval((0, 0), (1, 0)), interior_samples=3)


def test_ftc1_residual_shrinks_with_tighter_schedules():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    iv = interval((0,), (1,))
    residuals = []
    for tol in (1e-3, 1e-5, 1e-7):
        rep = verify_ftc1(f, iv, interior_samples=6, tol=1.0, seed=3,
                          sched=ToleranceSchedule(tol, 26))
        residuals.append(max(rep.max_residual.data))
    # allow 10% jitter on a monotone non-increasing trend
    assert residuals[1] <= residuals[0] * 1.1
    assert residuals[2] <= residuals[1] * 1.1


# -- FTC 2 -----------------------------------------------------------------------

def test_ftc2_cubic_antiderivative():
    F = LatticeFunction.coordinatewise("t^3/3", dim=2)
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    report = verify_ftc2(F, f, UNIT2, pairs=[(E(0, 0), E(1, 1))], tol=1e-5)
    assert report.passed
    value = signed_integrate(f, E(0, 0), E(1, 1)).value
    assert np.allclose(value.data, 1 / 3, atol=1e-5)


def test_ftc2_equal_endpoints_both_sides_zero():
    F = LatticeFunction.coordinatewise("t^2/2", dim=2)
    f = LatticeFunction.coordinatewise("t", dim=2)
    x = E(0.4, 0.6)
    report = verify_ftc2(F, f, UNIT2, pairs=[(x, x)], tol=1e-12)
    assert report.passed


def test_ftc2_incomparable_pair():
    F = LatticeFunction.coordinatewise("t^2/2", dim=2)
    f = LatticeFunction.coordinatewise("t", dim=2)
    x, y = E(1, 0), E(0, 1)
    lhs = signed_integrate(f, x, y).value
    rhs = F.eval(y) - F.eval(x)
    assert np.allclose(lhs.data, [-0.5, 0.5], atol=1e-6)
    assert np.allclose(rhs.data, [-0.5, 0.5], atol=1e-12)
    report = verify_ftc2(F, f, UNIT2, pairs=[(x, y)], tol=1e-5)
    assert report.passed


def test_ftc2_sampled_pairs_include_incomparable():
    F = LatticeFunction.coordinatewise("t^3/3", dim=2)
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    report = verify_ftc2(F, f, UNIT2, samples=20, tol=1e-5, seed=7)
    assert report.passed and report.samples == 20
    mixed = 0
    for entry in report.details:
        x, y = entry["x"], entry["y"]
        if (x[0] - y[0]) * (x[1] - y[1]) < 0:
            mixed += 1
    assert mixed > 0


def test_ftc2_rejects_wrong_antiderivative():
    F = LatticeFunction.coordinatewise("t^3", dim=2)  # derivative 3t^2 != t^2
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    with pytest.raises(ValueError):
        verify_ftc2(F, f, UNIT2, samples=2)


# -- substitution and parts -------------------------------------------------------

def test_substitution_shifted_square():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    G = LatticeFunction.coordinatewise("t + 1", dim=2)
    g = LatticeFunction.coordinatewise("1", dim=2)
    report = verify_substitution(f, g, G, UNIT2, tol=1e-5)
    assert report.passed
    lhs = report.details[0]["lhs"]
    assert lhs[0] == pytest.approx(7 / 3, abs=1e-5)


def test_substitution_identity_change():
    f = LatticeFunction.coordinatewise("sin(t)", dim=2)
    G = LatticeFunction.coordinatewise("t", dim=2)
    g = LatticeFunction.coordinatewise("1", dim=2)
    report = verify_substitution(f, g, G, UNIT2, tol=1e-5)
    assert report.passed


def test_substitution_square_change_of_variable():
    f = LatticeFunction.coordinatewise("t", dim=2)
    G = LatticeFunction.coordinatewise("t^2", dim=2)
    g = LatticeFunction.coordinatewise("2*t", dim=2)
    report = verify_substitution(f, g, G, UNIT2, tol=1e-5)
    assert report.passed
    assert report.details[0]["lhs"][0] == pytest.approx(0.5, abs=1e-5)


def test_by_parts_linear_times_square():
    f = LatticeFunction.coordinatewise("t", dim=2)
    g = LatticeFunction.coordinatewise("t^2/2", dim=2)
    report = verify_by_parts(f, g, f.derivative(), g.derivative(), UNIT2, tol=1e-5)
    assert report.passed
    assert report.details[0]["lhs"][0] == pytest.approx(1 / 3, abs=1e-5)


def test_by_parts_constant_reduces_to_ftc2():
    f = LatticeFunction.coordinatewise("2", dim=2)
    g = LatticeFunction.coordinatewise("t^2/2", dim=2)
    report = verify_by_parts(f, g, f.derivative(), g.derivative(), UNIT2, tol=1e-5)
    assert report.passed


def test_by_parts_sin_times_identity():
    f = LatticeFunction.coordinatewise("sin(t)", dim=2)
    g = LatticeFunction.coordinatewise("t", dim=2)
    report = verify_by_parts(f, g, f.derivative(), g.derivative(), UNIT2, tol=1e-5)
    assert report.passed
    want = adaptive_simpson(lambda t: math.sin(t) * 1.0, 0.0, 1.0)
    # integral of f * dg = integral of sin over [0,1]
    assert report.details[0]["lhs"][0] == pytest.approx(want, abs=1e-5)
