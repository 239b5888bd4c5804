import math
import tracemalloc

import numpy as np
import pytest

from helpers import adaptive_simpson, stretch_subtotals
from ordercalc import _kernels_fallback as K
from ordercalc import calculus
from ordercalc.calculus import (
    antiderivative,
    mvt_integral_solve,
    numeric_derivative,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)
from ordercalc.expr import EvalDomainError
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel, continuity_modulus, extrema
from ordercalc.integrate import ToleranceSchedule, _Band, darboux_sums, integrate, riemann_sum, signed_integrate
from ordercalc.lattice import Element, OrderInterval
from ordercalc.partitions import tag, uniform, uniform_grid


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


G = K.STRETCH_CELLS


def _running(subtotals):
    """Running sums at the stretch ends, written plainly: the stretch subtotals added left to right."""
    total, out = 0.0, []
    for sub in subtotals:
        total = total + sub
        out.append(total)
    return np.array(out)


def _reductions(prods):
    """One reduction of the products per stretch: a sampled level's subtotals."""
    return [np.add.reduce(prods[c0 : c0 + G]) for c0 in range(0, len(prods), G)]


def _level_products(kernel, xs, ts, vals, s):
    """Each cell's (min · dx, max · dx): endpoint extrema folded with the entries, or s samples."""
    if s:
        a, b = xs[:-1], xs[1:]
        v = kernel.eval_many(a[:, None] + np.arange(s + 1) * ((b - a) / s)[:, None])
        m, big = v.min(axis=1), v.max(axis=1)
    else:
        v = kernel.eval_many(xs)
        m, big = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
        cells = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, len(xs) - 2)
        np.minimum.at(m, cells, vals)
        np.maximum.at(big, cells, vals)
    dx = xs[1:] - xs[:-1]
    return m * dx, big * dx


def _antiderivative_alone(kernel, lo, hi, sched):
    """One atom's antiderivative built alone, written plainly; returns a reader and its depth.

    The depth is that of ``integrate`` of the kernel alone.  At that level
    the running L and U at each stretch end are the stretch subtotals added
    left to right: ``helpers.stretch_subtotals`` for an exact kernel, the
    stretch reductions of the products for a sampled one (the 2s pass,
    widened by the difference from the s pass).  A read at x in cell j of stretch k is the
    running sum at the end of stretch k - 1 plus one left-to-right sum of
    the products of the cells of stretch k before j and of the partial cell
    [x_j, x].  The partial cell's extrema are its endpoints', folded with
    the critical entries in [x_j, x), or 9 samples if the kernel is
    sampled.  A read at a stretch end, hi included, is the running sum
    there.
    """
    one = LatticeFunction.coordinatewise([kernel])
    depth = integrate(one, interval((lo,), (hi,)), sched).depth
    s = 8 if kernel.strategy == "sampled" else 0
    ts = vals = np.empty(0)
    if kernel.strategy == "critical":
        _, ts, vals, _ = kernel.critical_entries(np.array([lo]), np.array([hi]))
    xs = uniform_grid(lo, hi, 1 << depth)
    pl, pu = _level_products(kernel, xs, ts, vals, s)
    if s:
        rl, ru = _running(_reductions(pl)), _running(_reductions(pu))
        ql, qu = _level_products(kernel, xs, ts, vals, s // 2)
        wl, wu = abs(rl[-1] - _running(_reductions(ql))[-1]), abs(ru[-1] - _running(_reductions(qu))[-1])
    else:
        rl, ru = map(_running, stretch_subtotals(kernel.eval_many(xs), xs, pl, pu, ts, G))
        wl = wu = 0.0

    def read(x):
        if x == hi:
            return rl[-1] - wl, ru[-1] + wu
        j = int(np.searchsorted(xs, x, side="right")) - 1
        k = j // G
        low, up = (rl[k - 1], ru[k - 1]) if k else (0.0, 0.0)
        if x > xs[k * G]:
            a = xs[j]
            inside = (ts >= a) & (ts < x)
            ml, mu = _level_products(kernel, np.array([a, x]), ts[inside], vals[inside], s)
            low = low + np.add.accumulate(np.append(pl[k * G : j], ml))[-1]
            up = up + np.add.accumulate(np.append(pu[k * G : j], mu))[-1]
        return low - wl, up + wu

    read.running, read.xs, read.ts = (rl, ru), xs, ts
    return read, depth


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _assert_antiderivative_is_per_atom(f, iv, sched, critical=()):
    """Each atom of ``antiderivative(f)`` equals its kernel's built alone, bit for bit.

    Each atom keeps the running sums of the written-out reference at
    ``integrate``'s depth, and its bracket at hi is ``integrate``'s (lower,
    upper).  Reads fall at random, on stretch ends and inside stretches, on
    the critical entries, and 1e-5 right of each of the ``critical``
    points, in the partial cell that holds it when the cells are wider than
    that.  Returns the depths.
    """
    F = antiderivative(f, iv, sched=sched)
    whole = integrate(f, iv, sched)
    lo, hi = iv.lo.data, iv.hi.data
    refs = [_antiderivative_alone(k, lo[i], hi[i], sched) for i, k in enumerate(f.kernels)]
    for i, (read, depth) in enumerate(refs):
        grid = F.kernels[i].func.__self__
        assert grid.level.n == 1 << depth, i
        assert _bits(*grid.level.running[0, 0]) == _bits(*read.running[0]), i
        assert _bits(*grid.level.running[1, 0]) == _bits(*read.running[1]), i
        assert _bits(*grid.brackets(hi[i : i + 1])) == _bits(whole.lower[i], whole.upper[i]), i
        for m in range(1, len(grid.ends)):  # a read at a stretch end is the running sum kept there
            run = grid.level.running[:, 0, m - 1]
            low, up = run[0] - grid.widen_l, run[1] + grid.widen_u
            assert _bits(*grid.brackets(grid.ends[m : m + 1])) == _bits(low, up), (i, m)
    rng = np.random.default_rng(0)
    points = [lo, hi] + [lo + u * (hi - lo) for u in rng.uniform(0.0, 1.0, (40, f.dim))]
    points += [np.clip(np.full(f.dim, c + 1e-5), lo, hi) for c in critical]
    for m in range(max(len(r.ts) for r, _ in refs)):  # on the critical entries themselves
        points.append(np.array([r.ts[m] if m < len(r.ts) else lo[i] for i, (r, _) in enumerate(refs)]))
    for m in (1, 2, 5):  # at a stretch end, on a grid point inside a stretch, and between
        ends = [r.xs[min(m * G, len(r.xs) - 1)] for r, _ in refs]
        inner = [r.xs[min(m * G + 3, len(r.xs) - 1)] for r, _ in refs]
        points += [np.array(ends), np.array(inner), 0.5 * (np.array(ends) + np.array(inner))]
    got = np.array([F.eval(Element(p)).data for p in points])
    for i, (read, _) in enumerate(refs):
        want = [0.5 * sum(read(p[i])) for p in points]
        assert got[:, i].tobytes() == np.array(want).tobytes(), i
    return [depth for _, depth in refs]


def test_antiderivative_broadcast_band_is_per_atom():
    f = LatticeFunction.coordinatewise("t^3 - t", dim=5)
    iv = interval((-1.0, 0.0, 0.5, -2.0, 0.2), (1.0, 0.5, 0.5, 0.3, 0.2001))
    crit = (-(3**-0.5), 3**-0.5)
    depths = _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-4, 20), crit)
    assert depths == [15, 11, 0, 16, 0]  # zero width, and closing at different depths


def test_antiderivative_mixed_bands_are_per_atom():
    # t^2 on [-1, 1] has an exact entry at 0.0, the first point of a stretch
    # at depth 14: the read there is a kept running sum, and the read 1e-5
    # right of it folds the entry at the stretch's first point.
    f = LatticeFunction.coordinatewise(["abs(t - 0.3)", "sin(t)", "abs(t - 0.3)", "t^2"])
    iv = interval((0.0, 0.0, -1.0, -1.0), (1.0, 2.0, 2.0, 1.0))
    depths = _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-5, 14), (0.3, math.pi / 2, 0.0))
    assert depths[3] >= 9
    grid = antiderivative(f, iv, ToleranceSchedule(1e-5, 14)).kernels[3].func.__self__
    assert 0.0 in grid.ends and 0.0 in grid.band.entries[1]


def test_antiderivative_callables_are_per_atom():
    mono = ScalarKernel.from_callable(lambda t: t**3 + t, monotone="increasing")
    wave = ScalarKernel.from_callable(lambda t: abs(math.sin(3 * t)))
    f = LatticeFunction.coordinatewise([mono, wave, mono, wave])
    iv = interval((0.0, 0.0, -1.0, 1.0), (1.0, 2.0, 1.0, 1.0))
    _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-5, 12))
    # The ramp keeps depths 0-7 open.  A spike at 101/2048 is a sample point
    # of the finer pass at depth 8 but not of the coarser one, so the last
    # level, at max_depth 8, keeps a widening for every read.
    spike = ScalarKernel.from_callable(lambda t: t + max(0.0, 1.0 - abs(t - 101 / 2048) * 4096))
    f = LatticeFunction.coordinatewise([spike])
    depths = _assert_antiderivative_is_per_atom(f, interval((0.0,), (1.0,)), ToleranceSchedule(5e-3, 8))
    assert depths == [8]
    grid = antiderivative(f, interval((0.0,), (1.0,)), ToleranceSchedule(5e-3, 8)).kernels[0].func.__self__
    assert grid.widen_u > 0.0


def test_antiderivative_bench_case_is_per_atom():
    f = LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"])
    _assert_antiderivative_is_per_atom(f, UNIT2, ToleranceSchedule(), (3**-0.5,))


def test_antiderivative_brackets_at_hi_are_integrates():
    # Every strategy, broadcast and alike atoms, and a zero-width atom: F's
    # bracket at hi is integrate's, bit for bit, and for exact kernels F(hi)
    # is integrate's value.
    cube = ScalarKernel.from_callable(lambda t: t**3, label="cube")
    mono = ScalarKernel.from_callable(math.exp, monotone="increasing")
    f = LatticeFunction.coordinatewise(["t^3 - t", "abs(t - 0.3)", cube, mono, "t^3 - t", "t^3 - t"])
    iv = interval((-1.0, 0.0, -0.5, 0.0, 0.5, -1.0), (1.0, 1.0, 0.5, 2.0, 0.5, 1.0))
    sched = ToleranceSchedule(1e-6, 18)
    F, whole = antiderivative(f, iv, sched), integrate(f, iv, sched)
    hi = iv.hi.data
    for i, kernel in enumerate(F.kernels):
        assert _bits(*kernel.func.__self__.brackets(hi[i : i + 1])) == _bits(whole.lower[i], whole.upper[i]), i
    exact = [0, 3, 4, 5]
    assert F.eval(iv.hi).data[exact].tobytes() == whole.value.data[exact].tobytes()


def test_antiderivative_passes_skip_to_the_closing_depth(monkeypatch):
    # The antiderivative sums exactly the levels integrate sums: each band
    # at depth 0, then at its probe level, then at each depth the skip
    # bound allows, up to the depth at which it closes; the sin(t) and
    # t^3 - t atoms are probed at 14 and close at 20.
    calls = []
    sums = _Band.sums

    def recorded(band, rows, grid):
        if isinstance(grid, K.UniformRows):
            calls.append((grid.n.bit_length() - 1, band.atoms[rows].tolist()))
        return sums(band, rows, grid)

    monkeypatch.setattr(_Band, "sums", recorded)

    def levels(build, f, iv, sched):
        calls.clear()
        build(f, iv, sched)
        return list(calls)

    cases = [
        (LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"]), UNIT2, ToleranceSchedule()),
        # rows that cannot close go straight to max_depth
        (
            LatticeFunction.coordinatewise("t^3 - t", dim=5),
            interval((-1.0, 0.0, 0.5, -2.0, 0.2), (1.0, 0.5, 0.5, 0.3, 0.2001)),
            ToleranceSchedule(1e-9, 13),
        ),
        # a sampled band steps by 1
        (LatticeFunction.coordinatewise("abs(t - 0.3)", dim=2), interval((0.0, -1.0), (1.0, 2.0)), ToleranceSchedule(1e-7, 13)),
    ]
    for f, iv, sched in cases:
        assert levels(antiderivative, f, iv, sched) == levels(integrate, f, iv, sched)
    assert levels(antiderivative, *cases[0]) == [(0, [0]), (14, [0]), (20, [0]), (0, [1]), (14, [1]), (20, [1])]
    assert [d for d, _ in levels(antiderivative, *cases[2])] == list(range(14))


def test_antiderivative_fails_where_integrate_fails():
    # exp(t) on [700, 709]: level 0's (hi - lo)·sup f overflows, so
    # integrate has no bracket there, and neither has F: both raise the same
    # error, naming the same atom and cell.
    f = LatticeFunction.coordinatewise(["t", "exp(t)"])
    iv, sched = interval((0.0, 700.0), (1.0, 709.0)), ToleranceSchedule(1e-3, 16)
    with pytest.raises(KernelEvalError) as want:
        integrate(f, iv, sched)
    with pytest.raises(KernelEvalError) as got:
        antiderivative(f, iv, sched)
    assert got.value.atom == want.value.atom == 1 and str(got.value) == str(want.value)
    assert isinstance(got.value.cause, OverflowError) and "[700.0, 709.0]" in str(got.value)
    # A zero-width atom is refined too: log(t) has no value at 0.
    f = LatticeFunction.coordinatewise(["t", "log(t)"])
    with pytest.raises(KernelEvalError) as got:
        antiderivative(f, interval((0.0, 0.0), (1.0, 0.0)))
    assert got.value.atom == 1


def test_antiderivative_build_keeps_no_earlier_pass_alive():
    # Sampled passes at 0, 1, ..., 20, each keeping only its running sums
    # at stretch ends (2^12 pairs per row at 20).  The build's tracemalloc
    # peak measured 3.9 MiB, the sampled blocks' temporaries; one per-cell
    # array of a row at depth 20 would add 8 MiB.
    f = LatticeFunction.coordinatewise(["abs(t - 0.3)", "abs(t - 0.6)"])
    tracemalloc.start()
    try:
        F = antiderivative(f, UNIT2, ToleranceSchedule(1e-7, 20))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.dim == 2 and peak <= 6 * 2**20 and held <= 2**20, (held, peak)


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


def test_mvt_accepts_a_root_by_a_residual_scaled_to_its_terms():
    # g = (y - x)·f(c) - ∫f rounds at ulp(∫f) ≈ 1.16e-10 on [1000, 1001],
    # above the absolute tol of 1e-10; the residual test scales with |∫f|.
    f = LatticeFunction.coordinatewise("t^2")
    c = mvt_integral_solve(f, E(1000.0), E(1001.0))
    assert abs(c[0] - math.sqrt((1001.0**3 - 1000.0**3) / 3)) <= 1e-6


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


# 1/t for t > 0: the inf of 45.9375 / (t - t) is absorbed by min.
ABSORBED_INF = "-t / min(-t^2, 5.25 * 8.75 / (t - t))"


def test_mvt_and_by_parts_take_a_kernel_whose_inf_is_absorbed():
    # The narrowing and the verifiers' point values evaluate the kernel as
    # its integral does, so neither refuses a point its integral accepts.
    f = LatticeFunction.coordinatewise([ABSORBED_INF])
    c = mvt_integral_solve(f, E(0.2), E(0.6), sched=ToleranceSchedule(1e-4, 20))
    assert abs(c[0] - 0.4 / math.log(3.0)) < 1e-4
    logs, ts, ones = (LatticeFunction.coordinatewise([src]) for src in ("log(t)", "t", "1"))
    assert verify_by_parts(logs, ts, f, ones, interval((0.2,), (0.6,))).passed


def _scan_sizes(monkeypatch) -> list[int]:
    """The grid size of every scan ``_mvt_root`` makes, recorded as it runs."""
    sizes = []
    solve = calculus._mvt_root

    def recorded(g, g_many, *args, atom):
        def scan(ts):
            sizes.append(len(ts))
            return g_many(ts)

        return solve(g, scan, *args, atom=atom)

    monkeypatch.setattr(calculus, "_mvt_root", recorded)
    return sizes


def test_mvt_scan_grows_past_a_bump_between_its_points(monkeypatch):
    # A bump of width 1e-3 centred at 1/128, midway between two points of
    # the first 65-point grid: there g < 0 at every point, and the 257-point
    # grid, which holds 1/128, finds the sign change.
    sizes = _scan_sizes(monkeypatch)
    f = LatticeFunction.coordinatewise("exp(-((t - 0.0078125)/0.001)^2)")
    sched = ToleranceSchedule(1e-6, 24)
    c = mvt_integral_solve(f, E(0.0), E(1.0), sched=sched)
    assert sizes == [65, 257]
    assert abs(c[0] - 0.0078125) < 0.003
    assert abs(f.eval(c)[0] - signed_integrate(f, E(0.0), E(1.0), sched).value[0]) <= 1e-10


def test_mvt_scan_without_a_bracket_gives_up_at_4097_points(monkeypatch):
    # A bump of width 1e-6 centred at 1/8192, off every grid the scan makes:
    # g is the same negative number at every point it samples.
    sizes = _scan_sizes(monkeypatch)
    f = LatticeFunction.coordinatewise(["t", "exp(-((t - 0.0001220703125)/1e-6)^2)"])
    with pytest.raises(ArithmeticError, match="no bracket for the mean-value point in atom 1"):
        mvt_integral_solve(f, E(0.0, 0.0), E(1.0, 1.0), sched=ToleranceSchedule(0.1, 2))
    assert sizes == [65, 65, 257, 1025, 4097]  # atom 0, t, brackets at once


def test_mvt_solves_alike_atoms_once(monkeypatch):
    solved = []
    solve = calculus._mvt_root

    def recorded(*args, atom):
        solved.append(atom)
        return solve(*args, atom=atom)

    monkeypatch.setattr(calculus, "_mvt_root", recorded)
    c = mvt_integral_solve(LatticeFunction.coordinatewise("t^2", dim=2), E(0, 0), E(1, 1))
    assert solved == [0]  # one scan and one narrowing for both atoms
    alone = mvt_integral_solve(LatticeFunction.coordinatewise("t^2"), E(0), E(1))
    assert c.data.tobytes() == np.repeat(alone.data, 2).tobytes()
    # Alike failing atoms 1 and 3 (atom 2 has another kernel object): the
    # lowest is named, as if the atoms were solved one by one.
    bad = ScalarKernel.from_callable(lambda t: float("nan") if t == 1 / 64 else 1.0)
    f = LatticeFunction.coordinatewise([ScalarKernel.identity(), bad, ScalarKernel.identity(), bad])
    solved.clear()
    with pytest.raises(KernelEvalError) as info:
        mvt_integral_solve(f, E(0, 0, 0, 0), E(1, 1, 1, 1), sched=ToleranceSchedule(0.1, 2))
    assert info.value.atom == 1 and solved == [0, 1]


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


# -- alike atoms and batched verifiers ---------------------------------------------

def test_antiderivative_of_alike_atoms_shares_one_grid():
    f = LatticeFunction.coordinatewise("t^3 - t", dim=3)
    iv = interval((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    _assert_antiderivative_is_per_atom(f, iv, ToleranceSchedule(1e-5, 18), (3**-0.5,))
    F = antiderivative(f, iv, sched=ToleranceSchedule(1e-5, 18))
    assert len({id(k.func.__self__) for k in F.kernels}) == 1
    assert [k.label for k in F.kernels] == [f"antiderivative[{i}]" for i in range(3)]


def test_antiderivative_read_that_fails_names_the_atom_read():
    # The pole at 0.3 is off every dyadic grid point, so the build
    # succeeds; atoms 0 and 2 share a grid, and a read at 0.3 fails.
    pole = ScalarKernel.from_callable(lambda t: 1 / (t - 0.3), label="pole")
    f = LatticeFunction.coordinatewise([pole, "t", pole])
    F = antiderivative(f, interval((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), ToleranceSchedule(1e-3, 10))
    assert F.kernels[0].func.__self__ is F.kernels[2].func.__self__
    with pytest.raises(KernelEvalError, match="t=0.3") as info:
        F.eval(E(0.5, 0.5, 0.3))
    assert info.value.atom == 2 and "atom 0" not in str(info.value)


# -- batched reads ----------------------------------------------------------------

def _reads_of(grid, lo, hi, rng):
    """Points to read an atom at: random ones, lo, hi, every stretch end, and each entry with its neighbours."""
    ts = np.empty(0) if grid.band.entries is None else grid.band.entries[1]
    marks = np.concatenate((grid.ends, ts))
    near = np.concatenate((marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)))
    points = np.concatenate((rng.uniform(lo, hi, 200), [lo, hi], near))
    return rng.permutation(np.clip(points, lo, hi))


def _interval_whose_last_point_reads_below_hi(rng):
    """[lo, hi] whose dyadic levels' last point, min(n·step + lo, hi), reads below hi, with a float between.

    For n = 2^d, step = (hi - lo)/n and n·step are exact, so that point is
    (hi - lo) + lo at every depth.
    """
    while True:
        lo, hi = -rng.uniform(0.5, 2.0), rng.uniform(1e-4, 1e-2)
        last = (hi - lo) + lo
        if last < 0.5 * (last + hi) < hi:
            return lo, hi


def test_batched_reads_are_the_reads_one_by_one():
    # t^2 on [-1, 1] has its entry at 0.0, the first point of a stretch;
    # the callable is sampled.  The sixth atom's entries, a bracket's centre
    # c with f(c) -+ its error term, differ from f(c) in the bits of reads
    # near lo, so a read at x = c tells whether its cut takes t = x.  The
    # seventh atom's level ends below hi, and it is read between its last
    # point and hi; the last atom closes at fewer than STRETCH_CELLS cells.
    # Every atom's batch of reads gives the bytes of its reads one by one,
    # and both give those of the plain reader.
    wave = ScalarKernel.from_callable(lambda t: abs(math.sin(3 * t)))
    kernels = ["t^3 - t", "sin(6*t)", "exp(t)", "t^2", wave, "(t - 1/3)^2 + t*1e-20", "t^3 - t", "sin(t)"]
    f = LatticeFunction.coordinatewise(kernels)
    below_lo, below_hi = _interval_whose_last_point_reads_below_hi(np.random.default_rng(5))
    iv = interval((0.0, 0.0, -1.0, -1.0, 0.0, 1 / 3 - 1e-9, below_lo, 0.5), (1.0, 2.0, 1.0, 1.0, 2.0, 1.0, below_hi, 0.52))
    sched = ToleranceSchedule(1e-5, 14)
    F = antiderivative(f, iv, sched)
    grids = [kernel.func.__self__ for kernel in F.kernels]
    last = grids[6].level.n * grids[6].level.step[0, 0] + below_lo
    between = 0.5 * (last + below_hi)
    assert last < between < below_hi and grids[7].level.n < G
    rng = np.random.default_rng(3)
    for i, kernel in enumerate(f.kernels):
        lo, hi = iv.lo[i], iv.hi[i]
        read, _ = _antiderivative_alone(kernel, lo, hi, sched)
        points = _reads_of(grids[i], lo, hi, rng)
        if i == 6:
            points = np.append(points, between)
        batch = F.kernels[i].eval_many(points)
        alone = np.array([F.kernels[i].eval(p) for p in points.tolist()])
        want = np.array([0.5 * sum(read(p)) for p in points.tolist()])
        assert batch.tobytes() == alone.tobytes() == want.tobytes(), i
    assert 0.0 in grids[3].ends and 0.0 in grids[3].band.entries[1]
    rows = np.stack([np.clip(rng.uniform(-1.0, 2.0, 30), iv.lo[i], iv.hi[i]) for i in range(f.dim)])
    many = F.eval_many(rows)
    assert many.tobytes() == np.array([F.eval(Element(col)).data for col in rows.T]).T.tobytes()


def test_an_empty_batch_of_reads_reads_nothing(monkeypatch):
    # F.eval_many of no points is (dim, 0), read by each grid as an empty
    # batch, with no error for the per-point fallback to catch.
    f = LatticeFunction.coordinatewise(["t^3 - t", "sin(t)", "t^3 - t"])
    F = antiderivative(f, interval((0.0, 0.0, -1.0), (1.0, 1.0, 1.0)), ToleranceSchedule(1e-4, 12))
    seen = []
    brackets = calculus._CumulativeGrid.brackets

    def counted(grid, xs):  # a batch that raised would leave no shape: eval_many reads point by point then
        got = brackets(grid, xs)
        seen.append(got.shape)
        return got

    monkeypatch.setattr(calculus._CumulativeGrid, "brackets", counted)
    assert F.eval_many(np.empty((3, 0))).shape == (3, 0)
    assert seen == [(2, 0)] * 3
    assert F.kernels[1].eval_many(np.empty(0)).shape == (0,)


def test_a_read_of_exact_zeros_has_the_bits_of_the_plain_reader():
    # -t from 0: at x = 2^-600 the partial cell's products, -x·x and
    # -0.0·x, are -0.0, and their running sum is -0.0 before the read adds
    # it to the kept sum; the read's bits are the plain reader's.
    kernel = ScalarKernel.from_string("-t")
    sched = ToleranceSchedule(1e-6, 14)
    F = antiderivative(LatticeFunction.coordinatewise([kernel]), interval((0.0,), (1.0,)), sched)
    read, _ = _antiderivative_alone(kernel, 0.0, 1.0, sched)
    points = np.array([2.0**-600, 2.0**-1074, 0.0])
    want = np.array([0.5 * sum(read(p)) for p in points.tolist()])
    assert F.kernels[0].eval_many(points).tobytes() == want.tobytes()
    assert np.array([F.kernels[0].eval(p) for p in points.tolist()]).tobytes() == want.tobytes()
    grid = F.kernels[0].func.__self__
    assert _bits(*grid.brackets(points[:1])[:, 0]) == _bits(*read(points[0]))


def test_batched_reads_fail_as_the_reads_one_by_one():
    pole = ScalarKernel.from_callable(lambda t: 1 / (t - 0.3), label="pole")
    f = LatticeFunction.coordinatewise([pole, "t", pole])
    F = antiderivative(f, interval((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), ToleranceSchedule(1e-3, 10))
    with pytest.raises(EvalDomainError, match=r"t=0\.3\b"):
        F.kernels[0].eval_many(np.array([0.5, 0.31, 0.3, 0.7, 0.3]))
    with pytest.raises(EvalDomainError, match=r"queried outside its interval: 1\.5"):
        F.kernels[1].eval_many(np.array([0.5, 1.5, -1.0]))
    rows = np.array([[0.5, 0.6], [0.5, 0.6], [0.4, 0.3]])
    with pytest.raises(KernelEvalError, match="t=0.3") as info:
        F.eval_many(rows)
    assert info.value.atom == 2
    # F(1.5) of 1e308 has finite brackets whose sum overflows: the midpoint is taken in halves
    F = antiderivative(LatticeFunction.coordinatewise(["1e308"]), interval((0.0,), (1.5,)))
    assert F.kernels[0].eval_many(np.array([0.5, 1.5])).tolist() == [0.5e308, 1.5e308]


def test_alike_atoms_read_their_shared_grid_once(monkeypatch):
    # A broadcast sin(t): three atoms, one grid, one batch of their 3 x 60 reads.
    batches = []
    brackets = calculus._CumulativeGrid.brackets

    def counted(grid, xs):
        batches.append(len(xs))
        return brackets(grid, xs)

    f = LatticeFunction.coordinatewise("sin(t)", dim=3)
    iv = interval((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    sched = ToleranceSchedule(1e-5, 18)
    monkeypatch.setattr(calculus._CumulativeGrid, "brackets", counted)
    report = verify_ftc1(f, iv, interior_samples=10, tol=1e-4, seed=3, sched=sched)
    assert batches == [180] and report.passed
    F = antiderivative(f, iv, sched)
    xs = np.array([[0.1, 0.5], [0.2, 0.6], [0.3, 0.7]])
    got = F.eval_many(xs)
    assert batches[1:] == [6]
    alone = antiderivative(LatticeFunction.coordinatewise("sin(t)"), interval((0.0,), (1.0,)), sched)
    for i in range(3):
        assert got[i].tobytes() == alone.kernels[0].eval_many(xs[i]).tobytes()


def test_verify_ftc1_reads_each_atom_once(monkeypatch):
    # Ten samples, six points each: one batch of 60 reads an atom, and the
    # report is that of reading the samples one by one.
    f = LatticeFunction.coordinatewise(["t^2", "sin(t)"])
    iv = interval((0.0, -1.0), (1.0, 2.0))
    sched = ToleranceSchedule(1e-5, 18)
    batches = []
    brackets = calculus._CumulativeGrid.brackets

    def counted(grid, xs):
        batches.append(len(xs))
        return brackets(grid, xs)

    monkeypatch.setattr(calculus._CumulativeGrid, "brackets", counted)
    report = verify_ftc1(f, iv, interior_samples=10, tol=1e-4, seed=7, sched=sched)
    assert batches == [60, 60]
    monkeypatch.setattr(calculus._CumulativeGrid, "brackets", brackets)
    anti = antiderivative(f, iv, sched)
    rng = np.random.default_rng(7)
    details, worst = [], None
    for _ in range(10):
        x = calculus._sample_interior(iv, rng)
        residual = abs(numeric_derivative(anti, x, iv) - f.eval(x))
        worst = residual if worst is None else worst.sup(residual)
        details.append({"x": x.to_json(), "residual": residual.to_json()})
    assert report.details == details and report.max_residual == worst and report.passed


def test_verify_ftc1_fails_where_the_per_sample_loop_fails(monkeypatch):
    # F's kernels fail past 0.85 (atom 0) and inside (0.4, 0.5) (atom 1),
    # and f's atom 1 inside (0.1, 0.14).  Where reading all samples at once
    # fails, verify_ftc1 names what reading them one by one names: the
    # first sample whose derivative or f fails, and its lowest atom, though
    # the batch alone may name a later sample's lower atom.
    def failing(lo, hi):
        return ScalarKernel.from_callable(lambda t: float("nan") if lo < t < hi else t)

    anti = LatticeFunction.coordinatewise([failing(0.85, 2.0), failing(0.4, 0.5)])
    f = LatticeFunction.coordinatewise(["1", failing(0.1, 0.14)])
    monkeypatch.setattr(calculus, "antiderivative", lambda f, iv, sched=None: anti)
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        xs = [calculus._sample_interior(UNIT2, rng) for _ in range(10)]
        for x in xs:
            try:
                numeric_derivative(anti, x, UNIT2)
            except KernelEvalError as err:
                want, where = err, "derivative"
                break
            try:
                f.eval(x)
            except KernelEvalError as err:
                want, where = err, "f"
                break
        with pytest.raises(KernelEvalError) as got:
            verify_ftc1(f, UNIT2, seed=seed)
        assert (got.value.atom, str(got.value)) == (want.atom, str(want)), seed
        with pytest.raises(KernelEvalError) as batch:
            calculus._derivatives(anti, xs, UNIT2)
        seen.add((where, str(batch.value) == str(want)))
    assert {("derivative", True), ("derivative", False), ("f", False)} <= seen


def test_ten_thousand_reads_keep_a_batch_of_buffers():
    # 10^4 reads in rows of up to 257 points would take 20 MiB at once;
    # read 64 at a time they peak at about a chunk's buffers.
    F = antiderivative(LatticeFunction.coordinatewise(["t^3 - t"]), interval((0.0,), (1.0,)))
    points = np.random.default_rng(8).uniform(0.0, 1.0, 10**4)
    F.kernels[0].eval_many(points[:300])  # first, so that no lazy import or cache is counted
    tracemalloc.start()
    try:
        got = F.kernels[0].eval_many(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (10**4,)
    assert peak <= 3 * 2**20, peak


def test_verify_ftc2_integrates_all_pairs_at_once(monkeypatch):
    F = LatticeFunction.coordinatewise(["t^3/3", "sin(t)"])
    f = LatticeFunction.coordinatewise(["t^2", "cos(t)"])
    iv = interval((-1.0, 0.0), (2.0, 3.0))
    found = []

    def recorded(*args, **kwargs):
        found.append(signed_integrate(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr("ordercalc.calculus.signed_integrate", recorded)
    report = verify_ftc2(F, f, iv, samples=20, tol=1e-5, seed=4)
    assert report.passed and report.samples == 20 and len(found) == 1
    lhs = found[0].value.data
    sched = ToleranceSchedule(tol=1e-5 / 4.0, max_depth=26)
    for n, d in enumerate(report.details):
        x, y = Element(d["x"]), Element(d["y"])
        want = signed_integrate(f, x, y, sched=sched).value.data
        assert lhs[2 * n : 2 * n + 2].tobytes() == want.tobytes(), n
        assert d["residual"] == abs(Element(want) - (F.eval(y) - F.eval(x))).to_json()


def test_verify_ftc2_names_the_atom_of_the_first_failing_pair():
    # 1/t^2 is unbounded at 0: pair 3 crosses it in atom 1, pair 4 in atom 0.
    F = LatticeFunction.coordinatewise("-1/t", dim=2)
    f = LatticeFunction.coordinatewise("1/t^2", dim=2)
    iv = interval((-1.0, -1.0), (2.0, 2.0))
    pairs = [(E(0.5, 0.6), E(1.5, 1.4 + k / 10)) for k in range(3)]
    pairs += [(E(0.5, -0.5), E(1.0, 1.0)), (E(-0.5, 0.5), E(1.0, 1.0))]
    with pytest.raises(KernelEvalError) as info:
        verify_ftc2(F, f, iv, pairs=pairs)
    assert info.value.atom == 1
    with pytest.raises(KernelEvalError) as alone:
        signed_integrate(f, *pairs[3], sched=ToleranceSchedule(tol=1e-5 / 4.0, max_depth=26))
    assert str(info.value) == str(alone.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, F: verify_ftc1(f, UNIT2, interior_samples=0),
        lambda f, F: verify_ftc2(F, f, UNIT2, samples=0),
        lambda f, F: verify_ftc2(F, f, UNIT2, pairs=[]),
    ],
    ids=["ftc1", "ftc2-samples", "ftc2-pairs"],
)
def test_verifiers_without_samples_are_rejected(call):
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    F = LatticeFunction.coordinatewise("t^3/3", dim=2)
    with pytest.raises(ValueError):
        call(f, F)


def test_library_calls_print_nothing(capfd):
    # The library writes nothing to stdout: a benchmark or a CLI reading its
    # caller's last stdout line must find its own output there.
    f = LatticeFunction.coordinatewise(["sin(t)", "t^3 - t"])
    sched = ToleranceSchedule(1e-4, 16)
    integrate(f, UNIT2, sched)
    F = antiderivative(f, UNIT2, sched)
    for p in np.random.default_rng(0).uniform(0.0, 1.0, (20, 2)):
        F.eval(Element(p))
    sq, cube = LatticeFunction.coordinatewise("t^2", dim=2), LatticeFunction.coordinatewise("t^3/3", dim=2)
    verify_ftc1(sq, UNIT2, interior_samples=3, sched=sched)
    verify_ftc2(cube, sq, UNIT2, samples=3)
    G, one = LatticeFunction.coordinatewise("t + 1", dim=2), LatticeFunction.coordinatewise("1", dim=2)
    verify_substitution(sq, one, G, UNIT2)
    g = LatticeFunction.coordinatewise("t^2/2", dim=2)
    verify_by_parts(G, g, G.derivative(), g.derivative(), UNIT2)
    mvt_integral_solve(sq, E(0, 0), E(1, 1), sched=sched)
    extrema(f, UNIT2)
    riemann_sum(f, tag(uniform(UNIT2, 8), "midpoint"))
    continuity_modulus(f, UNIT2, [E(0.1, 0.1)])
    numeric_derivative(f, E(0.5, 0.5), UNIT2)
    darboux_sums(f, uniform(UNIT2, 8))
    with pytest.raises(KernelEvalError):
        integrate(LatticeFunction.coordinatewise("1/t"), interval((-1.0,), (1.0,)))
    assert capfd.readouterr().out == ""


# -- tolerance ----------------------------------------------------------------

_T2 = LatticeFunction.coordinatewise("t^2", dim=1)
_T = LatticeFunction.coordinatewise("t", dim=1)
_T3_3 = LatticeFunction.coordinatewise("t^3/3", dim=1)
_ONE = LatticeFunction.coordinatewise("1", dim=1)
_BAD_TOL_CALLS = {
    "mvt_integral_solve": lambda tol: mvt_integral_solve(_T2, E(0.0), E(1.0), tol=tol),
    "verify_ftc1": lambda tol: verify_ftc1(_T2, interval((0.0,), (1.0,)), tol=tol),
    "verify_ftc2": lambda tol: verify_ftc2(_T3_3, _T2, interval((0.0,), (1.0,)), tol=tol, sched=ToleranceSchedule(1e-6, 20)),
    "verify_substitution": lambda tol: verify_substitution(_T2, _ONE, _T, interval((0.0,), (1.0,)), tol=tol),
    "verify_by_parts": lambda tol: verify_by_parts(_T, _T, _ONE, _ONE, interval((0.0,), (1.0,)), tol=tol),
}


@pytest.mark.parametrize("tol", [-1.0, math.nan])
@pytest.mark.parametrize("name", sorted(_BAD_TOL_CALLS))
def test_a_bad_tol_is_refused_before_any_integral(name, tol, monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated before refusing tol")

    for entry in ("integrate", "signed_integrate", "antiderivative"):
        monkeypatch.setattr(calculus, entry, no_integral)
    with pytest.raises(ValueError, match=r"^tol must be >= 0, got (-1\.0|nan)$"):
        _BAD_TOL_CALLS[name](tol)


def test_a_zero_tol_still_solves_the_mvt():
    c = mvt_integral_solve(_T2, E(0.0), E(1.0), tol=0.0)
    assert abs(c[0] - 1.0 / math.sqrt(3.0)) < 1e-9
