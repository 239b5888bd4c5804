"""Interval enclosures of kernel programs and the extrema certified with them."""

import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import adaptive_simpson, random_expr, reference_eval
from ordercalc import expr as ex
from ordercalc import _interval
from ordercalc._interval import enclose
from ordercalc._kernels_fallback import _run
from ordercalc._tape import OP_NEG
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


def test_negated_constant_stays_a_point_with_the_same_bounds(monkeypatch):
    # -2*t compiles to CONST 2, NEG, VAR, MUL: the negated constant must stay
    # one object, so that the product takes its two-product path.
    c = np.float64(2.0)
    lo, hi = _interval._OPS[OP_NEG]((c, c))
    assert lo is hi and lo == -2.0
    a, b = np.array([-3.0, 1.0]), np.array([-2.0, 4.0])
    lo, hi = _interval._OPS[OP_NEG]((a, b))
    assert lo.tolist() == [2.0, -4.0] and hi.tolist() == [3.0, -1.0]
    # Bounds as with a negated constant of two objects, inf and NaN pieces included.
    a = np.array([-3.0, -1.0, 0.0, 0.5, -np.inf, 1.0, np.nan, -np.inf])
    b = np.array([-2.0, 2.0, 0.0, 4.0, 1.0, np.inf, 1.0, np.inf])
    progs = [ScalarKernel.from_string(src).program for src in ("-0.5*t^2 - t", "t*(-3)", "-2*sin(t)")]
    got = [enclose(prog, a, b) for prog in progs]
    monkeypatch.setitem(_interval._OPS, OP_NEG, lambda x: (-x[1], -x[0]))
    for prog, (lo, hi) in zip(progs, got):
        want_lo, want_hi = enclose(prog, a, b)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


def _pow_with_sign_selects(xl, xh, n: int):
    """``_interval._pow`` as it was before even powers skipped the sign selects of ``_down`` and ``_up``."""
    if n == 0:
        return 1.0, 1.0
    m = abs(n)
    rel = (m + 1) * _interval._EPS
    pl, ph = np.power(xl, m), np.power(xh, m)
    if m % 2:
        lo, hi = pl, ph
    else:
        lo = np.where(xl > 0.0, pl, np.where(xh < 0.0, ph, 0.0))
        hi = np.maximum(pl, ph)
    lo, hi = _interval._down(lo, rel), _interval._up(hi, rel)
    if n < 0:
        return _interval._div(1.0, 1.0, lo, hi)
    return lo, hi


def test_even_powers_enclose_as_with_the_sign_selects(monkeypatch):
    # 2000 pieces: across 0, negative, positive, from 0, to 0, of zero
    # width, at every scale, with infinite ends, and with NaN ends.
    rng = np.random.default_rng(5)
    a = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-200, 200, 2000)
    b = a + 10.0 ** rng.uniform(-200, 200, 2000)
    a[:100], b[100:200], a[200:300], b[300:400] = 0.0, 0.0, -np.inf, np.inf
    a[400:450], b[450:500], b[500:550] = np.nan, np.nan, a[500:550]
    a[:400], b[:400] = np.minimum(a[:400], b[:400]), np.maximum(a[:400], b[:400])
    assert np.count_nonzero((a < 0) & (b > 0)) > 300 and np.count_nonzero(b < 0) > 300
    progs = [ScalarKernel.from_string(src).program for src in ("t^2", "t^4", "t^-2", "(t - 1)^6")]
    got = [enclose(prog, a, b) for prog in progs]
    monkeypatch.setattr(_interval, "_pow", _pow_with_sign_selects)
    for prog, (lo, hi) in zip(progs, got):
        want_lo, want_hi = enclose(prog, a, b)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


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
        ref = adaptive_simpson(lambda t: reference_eval(e, t), lo, hi, tol=quad_tol)
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


# The interval enclosure of its derivative, 3(t - 0.3)^2 written as a sum
# of products, dips below 0 across 0.3, so a piece there stays unresolved.
UNRESOLVED = "(t - 0.3)^2 * (t - 0.3)"


def test_critical_points_are_the_one_row_critical_entries():
    # The kernels and boxes of the test above, and one that leaves an
    # unresolved piece, whose two ends are both returned.
    rng = random.Random(2604)
    box_rng = np.random.default_rng(2604)
    cases = [(ScalarKernel.from_string(UNRESOLVED), -1.0, 1.0)]
    while len(cases) < 51:
        e = random_expr(rng, depth=5, smooth_only=True)
        if isinstance(ex.differentiate(e), ex.Const):
            continue
        lo = float(box_rng.uniform(-2.0, 1.0))
        cases.append((ScalarKernel.from_expr(e), lo, lo + float(box_rng.uniform(0.1, 2.0))))
    checked = 0
    for k, lo, hi in cases:
        try:
            points = k.critical_points(lo, hi)
        except (ex.EvalDomainError, _interval.IsolationError):
            continue
        checked += 1
        _, ts, _, _ = k.critical_entries(np.array([lo]), np.array([hi]))
        assert points.tobytes() == np.unique(ts).tobytes(), (k, lo, hi)
        # every sign change of f' on a fine grid lies within tol of a point
        grid = np.linspace(lo, hi, 4001)
        slope = _run(k.derivative().program, grid)  # NaN where undefined, never raises
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        for j in np.flatnonzero(np.sign(slope[:-1]) * np.sign(slope[1:]) < 0):
            near = (points >= grid[j] - tol) & (points <= grid[j + 1] + tol)
            assert near.any(), (k, lo, hi, grid[j])
    assert checked >= 30
    ends = ScalarKernel.from_string(UNRESOLVED).critical_points(-1.0, 1.0)
    assert len(ends) == 2 and ends[0] < 0.3 < ends[1] and ends[1] - ends[0] <= 1e-12


def test_critical_points_of_an_empty_interval_are_none():
    k = ScalarKernel.from_string("t^3 - t")
    assert len(k.critical_points(0.5, 0.5)) == len(k.critical_points(1.0, -1.0)) == 0


def test_critical_points_of_an_unbounded_kernel_raise_its_domain_error():
    with pytest.raises(ex.EvalDomainError, match="no finite bound near t=0.3"):
        ScalarKernel.from_string("1/(t - 0.3)").critical_points(0.0, 1.0)


def test_critical_points_past_the_piece_budget_raise_isolation_error():
    k = ScalarKernel.from_string("sin(t)^2 + cos(t)^2")  # f' is 0 but not syntactically so
    with pytest.raises(_interval.IsolationError, match="within 4096 pieces"):
        k.critical_points(0.0, 1.0)


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


def test_band_isolation_gives_each_row_its_one_row_entries():
    k = ScalarKernel.from_string("(t - 0.3)^3 - 3e-8*(t - 0.3) + sin(4*t)")
    rng = np.random.default_rng(5)
    lo = rng.uniform(-2.0, 1.0, 150)
    hi = lo + rng.uniform(0.0, 3.0, 150)
    hi[3] = lo[3]
    rows, ts, vals, failed = k.critical_entries(lo, hi)
    assert not failed.any()
    assert np.all(np.diff(rows) >= 0)
    for r in range(len(lo)):
        _, want_ts, want_vals, _ = k.critical_entries(lo[r : r + 1], hi[r : r + 1])
        assert ts[rows == r].tobytes() == want_ts.tobytes()
        assert vals[rows == r].tobytes() == want_vals.tobytes()


def test_a_band_split_by_the_piece_bound_isolates_as_one_block(monkeypatch):
    # Rows are independent, so splitting a band's rows into blocks, as a
    # bound of 64 pieces a level does, moves no bit of the entries; row 5
    # gives up (sin(6t) over [0, 1e6]) and row 7 has zero width.
    k = ScalarKernel.from_string("sin(6*t) + t/50")
    rng = np.random.default_rng(1)
    lo = rng.uniform(-3.0, 0.0, 40)
    hi = lo + rng.uniform(0.0, 4.0, 40)
    lo[5], hi[5] = 0.0, 1e6
    hi[7] = lo[7]
    blocks = []
    levels = _interval._levels

    def counted(d1, d2, a, b, own, r0, r1, *rest):
        blocks.append((r0, r1))
        return levels(d1, d2, a, b, own, r0, r1, *rest)

    monkeypatch.setattr(_interval, "_levels", counted)
    want = k.critical_entries(lo, hi)
    assert blocks == [(0, 39)] and want[3][5] and not want[3][np.arange(40) != 5].any()
    blocks.clear()
    monkeypatch.setattr(_interval, "_LEVEL_PIECES", 64)
    got = k.critical_entries(lo, hi)
    assert len(blocks) > 10 and max(r1 - r0 for r0, r1 in blocks[1:]) < 39
    for part, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_singular_kernel_in_a_band_names_its_atom():
    # Only atom 2's box holds the pole.
    f = LatticeFunction.coordinatewise("1/(t-0.3)", dim=3)
    t0 = time.perf_counter()
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((0.5, -1.0, 0.0), (1.0, 0.0, 1.0)))
    assert time.perf_counter() - t0 < 1.0
    assert info.value.atom == 2
    t = float(re.search(r"t=(\S+)", str(info.value)).group(1))
    assert abs(t - 0.3) <= 1e-6


def test_failing_value_in_a_band_names_its_atom():
    # One callable shared by three atoms; only atom 1's box reaches t > 2.
    k = ScalarKernel.from_callable(lambda t: 1.0 if t <= 2.0 else float("nan"))
    f = LatticeFunction.coordinatewise([k, k, k])
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((0.0, 1.0, -1.0), (1.0, 3.0, 0.0)), ToleranceSchedule(1e-3, 8))
    assert info.value.atom == 1
    assert float(re.search(r"t=(\S+)", str(info.value)).group(1)) > 2.0


def test_overflowing_products_name_their_atom():
    # exp(t) is finite on [700, 709], but exp(709) * 9 is not.
    f = LatticeFunction.coordinatewise(["t", "exp(t)"])
    with pytest.raises(KernelEvalError) as info, np.errstate(over="ignore"):
        integrate(f, interval((0.0, 700.0), (1.0, 709.0)))
    assert info.value.atom == 1
    assert isinstance(info.value.cause, OverflowError)
    assert "m·Δx overflowed" in str(info.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_in_interleaved_bands_name_the_lowest_atom(workers):
    # Kernels [A, B, A]: atoms 1 and 2 both fail, in different bands; the
    # error names atom 1, as when the atoms run one by one.
    a, b = ScalarKernel.from_string("1/(t-0.3)"), ScalarKernel.from_string("1/(t-0.7)")
    f = LatticeFunction.coordinatewise([a, b, a])
    with pytest.raises(KernelEvalError) as info:  # at isolation
        integrate(f, interval((0.5, 0.0, 0.0), (1.0, 1.0, 1.0)), workers=workers)
    assert info.value.atom == 1
    a = ScalarKernel.from_callable(lambda t: 1.0 if t <= 2.0 else float("nan"))
    b = ScalarKernel.from_callable(lambda t: 1.0 if t <= 5.0 else float("nan"))
    f = LatticeFunction.coordinatewise([a, b, a])
    with pytest.raises(KernelEvalError) as info:  # in the level loop
        integrate(f, interval((0.0, 0.0, 0.0), (1.0, 6.0, 3.0)), workers=workers)
    assert info.value.atom == 1


def test_sampled_band_names_the_lowest_atom_over_both_passes():
    # One callable shared by atoms 1 and 2: atom 1 fails only at the points
    # of the finer pass (t = 1), atom 2 already at the coarser one (t = 12).
    k = ScalarKernel.from_callable(lambda t: float("nan") if t in (1.0, 12.0) else 1.0)
    f = LatticeFunction.coordinatewise([k, k, k])
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((20.0, 0.0, 10.0), (21.0, 8.0, 18.0)), ToleranceSchedule(1e-3, 4))
    assert info.value.atom == 1


def test_band_atom_past_the_piece_budget_is_sampled_alone():
    # sin(t) on [0, 1e6] has too many critical points to isolate; its
    # siblings in the band stay exact, each bit for bit its 1-D integral.
    lo = (0.0, 0.2, 0.0, -1.0)
    hi = (1e6, 1.9, 7.0, 0.4)
    sched = ToleranceSchedule(1e-3, 6)
    whole = integrate(LatticeFunction.coordinatewise("sin(t)", dim=4), interval(lo, hi), sched)
    assert whole.extrema_method == "sampled"
    for i, (a, b) in enumerate(zip(lo, hi)):
        one = LatticeFunction.coordinatewise("sin(t)", dim=1)
        alone = integrate(one, interval((a,), (b,)), sched)
        assert alone.extrema_method == ("sampled" if i == 0 else "exact")
        assert whole.lower[i] == alone.lower[0] and whole.upper[i] == alone.upper[0]
        assert whole.value[i] == alone.value[0]
