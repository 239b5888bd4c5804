import json
import math
import random
import re

import numpy as np
import pytest

from helpers import adaptive_simpson, random_expr, reference_eval
from ordercalc import _kernels_fallback as K
from ordercalc import expr as ex
from ordercalc.calculus import antiderivative
from ordercalc.expr import parse
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel
from ordercalc.integrate import (
    DarbouxSums,
    IntegralResult,
    ToleranceSchedule,
    _SKIP_SLACK,
    _Band,
    _make_bands,
    _midpoints,
    _next_due,
    _refine,
    darboux_sums,
    integrate,
    riemann_sum,
    signed_integrate,
    split_integrate,
)
from ordercalc.lattice import Band, Element, OrderInterval, totord
from ordercalc.partitions import Partition, common_refinement, refines, tag, uniform


def E(*coords):
    return Element(coords)


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


UNIT2 = interval((0, 0), (1, 1))
SWAP_P = Partition((E(0, 0), E(1, 0), E(1, 1)), UNIT2)
SWAP_Q = Partition((E(0, 0), E(0, 1), E(1, 1)), UNIT2)


def random_partition(rng, iv, max_interior=4) -> Partition:
    n = int(rng.integers(0, max_interior + 1))
    pts = [iv.sample(rng) for _ in range(n)]
    return Partition(tuple(totord([iv.lo, iv.hi, *pts])), iv)


# -- Darboux sums -------------------------------------------------------------

def test_swap_staircase_sums_are_exact():
    swap = LatticeFunction.swap()
    assert darboux_sums(swap, SWAP_P).lower == E(0, 1)
    assert darboux_sums(swap, SWAP_Q).upper == E(1, 0)
    assert not darboux_sums(swap, SWAP_P).lower.leq(darboux_sums(swap, SWAP_Q).upper)


def test_constant_kernel_darboux_collapse():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(3.0), dim=2)
    iv = interval((0, 1), (2, 4))
    for n in (1, 3, 8):
        sums = darboux_sums(f, uniform(iv, n))
        assert sums.lower == sums.upper == E(6.0, 9.0)


def test_corner_path_rejects_high_dimension():
    f = LatticeFunction.general(lambda x: x, dim=4)
    iv = interval((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        darboux_sums(f, uniform(iv, 2))


def test_darboux_sums_failures_in_interleaved_bands_name_the_lowest_atom():
    # Kernels [A, B, A]: band A (atoms 0 and 2) fails in atom 2 and band B
    # in atom 1, so the lowest atom at fault is 1, as integrate names it.
    a = ScalarKernel.from_callable(lambda t: 1.0 if t <= 2.0 else float("nan"))
    b = ScalarKernel.from_callable(lambda t: 1.0 if t <= 5.0 else float("nan"))
    f = LatticeFunction.coordinatewise([a, b, a])
    iv = interval((0.0, 0.0, 0.0), (1.0, 6.0, 3.0))
    for run in (lambda: darboux_sums(f, uniform(iv, 4)), lambda: integrate(f, iv)):
        with pytest.raises(KernelEvalError) as info:
            run()
        assert info.value.atom == 1


def test_darboux_sums_validation():
    with pytest.raises(ValueError):
        DarbouxSums(lower=E(1, 1), upper=E(0, 0))


# -- Riemann sums --------------------------------------------------------------

def test_riemann_midpoint_identity():
    f = LatticeFunction.coordinatewise("t", dim=2)
    tagged = tag(uniform(UNIT2, 2), "midpoint")
    assert riemann_sum(f, tagged) == E(0.5, 0.5)


def test_riemann_constant_any_tags():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(2.5), dim=2)
    iv = interval((0, 0), (2, 2))
    for rule in ("left", "right", "midpoint", "random"):
        tagged = tag(uniform(iv, 3), rule, seed=5)
        assert riemann_sum(f, tagged) == E(5.0, 5.0)


def test_riemann_left_tags_quarter_grid():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    tagged = tag(uniform(interval((0,), (1,)), 4), "left")
    assert riemann_sum(f, tagged) == E(0.21875)


def test_riemann_sum_of_a_general_map_tags_each_cell():
    # The swap (x, y) -> (y, x) at the midpoints of [0, 1] x [0, 2] cut in
    # four: atom 0 sums the y tags over widths 1/4, atom 1 the x tags over 1/2.
    tagged = tag(uniform(interval((0, 0), (1, 2)), 4), "midpoint")
    assert riemann_sum(LatticeFunction.swap(), tagged) == E(1.0, 1.0)


# -- integrate ------------------------------------------------------------------

def test_integrate_identity_kernel():
    f = LatticeFunction.coordinatewise("t", dim=2)
    result = integrate(f, UNIT2, ToleranceSchedule(1e-6, 24))
    assert result.converged and result.extrema_method == "exact"
    assert np.allclose(result.value.data, 0.5, atol=2e-6)
    assert result.lower.leq(result.value) and result.value.leq(result.upper)


def test_integrate_square_kernel_anisotropic_box():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    result = integrate(f, interval((0, 0), (2, 1)))
    assert result.converged
    assert result.value[0] == pytest.approx(8.0 / 3.0, rel=1e-6)
    assert result.value[1] == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_integrate_swap_never_converges():
    result = integrate(LatticeFunction.swap(), UNIT2, ToleranceSchedule(1e-6, 24))
    assert not result.converged
    assert result.extrema_method == "corner"
    assert np.all(result.gap.data >= 1.0)  # stalls at the staircase envelope


def test_integrate_swap_gap_positive_at_every_depth():
    for depth in range(0, 7):
        result = integrate(
            LatticeFunction.swap(), UNIT2, ToleranceSchedule(1e-6, max(depth, 1))
        )
        assert not result.converged
        assert np.all(result.gap.data >= 0.99)


def test_integrate_degenerate_interval_is_exact_zero():
    f = LatticeFunction.coordinatewise("exp(t)", dim=2)
    x = E(0.3, -0.7)
    result = integrate(f, OrderInterval(x, x))
    assert result.converged and result.depth == 0
    assert result.value == E(0, 0) and result.gap == E(0, 0)


def test_integrate_reports_nonconvergence_instead_of_raising():
    f = LatticeFunction.coordinatewise("t", dim=1)
    result = integrate(f, interval((0,), (1,)), ToleranceSchedule(1e-12, 4))
    assert not result.converged
    assert result.depth == 4


def test_overflowing_constant_product_names_its_atom():
    # The derivative's constants 1e308 and 10 are not folded into inf, so
    # the kernel keeps its certified strategy and fails where it is summed.
    assert ScalarKernel.from_string("t*1e308*10").strategy == "critical"
    f = LatticeFunction.coordinatewise(["t", "t*1e308*10"])
    with pytest.raises(KernelEvalError, match="t=0.5") as info:
        integrate(f, interval((0, 0.5), (1, 1)))
    assert info.value.atom == 1


def test_integrate_workers_bitwise_deterministic():
    f = LatticeFunction.coordinatewise(["t^2", "sin(t)", "exp(t)"], dim=3)
    iv = interval((0, 0, 0), (1, 2, 1))
    sched = ToleranceSchedule(1e-4, 18)
    seq = integrate(f, iv, sched, workers=1)
    par = integrate(f, iv, sched, workers=3)
    assert seq.value == par.value
    assert seq.lower == par.lower and seq.upper == par.upper
    assert seq.depth == par.depth


def test_workers_below_one_are_rejected():
    f = LatticeFunction.coordinatewise("t", dim=2)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            integrate(f, UNIT2, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            signed_integrate(f, E(0, 1), E(1, 0), workers=workers)


def _assert_atoms_equal_their_kernels_alone(f, lo, hi, sched):
    """Each atom of ``integrate(f)``, with 1 or 3 workers, is its kernel integrated alone."""
    alone = [
        integrate(LatticeFunction.coordinatewise([k]), interval((a,), (b,)), sched)
        for k, a, b in zip(f.kernels, lo, hi)
    ]
    for workers in (1, 3):
        whole = integrate(f, interval(lo, hi), sched, workers=workers)
        assert whole.converged == all(r.converged for r in alone)
        assert whole.depth == max(r.depth for r in alone)
        for i, r in enumerate(alone):
            assert whole.value[i] == r.value[0], (i, workers)
            assert whole.lower[i] == r.lower[0], (i, workers)
            assert whole.upper[i] == r.upper[0], (i, workers)
            assert whole.gap[i] == r.gap[0], (i, workers)
    return alone


def test_integrate_atoms_equal_their_kernels_integrated_alone():
    # Band projection commutes with the integral, so each atom of a
    # multi-atom result is bit for bit its kernel integrated alone in 1-D,
    # even when the atoms close at different depths, and whether or not
    # they share a kernel and so are summed as rows of one block.
    sources = ["sin(t)", "t", "t^3"]
    lo = (-1.481108694182247, -1.720639181632314, -1.9166527262875368)
    hi = (-1.3171699655282194, -0.4902686949528299, 0.00863067890057323)
    sched = ToleranceSchedule(1e-6, 24)
    f = LatticeFunction.coordinatewise(sources, dim=3)
    alone = _assert_atoms_equal_their_kernels_alone(f, lo, hi, sched)
    assert len({r.depth for r in alone}) == 3  # every atom closes at its own depth
    assert all(r.converged for r in alone)

    # A broadcast t^3 - t band: some boxes hold a critical point +-3^-1/2,
    # some hold none, and one is a single point.
    rng = np.random.default_rng(2604)
    lo = rng.uniform(-1.5, 1.0, 40)
    hi = lo + rng.uniform(0.05, 1.5, 40)
    hi[7] = lo[7]
    crit = 3.0**-0.5
    holds = ((lo < crit) & (crit < hi)) | ((lo < -crit) & (-crit < hi))
    assert 5 <= holds.sum() <= 35
    band = LatticeFunction.coordinatewise("t^3 - t", dim=40)
    sched = ToleranceSchedule(1e-6, 20)
    alone = _assert_atoms_equal_their_kernels_alone(band, tuple(lo), tuple(hi), sched)
    assert alone[7].value[0] == 0.0 and len({r.depth for r in alone}) > 3

    # Mixed: a sampled abs(t) atom, a callable atom and a repeated sin(t).
    cube = ScalarKernel.from_callable(lambda t: t**3, label="cube")
    mixed = LatticeFunction.coordinatewise(["sin(t)", "abs(t)", cube, "sin(t)"])
    assert mixed.kernels[0] is mixed.kernels[3]
    _assert_atoms_equal_their_kernels_alone(
        mixed, (0.1, -0.7, -0.5, 2.0), (1.3, 0.4, 0.5, 4.5), ToleranceSchedule(1e-4, 12)
    )


# -- skipping levels that cannot close ------------------------------------------

def _sweep(f, iv, sched):
    """``integrate`` as a plain sweep: every open row of every band summed at every depth.

    Returns the result and the last depth at which each atom was summed.
    """
    value, lower, upper = np.empty(f.dim), np.empty(f.dim), np.empty(f.dim)
    last = np.full(f.dim, -1)
    bands, error = _make_bands(f, iv.lo.data, iv.hi.data)  # bands below error's atom
    live = [(band, np.arange(len(band.atoms))) for band in bands]
    depth = 0
    for depth in range(sched.max_depth + 1):
        still_open = []
        for band, rows in live:
            _, (lo, up, widen_lo, widen_up) = band.level(rows, 1 << depth)
            mid, lo, up = 0.5 * (lo + up), lo - widen_lo, up + widen_up
            atoms = band.atoms[rows]
            value[atoms], lower[atoms], upper[atoms], last[atoms] = mid, lo, up, depth
            shut = up - lo <= sched.tol * (1.0 + np.abs(mid))
            if not shut.all():
                still_open.append((band, rows[~shut]))
        live = still_open
        if not live:
            break
    if error is not None:
        raise error
    method = "sampled" if any(band.sampled for band in bands) else "exact"
    result = IntegralResult(
        Element(value), Element(lower), Element(upper), Element(upper - lower),
        depth, not live, sched, method,
    )
    return result, last


def test_bands_stop_below_the_lowest_isolation_failure():
    # Atom 2 holds the pole of 1/t.  The cubic's band, isolated first, is
    # cut to atom 0 and its critical entries, and sin(t) is not isolated.
    f = LatticeFunction.coordinatewise(["t^3 - t", "1/t", "1/t", "t^3 - t", "sin(t)"])
    lo = np.array([-1.0, 0.5, -1.0, -1.0, -1.0])
    hi = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
    bands, error = _make_bands(f, lo, hi)
    assert error.atom == 2
    assert sorted(a for band in bands for a in band.atoms.tolist()) == [0, 1]
    cubic = next(band for band in bands if band.atoms.tolist() == [0])
    whole, _ = _make_bands(LatticeFunction.coordinatewise(["t^3 - t"]), lo[:1], hi[:1])
    assert all(x.tobytes() == y.tobytes() for x, y in zip(cubic.entries, whole[0].entries))


def _integrate_counting(f, iv, sched, monkeypatch):
    """``integrate(f, iv, sched)``, and the (depth, atoms) of each ``_Band.level`` call it made."""
    calls = []
    level = _Band.level

    def counted(band, rows, n):
        calls.append((n.bit_length() - 1, band.atoms[rows].tolist()))
        return level(band, rows, n)

    with monkeypatch.context() as m:
        m.setattr(_Band, "level", counted)
        return integrate(f, iv, sched), calls


def _assert_skip_equals_sweep(f, iv, sched, monkeypatch):
    """Every field of ``integrate`` and every atom's closing depth equal the sweep's, bit for bit.

    A kernel that fails must fail in both, naming the same atom and point.
    Returns the sweep's result and the last depth at which each atom was
    summed, or None if the kernel failed.
    """
    try:
        want, want_last = _sweep(f, iv, sched)
    except KernelEvalError as err:
        with pytest.raises(KernelEvalError) as info:
            integrate(f, iv, sched)
        assert (info.value.atom, str(info.value)) == (err.atom, str(err))
        return None
    got, calls = _integrate_counting(f, iv, sched, monkeypatch)
    last = np.full(f.dim, -1)
    for depth, atoms in calls:
        last[atoms] = depth
    assert last.tolist() == want_last.tolist()
    for name in ("value", "lower", "upper", "gap"):
        assert getattr(got, name).data.tobytes() == getattr(want, name).data.tobytes(), name
    assert (got.depth, got.converged, got.tolerance, got.extrema_method) == (
        want.depth, want.converged, want.tolerance, want.extrema_method
    )
    return want, last


@pytest.mark.parametrize(
    "sched, min_closed", [(ToleranceSchedule(1e-4, 14), 50), (ToleranceSchedule(1e-6, 16), 15)]
)
def test_skip_equals_sweep_on_random_smooth_kernels(sched, min_closed, monkeypatch):
    # The kernels and boxes of test_no_extremum_missed_on_random_smooth_kernels,
    # each kernel broadcast over its box and two parts of it, so that rows
    # of one band close at different depths.
    rng = random.Random(2604)
    box_rng = np.random.default_rng(2604)
    kernels = closed = 0
    while kernels < 50:
        e = random_expr(rng, depth=5, smooth_only=True)
        if isinstance(ex.differentiate(e), ex.Const):
            continue
        kernels += 1
        a = float(box_rng.uniform(-2.0, 1.0))
        b = a + float(box_rng.uniform(0.1, 2.0))
        iv = interval((a, a, a + 0.25 * (b - a)), (b, 0.5 * (a + b), b))
        f = LatticeFunction.coordinatewise(ScalarKernel.from_expr(e), dim=3)
        found = _assert_skip_equals_sweep(f, iv, sched, monkeypatch)
        closed += int((found[1] < sched.max_depth).sum()) if found else 0
    assert closed >= min_closed  # of 150 atoms; the rest fail or stop at max_depth


def test_skip_equals_sweep_on_the_acceptance_draws(monkeypatch):
    # The draws of test_acceptance.test_integrate_matches_scalar_oracle.
    kernels = ["t", "t^2", "t^3", "sin(t)", "exp(t)", "3*t^2 - 2*t"]
    rng = np.random.default_rng(777)
    sched = ToleranceSchedule(1e-6, 24)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        sources = [kernels[int(rng.integers(0, len(kernels)))] for _ in range(dim)]
        lo = rng.uniform(-2.0, 1.0, dim)
        hi = lo + rng.uniform(0.1, 2.0, dim)
        f = LatticeFunction.coordinatewise(sources, dim=dim)
        want, _ = _assert_skip_equals_sweep(f, interval(tuple(lo), tuple(hi)), sched, monkeypatch)
        assert want.converged


def test_skip_equals_sweep_on_cancelling_kernels(monkeypatch):
    # Rounding dominates both kernels near 0; (t + 1e8) - 1e8 is a staircase
    # of steps 2^-26 that stops at max_depth without closing.
    f = LatticeFunction.coordinatewise(["(t + 1e8) - 1e8", "exp(t) - 1 - t", "exp(t) - 1 - t"])
    iv = interval((0.0, -1e-3, 1e-6), (1e-3, 1e-3, 1e-2))
    want, last = _assert_skip_equals_sweep(f, iv, ToleranceSchedule(1e-13, 22), monkeypatch)
    assert not want.converged and want.depth == 22 and last[0] == 22 and min(last[1:]) < 22


def test_skip_equals_sweep_on_part_sampled_band(monkeypatch):
    # Isolation gives up on sin(t) over [0, 1e6]: that atom is sampled,
    # and swept level by level, while its siblings stay exact.
    f = LatticeFunction.coordinatewise("sin(t)", dim=4)
    iv = interval((0.0, 0.2, 0.0, -1.0), (1e6, 1.9, 7.0, 0.4))
    want, _ = _assert_skip_equals_sweep(f, iv, ToleranceSchedule(1e-4, 12), monkeypatch)
    assert want.extrema_method == "sampled"


def test_skip_equals_sweep_on_monotone_callables(monkeypatch):
    k = ScalarKernel.from_callable(math.atan, monotone="increasing", label="atan")
    f = LatticeFunction.coordinatewise([k, k, "t^2", k])
    iv = interval((-3.0, 0.0, 1.0, 5.0), (2.0, 0.25, 3.0, 5.5))
    want, last = _assert_skip_equals_sweep(f, iv, ToleranceSchedule(1e-4, 18), monkeypatch)
    assert want.converged and want.extrema_method == "exact" and len(set(last)) == 4


def test_skip_equals_sweep_when_atoms_stop_at_max_depth(monkeypatch):
    # Atoms 0 and 2 cannot close by depth 10; atom 1 closes before it.
    f = LatticeFunction.coordinatewise("t^3 - t", dim=3)
    iv = interval((-1.0, 0.0, 0.5), (2.0, 1e-4, 3.0))
    want, last = _assert_skip_equals_sweep(f, iv, ToleranceSchedule(1e-8, 10), monkeypatch)
    assert not want.converged and want.depth == 10
    assert last.tolist()[0::2] == [10, 10] and last[1] < 10


def test_an_exact_atom_is_summed_at_level_0_and_its_closing_depth(monkeypatch):
    # t^2 on [1, 2]: gap_d = 3·2^-d, and the bound from level 0 lands on
    # the first d with 3·2^-d <= 1e-6·(1 + 7/3).  The atom is probed 5
    # levels below that, from where the bound lands on the same depth.
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    r, calls = _integrate_counting(f, interval((1.0,), (2.0,)), ToleranceSchedule(), monkeypatch)
    assert r.converged and r.depth == 20
    assert calls == [(0, [0]), (15, [0]), (20, [0])]


def _assert_exact_atoms_sum_a_probe_and_their_closing_level(f, iv, sched):
    """After depth 0, each exact atom that closes is summed at its probe and closing levels.

    So its cells total at most (1 + 2^-5)·2^close + 1.  A level between
    them is allowed only where the skip bound, which covers rounding,
    landed on a level whose gap missed the close test by no more than that
    slack (see ``_next_due``).  Returns the number of atoms that close and
    of such levels.
    """
    closed = missed = 0
    bands, _ = _make_bands(f, iv.lo.data, iv.hi.data)
    for band in (band for band in bands if not band.sampled):
        levels = {}
        try:
            for depth, rows, (mid, lower, upper, shut), _, _ in _refine(band, np.arange(len(band.atoms)), sched):
                for r, *level in zip(rows.tolist(), mid, lower, upper, shut):
                    levels.setdefault(r, []).append((depth, *level))
        except KernelEvalError:  # the rows below the failing atom were refined in full
            pass
        for row in (row for row in levels.values() if row[-1][4]):
            depths = [d for d, *_ in row]
            scale = max(abs(row[0][2]), abs(row[0][3]))
            for (_, _, lo, up, _), (d, mid, lower, upper, _) in zip(row[1:-2], row[2:-1]):
                slack = _SKIP_SLACK * (1.0 + sched.tol) * (up - lo + scale)
                assert upper - lower <= sched.tol * (1.0 + abs(mid)) + slack, depths
                depths.remove(d)
                missed += 1
            assert depths[0] == 0 and len(depths) <= 3, depths
            assert sum(2**d for d in depths) <= (1 + 2**-5) * 2 ** depths[-1] + 1, depths
            closed += 1
    return closed, missed


def test_exact_atoms_sum_a_probe_and_their_closing_level():
    # The draws of test_skip_equals_sweep_on_the_acceptance_draws.  One
    # atom, 3*t^2 - 2*t on [-0.611, 0.068], sums levels 0, 15, 20 and 21:
    # its gap at 20 misses the close test by 0.06%, inside the slack.
    kernels = ["t", "t^2", "t^3", "sin(t)", "exp(t)", "3*t^2 - 2*t"]
    rng = np.random.default_rng(777)
    counts = np.zeros(2, dtype=int)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        sources = [kernels[int(rng.integers(0, len(kernels)))] for _ in range(dim)]
        lo = rng.uniform(-2.0, 1.0, dim)
        hi = lo + rng.uniform(0.1, 2.0, dim)
        f = LatticeFunction.coordinatewise(sources, dim=dim)
        iv = interval(tuple(lo), tuple(hi))
        counts += _assert_exact_atoms_sum_a_probe_and_their_closing_level(f, iv, ToleranceSchedule(1e-6, 24))
    assert counts.tolist() == [42, 1]
    # The kernels and boxes of test_skip_equals_sweep_on_random_smooth_kernels.
    for sched, want in [(ToleranceSchedule(1e-4, 14), [70, 0]), (ToleranceSchedule(1e-6, 16), [14, 0])]:
        rng = random.Random(2604)
        box_rng = np.random.default_rng(2604)
        kernels, counts = 0, np.zeros(2, dtype=int)
        while kernels < 50:
            e = random_expr(rng, depth=5, smooth_only=True)
            if isinstance(ex.differentiate(e), ex.Const):
                continue
            kernels += 1
            a = float(box_rng.uniform(-2.0, 1.0))
            b = a + float(box_rng.uniform(0.1, 2.0))
            iv = interval((a, a, a + 0.25 * (b - a)), (b, 0.5 * (a + b), b))
            f = LatticeFunction.coordinatewise(ScalarKernel.from_expr(e), dim=3)
            counts += _assert_exact_atoms_sum_a_probe_and_their_closing_level(f, iv, sched)
        assert counts.tolist() == want  # of 150 atoms; the rest fail, are sampled or stop at max_depth


def test_max_depth_must_be_an_integer():
    # A max_depth of 2.5 made integrate loop forever, and True read as 1.
    for bad in (2.5, 3.0, True, np.True_, "12"):
        with pytest.raises(TypeError, match="max_depth must be an integer"):
            ToleranceSchedule(1e-3, bad)
    sched = ToleranceSchedule(1e-3, np.int64(12))
    assert type(sched.max_depth) is int and sched == ToleranceSchedule(1e-3, 12)
    r = integrate(LatticeFunction.coordinatewise(["t^2"]), interval((0,), (1,)), sched)
    assert json.loads(json.dumps(r.to_dict()))["max_depth"] == 12


def test_max_depth_stops_where_cell_indices_stay_exact():
    # A level of 2^53 cells still has every cell index exact in float64.
    assert ToleranceSchedule(1e-3, 53).max_depth == 53
    for bad in (0, 54, 60):
        with pytest.raises(ValueError, match="max_depth must be from 1 to 53"):
            ToleranceSchedule(1e-3, bad)


def test_a_level_too_large_for_memory_names_the_lowest_atom_due(monkeypatch):
    # No level this large is allocated: past 2^12 cells an atom, a level
    # refuses its running sums as numpy would (sin(1/t) on [0.001, 1] at
    # ToleranceSchedule(1e-12, 60) once asked for 64 GiB).  Atom 0 closes at
    # depth 0; atoms 1 and 2 share a band and fail; the lowest is named,
    # with the depth of its level, instead of a bare MemoryError.
    class Refusing(K.UniformRows):
        def __init__(self, lo, hi, n):
            if n > 1 << 12:
                raise MemoryError(f"Unable to allocate {2 * len(lo) * n // 32} bytes")
            super().__init__(lo, hi, n)

    monkeypatch.setattr(K, "UniformRows", Refusing)
    f = LatticeFunction.coordinatewise(["1", "sin(1/t)", "sin(1/t)"])
    with pytest.raises(KernelEvalError) as info:
        integrate(f, interval((0.0, 0.001, 0.002), (1.0, 1.0, 1.0)), ToleranceSchedule(1e-12, 53))
    assert info.value.atom == 1
    assert isinstance(info.value.cause, MemoryError)
    depth, cells = map(int, re.search(r"at depth (\d+) \((\d+) cells an atom\) does not fit", str(info.value)).groups())
    assert cells == 2**depth > 1 << 12


def test_integrate_result_serialization():
    f = LatticeFunction.coordinatewise("t", dim=1)
    d = integrate(f, interval((0,), (1,))).to_dict()
    assert set(d) >= {"value", "lower", "upper", "gap", "depth", "converged", "tol"}
    assert isinstance(d["value"], list)


def test_integrate_matches_simpson_oracle_spot():
    cases = [
        ("sin(t)", 0.0, 2.0),
        ("exp(t)", -1.0, 1.0),
        ("3*t^2 - 2*t", -0.5, 1.5),
    ]
    for src, a, b in cases:
        f = LatticeFunction.coordinatewise(src, dim=1)
        got = integrate(f, interval((a,), (b,))).value[0]
        expr = parse(src)
        want = adaptive_simpson(lambda t: reference_eval(expr, t), a, b)
        assert got == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


# -- Darboux monotonicity, sandwich, algebra -----------------------------------

EXACT_KERNELS = ["t", "t^2", "t^3 - t", "2*t + 1"]


def test_darboux_net_monotone_under_refinement():
    rng = np.random.default_rng(123)
    f = LatticeFunction.coordinatewise(["t^2", "t^3 - t"], dim=2)
    iv = interval((-1, -1), (1.5, 2))
    slack = 1e-12
    for _ in range(120):
        p = random_partition(rng, iv)
        q = common_refinement(p, random_partition(rng, iv))
        assert refines(p, q)
        sp, sq = darboux_sums(f, p), darboux_sums(f, q)
        assert np.all(sp.lower.data <= sq.lower.data + slack)
        assert np.all(sq.upper.data <= sp.upper.data + slack)


def test_sandwich_lower_riemann_upper():
    rng = np.random.default_rng(321)
    f = LatticeFunction.coordinatewise(["t^2", "t"], dim=2)
    iv = interval((-1, 0), (1, 2))
    slack = 1e-12
    for k in range(100):
        p = random_partition(rng, iv)
        tagged = tag(p, "random", seed=k)
        sums = darboux_sums(f, p)
        r = riemann_sum(f, tagged)
        assert np.all(sums.lower.data <= r.data + slack)
        assert np.all(r.data <= sums.upper.data + slack)


def test_darboux_riemann_agreement_along_refinement():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    result = integrate(f, UNIT2, ToleranceSchedule(1e-5, 20))
    assert result.converged
    for k in (2, 5, 8):
        p = uniform(UNIT2, 1 << k)
        sums = darboux_sums(f, p)
        r = riemann_sum(f, tag(p, "midpoint"))
        gap_k = sums.upper - sums.lower
        assert np.all(np.abs(r.data - result.value.data) <= gap_k.data + 1e-5)


def test_linearity_of_the_integral():
    iv = interval((0, 0), (1, 2))
    sched = ToleranceSchedule(1e-6, 24)
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    g = LatticeFunction.coordinatewise("sin(t)", dim=2)
    fg = LatticeFunction.coordinatewise("t^2 + sin(t)", dim=2)
    vf = integrate(f, iv, sched).value
    vg = integrate(g, iv, sched).value
    vfg = integrate(fg, iv, sched).value
    tol = 3 * 1e-6 * (1 + np.abs(vfg.data))
    assert np.all(np.abs(vfg.data - (vf + vg).data) <= tol)


def test_scaling_by_an_element():
    iv = interval((0, 0), (1, 1))
    sched = ToleranceSchedule(1e-6, 24)
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    scaled = LatticeFunction.coordinatewise(["2*t^2", "-3*t^2"], dim=2)
    c = E(2.0, -3.0)
    vs = integrate(scaled, iv, sched).value
    vf = integrate(f, iv, sched).value
    tol = 4 * 1e-6 * (1 + np.abs(vs.data))
    assert np.all(np.abs(vs.data - (c * vf).data) <= tol)


def test_monotonicity_and_triangle_inequality():
    iv = interval((-1, -1), (1, 1))
    sched = ToleranceSchedule(1e-6, 24)
    f = LatticeFunction.coordinatewise("t^3 - t", dim=2)
    g = LatticeFunction.coordinatewise("t^3 - t + 1", dim=2)
    vf = integrate(f, iv, sched).value
    vg = integrate(g, iv, sched).value
    assert np.all(vf.data <= vg.data + 2e-6)
    absf = LatticeFunction.coordinatewise("abs(t^3 - t)", dim=2)
    va = integrate(absf, iv, sched).value
    assert np.all(np.abs(vf.data) <= va.data + 2e-6 * (1 + np.abs(va.data)))


def test_product_of_integrable_kernels_integrates():
    iv = interval((0, 0), (1, 1))
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    g = LatticeFunction.coordinatewise("sin(t)", dim=2)
    prod = f.product(g)
    result = integrate(prod, iv)
    assert result.converged
    want = adaptive_simpson(lambda t: t * t * math.sin(t), 0.0, 1.0)
    assert result.value[0] == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_monotone_kernel_exact_gap_law():
    f = LatticeFunction.coordinatewise(ScalarKernel.identity(), dim=3)
    iv = interval((0, -1, 2), (1, 3, 2.5))
    width = iv.hi - iv.lo
    fb = f.eval(iv.hi) - f.eval(iv.lo)
    for n in (1, 2, 4, 8, 16):
        sums = darboux_sums(f, uniform(iv, n))
        gap = sums.upper - sums.lower
        law = (1.0 / n) * (width * fb)
        assert np.all(np.abs(gap.data - law.data) <= 1e-12)


def test_projection_compatibility_of_integrals():
    # Intervals agreeing on a band have integrals agreeing on that band.
    sched = ToleranceSchedule(1e-7, 24)
    f = LatticeFunction.coordinatewise("t^2", dim=3)
    band = Band({0, 2}, 3)
    a, b = E(0, 0, 1), E(1, 2, 3)
    c, d = E(0, -5, 1), E(1, 7, 3)  # same on atoms 0 and 2
    ia = integrate(f, OrderInterval(a, b), sched).value
    ic = integrate(f, OrderInterval(c, d), sched).value
    pa, pc = band.project(ia), band.project(ic)
    assert np.all(np.abs(pa.data - pc.data) <= 1e-6 * (1 + np.abs(pa.data)))


def test_uniform_limit_stability():
    iv = interval((0, 0), (1, 1))
    sched = ToleranceSchedule(1e-7, 24)
    base = integrate(LatticeFunction.coordinatewise("t^2", dim=2), iv, sched).value
    for n in (10, 100, 1000):
        eps = 1.0 / n
        fn = LatticeFunction.coordinatewise(f"t^2 + 1/{n}", dim=2)
        vn = integrate(fn, iv, sched).value
        bound = eps * (iv.hi - iv.lo).data + 2e-6
        assert np.all(np.abs(vn.data - base.data) <= bound)


# -- signed integrals -----------------------------------------------------------

def test_signed_identity_kernel_incomparable_endpoints():
    f = LatticeFunction.coordinatewise("t", dim=2)
    result = signed_integrate(f, E(1, 0), E(0, 1))
    assert np.allclose(result.value.data, [-0.5, 0.5], atol=2e-6)
    assert result.converged


def test_signed_equal_endpoints_exact_zero():
    f = LatticeFunction.coordinatewise("exp(t)", dim=2)
    x = E(0.25, -1.5)
    result = signed_integrate(f, x, x)
    assert result.value == E(0, 0)
    assert result.gap == E(0, 0)


def test_signed_matches_plain_integral_when_ordered():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    a, b = E(0, 0), E(1, 2)
    signed = signed_integrate(f, a, b)
    plain = integrate(f, OrderInterval(a, b))
    assert signed.value == plain.value


def test_signed_antisymmetry_exact_on_random_pairs():
    rng = np.random.default_rng(777)
    f = LatticeFunction.coordinatewise(["t", "t^2", "t^3 - t"], dim=3)
    sched = ToleranceSchedule(1e-4, 16)
    for _ in range(50):
        a = Element(rng.uniform(-1, 1, 3))
        b = Element(rng.uniform(-1, 1, 3))
        ab = signed_integrate(f, a, b, sched)
        ba = signed_integrate(f, b, a, sched)
        assert ab.value == -1.0 * ba.value  # exact band swap
        # |signed| identity per atom, exact
        box = integrate(f, OrderInterval(a.inf(b), a.sup(b)), sched)
        assert abs(ab.value) == abs(box.value)


def test_signed_abs_identity_per_atom():
    rng = np.random.default_rng(778)
    f = LatticeFunction.coordinatewise(["t^2", "t"], dim=2)
    sched = ToleranceSchedule(1e-5, 18)
    for _ in range(50):
        a = Element(rng.uniform(-1, 1, 2))
        b = Element(rng.uniform(-1, 1, 2))
        signed = signed_integrate(f, a, b, sched)
        box = integrate(f, OrderInterval(a.inf(b), a.sup(b)), sched)
        eq_atoms = a.data == b.data
        want = np.where(eq_atoms, 0.0, np.abs(box.value.data))
        assert np.array_equal(np.abs(signed.value.data), want)


# -- split ------------------------------------------------------------------------

def test_split_diagonal_midpoint():
    f = LatticeFunction.coordinatewise("t", dim=2)
    left, right = split_integrate(f, UNIT2, E(0.5, 0.5))
    assert np.allclose(left.value.data, 0.125, atol=2e-6)
    assert np.allclose(right.value.data, 0.375, atol=2e-6)


def test_split_at_lo_is_zero_plus_whole():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    left, right = split_integrate(f, UNIT2, UNIT2.lo)
    assert left.value == E(0, 0)
    whole = integrate(f, UNIT2)
    assert np.allclose(right.value.data, whole.value.data, atol=4e-6)


def test_split_non_diagonal_point_additive():
    f = LatticeFunction.coordinatewise("t", dim=2)
    c = E(0.5, 0.2)
    left, right = split_integrate(f, UNIT2, c, ToleranceSchedule(1e-6, 24))
    whole = integrate(f, UNIT2, ToleranceSchedule(1e-6, 24))
    total = left.value + right.value
    assert np.all(np.abs(total.data - whole.value.data) <= 2e-6 * (1 + np.abs(whole.value.data)))
    # per-atom scalar splits
    assert left.value[0] == pytest.approx(0.5**2 / 2, abs=2e-6)
    assert left.value[1] == pytest.approx(0.2**2 / 2, abs=2e-6)


def test_split_rejects_outside_point():
    f = LatticeFunction.coordinatewise("t", dim=2)
    with pytest.raises(ValueError):
        split_integrate(f, UNIT2, E(2, 0.5))


# -- alike atoms: one kernel object over the same interval bits ------------------

def test_broadcast_atoms_on_one_interval_are_refined_once(monkeypatch):
    f = LatticeFunction.coordinatewise("t^3 - t", dim=3)
    sched = ToleranceSchedule(1e-6, 20)
    got, calls = _integrate_counting(f, interval((0, 0, 0), (1, 1, 1)), sched, monkeypatch)
    assert calls and all(atoms == [0] for _, atoms in calls)  # one row per level
    alone = integrate(LatticeFunction.coordinatewise("t^3 - t"), interval((0,), (1,)), sched)
    for name in ("value", "lower", "upper", "gap"):
        assert getattr(got, name).data.tobytes() == getattr(alone, name).data.tobytes() * 3, name
    assert (got.depth, got.converged) == (alone.depth, alone.converged)


def test_signed_zero_endpoints_are_not_merged(monkeypatch):
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    iv = interval((-0.0, 0.0), (1, 1))
    got, calls = _integrate_counting(f, iv, ToleranceSchedule(), monkeypatch)
    assert calls[0] == (0, [0, 1])
    assert got.value[0] == got.value[1]


def test_alike_failing_atoms_name_the_lowest():
    # Atoms 1 and 3 are alike and fail at t = 0.5; atom 2 has the same
    # kernel over another interval and is fine.
    pole = ScalarKernel.from_callable(lambda t: 1 / (t - 0.5), label="pole")
    f = LatticeFunction.coordinatewise(["t", pole, pole, pole])
    iv = interval((0, 0, 0.6, 0), (1, 1, 1, 1))
    for call in (integrate, antiderivative):
        with pytest.raises(KernelEvalError, match="t=0.5") as info:
            call(f, iv, ToleranceSchedule(1e-4, 12))
        assert info.value.atom == 1, call.__name__


def _array_next_due(depth, lower, upper, scale, tol):
    """``_next_due`` over arrays of rows, as it reads for a band of several."""
    gap = upper - lower
    slack = _SKIP_SLACK * (1.0 + tol) * (gap + scale)
    reach = tol * (1.0 + np.maximum(np.abs(lower), np.abs(upper))) + slack
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.ceil(np.log2(gap / reach))
    k = np.minimum(np.fmax(k, 1.0), 2048.0).astype(np.int64)
    k -= (k > 1) & (np.ldexp(gap, 1 - k) <= reach)
    return depth + k


def _reach(lower, upper, scale, tol):
    """The skip bound's tol·(1 + M) plus its slack, in floats."""
    return tol * (1.0 + max(abs(lower), abs(upper))) + _SKIP_SLACK * (1.0 + tol) * (upper - lower + scale)


def test_one_row_due_depths_and_shut_flags_are_the_arrays():
    # The float form a one-row band takes gives the array form's due depth
    # and shut flag, row by row: random brackets of every scale, gap 0, NaN
    # and infinite gaps, and gaps a few ulps either side of a power of two
    # times the reach.
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(400):
        tol = 10.0 ** rng.uniform(-12, -1)
        lower = rng.normal() * 10.0 ** rng.integers(-30, 30)
        upper = lower + abs(rng.normal()) * 10.0 ** rng.integers(-40, 10)
        cases.append((lower, upper, max(abs(lower), abs(upper)) * rng.uniform(1, 4), tol))
    for lower, scale, tol in [(1.0, 2.0, 1e-6), (0.0, 0.0, 1e-4), (-3.5, 8.0, 1e-9)]:
        cases += [(lower, upper, scale, tol) for upper in (lower, np.nan, np.inf)] + [(np.inf, np.inf, scale, tol)]
        for j in range(1, 40, 3):
            upper = lower
            for _ in range(6):  # upper - lower = 2^j * reach, to within a few ulps
                upper = lower + 2.0**j * _reach(lower, upper, scale, tol)
            for _ in range(8):  # some ulps below and above
                upper = np.nextafter(upper, -np.inf)
            for _ in range(17):
                cases.append((lower, upper, scale, tol))
                upper = np.nextafter(upper, np.inf)
    powers = 0
    for depth in (0, 7):
        for lower, upper, scale, tol in cases:
            one = [np.array([x]) for x in (lower, upper, scale)]
            with np.errstate(invalid="ignore"):  # inf - inf
                want = _array_next_due(depth, *one, tol)
                assert _next_due(depth, *one, tol).tolist() == want.tolist(), (lower, upper, scale, tol)
                ratio = (upper - lower) / _reach(lower, upper, scale, tol)
            powers += bool(np.isfinite(ratio) and ratio > 0 and np.frexp(ratio)[0] == 0.5)
    assert powers > 0  # some ratio was a power of two exactly
    # the shut flag: the midpoint is 0.5 * (L + U) wherever that sum is finite
    lower, upper = np.array([c[0] for c in cases[:400]]), np.array([c[1] for c in cases[:400]])
    assert _midpoints(lower, upper).tobytes() == (0.5 * (lower + upper)).tobytes()
    for lo, up in zip(lower.tolist(), upper.tolist()):
        assert _midpoints(np.array([lo]), np.array([up])).tobytes() == np.array([0.5 * (lo + up)]).tobytes()


def test_a_bracket_near_the_float_max_has_a_finite_midpoint():
    # 1e308 on [0, 1.5]: L + U overflows but each is finite, so the value is
    # taken in halves; on [0, 2] the integral itself leaves the float range.
    got = integrate(LatticeFunction.coordinatewise(["1e308", "t"]), interval((0, 0), (1.5, 1)))
    assert got.value.data.tolist() == [1.5e308, 0.5] and got.converged
    assert _midpoints(np.array([1.5e308, 1.0]), np.array([1.5e308, 2.0])).tolist() == [1.5e308, 1.5]
    with pytest.raises(KernelEvalError) as info:
        integrate(LatticeFunction.coordinatewise(["t", "1e308"]), interval((0, 0), (1, 2)))
    assert info.value.atom == 1
