import itertools

import numpy as np
import pytest

from helpers import adaptive_simpson
from ordercalc.functions import (
    ExtremaPair,
    KernelEvalError,
    LatticeFunction,
    ScalarKernel,
    continuity_modulus,
    extrema,
    lbp_check,
)
from ordercalc.lattice import Band, Element, OrderInterval


def E(*coords):
    return Element(coords)


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


UNIT2 = interval((0, 0), (1, 1))


# -- evaluation ---------------------------------------------------------------

def test_eval_examples():
    square = LatticeFunction.coordinatewise("t^2", dim=2)
    assert square.eval(E(2, 3)) == E(4, 9)
    swap = LatticeFunction.swap()
    assert swap.eval(E(1, 0)) == E(0, 1)
    const = LatticeFunction.coordinatewise(ScalarKernel.constant(5.0), dim=2)
    assert const.eval(E(-3, 17)) == E(5, 5)


def test_eval_reports_atom_index():
    f = LatticeFunction.coordinatewise(["t", "1/t"], dim=2)
    with pytest.raises(KernelEvalError) as info:
        f.eval(E(1, 0))
    assert info.value.atom == 1


def test_kernel_broadcast_and_validation():
    f = LatticeFunction.coordinatewise("t", dim=3)
    assert len(f.kernels) == 3
    with pytest.raises(ValueError):
        LatticeFunction.coordinatewise(["t", "t"], dim=3)
    with pytest.raises(ValueError):
        f.eval(E(1, 2))


def test_descriptor_round_trip():
    f = LatticeFunction.from_descriptor(
        {"kind": "coordinatewise", "kernels": ["t^2", "sin(t)"]}
    )
    assert f.is_coordinatewise and f.dim == 2
    swap = LatticeFunction.from_descriptor({"kind": "swap-demo"})
    assert not swap.is_coordinatewise
    with pytest.raises(ValueError):
        LatticeFunction.from_descriptor({"kind": "mystery"})


# -- locally band preserving checks -------------------------------------------

def test_lbp_check_passes_structurally_for_coordinatewise():
    f = LatticeFunction.coordinatewise("t^3", dim=3)
    result = lbp_check(f, interval((0, 0, 0), (1, 1, 1)), trials=5, seed=0)
    assert result.passed and result.trials == 0


def test_lbp_check_finds_swap_counterexample():
    result = lbp_check(LatticeFunction.swap(), UNIT2, trials=500, seed=3)
    assert not result.passed
    x, y, band = result.x, result.y, result.band
    assert band.project(x) == band.project(y)
    swap = LatticeFunction.swap()
    assert band.project(swap.eval(x)) != band.project(swap.eval(y))


def test_lbp_check_passes_for_wrapped_coordinatewise_map():
    wrapped = LatticeFunction.general(
        lambda x: Element([v**3 for v in x]), dim=2, label="cubed"
    )
    result = lbp_check(wrapped, UNIT2, trials=1000, seed=42)
    assert result.passed and result.trials == 1000


def test_swap_counterexample_documented_instance():
    # x=(1,0), y'=(1,1), B={0}: projections of f differ on B.
    swap = LatticeFunction.swap()
    band = Band({0}, 2)
    assert band.project(swap.eval(E(1, 0))) == E(0, 0)
    assert band.project(swap.eval(E(1, 1))) == E(1, 0)


def test_lbp_invariance_band_mixing_500_triples():
    # For coordinatewise f: P(x) = P(y) forces P(f(x)) = P(f(y)) exactly.
    f = LatticeFunction.coordinatewise(["t^2", "sin(t)", "exp(t)"], dim=3)
    rng = np.random.default_rng(99)
    box = interval((0, 0, 0), (1, 2, 1))
    for _ in range(500):
        x = box.sample(rng)
        y = box.sample(rng)
        band = Band(np.flatnonzero(rng.integers(0, 2, 3)), 3)
        mixed = band.project(x) + band.complement().project(y)
        assert band.project(f.eval(x)) == band.project(f.eval(mixed))


def test_lbp_check_exhausts_small_band_lattice():
    # dim 2: all four bands, all violations detectable by the sampler.
    swap = LatticeFunction.swap()
    violations = 0
    for atoms in ({0}, {1}):
        band = Band(atoms, 2)
        x, y = E(0.25, 0.75), E(0.5, 0.1)
        mixed = band.project(x) + band.complement().project(y)
        if band.project(swap.eval(x)) != band.project(swap.eval(mixed)):
            violations += 1
    assert violations == 2


# -- extrema -------------------------------------------------------------------

def test_extrema_monotone_endpoints():
    f = LatticeFunction.coordinatewise(ScalarKernel.identity(), dim=2)
    pair = extrema(f, UNIT2)
    assert pair.m == E(0, 0) and pair.M == E(1, 1)
    assert pair.method == "exact" and pair.tolerance == 0.0


def test_extrema_parabola_interior_vertex():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    pair = extrema(f, interval((-1,), (2,)))
    assert pair.method == "exact"
    # the critical point is located to 1e-12, so the vertex value carries
    # quadratically small dust
    assert pair.m[0] == pytest.approx(0.0, abs=1e-20)
    assert pair.M == E(4)


def test_extrema_degenerate_atom():
    f = LatticeFunction.coordinatewise("t^2 - t", dim=2)
    pair = extrema(f, interval((0.5, 2), (1.0, 2)))
    assert pair.m[1] == pair.M[1] == 2.0**2 - 2.0


def test_extrema_rejects_general_maps():
    with pytest.raises(ValueError):
        extrema(LatticeFunction.swap(), UNIT2)


def test_extrema_exact_for_transcendental():
    f = LatticeFunction.coordinatewise("sin(t)", dim=1)
    pair = extrema(f, interval((0,), (4,)), tol=1e-9)
    assert pair.method == "exact" and pair.tolerance == 0.0
    assert pair.m[0] == pytest.approx(np.sin(4.0), abs=1e-12)
    assert pair.M[0] == pytest.approx(1.0, abs=1e-12)
    assert pair.M[0] <= 1.0  # the peak is bracketed, never overshot


def test_extrema_nested_interval_projection_lemma():
    # Nested per-atom ranges force projected extrema to nest the same way.
    rng = np.random.default_rng(7)
    f = LatticeFunction.coordinatewise(["t^2", "t^3 - t"], dim=2)
    for _ in range(50):
        lo_out = rng.uniform(-2, 0, 2)
        hi_out = rng.uniform(0.5, 2, 2)
        u = rng.uniform(0.1, 0.4, 2)
        v = rng.uniform(0.6, 0.9, 2)
        lo_in = lo_out + u * (hi_out - lo_out)
        hi_in = lo_out + v * (hi_out - lo_out)
        inner = extrema(f, interval(tuple(lo_in), tuple(hi_in)))
        outer = extrema(f, interval(tuple(lo_out), tuple(hi_out)))
        dust = 1e-20  # squared bisection tolerance of the root isolation
        assert np.all(outer.m.data <= inner.m.data + dust)
        assert np.all(inner.M.data <= outer.M.data + dust)


def test_extrema_brackets_sampled_values():
    rng = np.random.default_rng(8)
    f = LatticeFunction.coordinatewise(["exp(t)", "t^2 - t", "sin(t)"], dim=3)
    box = interval((-1, -1, -1), (1, 2, 3))
    pair = extrema(f, box, tol=1e-9)
    slack = pair.tolerance + 1e-12
    for _ in range(100):
        x = box.sample(rng)
        y = f.eval(x)
        assert np.all(pair.m.data - slack <= y.data)
        assert np.all(y.data <= pair.M.data + slack)


def test_extrema_pair_validation():
    with pytest.raises(ValueError):
        ExtremaPair(m=E(1), M=E(0), method="exact", tolerance=0.0)


# -- continuity modulus ---------------------------------------------------------

def test_continuity_modulus_identity():
    f = LatticeFunction.coordinatewise("t", dim=2)
    [mod] = continuity_modulus(f, UNIT2, [E(0.1, 0.1)])
    assert np.allclose(mod.data, 0.1, atol=2e-3)


def test_continuity_modulus_square():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    [mod] = continuity_modulus(f, interval((0,), (1,)), [E(0.1)])
    assert mod[0] == pytest.approx(0.19, abs=5e-3)


def test_continuity_modulus_constant_and_validation():
    f = LatticeFunction.coordinatewise(ScalarKernel.constant(3.0), dim=2)
    [mod] = continuity_modulus(f, UNIT2, [E(0.5, 0.5)])
    assert mod == E(0, 0)
    with pytest.raises(ValueError):
        continuity_modulus(f, UNIT2, [E(0.0, 0.1)])
    with pytest.raises(ValueError):
        continuity_modulus(f, UNIT2, [E(0.1, 0.1), E(0.2, 0.2)])
    with pytest.raises(ValueError):
        continuity_modulus(LatticeFunction.swap(), UNIT2, [E(0.1, 0.1)])


def test_continuity_modulus_descending_deltas():
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    mods = continuity_modulus(
        f, interval((0,), (1,)), [E(0.4), E(0.2), E(0.1)]
    )
    vals = [m[0] for m in mods]
    assert vals[0] >= vals[1] >= vals[2]


# -- scalar kernel odds and ends ---------------------------------------------

def test_kernel_constructors():
    assert ScalarKernel.identity().strategy == "monotone"
    assert ScalarKernel.power(4).strategy == "critical"
    assert ScalarKernel.constant(2.0).strategy == "critical"
    assert ScalarKernel.from_string("sin(t)").strategy == "critical"
    assert ScalarKernel.from_string("abs(t)").strategy == "sampled"
    assert ScalarKernel.from_string("exp(t)", monotone="increasing").strategy == "monotone"
    k = ScalarKernel.from_callable(lambda t: t * 2.0, monotone="increasing")
    assert k.strategy == "monotone" and k.eval(3.0) == 6.0
    with pytest.raises(ValueError):
        ScalarKernel.from_string("t", monotone="upward")


def test_kernel_critical_points_cubic():
    k = ScalarKernel.from_string("t^3 - t")
    crit = k.critical_points(-2.0, 2.0)
    assert len(crit) == 2
    assert crit[0] == pytest.approx(-(1 / 3) ** 0.5, abs=1e-10)
    assert crit[1] == pytest.approx(+(1 / 3) ** 0.5, abs=1e-10)


def test_kernel_critical_points_none_for_line():
    assert len(ScalarKernel.from_string("2*t + 1").critical_points(0.0, 1.0)) == 0


# Two critical points 2e-4 apart: a fixed sign grid over [-1, 1] misses both.
CLOSE_PAIR = "(t-0.3)^3 - 3e-8*(t-0.3)"


def test_kernel_critical_points_close_pair():
    crit = ScalarKernel.from_string(CLOSE_PAIR).critical_points(-1.0, 1.0)
    assert len(crit) == 2
    assert abs(crit[0] - (0.3 - 1e-4)) <= 1e-9
    assert abs(crit[1] - (0.3 + 1e-4)) <= 1e-9


def test_darboux_upper_sum_holds_close_pair_maximum():
    from fractions import Fraction

    from ordercalc.integrate import darboux_sums
    from ordercalc.partitions import Partition

    # The middle cell holds 0.3; its supremum is the local maximum at
    # 0.3 - 1e-4, above both of its endpoint values.
    points = (-1.0, 0.2998, 0.30005, 1.0)
    p = Partition(tuple(E(x) for x in points), interval((-1.0,), (1.0,)))
    f = LatticeFunction.coordinatewise(CLOSE_PAIR, dim=1)
    sums = darboux_sums(f, p)

    def k(t):  # exact rational value of the kernel at t
        u = Fraction(t) - Fraction(3, 10)
        return u**3 - Fraction(3, 10**8) * u

    peak = Fraction(3, 10) - Fraction(1, 10**4)
    # f increases up to the maximum, decreases to the minimum at 0.3 + 1e-4,
    # then increases to 1.
    sups = [k(points[1]), k(peak), max(k(points[2]), k(points[3]))]
    true_upper = sum(s * (Fraction(b) - Fraction(a)) for s, a, b in zip(sups, points, points[1:]))
    assert k(peak) > max(k(points[1]), k(points[2]))
    slack = 4 * np.finfo(float).eps * float(sum(abs(s) * (Fraction(b) - Fraction(a))
                                                for s, a, b in zip(sups, points, points[1:])))
    assert sums.upper[0] >= float(true_upper) - slack


def test_compose_and_product():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    g = LatticeFunction.coordinatewise("t + 1", dim=2)
    fg = f.compose(g)
    assert fg.eval(E(1, 2)) == E(4, 9)
    prod = f.product(g)
    assert prod.eval(E(1, 2)) == E(2, 12)
    d = f.derivative()
    assert d is not None and d.eval(E(3, 4)) == E(6, 8)
