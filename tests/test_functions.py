import itertools
import math

import numpy as np
import pytest

from helpers import adaptive_simpson
from ordercalc.expr import EvalDomainError
from ordercalc.functions import (
    ExtremaPair,
    KernelEvalError,
    LatticeFunction,
    ScalarKernel,
    continuity_modulus,
    extrema,
    lbp_check,
)
from ordercalc.calculus import antiderivative, numeric_derivative
from ordercalc.integrate import ToleranceSchedule, darboux_sums, integrate, riemann_sum, signed_integrate
from ordercalc.lattice import Band, Element, OrderInterval
from ordercalc.partitions import Partition, tag, uniform


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


_RECIPROCAL = ["t^2", "1/t"]

# Kernels [A, B, A] where atoms 1 and 2 fail: the lowest atom at fault is
# in the second kernel group, and the first group fails above it.
_LATER_GROUP = ["1/(t - 0.5)", "1/t", "1/(t - 0.5)"]
_LATER_BOX = interval((0.6, 0.0, 0.0), (1.0, 1.0, 1.0))
_LATER_LOG = ["log(t - 0.4999)", "sqrt(t - 0.4999)", "log(t - 0.4999)"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: continuity_modulus(LatticeFunction.coordinatewise(_RECIPROCAL), UNIT2, [E(0.1, 0.1)]),
        lambda: riemann_sum(LatticeFunction.coordinatewise(_RECIPROCAL), tag(uniform(UNIT2, 4), "left")),
        lambda: extrema(LatticeFunction.coordinatewise(["t", "abs(1/t)"]), UNIT2),
        lambda: LatticeFunction.coordinatewise(["t", "t*1e308*10"]).eval(E(0.5, 0.5)),
        lambda: LatticeFunction.coordinatewise(
            [ScalarKernel.identity(), ScalarKernel.from_callable(math.log)]
        ).eval(E(0.5, -1.0)),
        lambda: numeric_derivative(LatticeFunction.coordinatewise(["t", "log(t - 0.4999)"]), E(0.5, 0.5), UNIT2),
        lambda: continuity_modulus(LatticeFunction.coordinatewise(_LATER_GROUP), _LATER_BOX, [E(0.1, 0.1, 0.1)]),
        lambda: riemann_sum(LatticeFunction.coordinatewise(_LATER_GROUP), tag(uniform(_LATER_BOX, 4), "left")),
        lambda: extrema(LatticeFunction.coordinatewise(_LATER_GROUP), _LATER_BOX),
        lambda: numeric_derivative(
            LatticeFunction.coordinatewise(_LATER_LOG), E(0.8, 0.5, 0.5), interval((0, 0, 0), (1, 1, 1))
        ),
    ],
    ids=[
        "continuity_modulus", "riemann_sum", "extrema", "overflow", "callable", "numeric_derivative",
        "continuity_modulus-later-group", "riemann_sum-later-group", "extrema-later-group",
        "numeric_derivative-later-group",
    ],
)
def test_every_kernel_failure_names_its_atom(call):
    with pytest.raises(KernelEvalError) as info:
        call()
    assert info.value.atom == 1


def test_eval_many_is_each_kernel_on_its_atoms_rows():
    k = ScalarKernel.from_callable(lambda t: t * t - 1.0)
    f = LatticeFunction.coordinatewise(["sin(t)", k, "sin(t)", "t^3 - t"])
    ts = np.random.default_rng(3).uniform(-2.0, 2.0, (4, 9))
    got = f.eval_many(ts)
    for i, kernel in enumerate(f.kernels):
        assert got[i].tobytes() == kernel.eval_many(ts[i]).tobytes()
    with pytest.raises(ValueError):
        f.eval_many(ts[:3])
    with pytest.raises(ValueError):
        LatticeFunction.swap().eval_many(ts[:2])


def test_eval_many_names_the_first_point_at_fault_in_the_lowest_atom():
    f = LatticeFunction.coordinatewise(["log(t)", "1/t", "log(t)"])
    ts = np.array([[1.0, 2.0, 3.0], [1.0, 0.0, 2.0], [-1.0, 1.0, 1.0]])
    with pytest.raises(KernelEvalError) as info:
        f.eval_many(ts)
    assert info.value.atom == 1 and "t=0.0" in str(info.value)
    with pytest.raises(KernelEvalError) as info:
        f.eval_many(np.array([[1.0, -2.0, -3.0], [1.0, 1.0, 2.0], [-1.0, 1.0, 1.0]]))
    assert info.value.atom == 0 and "t=-2.0" in str(info.value)


def test_grouped_paths_give_each_atom_its_result_alone():
    # These paths evaluate a kernel's atoms together; each atom must read,
    # bit for bit, as its kernel on its own interval alone.
    k = ScalarKernel.from_callable(lambda t: math.sin(3.0 * t) + t * t)
    f = LatticeFunction.coordinatewise(["t^3 - t", "abs(t - 0.3)", k, "t^3 - t", "sin(t)", k, "sin(t)"])
    rng = np.random.default_rng(21)
    lo = rng.uniform(-2.0, 0.0, f.dim)
    hi = lo + rng.uniform(0.5, 2.0, f.dim)

    def results(f, lo, hi):
        box = OrderInterval(Element(lo), Element(hi))
        pair = extrema(f, box, tol=1e-6)
        return [
            riemann_sum(f, tag(uniform(box, 9), "midpoint")).data,
            continuity_modulus(f, box, [Element(0.1 * (hi - lo))])[0].data,
            numeric_derivative(f, Element(lo + 0.4 * (hi - lo)), box).data,
            pair.m.data,
            pair.M.data,
        ]

    whole = results(f, lo, hi)
    for i, kernel in enumerate(f.kernels):
        alone = results(LatticeFunction.coordinatewise([kernel]), lo[i : i + 1], hi[i : i + 1])
        assert [w[i : i + 1].tobytes() for w in whole] == [a.tobytes() for a in alone]


@pytest.mark.parametrize(
    "call",
    [
        lambda f, box: integrate(f, box),
        lambda f, box: signed_integrate(f, box.lo, box.hi),
        lambda f, box: antiderivative(f, box, ToleranceSchedule(1e-3, 8)),
        lambda f, box: darboux_sums(f, uniform(box, 4)),
        lambda f, box: extrema(f, box),
    ],
    ids=["integrate", "signed_integrate", "antiderivative", "darboux_sums", "extrema"],
)
def test_failure_found_summing_beats_a_higher_isolation_failure(call):
    # Atom 1's isolation finds 1/t unbounded; atom 0, abs(1/t), is sampled
    # and fails only once summed.  The error is atom 0's, as it is alone.
    box = interval((-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(KernelEvalError) as info:
        call(LatticeFunction.coordinatewise(["abs(1/t)", "1/t"]), box)
    with pytest.raises(KernelEvalError) as alone:
        call(LatticeFunction.coordinatewise(["abs(1/t)"]), interval((-1.0,), (1.0,)))
    assert info.value.atom == alone.value.atom == 0
    assert str(info.value) == str(alone.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, box: integrate(f, box, ToleranceSchedule(1e-3, 12)),
        lambda f, box: antiderivative(f, box, ToleranceSchedule(1e-3, 12)),
        lambda f, box: darboux_sums(f, uniform(box, 4)),
        lambda f, box: extrema(f, box),
    ],
    ids=["integrate", "antiderivative", "darboux_sums", "extrema"],
)
def test_a_failure_skips_the_bands_above_it(call):
    # Atom 0, a callable 1/t, fails at t = 0 as soon as it is summed.  Atom
    # 1's band lies wholly above it and could not name a lower atom, so its
    # kernel is never called.
    calls = []

    def recorded(t):
        calls.append(t)
        return math.sin(t)

    kernels = [ScalarKernel.from_callable(lambda t: 1.0 / t), ScalarKernel.from_callable(recorded)]
    with pytest.raises(KernelEvalError) as info:
        call(LatticeFunction.coordinatewise(kernels), interval((-1.0, 0.0), (1.0, 300.0)))
    assert info.value.atom == 0 and "t=0.0" in str(info.value)
    assert calls == []


def test_kernel_eval_raises_only_domain_errors_naming_t():
    for kernel, t in [
        (ScalarKernel.from_string("t*1e308*10"), 0.5),
        (ScalarKernel.from_callable(math.log), -1.0),
        (ScalarKernel.from_callable(lambda t: 1 / float(t)), 0.0),
        (ScalarKernel.from_string("1/t"), 0.0),
    ]:
        for call in (lambda: kernel.eval(t), lambda: kernel.eval_many(np.array([t, t]))):
            with pytest.raises(EvalDomainError, match=f"t={t!r}"):
                call()


def test_kernel_broadcast_and_validation():
    f = LatticeFunction.coordinatewise("t", dim=3)
    assert len(f.kernels) == 3
    with pytest.raises(ValueError):
        LatticeFunction.coordinatewise(["t", "t"], dim=3)
    with pytest.raises(ValueError):
        f.eval(E(1, 2))


def test_equal_kernel_sources_share_one_kernel():
    f = LatticeFunction.coordinatewise("t^2", dim=1000)
    assert len({id(k) for k in f.kernels}) == 1
    g = LatticeFunction.coordinatewise(["sin(t)", "sin(t)", "exp(t)"])
    assert g.kernels[0] is g.kernels[1] and g.kernels[2] is not g.kernels[0]
    own = ScalarKernel.from_string("t")
    h = LatticeFunction.coordinatewise([own, "t"])
    assert h.kernels[0] is own and h.kernels[1] is not own


def test_descriptor_round_trip():
    f = LatticeFunction.from_descriptor(
        {"kind": "coordinatewise", "kernels": ["t^2", "sin(t)"]}
    )
    assert f.is_coordinatewise and f.dim == 2
    swap = LatticeFunction.from_descriptor({"kind": "swap-demo"})
    assert not swap.is_coordinatewise
    with pytest.raises(ValueError):
        LatticeFunction.from_descriptor({"kind": "mystery"})


@pytest.mark.parametrize(
    "desc, message",
    [({"kind": "coordinatewise"}, "field 'kernels' must be a list of expressions, got None"),
     ([1, 2], "must be a JSON object, got list"),
     ({"kind": "coordinatewise", "kernels": "t^2"}, "field 'kernels' must be a list of expressions, got 't^2'")],
    ids=["no-kernels", "not-an-object", "kernels-a-string"],
)
def test_a_malformed_descriptor_is_refused_by_field(desc, message):
    with pytest.raises(ValueError) as info:
        LatticeFunction.from_descriptor(desc)
    assert str(info.value) == f"function descriptor {message}"


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


def test_sampled_extrema_of_a_point_interval_are_its_value():
    f = LatticeFunction.coordinatewise(["abs(t)", ScalarKernel.from_callable(math.exp)])
    pair = extrema(f, interval((-0.5, 1.0), (-0.5, 1.0)))
    assert pair.m == pair.M == E(0.5, math.e)
    assert pair.method == "exact" and pair.tolerance == 0.0  # no atom was sampled


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


@pytest.mark.parametrize(
    "kernel, lo, hi, true_min, true_max",
    [
        ("abs(t - 0.3)", 0.0, 2.0, 0.0, 1.7),
        ("max(t, 0.7 - t)", 0.0, 1.0, 0.35, 1.0),
        (ScalarKernel.from_callable(lambda t: abs(t - 1 / 3)), 0.0, 1.0, 0.0, 1.0 - 1 / 3),
    ],
)
def test_sampled_extrema_tolerance_covers_kinks(kernel, lo, hi, true_min, true_max):
    pair = extrema(LatticeFunction.coordinatewise([kernel]), interval((lo,), (hi,)), tol=1e-9)
    assert pair.method == "sampled"
    assert pair.m[0] - pair.tolerance <= true_min <= pair.m[0]
    assert pair.M[0] <= true_max <= pair.M[0] + pair.tolerance


@pytest.mark.parametrize(
    "kernel, lo, hi",
    [
        ("t^3 - t", -1.5, 0.9),
        ("t^2", -1.0, 2.0),
        ("sin(t)", 0.0, 4.0),
        ("sin(t)", -0.3, 0.2),
        # numpy's exp and libm's differ at this endpoint on some machines
        ("exp(t)", -0.46528978295246626, 1.25),
        ("log(t + 3)", -1.9847164968033724, 0.5),
        (ScalarKernel.from_string("t^3 + t", monotone="increasing"), -1.25, 0.75),
        (ScalarKernel.from_callable(math.atan, monotone="increasing"), -2.0, 3.0),
    ],
)
def test_exact_extrema_are_the_one_cell_darboux_extrema(kernel, lo, hi):
    # extrema and the one-cell Darboux sums take the same endpoint values
    # and fold in the same critical entries, so m·(hi - lo) and M·(hi - lo)
    # are the lower and upper sums, bit for bit.
    rng = np.random.default_rng(14)
    los = np.append(lo, rng.uniform(-2.0, 1.0, 20))
    his = np.append(hi, los[1:] + rng.uniform(0.0, 2.0, 20))
    f = LatticeFunction.coordinatewise([kernel], dim=len(los))
    box = OrderInterval(Element(los), Element(his))
    pair = extrema(f, box)
    sums = darboux_sums(f, uniform(box, 1))
    assert pair.method == "exact" and pair.tolerance == 0.0
    assert np.array_equal(pair.m.data * (his - los), sums.lower.data)
    assert np.array_equal(pair.M.data * (his - los), sums.upper.data)


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


def test_continuity_modulus_on_a_narrow_interval():
    # Cells of 1e-310/1024 make d/h overflow; the window is clamped to the grid first.
    f = LatticeFunction.coordinatewise("t^2", dim=1)
    assert continuity_modulus(f, interval((0.0,), (1e-310,)), [E(1.0)]) == [E(0.0)]


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


def test_continuity_modulus_of_a_zero_width_atom_is_zero():
    f = LatticeFunction.coordinatewise("t^2", dim=2)
    [mod] = continuity_modulus(f, interval((0.0, 0.5), (1.0, 0.5)), [E(0.1, 0.1)])
    assert mod[1] == 0.0 and mod[0] == pytest.approx(0.19, abs=5e-3)


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


def test_compose_and_product_build_one_kernel_per_distinct_pair():
    f = LatticeFunction.coordinatewise("t^2", dim=4)
    g = LatticeFunction.coordinatewise("t + 1", dim=4)
    for h in (f.product(g), f.compose(g)):
        assert len({id(k) for k in h.kernels}) == 1
    mixed = LatticeFunction.coordinatewise(["t^2", "sin(t)", "t^2", "t^2"])
    other = LatticeFunction.coordinatewise(["t + 1", "t + 1", "t + 1", "t - 1"])
    x = E(1, 2, 3, 4)
    product, composition = mixed.product(other), mixed.compose(other)
    for h in (product, composition):
        k = h.kernels
        assert k[0] is k[2] and len({id(a) for a in k}) == 3
    assert product.eval(x) == mixed.eval(x) * other.eval(x)
    assert composition.eval(x) == mixed.eval(other.eval(x))


def test_callable_kernels_fail_alike_through_eval_and_eval_many():
    k = ScalarKernel.from_callable(lambda t: 1 / t, label="reciprocal")
    with pytest.raises(EvalDomainError, match=r"t=0\.0"):
        k.eval_many(np.array([0.0]))
    with pytest.raises(KernelEvalError) as info:
        integrate(LatticeFunction.coordinatewise([k]), interval((0,), (1,)))
    assert info.value.atom == 0


def test_scalar_eval_is_one_point_eval_many_bit_for_bit_where_an_inf_is_absorbed():
    # 45.9375 / (t - t) is inf, and min(-t^2, inf) absorbs it: both
    # evaluators give -0.4 / -0.16000000000000003 = 2.4999999999999996.
    f = LatticeFunction.coordinatewise(["-t / min(-t^2, 5.25 * 8.75 / (t - t))"])
    got = f.eval(Element([0.4])).data
    assert got.tobytes() == f.eval_many(np.array([[0.4]]))[:, 0].tobytes()
    assert got[0] == 2.4999999999999996


# -- intervals wider than the float range ------------------------------------------

def test_an_interval_wider_than_the_float_range_fails_fast():
    # hi - lo overflows for atom 1 (and atom 2): every entry point that sums
    # or isolates over the interval names the lowest such atom and its
    # bounds, before any kernel is evaluated and without a warning.
    f = LatticeFunction.coordinatewise(["t", "t^2", "sin(t)"])
    box = interval((0.0, -1e308, -1.5e308), (1.0, 1e308, 1e308))
    calls = [
        lambda: integrate(f, box),
        lambda: antiderivative(f, box),
        lambda: extrema(f, box),
        lambda: darboux_sums(f, Partition((box.lo, box.hi), box)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"atom 1: the interval \[-1e\+308, 1e\+308\] is wider than the float range"):
            call()
