"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Tolerances are pinned here, not configurable.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import adaptive_simpson, random_expr, reference_eval
from ordercalc import expr as ex
from ordercalc.calculus import (
    mvt_integral_solve,
    verify_by_parts,
    verify_ftc1,
    verify_ftc2,
    verify_substitution,
)
from ordercalc.functions import LatticeFunction, ScalarKernel
from ordercalc.integrate import (
    ToleranceSchedule,
    darboux_sums,
    integrate,
    riemann_sum,
    signed_integrate,
)
from ordercalc.lattice import (
    Band,
    Element,
    OrderInterval,
    totord,
    totord_by_lattice_polynomial,
)
from ordercalc.partitions import Partition, common_refinement, refines, tag, uniform


def E(*coords):
    return Element(coords)


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


@contextmanager
def criterion(name: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL       {name}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print(f"FAIL       {name} (took {elapsed:.2f}s > {budget:.0f}s budget)")
        raise AssertionError(f"{name}: runtime {elapsed:.2f}s exceeded {budget:.0f}s")
    print(f"PASS {elapsed:6.2f}s {name}")


# -- 1. swap counterexample ----------------------------------------------------

def test_swap_counterexample_bit_for_bit():
    with criterion("swap counterexample: exact sums, L not<= U, no convergence", budget=1.0):
        f = LatticeFunction.swap()
        box = interval((0, 0), (1, 1))
        p = Partition((E(0, 0), E(1, 0), E(1, 1)), box)
        q = Partition((E(0, 0), E(0, 1), E(1, 1)), box)
        lower_p = darboux_sums(f, p).lower
        upper_q = darboux_sums(f, q).upper
        assert lower_p == E(0, 1)
        assert upper_q == E(1, 0)
        assert not lower_p.leq(upper_q)
        result = integrate(f, box, ToleranceSchedule(1e-6, 24))
        assert result.converged is False


# -- 2. totord dual construction -------------------------------------------------

def test_totord_dual_construction_agreement():
    with criterion("totord: lattice polynomial equals per-atom sort, 200 cases", budget=5.0):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dim = int(rng.integers(1, 7))
            size = int(rng.integers(1, 9))
            elems = [Element(rng.normal(size=dim)) for _ in range(size)]
            assert totord(elems) == totord_by_lattice_polynomial(elems)


# -- 3. monotone exact gap law ----------------------------------------------------

def test_monotone_exact_gap_law():
    with criterion("monotone gap law: U-L = (1/n)(b-a)(f(b)-f(a)) to 1e-12"):
        f = LatticeFunction.coordinatewise(ScalarKernel.identity(), dim=3)
        box = interval((0.0, -1.25, 0.5), (1.0, 2.75, 0.5))
        width = box.hi - box.lo
        span = f.eval(box.hi) - f.eval(box.lo)
        for n in (1, 2, 4, 8, 16):
            sums = darboux_sums(f, uniform(box, n))
            gap = sums.upper - sums.lower
            law = (1.0 / n) * (width * span)
            assert np.all(np.abs(gap.data - law.data) <= 1e-12)


# -- 4. oracle equivalence ---------------------------------------------------------

ORACLE_KERNELS = ["t", "t^2", "t^3", "sin(t)", "exp(t)", "3*t^2 - 2*t"]


def test_integrate_matches_scalar_oracle():
    with criterion("oracle equivalence: 20 cases vs adaptive Simpson", budget=30.0):
        rng = np.random.default_rng(777)
        sched = ToleranceSchedule(1e-6, 24)
        for case in range(20):
            dim = int(rng.integers(1, 4))
            sources = [ORACLE_KERNELS[int(rng.integers(0, len(ORACLE_KERNELS)))] for _ in range(dim)]
            lo = rng.uniform(-2.0, 1.0, dim)
            hi = lo + rng.uniform(0.1, 2.0, dim)
            f = LatticeFunction.coordinatewise(sources, dim=dim)
            result = integrate(f, interval(tuple(lo), tuple(hi)), sched)
            assert result.converged, (case, sources)
            for i, src in enumerate(sources):
                node = ex.parse(src)
                want = adaptive_simpson(lambda t: reference_eval(node, t), lo[i], hi[i], 1e-10)
                got = result.value[i]
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (case, src, got, want)


# -- 5. signed-integral laws --------------------------------------------------------

def test_signed_integral_laws():
    with criterion("signed laws: antisymmetry, zero at a=b, |signed| identity, 50 pairs"):
        rng = np.random.default_rng(31)
        f = LatticeFunction.coordinatewise(["t", "t^2", "t^3 - t"], dim=3)
        sched = ToleranceSchedule(1e-5, 20)
        for _ in range(50):
            a = Element(rng.uniform(-1.5, 1.5, 3))
            b = Element(rng.uniform(-1.5, 1.5, 3))
            ab = signed_integrate(f, a, b, sched)
            ba = signed_integrate(f, b, a, sched)
            assert ab.value == -1.0 * ba.value
            box = integrate(f, OrderInterval(a.inf(b), a.sup(b)), sched)
            assert abs(ab.value) == abs(box.value)
        x = Element(rng.uniform(-1, 1, 3))
        same = signed_integrate(f, x, x, sched)
        assert same.value == Element.zeros(3) and same.gap == Element.zeros(3)


# -- 6. FTC1 --------------------------------------------------------------------------

def test_ftc1_residuals():
    with criterion("FTC1: |F' - f| <= 1e-4 at 10 interior samples, dims 1-3"):
        sched = ToleranceSchedule(1e-5, 22)
        for dim in (1, 2, 3):
            box = interval((0.0,) * dim, (1.0,) * dim)
            for src in ("t^2", "sin(t)"):
                f = LatticeFunction.coordinatewise(src, dim=dim)
                report = verify_ftc1(f, box, interior_samples=10, tol=1e-4, seed=dim, sched=sched)
                assert report.passed, (dim, src, report.max_residual.to_json())


# -- 7. FTC2 --------------------------------------------------------------------------

def test_ftc2_residuals():
    with criterion("FTC2: |signed integral - (F(y)-F(x))| <= 1e-5 on 50 pairs"):
        box = interval((0, 0), (1, 1))
        F = LatticeFunction.coordinatewise("t^3/3", dim=2)
        f = LatticeFunction.coordinatewise("t^2", dim=2)
        report = verify_ftc2(F, f, box, samples=48, tol=1e-5, seed=5)
        assert report.passed, report.max_residual.to_json()
        # two pinned incomparable pairs complete the 50
        extra = verify_ftc2(
            F, f, box, tol=1e-5,
            pairs=[(E(1, 0), E(0, 1)), (E(0.75, 0.25), E(0.25, 0.75))],
        )
        assert extra.passed
        mixed = sum(
            1 for d in report.details
            if (d["x"][0] - d["y"][0]) * (d["x"][1] - d["y"][1]) < 0
        )
        assert mixed > 0


# -- 8. MVT for integrals ---------------------------------------------------------------

def test_mvt_for_integrals():
    with criterion("MVT: residual <= 1e-8, c in box, 50 pairs; c(t^2) near 3^-1/2"):
        rng = np.random.default_rng(4242)
        f = LatticeFunction.coordinatewise(["t^2", "t^3 - t"], dim=2)
        sched = ToleranceSchedule(1e-4, 18)
        for _ in range(50):
            x = Element(rng.uniform(-1.0, 2.0, 2))
            y = Element(rng.uniform(-1.0, 2.0, 2))
            c = mvt_integral_solve(f, x, y, tol=1e-10, sched=sched)
            assert x.inf(y).leq(c) and c.leq(x.sup(y))
            residual = abs((y - x) * f.eval(c) - signed_integrate(f, x, y, sched).value)
            assert np.all(residual.data <= 1e-8)
        fsq = LatticeFunction.coordinatewise("t^2", dim=2)
        c = mvt_integral_solve(fsq, E(0, 0), E(1, 1))
        assert np.all(np.abs(c.data - 3 ** (-0.5)) <= 1e-6)


# -- 9. substitution and by-parts ---------------------------------------------------------

def test_substitution_and_by_parts():
    with criterion("substitution and by-parts identities at 1e-5"):
        box = interval((0, 0), (1, 1))
        report = verify_substitution(
            LatticeFunction.coordinatewise("t^2", dim=2),
            LatticeFunction.coordinatewise("1", dim=2),
            LatticeFunction.coordinatewise("t + 1", dim=2),
            box,
            tol=1e-5,
        )
        assert report.passed
        assert report.details[0]["lhs"][0] == pytest.approx(7 / 3, abs=1e-5)
        report = verify_substitution(
            LatticeFunction.coordinatewise("t", dim=2),
            LatticeFunction.coordinatewise("2*t", dim=2),
            LatticeFunction.coordinatewise("t^2", dim=2),
            box,
            tol=1e-5,
        )
        assert report.passed
        f = LatticeFunction.coordinatewise("t", dim=2)
        g = LatticeFunction.coordinatewise("t^2/2", dim=2)
        report = verify_by_parts(f, g, f.derivative(), g.derivative(), box, tol=1e-5)
        assert report.passed
        assert report.details[0]["lhs"][0] == pytest.approx(1 / 3, abs=1e-5)
        f = LatticeFunction.coordinatewise("sin(t)", dim=2)
        g = LatticeFunction.coordinatewise("t", dim=2)
        report = verify_by_parts(f, g, f.derivative(), g.derivative(), box, tol=1e-5)
        assert report.passed


# -- 10. property suites ---------------------------------------------------------------------

def _random_partition(rng, box, max_interior=4):
    pts = [box.sample(rng) for _ in range(int(rng.integers(0, max_interior + 1)))]
    return Partition(tuple(totord([box.lo, box.hi, *pts])), box)


def test_property_suites():
    slack = 1e-12
    with criterion("properties: Darboux monotone under refinement, 100 cases"):
        rng = np.random.default_rng(11)
        f = LatticeFunction.coordinatewise(["t^2", "t^3 - t"], dim=2)
        box = interval((-1, -1), (1.5, 2))
        for _ in range(100):
            p = _random_partition(rng, box)
            q = common_refinement(p, _random_partition(rng, box))
            assert refines(p, q)
            sp, sq = darboux_sums(f, p), darboux_sums(f, q)
            assert np.all(sp.lower.data <= sq.lower.data + slack)
            assert np.all(sq.upper.data <= sp.upper.data + slack)

    with criterion("properties: sandwich L <= R <= U, 100 cases"):
        rng = np.random.default_rng(22)
        f = LatticeFunction.coordinatewise(["t^2", "t"], dim=2)
        box = interval((-1, 0), (1, 2))
        for k in range(100):
            p = _random_partition(rng, box)
            sums = darboux_sums(f, p)
            r = riemann_sum(f, tag(p, "random", seed=k))
            assert np.all(sums.lower.data <= r.data + slack)
            assert np.all(r.data <= sums.upper.data + slack)

    with criterion("properties: linearity, monotonicity, triangle, 100 cases"):
        rng = np.random.default_rng(33)
        sched = ToleranceSchedule(1e-4, 16)
        box = interval((-1, -1), (1, 1))
        for _ in range(100):
            c0 = rng.uniform(-2, 2)
            c1 = rng.uniform(-2, 2)
            fa = LatticeFunction.coordinatewise(f"{c0!r}*t^2 + {c1!r}*t", dim=2)
            gb = LatticeFunction.coordinatewise(f"{c1!r}*t^3 + {c0!r}", dim=2)
            fg = LatticeFunction.coordinatewise(
                f"{c0!r}*t^2 + {c1!r}*t + {c1!r}*t^3 + {c0!r}", dim=2
            )
            va = integrate(fa, box, sched).value
            vb = integrate(gb, box, sched).value
            vab = integrate(fg, box, sched).value
            tol = 4e-4 * (1 + np.abs(vab.data))
            assert np.all(np.abs(vab.data - (va + vb).data) <= tol)
            # monotonicity: f <= f + |c| + 1
            shift = abs(c0) + 1.0
            fshift = LatticeFunction.coordinatewise(
                f"{c0!r}*t^2 + {c1!r}*t + {shift!r}", dim=2
            )
            vs = integrate(fshift, box, sched).value
            assert np.all(va.data <= vs.data + 2e-4 * (1 + np.abs(vs.data)))
            # triangle: |integral| <= integral of |f|
            fabs_ = LatticeFunction.coordinatewise(
                f"abs({c0!r}*t^2 + {c1!r}*t)", dim=2
            )
            vabs = integrate(fabs_, box, sched).value
            assert np.all(np.abs(va.data) <= vabs.data + 2e-4 * (1 + np.abs(vabs.data)))

    with criterion("properties: band-mixing invariance, 500 triples"):
        rng = np.random.default_rng(44)
        f = LatticeFunction.coordinatewise(["t^2", "sin(t)", "exp(t)"], dim=3)
        box = interval((0, 0, 0), (1, 2, 1))
        for _ in range(500):
            x, y = box.sample(rng), box.sample(rng)
            band = Band(np.flatnonzero(rng.integers(0, 2, 3)), 3)
            mixed = band.project(x) + band.complement().project(y)
            assert band.project(f.eval(x)) == band.project(f.eval(mixed))


# -- 11. parser suites --------------------------------------------------------------------------

def test_parser_suites():
    with criterion("parser: 500 round-trips and 100 derivative-vs-FD checks"):
        rng = random.Random(90210)
        for _ in range(500):
            e = random_expr(rng, depth=5)
            assert ex.parse(ex.print_expr(e)) == e
        accepted = 0
        attempts = 0
        h = 1e-6
        while accepted < 100 and attempts < 5000:
            attempts += 1
            e = random_expr(rng, depth=4, smooth_only=True)
            t = rng.uniform(-2.0, 2.0)
            if abs(t) < 0.05:
                continue
            try:
                d = ex.differentiate(e)
                f_lo, f_hi = reference_eval(e, t - h), reference_eval(e, t + h)
                sym = reference_eval(d, t)
            except (ex.EvalDomainError, ex.NonDifferentiableError):
                continue
            if max(abs(f_lo), abs(f_hi), abs(sym)) > 1e4:
                continue
            fd = (f_hi - f_lo) / (2.0 * h)
            assert abs(fd - sym) <= 1e-6 * (1.0 + abs(sym))
            accepted += 1
        assert accepted == 100
